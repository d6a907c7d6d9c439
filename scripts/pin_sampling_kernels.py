#!/usr/bin/env python3
"""Digests of the sampling kernels on seeded random stacks.

For each register size of 1 to 6 qubits, one stack of 24 random
normalised rows (every other row with about 60% of its amplitudes zeroed,
so some branches have probability zero) is measured by `measure_z`,
`measure_x` and `adversary.eve_measure_ancilla` on every qubit and by
`measure_bell` on every ordered pair, each call with fresh uniforms from a
fixed generator. A (kernel, size) digest is the sha256 of the outcome
codes and the post-measurement amplitudes of all its calls, each array
with its dtype and shape. Prints the digests as JSON; run with --write to
refresh tests/data/sampling_kernel_digests.json, which the tests check,
after an intentional change of the kernels.
"""
import argparse
import hashlib
import json
from itertools import permutations
from pathlib import Path

import numpy as np

from ghzqdc.adversary import eve_measure_ancilla
from ghzqdc.statevector import make_state, measure_bell, measure_x, measure_z

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "data" / "sampling_kernel_digests.json"

SEED = 20210
ROWS = 24
SIZES = range(1, 7)
KERNELS = {
    "measure_z": (measure_z, 1),
    "measure_x": (measure_x, 1),
    "measure_bell": (measure_bell, 2),
    "eve_measure_ancilla": (eve_measure_ancilla, 1),
}


def random_stack(n: int):
    """ROWS normalised random rows over n qubits, every other one sparse."""
    rng = np.random.default_rng([SEED, n])
    amps = rng.normal(size=(ROWS, 2**n)) + 1j * rng.normal(size=(ROWS, 2**n))
    sparse = np.arange(ROWS) % 2 == 1
    amps[sparse] *= rng.random((int(sparse.sum()), 2**n)) >= 0.6
    amps[sparse, rng.integers(2**n)] += 1.0
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return make_state(amps)


def _feed(digest, value: np.ndarray) -> None:
    digest.update(f"{value.dtype.str}{value.shape}".encode("ascii"))
    digest.update(np.ascontiguousarray(value).tobytes())


def kernel_digest(name: str, n: int) -> str:
    kernel, arity = KERNELS[name]
    state = random_stack(n)
    urng = np.random.default_rng([SEED, n, len(name)])
    digest = hashlib.sha256()
    for qubits in permutations(range(n), arity):
        outcomes, after = kernel(state, *qubits, urng.random(ROWS))
        _feed(digest, outcomes)
        _feed(digest, after)
    return digest.hexdigest()


def digests() -> dict[str, str]:
    """The digest of every kernel on every register size it can measure."""
    return {
        f"{name}/{n}": kernel_digest(name, n)
        for name, (_, arity) in KERNELS.items()
        for n in SIZES
        if n >= arity
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help=f"rewrite {FIXTURE.name}")
    args = parser.parse_args()
    text = json.dumps(digests(), indent=2) + "\n"
    if args.write:
        FIXTURE.write_text(text, encoding="ascii")
        print(f"wrote {FIXTURE}")
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
