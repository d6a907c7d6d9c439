#!/usr/bin/env python3
"""Digests of the session engine's branch tables over a fixed grid.

The grid is both protocol variants x all six measurement orders x the
attacks: none, and each of a CNOT, a general attack with complex
amplitudes, a z intercept and an x intercept on four channel subsets at
coverage 0.5 and 1 (396 tables). A table's digest is the sha256 of every
array of `protocol.branch_table`, with its dtype and shape, in field
order. Prints the digests as JSON; run with --write to refresh
tests/data/branch_table_digests.json, which the tests check, after an
intentional change of the table.
"""
import argparse
import dataclasses
import hashlib
import json
from itertools import permutations
from pathlib import Path

import numpy as np

from ghzqdc.adversary import NO_ATTACK, AttackModel, Channel
from ghzqdc.protocol import branch_table

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "data" / "branch_table_digests.json"

VARIANTS = ("qdc1", "qdc2")
ORDERS = tuple(permutations(("bob", "trent", "eve")))
CHANNEL_SUBSETS = (
    ("trent-alice",),
    ("trent-bob", "alice-bob"),
    ("alice-trent",),
    ("trent-alice", "trent-bob", "alice-bob", "alice-trent"),
)
COVERAGES = (0.5, 1.0)
ATTACKS = {
    "cnot": lambda channels, coverage: AttackModel("entangle-cnot", channels, coverage),
    "general_complex": lambda channels, coverage: AttackModel(
        "entangle-general", channels, coverage, alpha=0.8j, beta=0.6, alpha_p=0.8, beta_p=-0.6j),
    "intercept_z": lambda channels, coverage: AttackModel("intercept", channels, coverage, "z"),
    "intercept_x": lambda channels, coverage: AttackModel("intercept", channels, coverage, "x"),
}


def attacks() -> dict:
    """Every attack of the grid, by name."""
    out = {"none": NO_ATTACK}
    for name, make in ATTACKS.items():
        for channels in CHANNEL_SUBSETS:
            for coverage in COVERAGES:
                model = make({Channel(c) for c in channels}, coverage)
                out[f"{name}/{','.join(channels)}/{coverage}"] = model
    return out


def _feed(digest, value) -> None:
    """Hash `value`: arrays by dtype, shape and bytes; dataclasses and tuples field by field."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode("ascii"))
        digest.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _feed(digest, getattr(value, f.name))
    elif isinstance(value, tuple):
        digest.update(f"({len(value)}".encode("ascii"))
        for item in value:
            _feed(digest, item)
    else:
        digest.update(repr(value).encode("ascii"))


def table_digest(variant: str, order: tuple[str, str, str], attack) -> str:
    digest = hashlib.sha256()
    _feed(digest, branch_table(variant, order, attack))
    return digest.hexdigest()


def digests() -> dict[str, str]:
    """The digest of every table of the grid, keyed variant/order/attack."""
    return {
        f"{variant}/{'-'.join(order)}/{name}": table_digest(variant, order, attack)
        for variant in VARIANTS
        for order in ORDERS
        for name, attack in attacks().items()
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
