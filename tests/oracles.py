"""Independent brute-force helpers used as test oracles.

Everything here is computed from scratch with full 2^n x 2^n matrices and
explicit projectors, deliberately avoiding the library's tensor-network
code paths, so the two routes can check each other. A few fixtures ride
along: a basis-state constructor, a global-phase comparison and a hash stub.
"""
from __future__ import annotations

import numpy as np

INV_SQRT2 = 1.0 / np.sqrt(2.0)

M_I = np.eye(2, dtype=complex)
M_H = np.array([[1, 1], [1, -1]], dtype=complex) * INV_SQRT2
M_X = np.array([[0, 1], [1, 0]], dtype=complex)
M_HX = M_H @ M_X

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = (KET0 + KET1) * INV_SQRT2
KET_MINUS = (KET0 - KET1) * INV_SQRT2

BELL = {
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) * INV_SQRT2,
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) * INV_SQRT2,
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) * INV_SQRT2,
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) * INV_SQRT2,
}

X_VEC = {"plus": KET_PLUS, "minus": KET_MINUS}
Z_VEC = {0: KET0, 1: KET1}

# The paper's decoding table, keyed by (Bell outcome, x outcome): qdc1 pairs
# Bob's Bell outcome on (A, B) with Trent's x on T, qdc2 Trent's Bell outcome
# on (A, T) with Bob's x on B. Trent publishes 0 for Phi+/Psi-, 1 for Phi-/Psi+.
DECODE = {
    ("phi_plus", "plus"): 1, ("phi_plus", "minus"): 0,
    ("phi_minus", "plus"): 0, ("phi_minus", "minus"): 1,
    ("psi_plus", "plus"): 0, ("psi_plus", "minus"): 1,
    ("psi_minus", "plus"): 1, ("psi_minus", "minus"): 0,
}
TRENT_BIT = {"phi_plus": 0, "phi_minus": 1, "psi_plus": 1, "psi_minus": 0}


def ghz3() -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[0b000] = INV_SQRT2
    v[0b111] = INV_SQRT2
    return v


def embed_1q(matrix: np.ndarray, target: int, n: int) -> np.ndarray:
    """Full 2^n matrix applying a single-qubit gate at qubit `target`
    (qubit 0 = most significant index bit)."""
    out = np.array([[1.0]], dtype=complex)
    for q in range(n):
        out = np.kron(out, matrix if q == target else M_I)
    return out


def single_qubit_projector(vec: np.ndarray, target: int, n: int) -> np.ndarray:
    return embed_1q(np.outer(vec, vec.conj()), target, n)


def pair_projector(vec4: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    """Projector |v><v| on the ordered pair (q1, q2), identity elsewhere.

    Built by summing over computational components so arbitrary (possibly
    swapped) qubit orders are handled.
    """
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    amp = {}
    for i in range(dim):
        b1 = (i >> (n - 1 - q1)) & 1
        b2 = (i >> (n - 1 - q2)) & 1
        amp[i] = vec4[2 * b1 + b2]
    ket = np.zeros(dim, dtype=complex)
    # |v x I| = sum over the "rest" bit patterns of |v, rest><v, rest|
    rest_positions = [q for q in range(n) if q not in (q1, q2)]
    for rest in range(2 ** len(rest_positions)):
        ket[:] = 0
        for pair_idx in range(4):
            b1, b2 = pair_idx >> 1, pair_idx & 1
            i = 0
            for pos, q in enumerate(rest_positions):
                i |= ((rest >> (len(rest_positions) - 1 - pos)) & 1) << (n - 1 - q)
            i |= b1 << (n - 1 - q1)
            i |= b2 << (n - 1 - q2)
            ket[i] = vec4[pair_idx]
        out += np.outer(ket, ket.conj())
    return out


def z_proj(q: int, bit: int, n: int = 3) -> np.ndarray:
    return single_qubit_projector(Z_VEC[bit], q, n)


def x_proj(q: int, outcome, n: int = 3) -> np.ndarray:
    """Projector onto an x outcome (an XOutcome, read by value) of qubit q."""
    return single_qubit_projector(X_VEC[outcome.value], q, n)


def bell_proj(q1: int, q2: int, outcome, n: int = 3) -> np.ndarray:
    """Projector onto a Bell outcome (a BellOutcome, read by value) of the pair (q1, q2)."""
    return pair_projector(BELL[outcome.value], q1, q2, n)


def _vec(state) -> np.ndarray:
    """A one-row PureState's amplitudes, or an amplitude vector, as 1-D."""
    return np.ravel(getattr(state, "amplitudes", state))


def prob(state, projector: np.ndarray) -> float:
    state = _vec(state)
    return float(np.real(np.vdot(state, projector @ state)))


def collapse(state, projector: np.ndarray) -> tuple[float, np.ndarray | None]:
    p = prob(state, projector)
    if p < 1e-12:
        return p, None
    v = projector @ _vec(state)
    return p, v / np.linalg.norm(v)


def basis_state(bits: str, labels=None):
    """Computational basis state |bits>, e.g. basis_state("010"), as a one-row PureState."""
    from ghzqdc.statevector import make_state

    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return make_state(amps, labels or tuple(f"q{i}" for i in range(len(bits))))


def states_equal_up_to_global_phase(a, b, tol: float = 1e-9) -> bool:
    """True when two normalised states (PureStates or amplitude arrays) differ
    row by row only by a global phase."""
    va, vb = (np.atleast_2d(getattr(s, "amplitudes", s)) for s in (a, b))
    if va.shape != vb.shape:
        return False
    overlap = np.abs(np.einsum("ij,ij->i", va.conj(), vb))
    return bool(np.all(np.abs(overlap - 1.0) <= tol))


def bell_x_joint(state8: np.ndarray, bell_pair=(0, 2), x_qubit=1) -> dict:
    """Exact joint distribution of (Bell outcome on the pair, x outcome).

    The two projectors act on disjoint qubits, so their product is itself
    a projector and <psi| Px Pb |psi> is the joint probability.
    """
    out = {}
    for bname, bvec in BELL.items():
        pb = pair_projector(bvec, bell_pair[0], bell_pair[1], 3)
        for xname, xvec in X_VEC.items():
            px = single_qubit_projector(xvec, x_qubit, 3)
            out[(bname, xname)] = prob(state8, px @ pb)
    return out


def joint_prob(state: np.ndarray, projectors: list[np.ndarray]) -> float:
    """Probability of seeing every projector in sequence (they commute in
    our uses, but sequential collapse is the general definition)."""
    v = state
    p_total = 1.0
    for proj in projectors:
        p, v = collapse(v, proj)
        p_total *= p
        if v is None:
            return 0.0
    return p_total


class PatternHash:
    """Key-derivation hash stub: repeats a fixed pattern to `output_bits`, ignoring its inputs."""

    def __init__(self, pattern: str = "0110", output_bits: int = 8):
        self.pattern = np.array([int(b) for b in pattern], dtype=np.uint8)
        self.output_bits = output_bits

    def __call__(self, id_bits: str, counter_bits: str) -> np.ndarray:
        return np.resize(self.pattern, self.output_bits)


# Hamming(7,4) oracle via generator / parity-check matrices over GF(2).
# Data word d maps to codeword d @ G; syndrome of word w is w @ H^T read
# as the 1-indexed error position.
H74_G = np.array(
    [
        [1, 1, 1, 0, 0, 0, 0],
        [1, 0, 0, 1, 1, 0, 0],
        [0, 1, 0, 1, 0, 1, 0],
        [1, 1, 0, 1, 0, 0, 1],
    ],
    dtype=np.int64,
)
H74_H = np.array(
    [
        [1, 0, 1, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ],
    dtype=np.int64,
)


def h74_encode(data4: str) -> str:
    d = np.array([int(b) for b in data4], dtype=np.int64)
    c = d @ H74_G % 2
    return "".join(str(int(b)) for b in c)


def h74_decode(word7: str) -> tuple[str, int]:
    w = np.array([int(b) for b in word7], dtype=np.int64)
    syndrome = H74_H @ w % 2
    pos = int(syndrome[0] + 2 * syndrome[1] + 4 * syndrome[2])
    fixed = 0
    if pos:
        w[pos - 1] ^= 1
        fixed = 1
    return f"{w[2]}{w[4]}{w[5]}{w[6]}", fixed


# ---------------------------------------------------------------------------
# Reference Monte Carlo loop: one session per trial, hand-written counters.


def reference_run(spec):
    """The report `harness.run(spec)` must reproduce, built trial by trial.

    Each trial spawns its seeds, derives its keys, draws its message, runs
    one session with `run_session` and adds its outcome to plain counters,
    the way the harness did before it ran trials in chunks.
    """
    from dataclasses import replace

    from ghzqdc.adversary import attack_to_dict
    from ghzqdc.ecc import parse_bits
    from ghzqdc.harness import (
        RunReport,
        _analytic_references,
        _derive_trial_keys,
        _normalize_eve_counts,
        _random_bits,
        trial_seed,
    )
    from ghzqdc.protocol import Verdict, run_session

    per_trial: list[dict] = []
    verdict_counts = {v.value: 0 for v in Verdict}
    auth_errors = auth_checked = 0
    auth_err_by_alice_bit = {0: [0, 0], 1: [0, 0]}  # bit -> [errors, total]
    auth_err_by_bob_bit = {0: [0, 0], 1: [0, 0]}
    detected = 0
    msg_errors = msg_checked = 0
    delivered = delivered_ok = attempted = 0
    eve_counts = {"0": {"0": 0, "1": 0}, "1": {"0": 0, "1": 0}}

    pinned = None if spec.message is None else parse_bits(spec.message)
    for t in range(spec.trials):
        keys_ss, session_ss = trial_seed(spec.seed, t)
        keys_rng = np.random.default_rng(keys_ss)
        alice_key, bob_key = _derive_trial_keys(keys_rng, spec.config.n_ghz)
        message = pinned
        if message is None and spec.message_bits is not None:
            message = _random_bits(keys_rng, spec.message_bits)
        session_seed = int(session_ss.generate_state(1, dtype=np.uint64)[0])
        config = replace(spec.config, rng_seed=session_seed)
        res = run_session(config, alice_key, bob_key, message, spec.attack)
        for bit, outcome in res.eve_observations:
            eve_counts[str(bit)][str(outcome)] += 1

        verdict_counts[res.auth_verdict.value] += 1
        if res.msg is not None:
            verdict_counts[res.msg.verdict.value] += 1
        for check in res.auth_checks:
            auth_checked += 1
            err = 1 if check.error else 0
            auth_errors += err
            auth_err_by_alice_bit[check.alice_key_bit][0] += err
            auth_err_by_alice_bit[check.alice_key_bit][1] += 1
            auth_err_by_bob_bit[check.bob_key_bit][0] += err
            auth_err_by_bob_bit[check.bob_key_bit][1] += 1
        if res.auth_verdict is Verdict.AUTH_ABORTED:
            detected += 1
        msg_result = res.msg
        msg_errors += msg_result.errors if msg_result else 0
        msg_checked += msg_result.checked if msg_result else 0
        if message is not None:
            attempted += 1
            if msg_result and msg_result.verdict is Verdict.MESSAGE_DELIVERED:
                delivered += 1
                if res.delivered_ok:
                    delivered_ok += 1
        per_trial.append(
            {
                "trial": t,
                "auth_verdict": res.auth_verdict.value,
                "auth_errors": sum(1 for c in res.auth_checks if c.error),
                "auth_checked": len(res.auth_checks),
                "msg_verdict": msg_result.verdict.value if msg_result else None,
                "msg_errors": msg_result.errors if msg_result else 0,
                "msg_checked": msg_result.checked if msg_result else 0,
                "delivered_ok": res.delivered_ok if message is not None else None,
            }
        )

    def rate(errors, total):
        return errors / total if total else 0.0

    auth = {
        "check_bits": auth_checked,
        "errors": auth_errors,
        "error_rate": rate(auth_errors, auth_checked),
        "error_rate_by_alice_key_bit": {
            str(b): rate(*auth_err_by_alice_bit[b]) for b in (0, 1)
        },
        "error_rate_by_bob_key_bit": {str(b): rate(*auth_err_by_bob_bit[b]) for b in (0, 1)},
        "detection_rate": rate(detected, spec.trials),
    }
    message_stats = {
        "check_bits": msg_checked,
        "errors": msg_errors,
        "error_rate": rate(msg_errors, msg_checked),
        "attempted": attempted,
        "delivered": delivered,
        "delivery_fidelity": rate(delivered_ok, delivered) if delivered else 0.0,
    }
    spec_echo = {
        "config": spec.config.to_dict(),
        "attack": attack_to_dict(spec.attack),
        "trials": spec.trials,
        "seed": spec.seed,
        "message_bits": spec.message_bits,
        "message": spec.message,
    }
    return RunReport(
        spec_echo=spec_echo,
        seed=spec.seed,
        trials=spec.trials,
        verdicts=verdict_counts,
        per_trial=per_trial,
        auth=auth,
        message=message_stats,
        eve=_normalize_eve_counts(eve_counts),
        analytic=_analytic_references(spec),
    )


def reference_sweep(base, m_values):
    """The report `harness.sweep_detection_curve` must reproduce: one full
    `harness.run` per m, the way the sweep ran before trials shared their
    keys, message and seed across rows."""
    from dataclasses import replace

    from ghzqdc.harness import SweepReport, run

    surplus = base.config.n_ghz - base.config.m_auth_check
    report = SweepReport(seed=base.seed, trials=base.trials)
    for m in m_values:
        config = replace(base.config, m_auth_check=m, n_ghz=m + surplus)
        result = run(replace(base, config=config))
        report.rows.append(
            {
                "m": m,
                "trials": base.trials,
                "empirical_detection_rate": result.auth["detection_rate"],
                "analytic_detection_rate": result.analytic.get("auth_detection_rate"),
            }
        )
    return report
