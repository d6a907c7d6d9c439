"""Independent brute-force helpers used as test oracles.

Everything here is computed from scratch with full 2^n x 2^n matrices and
explicit projectors, deliberately avoiding the library's tensor-network
code paths, so the two routes can check each other. A few fixtures ride
along: a basis-state constructor, a global-phase comparison, a hash stub and
a loader for the repository's scripts.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path
from types import ModuleType

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


def x_proj(q: int, outcome: str, n: int = 3) -> np.ndarray:
    """Projector onto an x outcome ("plus" or "minus") of qubit q."""
    return single_qubit_projector(X_VEC[outcome], q, n)


def bell_proj(q1: int, q2: int, outcome: str, n: int = 3) -> np.ndarray:
    """Projector onto a Bell outcome (a key of BELL) of the pair (q1, q2)."""
    return pair_projector(BELL[outcome], q1, q2, n)


def _vec(state) -> np.ndarray:
    """A one-row register stack, or an amplitude vector, as 1-D."""
    return np.ravel(state)


def prob(state, projector: np.ndarray) -> float:
    state = _vec(state)
    return float(np.real(np.vdot(state, projector @ state)))


def collapse(state, projector: np.ndarray) -> tuple[float, np.ndarray | None]:
    p = prob(state, projector)
    if p < 1e-12:
        return p, None
    v = projector @ _vec(state)
    return p, v / np.linalg.norm(v)


def basis_state(bits: str):
    """Computational basis state |bits>, e.g. basis_state("010"), as a one-row register stack."""
    from ghzqdc.statevector import make_state

    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return make_state(amps)


def states_equal_up_to_global_phase(a, b, tol: float = 1e-9) -> bool:
    """True when two normalised states (register stacks or amplitude vectors)
    differ row by row only by a global phase."""
    va, vb = (np.atleast_2d(s) for s in (a, b))
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


def embed_2q(matrix: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    """Full 2^n matrix applying a 4x4 matrix to the ordered pair (q1, q2),
    pair index 2*bit(q1) + bit(q2), identity elsewhere."""
    s1, s2 = n - 1 - q1, n - 1 - q2
    out = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(2**n):
        rest = i & ~(1 << s1) & ~(1 << s2)
        for j in range(4):
            col = 2 * (i >> s1 & 1) + (i >> s2 & 1)
            out[rest | (j >> 1) << s1 | (j & 1) << s2, i] = matrix[j, col]
    return out


class BranchTableOracle:
    """Walks every node of a `protocol.BranchTable` a row can reach and holds
    each node's probabilities to brute-force projectors on the full register.

    The register is (A, T, B) plus one ancilla per entangling crossing,
    built with Kronecker products and full 2^n matrices. At coverage 1
    Eve hits every transmission of a targeted channel, so only hit
    branches are walked. `nodes` counts the measurement nodes checked.
    """

    def __init__(self, table, variant: str, attack, atol: float):
        from ghzqdc.adversary import AttackVariant

        self.table, self.variant, self.attack, self.atol = table, variant, attack, atol
        self.intercept = attack.variant == AttackVariant.INTERCEPT_RESEND
        self.nodes = 0
        self._projectors: dict = {}

    def projectors(self, kind: str, qubits: tuple[int, ...], n: int) -> list[np.ndarray]:
        from ghzqdc.statevector import BELL_OUTCOMES, X_OUTCOMES

        key = (kind, qubits, n)
        if key not in self._projectors:
            if kind == "z":
                self._projectors[key] = [z_proj(*qubits, b, n) for b in (0, 1)]
            elif kind == "x":
                self._projectors[key] = [x_proj(*qubits, o, n) for o in X_OUTCOMES]
            else:
                self._projectors[key] = [bell_proj(*qubits, o, n) for o in BELL_OUTCOMES]
        return self._projectors[key]

    def measure(self, step, node, v, kind, qubits):
        """Check one measurement node; yield (child node, collapsed vector) per reachable branch."""
        n = int(np.log2(len(v)))
        assert step.acts[node]
        projectors = self.projectors(kind, qubits, n)
        want = [prob(v, proj) for proj in projectors]
        got = step.probs[node]
        assert np.allclose(got, want, rtol=0, atol=self.atol), (got, want)
        assert abs(got.sum() - 1.0) <= self.atol
        self.nodes += 1
        for k, proj in enumerate(projectors):
            if step.child[node, k] < 0:
                assert want[k] < 1e-9
                continue
            yield int(step.child[node, k]), collapse(v, proj)[1]

    def cross(self, crossing, channel, qubit, node, v, slots):
        """Every (node, vector, attached slots) after `qubit` crosses `channel`."""
        if not self.attack.targets(channel):
            assert crossing == ()
            yield node, v, slots
            return
        hits, intercept = (crossing + (None,))[:2]
        for hit in (1,) if self.attack.coverage == 1.0 else (0, 1):
            nxt = int(hits[node, hit])
            if not self.intercept:
                n = int(np.log2(len(v)))
                w = np.kron(v, self.attack.ancilla)
                if hit:
                    w = embed_2q(self.attack.unitary, qubit, n, n + 1) @ w
                yield nxt, w, slots + (hit,)
            elif hit:
                basis = self.attack.intercept_basis
                for child, w in self.measure(intercept, nxt, v, basis, (qubit,)):
                    yield child, w, slots
            else:  # the node passes the intercept unmeasured
                assert not intercept.acts[nxt]
                yield int(intercept.child[nxt, 0]), v, slots

    def auth_ends(self):
        """Every (node, vector, attached slots) a row reaches after the owners' decoding."""
        from ghzqdc.adversary import Channel

        for code in range(4):
            n_a, n_b = (M_H if code >> 1 else M_I), (M_H if code & 1 else M_I)
            keyed = np.kron(np.kron(n_a, M_I), n_b)
            states = [(int(self.table.keyed[0, code]), keyed @ ghz3(), ())]
            for crossing, channel, qubit in zip(
                self.table.legs, (Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB), (0, 2)
            ):
                states = [s for node, v, slots in states
                          for s in self.cross(crossing, channel, qubit, node, v, slots)]
            for node, v, slots in states:
                n = int(np.log2(len(v)))
                yield node, embed_1q(n_a, 0, n) @ embed_1q(n_b, 2, n) @ v, slots

    def check_from(self, node, v, slots) -> None:
        """Check the auth checks and the whole message phase from one auth-end node."""
        from ghzqdc.protocol import message_channel

        level = [(node, v)]
        for step, qubit in zip(self.table.checks, (0, 2, 1)):
            level = [c for nd, w in level for c in self.measure(step, nd, w, "z", (qubit,))]
        honest = {  # the measured qubits of each basis: Bob's and Trent's, by variant
            ("bell", "qdc1"): (0, 2), ("x", "qdc1"): (1,),
            ("bell", "qdc2"): (0, 1), ("x", "qdc2"): (2,),
        }
        channel = message_channel(self.variant)
        for bit in (0, 1):
            n = int(np.log2(len(v)))
            sent = embed_1q(M_HX if bit else M_H, 0, n) @ v
            encoded = int(self.table.encode[node, bit])
            for nd, w, attached in self.cross(self.table.send, channel, 0, encoded, sent, slots):
                assert self.table.attached[nd].tolist() == [bool(h) for h in attached]
                level = [(nd, w)]
                slot = 0
                for basis, step in self.table.measure:
                    if basis != "eve":
                        qubits = honest[basis, self.variant]
                        level = [c for x, y in level
                                 for c in self.measure(step, x, y, basis, qubits)]
                        continue
                    if attached[slot]:
                        level = [c for x, y in level
                                 for c in self.measure(step, x, y, "z", (3 + slot,))]
                    else:  # every node passes unmeasured
                        assert not any(step.acts[x] for x, _ in level)
                        level = [(int(step.child[x, 0]), y) for x, y in level]
                    slot += 1

    def check(self) -> int:
        for node, v, slots in self.auth_ends():
            self.check_from(node, v, slots)
        return self.nodes


def attack_draws_per_transmission(model, channels, rows: int, eve_rng):
    """`adversary.attack_draws` as per-transmission hooks read Eve's generator:
    for each row, then each channel Eve targets, one coverage variate when
    coverage < 1, then one measurement uniform if an intercept attacks."""
    from ghzqdc.adversary import AttackVariant

    hit = np.zeros((rows, len(channels)), dtype=bool)
    u = np.zeros(hit.shape)
    for row in range(rows):
        for j, channel in enumerate(channels):
            if not model.targets(channel):
                continue
            if model.coverage < 1.0 and eve_rng.random() >= model.coverage:
                continue
            hit[row, j] = True
            if model.variant == AttackVariant.INTERCEPT_RESEND:
                u[row, j] = eve_rng.random()
    return hit, u


def check_errors(checks: np.ndarray) -> list[bool]:
    """Whether each row of a session's `checks` (position, a, b, z_A, z_T, z_B)
    is a check error: the three z outcomes are not all equal."""
    return [not za == zt == zb for _, _, _, za, zt, zb in checks.tolist()]


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


# Codeword width n and data width k of each codec name.
CODEC_WIDTHS = {"none": (1, 1), "rep3": (3, 1), "rep5": (5, 1), "hamming74": (7, 4)}


def check_and_deliver(decoded: str, sent: str, is_check: list[bool], threshold: float,
                      codec: str, message: str) -> tuple[str, int, int, str | None, bool]:
    """One trial's message phase verdict from text: (verdict, check errors,
    corrected bits, delivered message or None, delivered_ok).

    `decoded` and `sent` are Bob's and Alice's bits at the used positions,
    `is_check` marks the check positions and the rest carry the frame: an
    8-bit pad header, then codewords, decoded one by one with `h74_decode`
    or a majority vote of the word's text.
    """
    pairs = [(d, s) for d, s, check in zip(decoded, sent, is_check) if check]
    errors = sum(d != s for d, s in pairs)
    if pairs and errors / len(pairs) > threshold:
        return "message_discarded", errors, 0, None, False
    frame = "".join(d for d, check in zip(decoded, is_check) if not check)
    n, k = CODEC_WIDTHS[codec]
    pad, words = int(frame[:8], 2), [frame[i:i + n] for i in range(8, len(frame), n)]
    if codec == "hamming74":
        blocks = [h74_decode(word) for word in words]
    else:
        blocks = [("1" if 2 * word.count("1") > n else "0", min(word.count("0"), word.count("1")))
                  for word in words]
    data = "".join(bits for bits, _ in blocks)
    if pad >= k or pad > len(data):
        return "message_discarded", errors, 0, None, False
    delivered = data[:len(data) - pad]
    return "message_delivered", errors, sum(c for _, c in blocks), delivered, delivered == message


# ---------------------------------------------------------------------------
# Reference Monte Carlo loop: one session per trial, hand-written counters.


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniformly random bits as a uint8 array, from one integers() draw (test keys)."""
    return rng.integers(0, 2, size=n).astype(np.uint8)


def drawn_bits(rng: np.random.Generator, length: int) -> np.ndarray:
    """`length` bits from one `bytes` draw, most significant bit first."""
    return np.unpackbits(np.frombuffer(rng.bytes((length + 7) // 8), dtype=np.uint8))[:length]


def trial_keys(keys_rng: np.random.Generator, n: int):
    """A trial's two keys, drawn alone: Alice's 128-bit identity, then Bob's,
    from one 32-byte draw, each derived to n bits."""
    from ghzqdc.authkeys import derive_key
    from ghzqdc.ecc import format_bits

    ids = drawn_bits(keys_rng, 256)
    return tuple(derive_key(format_bits(half), needed=n) for half in (ids[:128], ids[128:]))


def trial_seed(seed: int, index: int) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """Trial `index`'s (key material, session) SeedSequence pair, from numpy
    itself: the chain `ghzqdc.seeds` derives as arrays."""
    return tuple(np.random.SeedSequence((seed, index)).spawn(2))


def reference_run(spec):
    """The report `harness.run(spec)` must reproduce, built trial by trial.

    Each trial spawns its seeds with numpy's own SeedSequence (not
    `ghzqdc.seeds`), derives its keys, draws its message, runs
    one session with `run_session` and adds its outcome to plain counters,
    the way the harness did before it ran trials in chunks.
    """
    from dataclasses import replace

    from ghzqdc.adversary import attack_to_dict
    from ghzqdc.ecc import parse_bits
    from ghzqdc.harness import RunReport, _analytic_references, _normalize_eve_counts
    from ghzqdc.protocol import VERDICTS, run_session

    per_trial: list[dict] = []
    verdict_counts = {v: 0 for v in VERDICTS}
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
        alice_key, bob_key = trial_keys(keys_rng, spec.config.n_ghz)
        message = pinned
        if message is None and spec.message_bits is not None:
            message = drawn_bits(keys_rng, spec.message_bits)
        session_seed = int(session_ss.generate_state(1, dtype=np.uint64)[0])
        config = replace(spec.config, rng_seed=session_seed)
        res = run_session(config, alice_key, bob_key, message, spec.attack)
        if res.eve_msg is not None:
            seen = res.eve_msg >= 0
            for bit, outcome in zip(res.plan.bits[seen].tolist(), res.eve_msg[seen].tolist()):
                eve_counts[str(bit)][str(outcome)] += 1

        verdict_counts[res.auth_verdict] += 1
        if res.msg is not None:
            verdict_counts[res.msg.verdict] += 1
        trial_errors = check_errors(res.checks)
        for (_, a, b, *_), err in zip(res.checks.tolist(), trial_errors):
            auth_checked += 1
            auth_errors += err
            auth_err_by_alice_bit[a][0] += err
            auth_err_by_alice_bit[a][1] += 1
            auth_err_by_bob_bit[b][0] += err
            auth_err_by_bob_bit[b][1] += 1
        if res.auth_verdict == "auth_aborted":
            detected += 1
        msg_result = res.msg
        msg_errors += msg_result.errors if msg_result else 0
        msg_checked += msg_result.checked if msg_result else 0
        ok = bool(msg_result and msg_result.message is not None
                  and np.array_equal(msg_result.message, message))
        if message is not None:
            attempted += 1
            if msg_result and msg_result.verdict == "message_delivered":
                delivered += 1
                if ok:
                    delivered_ok += 1
        per_trial.append(
            {
                "trial": t,
                "auth_verdict": res.auth_verdict,
                "auth_errors": sum(trial_errors),
                "auth_checked": len(trial_errors),
                "msg_verdict": msg_result.verdict if msg_result else None,
                "msg_errors": msg_result.errors if msg_result else 0,
                "msg_checked": msg_result.checked if msg_result else 0,
                "delivered_ok": ok if message is not None else None,
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
    return RunReport(
        spec={
            "config": spec.config.to_dict(),
            "attack": attack_to_dict(spec.attack),
            "trials": spec.trials,
            "seed": spec.seed,
            "message_bits": spec.message_bits,
            "message": spec.message,
        },
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


def load_script(relative_path: str) -> ModuleType:
    """The module of a file outside the package, such as "scripts/pin_golden_reports.py",
    loaded from its path relative to the repository root."""
    path = Path(__file__).parent.parent / relative_path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
