"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line with the measured values once its
assertions hold (visible with pytest -v -s or in captured output).
All randomness is seeded, so a passing suite is a stable fact.
"""
import itertools
from dataclasses import replace

import numpy as np
import pytest

from ghzqdc.adversary import AttackModel, Channel
from ghzqdc.authkeys import AuthKey
from ghzqdc.ecc import Codec, decode as ecc_decode, encode as ecc_encode, format_bits, parse_bits
from ghzqdc.harness import RunSpec, detection_rate_reference, run, sweep_detection_curve
from ghzqdc.protocol import SessionConfig, run_session, _decode
from ghzqdc.statevector import (
    ATOL,
    BELL_OUTCOMES,
    X_OUTCOMES,
    H,
    HX,
    append_qubit,
    apply_gate,
    apply_two_qubit,
    make_state,
    measure_bell,
    measure_x,
    new_ghz3,
)

import oracles
from oracles import random_bits, states_equal_up_to_global_phase

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def report(name: str, detail: str) -> None:
    print(f"PASS  {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. Honest end-to-end delivery, both protocol variants


@pytest.mark.parametrize("variant", ["qdc1", "qdc2"])
def test_01_honest_end_to_end(variant):
    config = SessionConfig(
        n_ghz=128,
        m_auth_check=16,
        check_fraction_msg=0.25,
        protocol_variant=variant,
    )
    spec = RunSpec(config=config, trials=100, seed=101, message_bits=64)
    rep = run(spec)
    assert rep.message["delivery_fidelity"] == 1.0
    assert rep.verdicts["message_delivered"] == 100
    assert rep.auth["errors"] == 0
    assert rep.message["errors"] == 0
    assert all(t["delivered_ok"] for t in rep.per_trial)
    report(
        f"honest end-to-end ({variant})",
        "100/100 random 64-bit messages delivered exactly, zero check errors",
    )


# ---------------------------------------------------------------------------
# 2. Joint (Bell on (A,B), x on T) statistics per encoded bit

ALLOWED_BIT0 = {
    ("phi_plus", "minus"),
    ("phi_minus", "plus"),
    ("psi_plus", "plus"),
    ("psi_minus", "minus"),
}
ALL_PAIRS = {(b, x) for b in BELL_OUTCOMES for x in X_OUTCOMES}


def encoded(bit: int):
    return apply_gate(new_ghz3(), HX if bit else H, 0)


def sampled_bell_x(state, bell_pair, x_qubit, rng, shots=10_000):
    """(Bell outcome, x outcome) of `shots` copies of `state`, the Bell
    measurement first; each shot draws its Bell uniform, then its x uniform."""
    copies = make_state(np.tile(state, (shots, 1)))
    u = rng.random((shots, 2))
    bell, after = measure_bell(copies, *bell_pair, u[:, 0])
    x, _ = measure_x(after, x_qubit, u[:, 1])
    return [(BELL_OUTCOMES[b], X_OUTCOMES[xo]) for b, xo in zip(bell.tolist(), x.tolist())]


@pytest.mark.parametrize("bit", [0, 1])
def test_02_bell_x_joint_statistics(bit):
    state = encoded(bit)
    allowed = ALLOWED_BIT0 if bit == 0 else ALL_PAIRS - ALLOWED_BIT0

    # exact side: allowed pairs at 1/4, forbidden pairs at probability zero
    for bell in BELL_OUTCOMES:
        for x in X_OUTCOMES:
            joint = oracles.joint_prob(state, [oracles.bell_proj(0, 2, bell), oracles.x_proj(1, x)])
            if (bell, x) in allowed:
                assert joint == pytest.approx(0.25, abs=ATOL)
            else:
                assert joint <= 1e-12

    # sampled side: 10,000 shots, each allowed pair at 0.25 within 0.02
    rng = np.random.default_rng(200 + bit)
    counts = {}
    for bell, x in sampled_bell_x(state, (0, 2), 1, rng):
        counts[(bell, x)] = counts.get((bell, x), 0) + 1
    assert set(counts) == allowed
    for pair in allowed:
        assert counts[pair] / 10_000 == pytest.approx(0.25, abs=0.02)
    report(
        f"joint Bell/x statistics (bit {bit})",
        f"4 allowed pairs at {sorted(round(c / 10_000, 3) for c in counts.values())}, "
        "forbidden pairs exactly 0",
    )


# ---------------------------------------------------------------------------
# 3. Joint (published bit, x on B) statistics in the relayed variant


@pytest.mark.parametrize("bit", [0, 1])
def test_03_trent_bit_x_joint_statistics(bit):
    state = encoded(bit)
    compatible_bit1 = {(0, "plus"), (1, "minus")}
    all_tx = {(t, x) for t in (0, 1) for x in X_OUTCOMES}
    compatible = compatible_bit1 if bit == 1 else all_tx - compatible_bit1

    # exact side over the fine-grained (Bell on (A,T), x on B) outcomes:
    # four allowed pairs at 1/4, the rest at probability zero
    fine_allowed = set()
    for bell in BELL_OUTCOMES:
        for x in X_OUTCOMES:
            joint = oracles.joint_prob(state, [oracles.bell_proj(0, 1, bell), oracles.x_proj(2, x)])
            if (oracles.TRENT_BIT[bell], x) in compatible:
                assert joint == pytest.approx(0.25, abs=ATOL)
                fine_allowed.add((bell, x))
            else:
                assert joint <= 1e-12
    assert len(fine_allowed) == 4

    # sampled side: only compatible published-bit/x pairs occur; the two
    # Bell outcomes behind each published bit merge its weight to 1/2
    rng = np.random.default_rng(300 + bit)
    fine_counts = {}
    coarse_counts = {}
    for bell, x in sampled_bell_x(state, (0, 1), 2, rng):
        pair = (oracles.TRENT_BIT[bell], x)
        fine_counts[(bell, x)] = fine_counts.get((bell, x), 0) + 1
        coarse_counts[pair] = coarse_counts.get(pair, 0) + 1
        assert _decode(pair[0], X_OUTCOMES.index(x)) == bit
    assert set(fine_counts) == fine_allowed
    for pair in fine_allowed:
        assert fine_counts[pair] / 10_000 == pytest.approx(0.25, abs=0.02)
    assert set(coarse_counts) == compatible
    for pair in compatible:
        assert coarse_counts[pair] / 10_000 == pytest.approx(0.5, abs=0.02)
    # worked example: 0 published and |+> measured decodes to 1
    assert _decode(0, X_OUTCOMES.index("plus")) == 1
    report(
        f"published-bit/x statistics (bit {bit})",
        "fine pairs at 1/4, compatible published pairs at 1/2; (0, plus) decodes to 1",
    )


# ---------------------------------------------------------------------------
# 4. Intercept-resend during authentication


def test_04_intercept_resend_auth_error_rate():
    attack = AttackModel("intercept", {Channel.TRENT_TO_ALICE})
    config = SessionConfig(n_ghz=40, m_auth_check=32)
    spec = RunSpec(config=config, attack=attack, trials=313, seed=404, message_bits=None)
    rep = run(spec)
    assert rep.auth["check_bits"] >= 10_000
    assert rep.auth["error_rate"] == pytest.approx(0.25, abs=0.02)
    assert rep.auth["error_rate_by_alice_key_bit"]["0"] == 0.0

    # oracle side: with key bit 0 the intercept leaves the three-way z
    # correlation intact in both of Eve's collapse branches
    for eve_outcome in (0, 1):
        _, branch = oracles.collapse(new_ghz3(), oracles.z_proj(0, eve_outcome))
        p_consistent = sum(
            oracles.joint_prob(branch, [oracles.z_proj(q, b) for q, b in enumerate(bits)])
            for bits in ((0, 0, 0), (1, 1, 1))
        )
        assert 1.0 - p_consistent <= 1e-12
    report(
        "intercept-resend auth",
        f"error rate {rep.auth['error_rate']:.4f} over {rep.auth['check_bits']} check bits "
        "(0.25 +/- 0.02); key-bit-0 error exactly 0",
    )


# ---------------------------------------------------------------------------
# 5. Controlled-flip entangling attack during authentication


def expected_post_decode_state():
    """(1/2)(|000>|+> + |100>|-> + |011>|-> + |111>|+>) in (A,T,B,E) order."""
    plus = np.array([INV_SQRT2, INV_SQRT2])
    minus = np.array([INV_SQRT2, -INV_SQRT2])
    out = np.zeros(16, dtype=complex)
    for bits, evec in (("000", plus), ("100", minus), ("011", minus), ("111", plus)):
        base = int(bits, 2) * 2
        out[base] += 0.5 * evec[0]
        out[base + 1] += 0.5 * evec[1]
    return out


def test_05_cnot_entangle_auth():
    # The analyzed scenario puts a Hadamard on the attacked qubit (key bit
    # 1); with uniform keys the unconditional rate is 1/4 and feeds the
    # detection curve instead (criterion 6).
    attack = AttackModel("entangle-cnot", {Channel.TRENT_TO_ALICE})
    config = SessionConfig(n_ghz=40, m_auth_check=32)
    errors = checked = 0
    for t in range(313):
        ka = AuthKey(parse_bits("1" * 40))
        kb = AuthKey(random_bits(np.random.default_rng(50_000 + t), 40))
        res = run_session(replace(config, rng_seed=t), ka, kb, None, attack)
        errors += sum(oracles.check_errors(res.checks))
        checked += len(res.checks)
    rate = errors / checked
    assert checked >= 10_000
    assert rate == pytest.approx(0.50, abs=0.02)

    # state check: encode (key bit 1), entangle with a fresh |0> ancilla,
    # decode; amplitude-wise match up to global phase
    s = apply_gate(new_ghz3(), H, 0)
    s = append_qubit(s, [1, 0])
    s = apply_two_qubit(s, attack.unitary, 0, 3)
    s = apply_gate(s, H, 0)
    assert states_equal_up_to_global_phase(s, expected_post_decode_state(), tol=ATOL)
    report(
        "controlled-flip entangling auth",
        f"error rate {rate:.4f} over {checked} check bits (0.50 +/- 0.02); "
        "post-decode 4-qubit state matches within 1e-9 up to global phase",
    )


# ---------------------------------------------------------------------------
# 6. Detection curve over the number of auth check bits


@pytest.mark.slow
def test_06_detection_curve():
    config = SessionConfig(n_ghz=5, m_auth_check=1)
    base = RunSpec(
        config=config,
        attack=AttackModel("entangle-cnot", {Channel.TRENT_TO_ALICE}),
        trials=10_000,
        seed=606,
        message_bits=None,
    )
    rep = sweep_detection_curve(base, [1, 2, 5, 10, 20])
    assert rep.rows[0]["analytic_detection_rate"] == pytest.approx(0.25)
    assert rep.rows[1]["analytic_detection_rate"] == pytest.approx(0.4375)
    lines = []
    for row in rep.rows:
        assert row["empirical_detection_rate"] == pytest.approx(
            detection_rate_reference(row["m"]), abs=0.03
        )
        lines.append(
            f"m={row['m']}: {row['empirical_detection_rate']:.4f}"
            f"/{row['analytic_detection_rate']:.4f}"
        )
    empirical = [row["empirical_detection_rate"] for row in rep.rows]
    assert empirical == sorted(empirical)
    report("detection curve", "empirical/analytic " + "; ".join(lines) + " (+/- 0.03)")


# ---------------------------------------------------------------------------
# 7. General entangling attack on the message channel, order invariance


@pytest.mark.slow
def test_07_message_attack_error_rate_order_invariant():
    config = SessionConfig(
        n_ghz=48,
        m_auth_check=2,
        check_fraction_msg=0.5,
        error_threshold_msg=1.0,
    )
    # asymmetric amplitudes (still orthogonal ancilla marks) so the
    # conditional outcome distributions genuinely depend on what was
    # measured first; the check-bit error rate must not
    attack = AttackModel(
        "entangle-general", {Channel.ALICE_TO_BOB}, alpha=0.8, beta=0.6, alpha_p=0.8, beta_p=-0.6
    )
    rates = {}
    for order in itertools.permutations(("bob", "trent", "eve")):
        errors = checked = 0
        for t in range(350):
            ka = AuthKey(random_bits(np.random.default_rng(70_000 + t), 48))
            kb = AuthKey(random_bits(np.random.default_rng(80_000 + t), 48))
            cfg = replace(config, measure_order=order, rng_seed=t)
            res = run_session(cfg, ka, kb, parse_bits("10110010"), attack)
            errors += res.msg.errors
            checked += res.msg.checked
        rates[order] = errors / checked
        assert checked >= 5000
        assert rates[order] == pytest.approx(0.50, abs=0.02)
    spread = max(rates.values()) - min(rates.values())
    assert spread < 0.04
    report(
        "message-phase attack, order invariance",
        f"6 measurement orders, rates {sorted(round(r, 4) for r in rates.values())} "
        f"(each 0.50 +/- 0.02, spread {spread:.4f})",
    )


# ---------------------------------------------------------------------------
# 8. Exact secrecy of the general entangling attack


ATTACK_PARAM_SETS = {
    "balanced": {},
    "skewed": dict(alpha=0.8, beta=0.6, alpha_p=0.8, beta_p=-0.6),
}


def eve_public_joint(bit: int, variant: str, params: dict) -> dict:
    """Joint distribution of (Eve's z outcome, public announcement),
    computed by exact projection with no sampling."""
    model = AttackModel(
        "entangle-general",
        {Channel.ALICE_TO_BOB if variant == "qdc1" else Channel.ALICE_TO_TRENT},
        **params,
    )
    state = apply_gate(new_ghz3(), HX if bit else H, 0)
    state = append_qubit(state, model.ancilla)
    state = apply_two_qubit(state, model.unitary, 0, 3)
    dist = {}
    for ez in (0, 1):
        eve = oracles.z_proj(3, ez, 4)
        if variant == "qdc1":
            for x in X_OUTCOMES:
                dist[(ez, x)] = oracles.joint_prob(state, [eve, oracles.x_proj(1, x, 4)])
        else:
            for tbit, group in (
                (0, ("phi_plus", "psi_minus")),
                (1, ("phi_minus", "psi_plus")),
            ):
                dist[(ez, tbit)] = sum(
                    oracles.joint_prob(state, [eve, oracles.bell_proj(0, 1, b, 4)]) for b in group
                )
    return dist


@pytest.mark.parametrize("params_name", sorted(ATTACK_PARAM_SETS))
@pytest.mark.parametrize("variant", ["qdc1", "qdc2"])
def test_08_eve_cannot_distinguish_encodings(variant, params_name):
    params = ATTACK_PARAM_SETS[params_name]
    d0 = eve_public_joint(0, variant, params)
    d1 = eve_public_joint(1, variant, params)
    assert set(d0) == set(d1)
    tv = 0.5 * sum(abs(d0[k] - d1[k]) for k in d0)
    assert tv < 1e-9
    report(
        f"secrecy ({variant}, {params_name} attack)",
        f"total variation between Eve's conditional distributions = {tv:.2e} (< 1e-9)",
    )


# ---------------------------------------------------------------------------
# 9. Classical error correction, exhaustive and end-to-end


def test_09a_hamming_corrects_all_single_errors():
    codec = Codec("hamming74")
    cases = failures = 0
    for k in range(16):
        data = format(k, "04b")
        word = format_bits(ecc_encode(codec, parse_bits(data))[8:])
        for pos in range(7):
            corrupted = word[:pos] + ("1" if word[pos] == "0" else "0") + word[pos + 1 :]
            got, fixed = ecc_decode(codec, parse_bits("00000000" + corrupted))
            cases += 1
            if format_bits(got) != data or fixed != 1:
                failures += 1
    assert cases == 112
    assert failures == 0
    report("hamming74 exhaustive", "112/112 single-bit errors corrected")


def test_09b_partial_coverage_attack_with_repetition_code():
    codec = Codec("rep5")
    config = SessionConfig(
        n_ghz=160,
        m_auth_check=8,
        check_fraction_msg=0.1,
        error_threshold_msg=1.0,
        codec=codec,
    )
    attack = AttackModel("intercept", {Channel.ALICE_TO_BOB}, coverage=0.1)
    message = "101100111000111101010011"  # 24 bits -> 8 + 120 frame bits
    bound = (codec.d - 1) // 2
    predicted_ok = 0
    outcomes = []
    for t in range(12):
        ka = AuthKey(random_bits(np.random.default_rng(90_000 + t), 160))
        kb = AuthKey(random_bits(np.random.default_rng(91_000 + t), 160))
        res = run_session(replace(config, rng_seed=500 + t), ka, kb, parse_bits(message), attack)
        frame = ~res.plan.is_check
        sent = format_bits(res.plan.bits[frame])
        got = format_bits(res.decoded_bits[frame])
        header_clean = sent[:8] == got[:8]
        blocks_ok = True
        for i in range(8, len(sent), codec.n):
            flips = sum(1 for a, b in zip(sent[i : i + codec.n], got[i : i + codec.n]) if a != b)
            if flips > bound:
                blocks_ok = False
        oracle_says_ok = header_clean and blocks_ok
        outcomes.append(oracle_says_ok)
        if oracle_says_ok:
            predicted_ok += 1
            assert res.msg.verdict == "message_delivered"
            assert format_bits(res.msg.message) == message
        else:
            # out-of-bound blocks majority-vote wrong, and a corrupted
            # uncoded header surfaces as a framing discard, never as a
            # silently wrong delivery
            assert res.msg.message is None or format_bits(res.msg.message) != message
    assert predicted_ok >= 3, "oracle-clean sessions must occur for the check to bind"
    assert True in outcomes and False in outcomes
    report(
        "repetition(5) under 10% coverage attack",
        f"{predicted_ok}/12 sessions within per-block bounds, each delivered exactly; "
        "out-of-bound sessions never deliver the original",
    )


# ---------------------------------------------------------------------------
# 10. Algebraic identities at 1e-9


def test_10_algebraic_suite():
    rng = np.random.default_rng(1010)
    worst_norm = worst_restore = 0.0
    for gate in (oracles.M_I, H, oracles.M_X, HX):
        assert np.allclose(gate @ gate.conj().T, np.eye(2), atol=ATOL)
    key_gate = (oracles.M_I, H)  # key bit 0 selects the identity, 1 the Hadamard
    for _ in range(1000):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = make_state(amps)

        # normalization under a random keyed-gate layer
        a_bit, b_bit = int(rng.integers(2)), int(rng.integers(2))
        encoded_state = apply_gate(state, key_gate[a_bit], 0)
        encoded_state = apply_gate(encoded_state, key_gate[b_bit], 2)
        nrm = abs(np.vdot(encoded_state, encoded_state).real - 1.0)
        worst_norm = max(worst_norm, nrm)

        # involution of H and X on a random qubit
        q = int(rng.integers(3))
        for g in (H, oracles.M_X):
            twice = apply_gate(apply_gate(state, g, q), g, q)
            worst_restore = max(worst_restore, np.abs(twice - state).max())

        # keyed encode followed by keyed decode restores the input exactly
        decoded = apply_gate(encoded_state, key_gate[a_bit], 0)
        decoded = apply_gate(decoded, key_gate[b_bit], 2)
        worst_restore = max(worst_restore, np.abs(decoded - state).max())
    assert worst_norm <= ATOL
    assert worst_restore <= ATOL
    report(
        "algebraic suite",
        f"1000 random keys/states: worst norm drift {worst_norm:.2e}, "
        f"worst restore error {worst_restore:.2e} (<= 1e-9)",
    )
