"""Adversary models: disturbance statistics, secrecy, unitarity."""
import itertools
from dataclasses import replace

import numpy as np
import pytest

from ghzqdc.adversary import (
    AttackModel,
    AttackVariant,
    Channel,
    InvalidAttackError,
    NO_ATTACK,
    attack_intercept_resend,
    build_entangling_unitary,
    entangle_cnot_attack,
    entangle_general_attack,
    eve_measure_ancilla,
    intercept_resend_attack,
)
from ghzqdc.authkeys import AuthKey, random_bits
from ghzqdc.ecc import parse_bits
from ghzqdc.protocol import SessionConfig, Verdict, run_session
from ghzqdc.statevector import (
    ATOL,
    BellOutcome,
    H,
    HX,
    XOutcome,
    append_qubit,
    apply_gate,
    apply_two_qubit,
    new_ghz3,
)

import oracles
from oracles import basis_state, states_equal_up_to_global_phase

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def config(**overrides):
    base = dict(
        n_ghz=40, m_auth_check=32, rng_seed=0, record_transcript=False
    )
    base.update(overrides)
    return SessionConfig(**base)


def run_auth_trials(attack, trials, alice_key_fn, seed0=0, cfg=None):
    cfg = cfg or config()
    checks = []
    for t in range(trials):
        ka = alice_key_fn(t, cfg.n_ghz)
        kb = AuthKey(random_bits(np.random.default_rng(90_000 + t), cfg.n_ghz))
        res = run_session(replace(cfg, rng_seed=seed0 + t), ka, kb, None, attack)
        checks.extend(res.auth_checks)
    return checks


def uniform_alice(t, n):
    return AuthKey(random_bits(np.random.default_rng(10_000 + t), n))


def ones_alice(t, n):
    return AuthKey(parse_bits("1" * n))


# ---------------------------------------------------------------------------
# Intercept-resend


def test_intercept_on_z_eigenstate_is_transparent():
    state = basis_state("0")
    outcome, after = attack_intercept_resend(state, 0, np.random.default_rng(0).random(1))
    assert np.allclose(after.amplitudes, state.amplitudes, atol=ATOL)
    assert outcome.tolist() == [0]


def test_intercept_auth_error_rate_quarter():
    attack = intercept_resend_attack({Channel.TRENT_TO_ALICE})
    checks = run_auth_trials(attack, trials=100, alice_key_fn=uniform_alice)
    rate = sum(c.error for c in checks) / len(checks)
    assert len(checks) >= 3000
    assert rate == pytest.approx(0.25, abs=0.03)


def test_intercept_key_bit_zero_never_errs_exact():
    """With no Hadamard on the transit qubit, an intercept leaves the
    three-way z correlation intact in both collapse branches."""
    for z in (0, 1):
        p, collapsed = oracles.collapse(new_ghz3(), oracles.z_proj(0, z))  # Eve's branch
        assert p == pytest.approx(0.5, abs=ATOL)
        p_err = 1.0
        for all_equal in ((0, 0, 0), (1, 1, 1)):
            projectors = [oracles.z_proj(q, b) for q, b in enumerate(all_equal)]
            p_err -= oracles.joint_prob(collapsed, projectors)
        assert p_err == pytest.approx(0.0, abs=1e-12)


def test_intercept_key_bit_conditioning_in_sessions():
    attack = intercept_resend_attack({Channel.TRENT_TO_ALICE})
    checks = run_auth_trials(attack, trials=60, alice_key_fn=uniform_alice)
    zero_bit = [c for c in checks if c.alice_key_bit == 0]
    one_bit = [c for c in checks if c.alice_key_bit == 1]
    assert zero_bit and one_bit
    assert sum(c.error for c in zero_bit) == 0
    assert sum(c.error for c in one_bit) / len(one_bit) == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------------------
# CNOT entangling attack


def expected_cnot_state():
    """(1/2)(|000>|+> + |100>|-> + |011>|-> + |111>|+>) in (A,T,B,E) order."""
    plus = np.array([INV_SQRT2, INV_SQRT2])
    minus = np.array([INV_SQRT2, -INV_SQRT2])
    out = np.zeros(16, dtype=complex)
    for bits, evec in (("000", plus), ("100", minus), ("011", minus), ("111", plus)):
        base = int(bits, 2) * 2
        out[base] += 0.5 * evec[0]
        out[base + 1] += 0.5 * evec[1]
    return out


def cnot_auth_scenario_state():
    """Key bit 1 on the A channel: encode, entangle, decode."""
    s = apply_gate(new_ghz3(), H, 0)
    s = append_qubit(s, [1, 0], "E0")
    s = apply_two_qubit(s, entangle_cnot_attack(set()).unitary(), 0, 3)
    return apply_gate(s, H, 0)


def test_cnot_attack_reproduces_displayed_state():
    got = cnot_auth_scenario_state()
    assert states_equal_up_to_global_phase(got, expected_cnot_state(), tol=ATOL)


def test_cnot_attack_error_half_exact():
    s = cnot_auth_scenario_state()
    p_ok = sum(
        oracles.joint_prob(s, [oracles.z_proj(q, b, 4) for q, b in enumerate(bits)])
        for bits in ((0, 0, 0), (1, 1, 1))
    )
    assert 1.0 - p_ok == pytest.approx(0.5, abs=ATOL)


def test_cnot_attack_error_rate_sessions():
    attack = entangle_cnot_attack({Channel.TRENT_TO_ALICE})
    checks = run_auth_trials(attack, trials=100, alice_key_fn=ones_alice)
    rate = sum(c.error for c in checks) / len(checks)
    assert rate == pytest.approx(0.5, abs=0.03)


def test_cnot_detection_rate_follows_formula():
    attack = entangle_cnot_attack({Channel.TRENT_TO_ALICE})
    cfg = config(n_ghz=8, m_auth_check=4)
    detected = 0
    trials = 1500
    for t in range(trials):
        ka = uniform_alice(t, cfg.n_ghz)
        kb = AuthKey(random_bits(np.random.default_rng(90_000 + t), cfg.n_ghz))
        res = run_session(replace(cfg, rng_seed=t), ka, kb, None, attack)
        detected += res.auth_verdict is Verdict.AUTH_ABORTED
    assert detected / trials == pytest.approx(1 - 0.75**4, abs=0.04)


def test_eve_z_outcome_uniform_after_cnot_auth():
    s = cnot_auth_scenario_state()
    assert oracles.prob(s, oracles.z_proj(3, 0, 4)) == pytest.approx(0.5, abs=ATOL)


# ---------------------------------------------------------------------------
# General entangling attack


def test_general_attack_parameter_validation():
    with pytest.raises(InvalidAttackError):
        build_entangling_unitary(1.0, 1.0, 1.0, 0.0, [1, 0], [0, 1], [1, 0], [0, 1])
    with pytest.raises(InvalidAttackError):
        # normalized amplitudes but the scalar constraint fails
        s = INV_SQRT2
        build_entangling_unitary(s, s, s, s, [1, 0], [0, 1], [1, 0], [0, 1])
    with pytest.raises(InvalidAttackError):
        # scalar constraint holds but the image vectors overlap on |1,0>
        s = INV_SQRT2
        build_entangling_unitary(s, s, s, -s, [1, 0], [1, 0], [0, 1], [1, 0])
    with pytest.raises(InvalidAttackError):
        AttackModel(
            variant=AttackVariant.ENTANGLE_GENERAL,
            channels=frozenset({Channel.ALICE_TO_BOB}),
            e00=(0.5, 0.5),  # not normalized
        )


def test_general_attack_unitarity():
    for model in (
        entangle_general_attack({Channel.ALICE_TO_BOB}),
        entangle_cnot_attack({Channel.TRENT_TO_ALICE}),
    ):
        u = model.unitary()
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=ATOL)


def test_degenerate_parameters_act_as_identity():
    # alpha = alpha' = 1 with e00 = e11 = |0> makes the attack invisible
    s = apply_gate(new_ghz3(), H, 0)
    s = append_qubit(s, [1, 0], "E0")
    after = apply_two_qubit(
        s,
        AttackModel(
            variant=AttackVariant.ENTANGLE_GENERAL,
            channels=frozenset({Channel.ALICE_TO_BOB}),
            alpha=1.0,
            beta=0.0,
            alpha_p=1.0,
            beta_p=0.0,
            e00=(1, 0),
            e01=(0, 1),
            e10=(0, 1),
            e11=(1, 0),
        ).unitary(),
        0,
        3,
    )
    assert np.allclose(after.amplitudes, s.amplitudes, atol=ATOL)


def test_general_with_cnot_parameters_equals_cnot_matrix():
    model = AttackModel(
        variant=AttackVariant.ENTANGLE_GENERAL,
        channels=frozenset({Channel.TRENT_TO_ALICE}),
        alpha=1.0,
        beta=0.0,
        alpha_p=1.0,
        beta_p=0.0,
        e00=(1, 0),
        e01=(0, 1),
        e10=(1, 0),
        e11=(0, 1),
    )
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.allclose(model.unitary(), cnot, atol=ATOL)
    # amplitude-wise agreement on every basis input
    for k in range(4):
        s = basis_state(format(k, "02b"))
        via_general = apply_two_qubit(s, model.unitary(), 0, 1)
        via_cnot = apply_two_qubit(s, entangle_cnot_attack(set()).unitary(), 0, 1)
        assert np.allclose(via_general.amplitudes, via_cnot.amplitudes, atol=ATOL)


def message_attack_state(bit: int, model: AttackModel):
    s = apply_gate(new_ghz3(), HX if bit else H, 0)
    s = append_qubit(s, model.ancilla_state(), "E0")
    return apply_two_qubit(s, model.unitary(), 0, 3)


def exact_msg_error(bit: int, model: AttackModel, order) -> float:
    """Decode-error probability computed by sequential exact projection in
    the given order of (bob, trent, eve)."""
    state = message_attack_state(bit, model)
    total_err = 0.0
    for bell, x, ez in itertools.product(BellOutcome, XOutcome, (0, 1)):
        projs = {
            "bob": oracles.bell_proj(0, 2, bell, 4),
            "trent": oracles.x_proj(1, x, 4),
            "eve": oracles.z_proj(3, ez, 4),
        }
        if oracles.DECODE[bell.value, x.value] != bit:
            total_err += oracles.joint_prob(state, [projs[step] for step in order])
    return total_err


def test_general_message_attack_error_half_any_order():
    model = entangle_general_attack({Channel.ALICE_TO_BOB})
    for order in itertools.permutations(("bob", "trent", "eve")):
        for bit in (0, 1):
            assert exact_msg_error(bit, model, order) == pytest.approx(0.5, abs=ATOL)


def test_general_message_attack_secrecy_exact():
    """Joint (Eve z outcome, public announcement) distributions are equal
    for both message bits, both in qdc1 and qdc2 form."""
    model = entangle_general_attack({Channel.ALICE_TO_BOB})

    def qdc1_dist(bit):
        state = message_attack_state(bit, model)
        dist = {}
        for ez in (0, 1):
            for x in XOutcome:
                dist[(ez, x.value)] = oracles.joint_prob(
                    state, [oracles.z_proj(3, ez, 4), oracles.x_proj(1, x, 4)]
                )
        return dist

    def qdc2_dist(bit):
        state = message_attack_state(bit, model)
        dist = {}
        for ez in (0, 1):
            for tbit, group in (
                (0, (BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS)),
                (1, (BellOutcome.PHI_MINUS, BellOutcome.PSI_PLUS)),
            ):
                eve = oracles.z_proj(3, ez, 4)
                dist[(ez, tbit)] = sum(
                    oracles.joint_prob(state, [eve, oracles.bell_proj(0, 1, b, 4)]) for b in group
                )
        return dist

    for dist_fn in (qdc1_dist, qdc2_dist):
        d0, d1 = dist_fn(0), dist_fn(1)
        tv = 0.5 * sum(abs(d0[k] - d1[k]) for k in d0)
        assert tv < 1e-9


def test_zero_coverage_matches_no_attack_exactly():
    cfg = config(n_ghz=24, m_auth_check=4, record_transcript=True, rng_seed=9)
    ka = uniform_alice(1, cfg.n_ghz)
    kb = AuthKey(random_bits(np.random.default_rng(91_000), cfg.n_ghz))
    message = parse_bits("110010")
    baseline = run_session(cfg, ka, kb, message, NO_ATTACK)
    covered = run_session(
        cfg, ka, kb, message, intercept_resend_attack({Channel.TRENT_TO_ALICE}, coverage=0.0)
    )
    assert baseline.transcript.to_jsonl() == covered.transcript.to_jsonl()
    assert np.array_equal(baseline.msg.message, covered.msg.message)


def test_intercept_x_basis_option():
    """The x-basis intercept is configurable and transparent on |+>."""
    plus = apply_gate(basis_state("0"), H, 0)
    outcome, after = attack_intercept_resend(plus, 0, np.random.default_rng(0).random(1), basis="x")
    assert states_equal_up_to_global_phase(after, plus)
    assert outcome.tolist() == [0]  # |+> reads 0 in x
    # and it runs end to end inside a session
    cfg = config(n_ghz=12, m_auth_check=4, rng_seed=2)
    attack = intercept_resend_attack({Channel.TRENT_TO_ALICE}, basis="x")
    kb = AuthKey(random_bits(np.random.default_rng(1), 12))
    res = run_session(cfg, uniform_alice(0, 12), kb, None, attack)
    assert res.auth_verdict in (Verdict.AUTHENTICATED, Verdict.AUTH_ABORTED)


def test_eve_measure_ancilla_product_state():
    s = append_qubit(new_ghz3(), [1, 0], "E0")
    outcome, _ = eve_measure_ancilla(s, 3, np.random.default_rng(0).random(1))
    assert outcome.tolist() == [0]


def test_attack_model_validation():
    with pytest.raises(InvalidAttackError):
        AttackModel(coverage=1.5)
    with pytest.raises(InvalidAttackError):
        AttackModel(intercept_basis="y")


# ---------------------------------------------------------------------------
# Attack operators are built once per model and shared read-only


@pytest.mark.parametrize(
    "model",
    [
        entangle_general_attack({Channel.ALICE_TO_BOB}),
        entangle_cnot_attack({Channel.TRENT_TO_ALICE}),
    ],
    ids=["general", "cnot"],
)
def test_attack_operators_are_shared_read_only(model):
    assert model.unitary() is model.unitary()
    assert model.ancilla_state() is model.ancilla_state()
    with pytest.raises(ValueError):
        model.unitary()[0, 0] = 0.0
    with pytest.raises(ValueError):
        model.ancilla_state()[0] = 0.0


def test_run_builds_general_unitary_once(monkeypatch):
    import ghzqdc.adversary as adversary
    from ghzqdc.harness import RunSpec, run

    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build_entangling_unitary(*args, **kwargs)

    monkeypatch.setattr(adversary, "build_entangling_unitary", counting_build)
    spec = RunSpec(
        config=SessionConfig(n_ghz=40, m_auth_check=4, check_fraction_msg=0.5,
                             error_threshold_msg=1.0, record_transcript=False),
        attack=entangle_general_attack({Channel.ALICE_TO_BOB}),
        trials=5,
        seed=0,
        message_bits=8,
    )
    report = run(spec)
    assert report.message["check_bits"] > 0 and report.message["errors"] > 0
    assert len(builds) == 1


def test_replace_builds_its_own_unitary():
    model = entangle_general_attack({Channel.ALICE_TO_BOB})
    cnot_like = replace(
        model, alpha=1.0, beta=0.0, alpha_p=1.0, beta_p=0.0, e00=(1, 0), e10=(1, 0)
    )
    assert cnot_like.unitary() is not model.unitary()
    assert np.allclose(cnot_like.unitary(), entangle_cnot_attack(set()).unitary(), atol=ATOL)
    s = INV_SQRT2
    default = build_entangling_unitary(s, s, s, -s, [1, 0], [0, 1], [1, 0], [0, 1])
    assert np.array_equal(model.unitary(), default)
