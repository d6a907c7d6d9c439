"""Adversary models: disturbance statistics, secrecy, unitarity."""
import itertools
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from ghzqdc.adversary import (
    AttackModel,
    AttackVariant,
    Channel,
    InvalidAttackError,
    NO_ATTACK,
    attack_draws,
    attack_to_dict,
    build_entangling_unitary,
    eve_measure_ancilla,
)
from ghzqdc.authkeys import AuthKey
from ghzqdc.ecc import parse_bits
from ghzqdc.protocol import SessionConfig, render_transcript, run_session, to_jsonl
from ghzqdc.statevector import (
    ATOL,
    BELL_OUTCOMES,
    X_OUTCOMES,
    H,
    HX,
    append_qubit,
    apply_gate,
    apply_two_qubit,
    measure_branches,
    new_ghz3,
)

import oracles
from oracles import basis_state, random_bits, states_equal_up_to_global_phase

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def config(**overrides):
    base = dict(n_ghz=40, m_auth_check=32, rng_seed=0)
    base.update(overrides)
    return SessionConfig(**base)


def run_auth_trials(attack, trials, alice_key_fn, seed0=0, cfg=None):
    cfg = cfg or config()
    """Every check row of the trials, as (Alice's key bit, check error) pairs."""
    checks = []
    for t in range(trials):
        ka = alice_key_fn(t, cfg.n_ghz)
        kb = AuthKey(random_bits(np.random.default_rng(90_000 + t), cfg.n_ghz))
        res = run_session(replace(cfg, rng_seed=seed0 + t), ka, kb, None, attack)
        checks.extend(zip(res.checks[:, 1].tolist(), oracles.check_errors(res.checks)))
    return checks


def uniform_alice(t, n):
    return AuthKey(random_bits(np.random.default_rng(10_000 + t), n))


def ones_alice(t, n):
    return AuthKey(parse_bits("1" * n))


# ---------------------------------------------------------------------------
# Intercept-resend


def test_intercept_on_z_eigenstate_is_transparent():
    """Eve's z intercept of |0> has one branch, outcome 0, and it forwards |0>."""
    state = basis_state("0")
    _, reached, after = measure_branches(state, (0,), "z")
    assert reached.tolist() == [[True, False]]
    assert np.allclose(after, state, atol=ATOL)


def test_intercept_auth_error_rate_quarter():
    attack = AttackModel("intercept", {Channel.TRENT_TO_ALICE})
    checks = run_auth_trials(attack, trials=100, alice_key_fn=uniform_alice)
    rate = sum(err for _, err in checks) / len(checks)
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
    attack = AttackModel("intercept", {Channel.TRENT_TO_ALICE})
    checks = run_auth_trials(attack, trials=60, alice_key_fn=uniform_alice)
    zero_bit = [err for bit, err in checks if bit == 0]
    one_bit = [err for bit, err in checks if bit == 1]
    assert zero_bit and one_bit
    assert sum(zero_bit) == 0
    assert sum(one_bit) / len(one_bit) == pytest.approx(0.5, abs=0.05)


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
    s = append_qubit(s, [1, 0])
    s = apply_two_qubit(s, AttackModel("entangle-cnot").unitary, 0, 3)
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
    attack = AttackModel("entangle-cnot", {Channel.TRENT_TO_ALICE})
    checks = run_auth_trials(attack, trials=100, alice_key_fn=ones_alice)
    rate = sum(err for _, err in checks) / len(checks)
    assert rate == pytest.approx(0.5, abs=0.03)


def test_cnot_detection_rate_follows_formula():
    attack = AttackModel("entangle-cnot", {Channel.TRENT_TO_ALICE})
    cfg = config(n_ghz=8, m_auth_check=4)
    detected = 0
    trials = 1500
    for t in range(trials):
        ka = uniform_alice(t, cfg.n_ghz)
        kb = AuthKey(random_bits(np.random.default_rng(90_000 + t), cfg.n_ghz))
        res = run_session(replace(cfg, rng_seed=t), ka, kb, None, attack)
        detected += res.auth_verdict == "auth_aborted"
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


# Each attack parameter, and the check a NaN in it must fail.
_NAN_CHECKS = {
    "alpha": "|alpha|^2 + |beta|^2 must be 1",
    "beta": "|alpha|^2 + |beta|^2 must be 1",
    "alpha_p": "|alpha'|^2 + |beta'|^2 must be 1",
    "beta_p": "|alpha'|^2 + |beta'|^2 must be 1",
    **{v: f"{v} norm^2 = nan" for v in ("e00", "e01", "e10", "e11", "eve_state")},
}


@pytest.mark.parametrize("param", list(_NAN_CHECKS))
def test_general_attack_rejects_nan_at_its_check(param):
    nan = complex("nan")
    value = nan if param in ("alpha", "beta", "alpha_p", "beta_p") else (nan, 0)
    with pytest.raises(InvalidAttackError, match=re.escape(_NAN_CHECKS[param])):
        AttackModel("entangle-general", {Channel.ALICE_TO_BOB}, **{param: value})


def test_general_attack_unitarity():
    for model in (
        AttackModel("entangle-general", {Channel.ALICE_TO_BOB}),
        AttackModel("entangle-cnot", {Channel.TRENT_TO_ALICE}),
    ):
        u = model.unitary
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=ATOL)


def test_degenerate_parameters_act_as_identity():
    # alpha = alpha' = 1 with e00 = e11 = |0> makes the attack invisible
    s = apply_gate(new_ghz3(), H, 0)
    s = append_qubit(s, [1, 0])
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
        ).unitary,
        0,
        3,
    )
    assert np.allclose(after, s, atol=ATOL)


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
    assert np.allclose(model.unitary, cnot, atol=ATOL)
    # amplitude-wise agreement on every basis input
    for k in range(4):
        s = basis_state(format(k, "02b"))
        via_general = apply_two_qubit(s, model.unitary, 0, 1)
        via_cnot = apply_two_qubit(s, AttackModel("entangle-cnot").unitary, 0, 1)
        assert np.allclose(via_general, via_cnot, atol=ATOL)


def message_attack_state(bit: int, model: AttackModel):
    s = apply_gate(new_ghz3(), HX if bit else H, 0)
    s = append_qubit(s, model.ancilla)
    return apply_two_qubit(s, model.unitary, 0, 3)


def exact_msg_error(bit: int, model: AttackModel, order) -> float:
    """Decode-error probability computed by sequential exact projection in
    the given order of (bob, trent, eve)."""
    state = message_attack_state(bit, model)
    total_err = 0.0
    for bell, x, ez in itertools.product(BELL_OUTCOMES, X_OUTCOMES, (0, 1)):
        projs = {
            "bob": oracles.bell_proj(0, 2, bell, 4),
            "trent": oracles.x_proj(1, x, 4),
            "eve": oracles.z_proj(3, ez, 4),
        }
        if oracles.DECODE[bell, x] != bit:
            total_err += oracles.joint_prob(state, [projs[step] for step in order])
    return total_err


def test_general_message_attack_error_half_any_order():
    model = AttackModel("entangle-general", {Channel.ALICE_TO_BOB})
    for order in itertools.permutations(("bob", "trent", "eve")):
        for bit in (0, 1):
            assert exact_msg_error(bit, model, order) == pytest.approx(0.5, abs=ATOL)


def test_general_message_attack_secrecy_exact():
    """Joint (Eve z outcome, public announcement) distributions are equal
    for both message bits, both in qdc1 and qdc2 form."""
    model = AttackModel("entangle-general", {Channel.ALICE_TO_BOB})

    def qdc1_dist(bit):
        state = message_attack_state(bit, model)
        dist = {}
        for ez in (0, 1):
            for x in X_OUTCOMES:
                dist[(ez, x)] = oracles.joint_prob(
                    state, [oracles.z_proj(3, ez, 4), oracles.x_proj(1, x, 4)]
                )
        return dist

    def qdc2_dist(bit):
        state = message_attack_state(bit, model)
        dist = {}
        for ez in (0, 1):
            for tbit, group in (
                (0, ("phi_plus", "psi_minus")),
                (1, ("phi_minus", "psi_plus")),
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
    cfg = config(n_ghz=24, m_auth_check=4, rng_seed=9)
    ka = uniform_alice(1, cfg.n_ghz)
    kb = AuthKey(random_bits(np.random.default_rng(91_000), cfg.n_ghz))
    message = parse_bits("110010")
    baseline = run_session(cfg, ka, kb, message, NO_ATTACK)
    covered = run_session(
        cfg, ka, kb, message, AttackModel("intercept", {Channel.TRENT_TO_ALICE}, coverage=0.0)
    )
    transcripts = [to_jsonl(render_transcript(cfg, res)) for res in (baseline, covered)]
    assert transcripts[0] == transcripts[1]
    assert np.array_equal(baseline.msg.message, covered.msg.message)


def test_intercept_x_basis_option():
    """The x-basis intercept is configurable and transparent on |+>."""
    plus = apply_gate(basis_state("0"), H, 0)
    _, reached, after = measure_branches(plus, (0,), "x")
    assert states_equal_up_to_global_phase(after, plus)
    assert reached.tolist() == [[True, False]]  # |+> reads 0 in x
    # and it runs end to end inside a session
    cfg = config(n_ghz=12, m_auth_check=4, rng_seed=2)
    attack = AttackModel("intercept", {Channel.TRENT_TO_ALICE}, intercept_basis="x")
    kb = AuthKey(random_bits(np.random.default_rng(1), 12))
    res = run_session(cfg, uniform_alice(0, 12), kb, None, attack)
    assert res.auth_verdict in ("authenticated", "auth_aborted")


def test_eve_measure_ancilla_product_state():
    s = append_qubit(new_ghz3(), [1, 0])
    outcome, _ = eve_measure_ancilla(s, 3, np.random.default_rng(0).random(1))
    assert outcome.tolist() == [0]


@pytest.mark.parametrize("coverage", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("variant", list(AttackVariant))
def test_attack_draws_match_per_transmission_hooks(variant, coverage):
    """attack_draws gives the hits and uniforms of per-transmission hooks, and
    leaves Eve's generator where they leave it, for every channel subset Eve
    targets, every crossing and no rows at all."""
    crossings = [(Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB), (Channel.ALICE_TO_BOB,),
                 (Channel.ALICE_TO_TRENT,), tuple(Channel)]
    subsets = [c for r in range(len(Channel) + 1) for c in itertools.combinations(Channel, r)]
    for targeted, crossing, rows in itertools.product(subsets, crossings, (0, 1, 5)):
        model = AttackModel(variant=variant, channels=frozenset(targeted), coverage=coverage)
        got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
        hit, u = attack_draws(model, crossing, rows, got_rng)
        want_hit, want_u = oracles.attack_draws_per_transmission(model, crossing, rows, want_rng)
        assert np.array_equal(hit, want_hit) and np.array_equal(u, want_u)
        assert got_rng.random() == want_rng.random()
        if not model.draws:  # Eve's generator is not needed at all
            assert all(map(np.array_equal, attack_draws(model, crossing, rows, None), (hit, u)))


def test_attack_model_validation():
    with pytest.raises(InvalidAttackError):
        AttackModel(coverage=1.5)
    with pytest.raises(InvalidAttackError):
        AttackModel(intercept_basis="y")
    with pytest.raises(ValueError, match="teleport"):
        AttackModel("teleport", {"trent-alice"})
    for variant in AttackVariant:  # a name is stored as its enum member
        by_name = AttackModel(variant.value, {"trent-alice"})
        assert by_name.variant is variant
        assert by_name == AttackModel(variant, {Channel.TRENT_TO_ALICE})


def test_run_with_variant_by_name_reports_like_the_enum_member():
    from ghzqdc.harness import RunSpec, run

    def report(variant):
        spec = RunSpec(
            config=SessionConfig(n_ghz=24, m_auth_check=4, error_threshold_auth=1.0),
            attack=AttackModel(variant, {"trent-alice"}, coverage=0.5),
            trials=6,
            seed=4,
            message_bits=4,
        )
        return run(spec).to_json(include_timestamp=False)

    by_name = report("intercept")
    assert json.loads(by_name)["spec"]["attack"]["variant"] == "intercept"
    assert by_name == report(AttackVariant.INTERCEPT_RESEND)


def test_attack_echo_tells_ancilla_marks_apart():
    """General attacks that differ only in their ancilla marks echo different
    specs; the default marks echo as they always have, with no mark keys."""
    s = 2**-0.5
    marks = [{}, {"e00": (0, 1), "e01": (1, 0)}, {"e01": (s, s), "e11": (s, s)}]
    echoes = [attack_to_dict(AttackModel("entangle-general", {"alice-bob"}, **m)) for m in marks]
    assert len({json.dumps(e, sort_keys=True) for e in echoes}) == 3
    r = 1 / np.sqrt(2)  # the default amplitudes
    assert echoes[0] == {"variant": "entangle-general", "channels": ["alice-bob"], "coverage": 1.0,
                         "alpha": [r, 0.0], "beta": [r, 0.0], "alpha_p": [r, 0.0],
                         "beta_p": [-r, 0.0]}
    assert echoes[1]["e00"] == [[0.0, 0.0], [1.0, 0.0]]
    assert echoes[1]["e01"] == [[1.0, 0.0], [0.0, 0.0]]
    assert "e10" not in echoes[1] and "eve_state" not in echoes[1]
    assert echoes[2]["e11"] == [[s, 0.0], [s, 0.0]] and "e00" not in echoes[2]
    plus = AttackModel("entangle-general", {"alice-bob"}, eve_state=(s, s))
    assert attack_to_dict(plus)["eve_state"] == [[s, 0.0], [s, 0.0]]


# ---------------------------------------------------------------------------
# Attack operators are built once per model and shared read-only


@pytest.mark.parametrize(
    "model",
    [
        AttackModel("entangle-general", {Channel.ALICE_TO_BOB}),
        AttackModel("entangle-cnot", {Channel.TRENT_TO_ALICE}),
    ],
    ids=["general", "cnot"],
)
def test_attack_operators_are_shared_read_only(model):
    assert model.unitary is model.unitary
    assert model.ancilla is model.ancilla
    with pytest.raises(ValueError):
        model.unitary[0, 0] = 0.0
    with pytest.raises(ValueError):
        model.ancilla[0] = 0.0


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
                             error_threshold_msg=1.0),
        attack=AttackModel("entangle-general", {Channel.ALICE_TO_BOB}),
        trials=5,
        seed=0,
        message_bits=8,
    )
    report = run(spec)
    assert report.message["check_bits"] > 0 and report.message["errors"] > 0
    assert len(builds) == 1


def test_replace_builds_its_own_unitary():
    model = AttackModel("entangle-general", {Channel.ALICE_TO_BOB})
    cnot_like = replace(
        model, alpha=1.0, beta=0.0, alpha_p=1.0, beta_p=0.0, e00=(1, 0), e10=(1, 0)
    )
    assert cnot_like.unitary is not model.unitary
    assert np.allclose(cnot_like.unitary, AttackModel("entangle-cnot").unitary, atol=ATOL)
    s = INV_SQRT2
    default = build_entangling_unitary(s, s, s, -s, [1, 0], [0, 1], [1, 0], [0, 1])
    assert np.array_equal(model.unitary, default)
