"""Protocol flows: decoders vs brute force, honest sessions, transcripts."""
import json
from dataclasses import replace

import numpy as np
import pytest

from ghzqdc.adversary import NO_ATTACK, Channel, entangle_cnot_attack, entangle_general_attack
from ghzqdc.authkeys import AuthKey, random_bits
from ghzqdc.ecc import encode as ecc_encode, format_bits, hamming74_codec, parse_bits
from ghzqdc.protocol import (
    CapacityError,
    ConfigError,
    InsufficientKeyError,
    MessagePlan,
    SessionConfig,
    Transcript,
    Trial,
    Verdict,
    auth_phase,
    message_check_and_deliver,
    plan_message_positions,
    run_session,
    _BELL_BIT,
    _decode,
)
from ghzqdc.statevector import (
    ATOL,
    BELL_OUTCOMES,
    X_OUTCOMES,
    BellOutcome,
    H,
    HX,
    XOutcome,
    apply_gate,
    new_ghz3,
)

import oracles


def small_config(**overrides) -> SessionConfig:
    base = dict(n_ghz=48, m_auth_check=4, check_fraction_msg=0.25, rng_seed=0)
    base.update(overrides)
    return SessionConfig(**base)


def keys_for(config, seed=0):
    rng = np.random.default_rng(seed)
    return AuthKey(random_bits(rng, config.n_ghz)), AuthKey(random_bits(rng, config.n_ghz))


# ---------------------------------------------------------------------------
# Decoding rules


def encoded_state(bit: int):
    return apply_gate(new_ghz3(), HX if bit else H, 0)


def decode(bell: BellOutcome, x: XOutcome) -> int:
    """The engine's bit for a Bell outcome, read as Trent's published bit, and an x outcome."""
    return int(_decode(_BELL_BIT[BELL_OUTCOMES.index(bell)], X_OUTCOMES.index(x)))


def joint_outcomes(state, bell_pair, x_qubit):
    """(Bell on `bell_pair`, x on `x_qubit`) pairs with their exact probabilities."""
    for bell in BellOutcome:
        for x in XOutcome:
            projectors = [oracles.bell_proj(*bell_pair, bell), oracles.x_proj(x_qubit, x)]
            p = oracles.joint_prob(state, projectors)
            if p > 1e-12:
                yield bell, x, p


@pytest.mark.parametrize("bit", [0, 1])
def test_qdc1_decode_agrees_with_state_expansion(bit):
    """Every outcome pair that can occur decodes back to the encoded bit."""
    outcomes = list(joint_outcomes(encoded_state(bit), (0, 2), 1))
    assert len(outcomes) == 4
    for bell, x, p in outcomes:
        assert p == pytest.approx(0.25, abs=ATOL)
        assert decode(bell, x) == bit


@pytest.mark.parametrize("bit", [0, 1])
def test_qdc2_decode_agrees_with_state_expansion(bit):
    outcomes = list(joint_outcomes(encoded_state(bit), (0, 1), 2))
    assert len(outcomes) == 4
    for bell, x, p in outcomes:
        assert p == pytest.approx(0.25, abs=ATOL)
        assert decode(bell, x) == bit


def test_qdc1_decode_worked_examples():
    assert decode(BellOutcome.PHI_PLUS, XOutcome.PLUS) == 1
    assert decode(BellOutcome.PHI_PLUS, XOutcome.MINUS) == 0


def test_qdc1_decode_total_and_balanced():
    table = {(b.value, x.value): decode(b, x) for b in BellOutcome for x in XOutcome}
    assert table == oracles.DECODE
    assert sorted(table.values()).count(0) == 4


def test_trent_publish_mapping():
    published = {bell.value: int(_BELL_BIT[k]) for k, bell in enumerate(BELL_OUTCOMES)}
    assert published == oracles.TRENT_BIT
    assert published == {"phi_plus": 0, "psi_minus": 0, "phi_minus": 1, "psi_plus": 1}


def test_qdc2_decode_worked_examples():
    plus, minus = X_OUTCOMES.index(XOutcome.PLUS), X_OUTCOMES.index(XOutcome.MINUS)
    assert _decode(0, plus) == 1
    assert _decode(0, minus) == 0
    assert _decode(1, plus) == 0
    assert _decode(1, minus) == 1


def test_measurement_order_does_not_change_joint_distribution():
    """Trent measuring before Bob gives the same joint statistics."""
    for bit in (0, 1):
        state = encoded_state(bit)
        bob_first = {(b.value, x.value): p for b, x, p in joint_outcomes(state, (0, 2), 1)}
        trent_first = {}
        for x in XOutcome:
            for bell in BellOutcome:
                p = oracles.joint_prob(state, [oracles.x_proj(1, x), oracles.bell_proj(0, 2, bell)])
                if p > 1e-12:
                    trent_first[(bell.value, x.value)] = p
        assert set(bob_first) == set(trent_first)
        for k in bob_first:
            assert bob_first[k] == pytest.approx(trent_first[k], abs=1e-12)


def test_bob_x_before_alice_encoding_keeps_qdc2_statistics():
    """In qdc2, Bob's x measurement commutes past Alice's encoding."""
    for bit in (0, 1):
        normal = joint_outcomes(encoded_state(bit), (0, 1), 2)
        normal = {(b.value, x.value): p for b, x, p in normal}
        early = {}
        for x in XOutcome:
            p1, collapsed = oracles.collapse(new_ghz3(), oracles.x_proj(2, x))
            encoded = oracles.embed_1q(oracles.M_HX if bit else oracles.M_H, 0, 3) @ collapsed
            for bell in BellOutcome:
                p2 = oracles.prob(encoded, oracles.bell_proj(0, 1, bell))
                if p1 * p2 > 1e-12:
                    early[(bell.value, x.value)] = p1 * p2
        assert set(normal) == set(early)
        for k in normal:
            assert normal[k] == pytest.approx(early[k], abs=1e-12)


def test_trent_marginals_leak_nothing():
    """Public announcements are uniform whatever the encoded bit."""
    for bit in (0, 1):
        state = encoded_state(bit)
        # qdc1: Trent's x outcome
        assert oracles.prob(state, oracles.x_proj(1, XOutcome.PLUS)) == pytest.approx(0.5, abs=ATOL)
        # qdc2: Trent's published bit
        p_zero = sum(
            oracles.prob(state, oracles.bell_proj(0, 1, b))
            for b in (BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS)
        )
        assert p_zero == pytest.approx(0.5, abs=ATOL)


# ---------------------------------------------------------------------------
# Authentication phase


def one_trial(ka, kb, seed) -> list[Trial]:
    return [Trial(ka, kb, None, seed)]


def test_honest_auth_no_errors():
    config = small_config(m_auth_check=16)
    ka, kb = keys_for(config)
    res = auth_phase(config, NO_ATTACK, one_trial(ka, kb, seed=1))
    assert res.aborted.tolist() == [False]
    assert res.error_rates.tolist() == [0.0]
    assert len(res.surviving) == config.n_ghz - 16
    assert len(res.checks) == 16


def test_auth_restores_raw_triples():
    """Keyed encode/decode leaves every surviving triple in the raw GHZ
    state, for random keys."""
    config = small_config(m_auth_check=0)
    ka, kb = keys_for(config, seed=9)
    res = auth_phase(config, NO_ATTACK, one_trial(ka, kb, seed=1))
    assert res.surviving.state.rows == config.n_ghz
    assert np.allclose(res.surviving.state.amplitudes, new_ghz3().amplitudes, atol=ATOL)


def test_auth_requires_key_coverage():
    config = small_config()
    with pytest.raises(InsufficientKeyError):
        auth_phase(
            config, NO_ATTACK,
            one_trial(AuthKey(parse_bits("01")), AuthKey(parse_bits("0" * 48)), seed=0),
        )


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(m_auth_check=48).validate()
    with pytest.raises(ConfigError):
        small_config(check_fraction_msg=1.0).validate()
    with pytest.raises(ConfigError):
        small_config(error_threshold_auth=2.0).validate()
    with pytest.raises(ConfigError):
        small_config(protocol_variant="qdc3").validate()
    with pytest.raises(ConfigError):
        small_config(measure_order=("bob", "bob", "eve")).validate()


# ---------------------------------------------------------------------------
# Position planning and delivery


def test_plan_positions_disjoint_and_uniformly_sampled():
    rng = np.random.default_rng(0)
    frame = parse_bits("01" * 10)
    plan = plan_message_positions(40, frame, 0.25, rng)
    check_positions = plan.positions[plan.is_check].tolist()
    message_positions = plan.positions[~plan.is_check].tolist()
    assert len(check_positions) == 10
    assert len(message_positions) == 20
    assert not set(check_positions) & set(message_positions)
    assert all(0 <= p < 40 for p in plan.used_positions())
    assert len(set(check_positions)) == 10
    # ascending positions; the frame rides the lowest free indices, in order
    assert plan.positions.tolist() == sorted(check_positions + message_positions)
    free = [p for p in range(40) if p not in check_positions]
    assert message_positions == free[:20]
    assert format_bits(plan.bits[~plan.is_check]) == format_bits(frame)


def test_plan_capacity_error():
    with pytest.raises(CapacityError):
        plan_message_positions(10, parse_bits("0" * 9), 0.25, np.random.default_rng(0))


def test_message_check_and_deliver_discards_on_errors():
    plan = MessagePlan(  # frame 00000000 at 0-7, check bits 11 at 8 and 9
        positions=np.arange(10),
        bits=parse_bits("00000000" + "11"),
        is_check=np.arange(10) >= 8,
    )
    decoded = parse_bits("0" * 10)  # both check bits wrong
    transcript = Transcript()
    res = message_check_and_deliver(
        decoded, plan, threshold=0.0, codec=hamming74_codec(), transcript=transcript
    )
    assert res.verdict is Verdict.MESSAGE_DISCARDED
    assert res.error_rate == 1.0
    assert res.message is None
    assert [e.kind for e in transcript.events] == ["msg_compare", "verdict"]
    assert transcript.events[-1].payload == {
        "phase": "message",
        "verdict": "message_discarded",
        "error_rate": 1.0,
    }


def test_message_check_and_deliver_framing_failure_discards():
    plan = MessagePlan(positions=np.arange(9), bits=parse_bits("0" * 9), is_check=np.zeros(9, bool))
    decoded = parse_bits("0" * 9)  # 1-bit body cannot be hamming74
    transcript = Transcript()
    res = message_check_and_deliver(
        decoded, plan, threshold=0.5, codec=hamming74_codec(), transcript=transcript
    )
    assert res.verdict is Verdict.MESSAGE_DISCARDED
    assert res.diagnostic is not None
    assert [e.kind for e in transcript.events] == ["msg_compare", "verdict"]
    assert transcript.events[-1].payload == {
        "phase": "message",
        "verdict": "message_discarded",
        "error_rate": 0.0,
        "diagnostic": res.diagnostic,
    }


def test_message_check_and_deliver_delivers_after_verdict():
    frame = format_bits(ecc_encode(hamming74_codec(), parse_bits("1011")))
    n = len(frame) + 1
    plan = MessagePlan(  # the frame, then check bit 1 at the last position
        positions=np.arange(n), bits=parse_bits(frame + "1"), is_check=np.arange(n) == n - 1
    )
    decoded = plan.bits.copy()
    decoded[9] ^= 1  # one body error, corrected by the code
    transcript = Transcript()
    res = message_check_and_deliver(
        decoded, plan, threshold=0.0, codec=hamming74_codec(), transcript=transcript
    )
    assert res.verdict is Verdict.MESSAGE_DELIVERED
    assert (format_bits(res.message), res.corrected_errors) == ("1011", 1)
    assert [e.kind for e in transcript.events] == ["msg_compare", "verdict", "deliver"]
    assert transcript.events[1].payload == {
        "phase": "message",
        "verdict": "message_delivered",
        "error_rate": 0.0,
    }
    assert transcript.events[2].payload == {"message": "1011", "corrected_errors": 1}


# ---------------------------------------------------------------------------
# Whole sessions


@pytest.mark.parametrize("variant", ["qdc1", "qdc2"])
def test_honest_session_delivers_exact_message(variant):
    message = "1100101001110001"
    for seed in (0, 1, 2, 3, 4):
        config = small_config(protocol_variant=variant, rng_seed=seed)
        ka, kb = keys_for(config, seed=seed)
        res = run_session(config, ka, kb, parse_bits(message), NO_ATTACK)
        assert res.auth_verdict is Verdict.AUTHENTICATED
        assert res.msg.verdict is Verdict.MESSAGE_DELIVERED
        assert format_bits(res.msg.message) == message
        assert res.auth_error_rate == 0.0
        assert res.msg.error_rate == 0.0


def test_session_without_message_checks_still_delivers():
    config = small_config(check_fraction_msg=0.0, rng_seed=4)
    ka, kb = keys_for(config, seed=4)
    res = run_session(config, ka, kb, parse_bits("10110100"), NO_ATTACK)
    assert res.msg.verdict is Verdict.MESSAGE_DELIVERED
    assert res.msg.checked == 0
    assert format_bits(res.msg.message) == "10110100"


def test_auth_only_session():
    config = small_config()
    ka, kb = keys_for(config)
    res = run_session(config, ka, kb, None, NO_ATTACK)
    assert res.auth_verdict is Verdict.AUTHENTICATED
    assert res.msg is None
    assert res.plan is None


def test_session_same_seed_same_transcript():
    config = small_config(rng_seed=123)
    ka, kb = keys_for(config)
    r1 = run_session(config, ka, kb, parse_bits("10101010"), NO_ATTACK)
    r2 = run_session(config, ka, kb, parse_bits("10101010"), NO_ATTACK)
    assert r1.transcript.to_jsonl() == r2.transcript.to_jsonl()


def test_capacity_error_from_session():
    config = small_config(n_ghz=16, m_auth_check=4)
    ka, kb = keys_for(config)
    with pytest.raises(CapacityError):
        run_session(config, ka, kb, parse_bits("1" * 32), NO_ATTACK)


# ---------------------------------------------------------------------------
# Transcript contracts


def transcript_for(variant="qdc1", attack=NO_ATTACK, message="10110100", seed=7):
    config = small_config(protocol_variant=variant, rng_seed=seed)
    ka, kb = keys_for(config, seed=seed)
    return run_session(config, ka, kb, parse_bits(message), attack).transcript


def test_transcript_serialization_round_trip():
    tr = transcript_for()
    lines = tr.to_jsonl().strip().split("\n")
    assert len(lines) == len(tr.events)
    for i, line in enumerate(lines):
        ev = json.loads(line)
        assert ev["ordinal"] == i
        assert set(ev) == {"ordinal", "actor", "kind", "payload"}
        assert ev["actor"] in {"alice", "bob", "trent", "eve", "public"}


def test_transcript_event_ordering():
    """Check positions are announced only after all auth transmissions,
    and the reveal only after Bob's completion announcement."""
    tr = transcript_for()
    kinds = [(e.kind, e.payload.get("what")) for e in tr.events]
    last_transmit_auth = max(
        i
        for i, e in enumerate(tr.events)
        if e.kind == "transmit" and e.payload["channel"].startswith("trent")
    )
    auth_positions_announce = next(
        i for i, (k, w) in enumerate(kinds) if k == "announce" and w == "auth_check_positions"
    )
    assert auth_positions_announce > last_transmit_auth

    done = next(i for i, (k, w) in enumerate(kinds) if k == "announce" and w == "decoding_complete")
    reveal = next(i for i, (k, w) in enumerate(kinds) if k == "announce" and w == "msg_check_reveal")
    assert reveal > done
    last_msg_transmit = max(
        i
        for i, e in enumerate(tr.events)
        if e.kind == "transmit" and e.payload["channel"].startswith("alice")
    )
    assert reveal > last_msg_transmit


def test_transcript_verdict_precedes_delivery():
    tr = transcript_for()
    verdicts = [i for i, e in enumerate(tr.events) if e.kind == "verdict"]
    deliver = [i for i, e in enumerate(tr.events) if e.kind == "deliver"]
    assert deliver, "honest run must deliver"
    auth_ok = [
        i
        for i, e in enumerate(tr.events)
        if e.kind == "verdict" and e.payload["verdict"] == "authenticated"
    ]
    assert auth_ok and min(auth_ok) < deliver[0]
    assert any(
        tr.events[i].payload["verdict"] == "message_delivered" and i < deliver[0]
        for i in verdicts
    )


def test_transcript_abort_records_error_rate():
    config = small_config(
        n_ghz=24, m_auth_check=16, protocol_variant="qdc1", rng_seed=11
    )
    ka, kb = keys_for(config, seed=2)
    attack = entangle_general_attack({Channel.TRENT_TO_ALICE})
    res = run_session(config, ka, kb, parse_bits("1010"), attack)
    assert res.auth_verdict is Verdict.AUTH_ABORTED
    abort_events = [
        e
        for e in res.transcript.events
        if e.kind == "verdict" and e.payload["verdict"] == "auth_aborted"
    ]
    assert abort_events and abort_events[0].payload["error_rate"] > 0


def test_transcript_eve_measures_only_message_triples():
    """Eve measures the auth-phase ancilla E0 and then the message-phase
    ancilla E1 of each used triple at her step, pairs E1's outcome with
    Alice's bit, and measures nothing on check or unused triples."""
    config = small_config(error_threshold_auth=1.0, error_threshold_msg=1.0, rng_seed=3)
    ka, kb = keys_for(config, seed=3)
    attack = entangle_cnot_attack({Channel.TRENT_TO_ALICE, Channel.ALICE_TO_BOB})
    res = run_session(config, ka, kb, parse_bits("10110100"), attack)
    checked = {c.position for c in res.auth_checks}
    surviving = [p for p in range(config.n_ghz) if p not in checked]
    used = res.plan.positions.tolist()
    assert len(used) < len(surviving)  # some survivors stay unused
    eve = [e.payload for e in res.transcript.events if e.kind == "eve_ancilla_measure"]
    assert [(e["position"], e["ancilla"]) for e in eve] == [
        (surviving[seq], label) for seq in used for label in ("E0", "E1")
    ]
    assert res.eve_observations == [
        (bit, e["outcome"]) for bit, e in zip(res.plan.bits.tolist(), eve[1::2])
    ]


def test_transcript_contains_no_key_material():
    config = small_config(rng_seed=5)
    ka, kb = keys_for(config, seed=5)
    res = run_session(config, ka, kb, parse_bits("10110100"), NO_ATTACK)
    text = res.transcript.to_jsonl()
    assert format_bits(ka.bits) not in text
    assert format_bits(kb.bits) not in text
    for event in res.transcript.events:
        if event.kind in ("auth_encode", "auth_decode"):
            assert "bit" not in event.payload


def test_measure_order_knob_reorders_events():
    config = small_config(rng_seed=21)
    ka, kb = keys_for(config, seed=21)

    def first_measure_kind(order):
        cfg = replace(config, measure_order=order)
        res = run_session(cfg, ka, kb, parse_bits("1010"), NO_ATTACK)
        for e in res.transcript.events:
            if e.kind in ("bell_measure", "x_measure"):
                return (e.actor, e.kind)

    assert first_measure_kind(("bob", "trent", "eve")) == ("bob", "bell_measure")
    assert first_measure_kind(("trent", "bob", "eve")) == ("trent", "x_measure")


def test_announcements_view_is_public_subset():
    tr = transcript_for()
    announcements = tr.announcements()
    assert announcements
    assert all(e.kind == "announce" for e in announcements)
    # Bob's Bell outcomes are private: never announced in qdc1.
    assert not any(e.payload.get("what") == "bell_outcome" for e in announcements)


def _dump_transcript_script():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "scripts" / "dump_honest_transcript.py"
    spec = importlib.util.spec_from_file_location("dump_honest_transcript", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture_text(name):
    from pathlib import Path

    return (Path(__file__).parent / "data" / name).read_text()


def test_golden_transcript_fixture():
    """Serialized event log is byte-stable; regenerate the fixture with
    scripts/dump_honest_transcript.py after an intentional format change."""
    got = _dump_transcript_script().golden_session().transcript.to_jsonl()
    assert got == _fixture_text("golden_session.jsonl")


def test_golden_attacked_transcript_fixture():
    """The attacked session (general attack on every qdc1 channel at coverage
    0.5, Eve measuring between Bob and Trent) is byte-stable too, Eve's
    ancilla labels included; regenerate with --attacked."""
    got = _dump_transcript_script().golden_attacked_session().transcript.to_jsonl()
    assert got == _fixture_text("golden_attacked_session.jsonl")
