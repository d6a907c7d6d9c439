"""Protocol flows: decoders vs brute force, honest sessions, transcripts."""
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from ghzqdc import protocol
from ghzqdc.adversary import NO_ATTACK, AttackModel, Channel
from ghzqdc.authkeys import AuthKey
from ghzqdc.ecc import Codec, encode as ecc_encode, format_bits, parse_bits
from ghzqdc.protocol import (
    CapacityError,
    Chunk,
    ConfigError,
    InsufficientKeyError,
    MessagePlan,
    SessionConfig,
    SessionResult,
    auth_phase,
    branch_table,
    check_capacity,
    message_channel,
    message_check_and_deliver,
    message_result,
    plan_message_positions,
    render_transcript,
    run_session,
    session_results,
    to_jsonl,
    _BELL_BIT,
    _decode,
)
from ghzqdc.seeds import session_words
from ghzqdc.statevector import (
    ATOL,
    BELL_OUTCOMES,
    X_OUTCOMES,
    H,
    HX,
    apply_gate,
    new_ghz3,
)

import oracles
from oracles import random_bits


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


def decode(bell: str, x: str) -> int:
    """The engine's bit for a Bell outcome, read as Trent's published bit, and an x outcome."""
    return int(_decode(_BELL_BIT[BELL_OUTCOMES.index(bell)], X_OUTCOMES.index(x)))


def joint_outcomes(state, bell_pair, x_qubit):
    """(Bell on `bell_pair`, x on `x_qubit`) pairs with their exact probabilities."""
    for bell in BELL_OUTCOMES:
        for x in X_OUTCOMES:
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
    assert decode("phi_plus", "plus") == 1
    assert decode("phi_plus", "minus") == 0


def test_qdc1_decode_total_and_balanced():
    table = {(b, x): decode(b, x) for b in BELL_OUTCOMES for x in X_OUTCOMES}
    assert table == oracles.DECODE
    assert sorted(table.values()).count(0) == 4


def test_trent_publish_mapping():
    published = {bell: int(_BELL_BIT[k]) for k, bell in enumerate(BELL_OUTCOMES)}
    assert published == oracles.TRENT_BIT
    assert published == {"phi_plus": 0, "psi_minus": 0, "phi_minus": 1, "psi_plus": 1}


def test_qdc2_decode_worked_examples():
    plus, minus = X_OUTCOMES.index("plus"), X_OUTCOMES.index("minus")
    assert _decode(0, plus) == 1
    assert _decode(0, minus) == 0
    assert _decode(1, plus) == 0
    assert _decode(1, minus) == 1


def test_measurement_order_does_not_change_joint_distribution():
    """Trent measuring before Bob gives the same joint statistics."""
    for bit in (0, 1):
        state = encoded_state(bit)
        bob_first = {(b, x): p for b, x, p in joint_outcomes(state, (0, 2), 1)}
        trent_first = {}
        for x in X_OUTCOMES:
            for bell in BELL_OUTCOMES:
                p = oracles.joint_prob(state, [oracles.x_proj(1, x), oracles.bell_proj(0, 2, bell)])
                if p > 1e-12:
                    trent_first[(bell, x)] = p
        assert set(bob_first) == set(trent_first)
        for k in bob_first:
            assert bob_first[k] == pytest.approx(trent_first[k], abs=1e-12)


def test_bob_x_before_alice_encoding_keeps_qdc2_statistics():
    """In qdc2, Bob's x measurement commutes past Alice's encoding."""
    for bit in (0, 1):
        normal = joint_outcomes(encoded_state(bit), (0, 1), 2)
        normal = {(b, x): p for b, x, p in normal}
        early = {}
        for x in X_OUTCOMES:
            p1, collapsed = oracles.collapse(new_ghz3(), oracles.x_proj(2, x))
            encoded = oracles.embed_1q(oracles.M_HX if bit else oracles.M_H, 0, 3) @ collapsed
            for bell in BELL_OUTCOMES:
                p2 = oracles.prob(encoded, oracles.bell_proj(0, 1, bell))
                if p1 * p2 > 1e-12:
                    early[(bell, x)] = p1 * p2
        assert set(normal) == set(early)
        for k in normal:
            assert normal[k] == pytest.approx(early[k], abs=1e-12)


def test_trent_marginals_leak_nothing():
    """Public announcements are uniform whatever the encoded bit."""
    for bit in (0, 1):
        state = encoded_state(bit)
        # qdc1: Trent's x outcome
        assert oracles.prob(state, oracles.x_proj(1, "plus")) == pytest.approx(0.5, abs=ATOL)
        # qdc2: Trent's published bit
        p_zero = sum(
            oracles.prob(state, oracles.bell_proj(0, 1, b))
            for b in ("phi_plus", "psi_minus")
        )
        assert p_zero == pytest.approx(0.5, abs=ATOL)


# ---------------------------------------------------------------------------
# Authentication phase


def one_trial(ka, kb, seed) -> Chunk:
    return Chunk(np.stack([ka.bits, kb.bits])[None], None, session_words(seed)[None])


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
    state, for random keys: from each survivor's node, every later step
    of the session has the probabilities of a fresh GHZ triple."""
    config = small_config(m_auth_check=0)
    ka, kb = keys_for(config, seed=9)
    res = auth_phase(config, NO_ATTACK, one_trial(ka, kb, seed=1))
    assert len(res.surviving) == config.n_ghz
    table = branch_table(config.protocol_variant, config.resolved_measure_order(), NO_ATTACK)
    walker = oracles.BranchTableOracle(table, config.protocol_variant, NO_ATTACK, ATOL)
    for node in sorted(set(res.surviving.tolist())):
        walker.check_from(node, oracles.ghz3(), ())
    assert walker.nodes > 0


@st.composite
def attack_models(draw):
    """An attack of each variant on a nonempty channel subset, coverage 1/2 or 1;
    a general attack gets random complex amplitudes and ancilla marks."""
    channels = draw(st.sets(st.sampled_from(list(Channel)), min_size=1))
    coverage = draw(st.sampled_from([0.5, 1.0]))
    kind = draw(st.sampled_from(["cnot", "general", "intercept-z", "intercept-x"]))
    if kind == "cnot":
        return AttackModel("entangle-cnot", channels, coverage)
    if kind.startswith("intercept"):
        return AttackModel("intercept", channels, coverage, intercept_basis=kind[-1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unit(size):
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        return v / np.linalg.norm(v)

    alpha, beta = unit(2)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    mark0, mark1, eve = unit(2), unit(2), unit(2)
    return AttackModel(
        "entangle-general", channels, coverage, alpha=complex(alpha), beta=complex(beta),
        alpha_p=complex(phase * np.conj(alpha)), beta_p=complex(-phase * np.conj(beta)),
        e00=tuple(mark0), e01=tuple(mark1), e10=tuple(mark0), e11=tuple(mark1),
        eve_state=tuple(eve),
    )


@settings(derandomize=True, deadline=None, max_examples=60)
@given(variant=st.sampled_from(["qdc1", "qdc2"]), attack=attack_models(),
       order=st.permutations(["bob", "trent", "eve"]))
def test_branch_table_matches_oracle(variant, attack, order):
    """Every node a row can reach has the Born probabilities that brute-force
    projectors give on the full register, and they sum to 1."""
    table = branch_table(variant, tuple(order), attack)
    bases = {"bob": "bell", "trent": "x"} if variant == "qdc1" else {"bob": "x", "trent": "bell"}
    want = []
    for party in order:
        want += ["eve"] * table.attached.shape[1] if party == "eve" else [bases[party]]
    assert [basis for basis, _ in table.measure] == want
    steps = [table.keyed, table.encode, table.attached, *table.checks, *table.legs[0],
             *table.legs[1], *table.send, *(step for _, step in table.measure)]
    arrays = [a for s in steps for a in ([s] if isinstance(s, np.ndarray) else vars(s).values())]
    assert not any(a.flags.writeable for a in arrays)  # the cached table is shared
    assert oracles.BranchTableOracle(table, variant, attack, ATOL).check() > 0


def test_auth_requires_key_coverage():
    config = small_config()
    with pytest.raises(InsufficientKeyError):
        auth_phase(config, NO_ATTACK, one_trial(*[AuthKey(parse_bits("01"))] * 2, seed=0))


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(m_auth_check=48)
    with pytest.raises(ConfigError):
        small_config(check_fraction_msg=1.0)
    with pytest.raises(ConfigError):
        small_config(error_threshold_auth=2.0)
    with pytest.raises(ConfigError):
        small_config(protocol_variant="qdc3")
    with pytest.raises(ConfigError):
        small_config(measure_order=("bob", "bob", "eve"))
    with pytest.raises(ConfigError, match="rng_seed"):
        SessionConfig(n_ghz=8, m_auth_check=2, rng_seed=-1)


def test_config_validates_at_construction():
    """An invalid SessionConfig cannot be built, directly or by replace, so
    no phase needs to check it again."""
    with pytest.raises(ConfigError, match="m_auth_check"):
        SessionConfig(n_ghz=4, m_auth_check=9)
    with pytest.raises(ConfigError, match="protocol_variant"):
        replace(small_config(), protocol_variant="qdc3")
    with pytest.raises(ConfigError, match="rng_seed"):
        replace(small_config(), rng_seed=-1)


# ---------------------------------------------------------------------------
# Position planning and delivery


def test_plan_positions_disjoint_and_uniformly_sampled():
    rng = np.random.default_rng(0)
    frame = parse_bits("01" * 10)
    picks = rng.choice(40, size=check_capacity(40, len(frame), 0.25), replace=False)
    plan = plan_message_positions(picks[None], random_bits(rng, len(picks))[None], frame[None], 40)
    assert len(plan.used_positions()) == 30
    plan = MessagePlan(*(a[0] for a in plan))
    check_positions = plan.positions[plan.is_check].tolist()
    message_positions = plan.positions[~plan.is_check].tolist()
    assert len(check_positions) == 10
    assert len(message_positions) == 20
    assert not set(check_positions) & set(message_positions)
    assert all(0 <= p < 40 for p in plan.positions)
    assert len(set(check_positions)) == 10
    # ascending positions; the frame rides the lowest free indices, in order
    assert plan.positions.tolist() == sorted(check_positions + message_positions)
    free = [p for p in range(40) if p not in check_positions]
    assert message_positions == free[:20]
    assert format_bits(plan.bits[~plan.is_check]) == format_bits(frame)


def test_plan_capacity_error():
    with pytest.raises(CapacityError):
        check_capacity(10, 9, 0.25)


def message_tail(plan, decoded, msg):
    """The rendered events after Alice's check reveal, for a session that sent `plan`,
    read `decoded` and reached `msg`."""
    rows = len(plan.positions)
    config = SessionConfig(n_ghz=rows, m_auth_check=0)
    res = SessionResult("authenticated", 0.0, 0, np.zeros((0, 6), dtype=int), plan=plan,
                        decoded_bits=decoded, msg=msg, bell=np.zeros(rows, dtype=int),
                        x=np.zeros(rows, dtype=int), eve=np.zeros((rows, 0), dtype=int))
    events = render_transcript(config, res)
    reveal = next(i for i, e in enumerate(events) if e["payload"].get("what") == "msg_check_reveal")
    return events[reveal + 1:]


def check_and_deliver(decoded, plan, message, threshold, codec):
    """`message_check_and_deliver` of one trial, as its `MessageResult`."""
    out = message_check_and_deliver(decoded[None], plan, parse_bits(message)[None], threshold,
                                    codec)
    return message_result(plan, out, 0, threshold, codec)


def test_message_check_and_deliver_discards_on_errors():
    plan = MessagePlan(  # frame 00000000 at 0-7, check bits 11 at 8 and 9
        positions=np.arange(10)[None],
        bits=parse_bits("00000000" + "11")[None],
        is_check=(np.arange(10) >= 8)[None],
    )
    decoded = parse_bits("0" * 10)  # both check bits wrong
    res = check_and_deliver(decoded, plan, "", threshold=0.0, codec=Codec("hamming74"))
    plan = MessagePlan(*(a[0] for a in plan))
    assert res.verdict == "message_discarded"
    assert res.error_rate == 1.0
    assert res.message is None
    tail = message_tail(plan, decoded, res)
    assert [e["kind"] for e in tail] == ["msg_compare", "verdict"]
    assert tail[0]["payload"] == {"errors": 2, "checked": 2, "error_rate": 1.0}
    assert tail[-1]["payload"] == {
        "phase": "message",
        "verdict": "message_discarded",
        "error_rate": 1.0,
    }


def test_message_check_and_deliver_framing_failure_discards():
    plan = MessagePlan(positions=np.arange(9)[None], bits=parse_bits("0" * 9)[None],
                     is_check=np.zeros((1, 9), bool))
    decoded = parse_bits("0" * 9)  # 1-bit body cannot be hamming74
    res = check_and_deliver(decoded, plan, "", threshold=0.5, codec=Codec("hamming74"))
    plan = MessagePlan(*(a[0] for a in plan))
    assert res.verdict == "message_discarded"
    assert res.diagnostic is not None
    tail = message_tail(plan, decoded, res)
    assert [e["kind"] for e in tail] == ["msg_compare", "verdict"]
    assert tail[-1]["payload"] == {
        "phase": "message",
        "verdict": "message_discarded",
        "error_rate": 0.0,
        "diagnostic": res.diagnostic,
    }


def test_message_check_and_deliver_delivers_after_verdict():
    frame = format_bits(ecc_encode(Codec("hamming74"), parse_bits("1011")))
    n = len(frame) + 1
    plan = MessagePlan(  # the frame, then check bit 1 at the last position
        positions=np.arange(n)[None], bits=parse_bits(frame + "1")[None],
        is_check=(np.arange(n) == n - 1)[None],
    )
    decoded = plan.bits[0].copy()
    decoded[9] ^= 1  # one body error, corrected by the code
    res = check_and_deliver(decoded, plan, "1011", threshold=0.0, codec=Codec("hamming74"))
    plan = MessagePlan(*(a[0] for a in plan))
    assert res.verdict == "message_delivered"
    assert (format_bits(res.message), res.corrected_errors) == ("1011", 1)
    tail = message_tail(plan, decoded, res)
    assert [e["kind"] for e in tail] == ["msg_compare", "verdict", "deliver"]
    assert tail[1]["payload"] == {
        "phase": "message",
        "verdict": "message_delivered",
        "error_rate": 0.0,
    }
    assert tail[2]["payload"] == {"message": "1011", "corrected_errors": 1}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    codec=st.sampled_from(["none", "rep3", "rep5", "hamming74"]),
    bits=st.integers(0, 10),
    checks=st.integers(0, 4),
    trials=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    flips=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["header", "body", "check"]),
                             st.integers(0, 99)), max_size=12),
    threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
@example(  # the header reads pad 1, valid for k=4: three wrong bits are delivered
    codec="hamming74", bits=4, checks=0, trials=1, seed=0, flips=[(0, "header", 7)],
    threshold=0.0,
)
@example(  # the second trial's header reads pad 4 >= k: a framing failure
    codec="hamming74", bits=4, checks=1, trials=2, seed=1, flips=[(1, "header", 5)],
    threshold=0.0,
)
def test_check_and_deliver_matches_per_row_oracle(codec, bits, checks, trials, seed, flips,
                                                  threshold):
    """Each row of a chunk's check, decode and delivery is what the text
    oracle gives that trial alone, over flips in its header, body and check bits."""
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, 2, (trials, bits)).astype(np.uint8)
    frames = ecc_encode(Codec(codec), messages)
    survivors = frames.shape[1] + checks + 2
    picks = np.array([rng.choice(survivors, checks, replace=False) for _ in range(trials)])
    check_bits = rng.integers(0, 2, (trials, checks)).astype(np.uint8)
    plan = plan_message_positions(picks.reshape(trials, checks), check_bits, frames, survivors)
    decoded = plan.bits.copy()
    for t, region, index in flips:
        if t < trials:
            frame = np.flatnonzero(~plan.is_check[t])
            cols = {"header": frame[:8], "body": frame[8:],
                    "check": np.flatnonzero(plan.is_check[t])}[region]
            if len(cols):
                decoded[t, cols[index % len(cols)]] ^= 1
    out = message_check_and_deliver(decoded, plan, messages, threshold, Codec(codec))
    for t in range(trials):
        res = message_result(plan, out, t, threshold, Codec(codec))
        got = (res.verdict, res.errors, res.corrected_errors,
               None if res.message is None else format_bits(res.message),
               bool(out["delivered_ok"][t]))
        assert got == oracles.check_and_deliver(
            format_bits(decoded[t]), format_bits(plan.bits[t]), plan.is_check[t].tolist(),
            threshold, codec, format_bits(messages[t]))
        assert res.errors == out["errors"][t] and res.checked == checks


# ---------------------------------------------------------------------------
# Whole sessions


@pytest.mark.parametrize("variant", ["qdc1", "qdc2"])
def test_honest_session_delivers_exact_message(variant):
    message = "1100101001110001"
    for seed in (0, 1, 2, 3, 4):
        config = small_config(protocol_variant=variant, rng_seed=seed)
        ka, kb = keys_for(config, seed=seed)
        res = run_session(config, ka, kb, parse_bits(message), NO_ATTACK)
        assert res.auth_verdict == "authenticated"
        assert res.msg.verdict == "message_delivered"
        assert format_bits(res.msg.message) == message
        assert res.auth_error_rate == 0.0
        assert res.msg.error_rate == 0.0


def test_session_without_message_checks_still_delivers():
    config = small_config(check_fraction_msg=0.0, rng_seed=4)
    ka, kb = keys_for(config, seed=4)
    res = run_session(config, ka, kb, parse_bits("10110100"), NO_ATTACK)
    assert res.msg.verdict == "message_delivered"
    assert res.msg.checked == 0
    assert format_bits(res.msg.message) == "10110100"


def test_auth_only_session():
    config = small_config()
    ka, kb = keys_for(config)
    res = run_session(config, ka, kb, None, NO_ATTACK)
    assert res.auth_verdict == "authenticated"
    assert res.msg is None
    assert res.plan is None


def test_session_same_seed_same_transcript():
    config = small_config(rng_seed=123)
    ka, kb = keys_for(config)
    r1, r2 = (run_session(config, ka, kb, parse_bits("10101010"), NO_ATTACK) for _ in range(2))
    assert to_jsonl(render_transcript(config, r1)) == to_jsonl(render_transcript(config, r2))


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
    return render_transcript(config, run_session(config, ka, kb, parse_bits(message), attack))


@pytest.mark.parametrize("variant", ["qdc1", "qdc2"])
def test_chunk_trial_renders_its_lone_session_transcript(variant):
    """A trial of a multi-trial chunk renders the transcript it has when run
    alone, whether Eve attacked its message, it aborted or it sent nothing."""
    config = small_config(protocol_variant=variant, n_ghz=24, error_threshold_msg=1.0)
    attack = AttackModel("entangle-cnot", {Channel.TRENT_TO_ALICE, message_channel(variant)}, 0.5)
    keys = [keys_for(config, seed=seed) for seed in range(6)]
    words = np.stack([session_words(seed) for seed in range(6)])
    stacked = np.array([[ka.bits, kb.bits] for ka, kb in keys])
    # A chunk's trials all send a message or none does: the trials that send
    # nothing run as a chunk of their own.
    for message in (parse_bits("1011"), None):
        messages = None if message is None else np.stack([message] * 6)
        results = session_results(config, attack, Chunk(stacked, messages, words))
        assert {res.auth_verdict for res in results} == {"authenticated", "auth_aborted"}
        if message is not None:
            assert any(res.eve_msg is not None and (res.eve_msg >= 0).any() for res in results)
        for seed, ((ka, kb), res) in enumerate(zip(keys, results)):
            trial_config = replace(config, rng_seed=seed)
            alone = run_session(trial_config, ka, kb, message, attack)
            want = to_jsonl(render_transcript(trial_config, alone))
            assert to_jsonl(render_transcript(trial_config, res)) == want


def test_transcript_serialization_round_trip():
    events = transcript_for()
    lines = to_jsonl(events).strip().split("\n")
    assert len(lines) == len(events)
    for i, line in enumerate(lines):
        ev = json.loads(line)
        assert ev["ordinal"] == i
        assert set(ev) == {"ordinal", "actor", "kind", "payload"}
        assert ev["actor"] in {"alice", "bob", "trent", "eve", "public"}
    # An event record is exactly its JSON line: no tuples, no numpy scalars.
    for case in _dump_transcript_script().CASES.values():
        events = case()
        assert [json.loads(line) for line in to_jsonl(events).splitlines()] == events


def test_transcript_event_ordering():
    """Check positions are announced only after all auth transmissions,
    and the reveal only after Bob's completion announcement."""
    events = transcript_for()
    kinds = [(e["kind"], e["payload"].get("what")) for e in events]
    last_transmit_auth = max(
        i
        for i, e in enumerate(events)
        if e["kind"] == "transmit" and e["payload"]["channel"].startswith("trent")
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
        for i, e in enumerate(events)
        if e["kind"] == "transmit" and e["payload"]["channel"].startswith("alice")
    )
    assert reveal > last_msg_transmit


def test_transcript_verdict_precedes_delivery():
    events = transcript_for()
    verdicts = [i for i, e in enumerate(events) if e["kind"] == "verdict"]
    deliver = [i for i, e in enumerate(events) if e["kind"] == "deliver"]
    assert deliver, "honest run must deliver"
    auth_ok = [
        i
        for i, e in enumerate(events)
        if e["kind"] == "verdict" and e["payload"]["verdict"] == "authenticated"
    ]
    assert auth_ok and min(auth_ok) < deliver[0]
    assert any(
        events[i]["payload"]["verdict"] == "message_delivered" and i < deliver[0]
        for i in verdicts
    )


def test_transcript_abort_records_error_rate():
    config = small_config(
        n_ghz=24, m_auth_check=16, protocol_variant="qdc1", rng_seed=11
    )
    ka, kb = keys_for(config, seed=2)
    attack = AttackModel("entangle-general", {Channel.TRENT_TO_ALICE})
    res = run_session(config, ka, kb, parse_bits("1010"), attack)
    assert res.auth_verdict == "auth_aborted"
    abort_events = [
        e
        for e in render_transcript(config, res)
        if e["kind"] == "verdict" and e["payload"]["verdict"] == "auth_aborted"
    ]
    assert abort_events and abort_events[0]["payload"]["error_rate"] > 0


def test_transcript_eve_measures_only_message_triples():
    """Eve measures the auth-phase ancilla E0 and then the message-phase
    ancilla E1 of each used triple at her step, pairs E1's outcome with
    Alice's bit, and measures nothing on check or unused triples."""
    config = small_config(error_threshold_auth=1.0, error_threshold_msg=1.0, rng_seed=3)
    ka, kb = keys_for(config, seed=3)
    attack = AttackModel("entangle-cnot", {Channel.TRENT_TO_ALICE, Channel.ALICE_TO_BOB})
    res = run_session(config, ka, kb, parse_bits("10110100"), attack)
    checked = set(res.checks[:, 0].tolist())
    surviving = [p for p in range(config.n_ghz) if p not in checked]
    used = res.plan.positions.tolist()
    assert len(used) < len(surviving)  # some survivors stay unused
    events = render_transcript(config, res)
    eve = [e["payload"] for e in events if e["kind"] == "eve_ancilla_measure"]
    assert [(e["position"], e["ancilla"]) for e in eve] == [
        (surviving[seq], label) for seq in used for label in ("E0", "E1")
    ]
    assert list(zip(res.plan.bits.tolist(), res.eve_msg.tolist())) == [
        (bit, e["outcome"]) for bit, e in zip(res.plan.bits.tolist(), eve[1::2])
    ]


def test_transcript_contains_no_key_material():
    config = small_config(rng_seed=5)
    ka, kb = keys_for(config, seed=5)
    events = render_transcript(config, run_session(config, ka, kb, parse_bits("10110100")))
    text = to_jsonl(events)
    assert format_bits(ka.bits) not in text
    assert format_bits(kb.bits) not in text
    for event in events:
        if event["kind"] in ("auth_encode", "auth_decode"):
            assert "bit" not in event["payload"]


def test_measure_order_knob_reorders_events():
    config = small_config(rng_seed=21)
    ka, kb = keys_for(config, seed=21)

    def first_measure_kind(order):
        cfg = replace(config, measure_order=order)
        res = run_session(cfg, ka, kb, parse_bits("1010"), NO_ATTACK)
        for e in render_transcript(cfg, res):
            if e["kind"] in ("bell_measure", "x_measure"):
                return (e["actor"], e["kind"])

    assert first_measure_kind(("bob", "trent", "eve")) == ("bob", "bell_measure")
    assert first_measure_kind(("trent", "bob", "eve")) == ("trent", "x_measure")


def test_announcements_view_is_public_subset():
    events = transcript_for()
    public = [e for e in events if e["actor"] == "public" or e["kind"] == "announce"]
    assert any(e["actor"] == "public" for e in public)
    assert any(e["kind"] == "announce" for e in public)
    # Bob's Bell outcomes are private: never announced in qdc1.
    assert not any(e["payload"].get("what") == "bell_outcome" for e in public)
    assert not any(v in BELL_OUTCOMES for e in public for v in e["payload"].values())


def _dump_transcript_script():
    return oracles.load_script("scripts/dump_honest_transcript.py")


def _fixture_text(name):
    from pathlib import Path

    return (Path(__file__).parent / "data" / name).read_text()


def test_golden_transcript_fixture():
    """Serialized event log is byte-stable; regenerate the fixture with
    scripts/dump_honest_transcript.py after an intentional format change."""
    got = to_jsonl(_dump_transcript_script().golden_session())
    assert got == _fixture_text("golden_session.jsonl")


def test_golden_attacked_transcript_fixture():
    """The attacked session (general attack on every qdc1 channel at coverage
    0.5, Eve measuring between Bob and Trent) is byte-stable too, Eve's
    ancilla labels included; regenerate with --attacked."""
    got = to_jsonl(_dump_transcript_script().golden_attacked_session())
    assert got == _fixture_text("golden_attacked_session.jsonl")


_TRANSCRIPT_DIGESTS = json.loads(_fixture_text("transcript_digests.json"))


@pytest.mark.parametrize("case", sorted(_TRANSCRIPT_DIGESTS))
def test_transcript_digest(case):
    """Every named session of scripts/dump_honest_transcript.py keeps its
    transcript byte for byte: qdc2 with Hamming(7,4), an auth abort, an
    auth-only run, a discarded message, an intercept on alice-trent and
    Eve's two ancilla labels when she measures first. Regenerate with
    --write after an intentional format change."""
    script = _dump_transcript_script()
    assert sorted(script.CASES) == sorted(_TRANSCRIPT_DIGESTS)
    text = script.case_jsonl(case)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == _TRANSCRIPT_DIGESTS[case]


def test_branch_table_digests():
    """Every array of every branch table over the grid of
    scripts/pin_branch_tables.py (396 tables) keeps its bytes. Regenerate
    with --write after an intentional change of the table."""
    script = oracles.load_script("scripts/pin_branch_tables.py")
    expected = json.loads(script.FIXTURE.read_text(encoding="ascii"))
    got = script.digests()
    assert sorted(got) == sorted(expected)
    assert [key for key in expected if got[key] != expected[key]] == []


@pytest.mark.parametrize("variant", ["entangle-cnot", "entangle-general", "intercept"])
def test_branch_table_cache_ignores_coverage(variant):
    """Attacks that differ only in coverage share one cached table, and a
    fresh build at either coverage has the same bytes: no array reads it."""
    script = oracles.load_script("scripts/pin_branch_tables.py")
    order = ("bob", "trent", "eve")
    channels = {Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB, Channel.ALICE_TO_BOB}
    half, full = AttackModel(variant, channels, 0.5), AttackModel(variant, channels, 1.0)
    assert branch_table("qdc1", order, half) is branch_table("qdc1", order, full)

    def fresh_digest(attack):
        digest = hashlib.sha256()
        script._feed(digest, protocol._build_table("qdc1", order, attack))
        return digest.hexdigest()

    assert fresh_digest(half) == fresh_digest(full)
