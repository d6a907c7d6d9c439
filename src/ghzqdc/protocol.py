"""Three-party session machinery: authentication plus direct messaging.

One session runs between Alice (sender), Bob (receiver) and Trent, the
arbitrator who supplies GHZ triples. It has two phases:

Authentication. Trent prepares N triples (|000> + |111>)/sqrt(2) with
qubits labelled (A, T, B), encodes the A and B qubits with I or H chosen
by the owners' key bits, and transmits them. Alice and Bob undo the
operation with the same key bits, which restores the raw triples exactly
when nobody touched the channel. A random m-subset is then measured in z
by all three parties and compared publicly; a check position counts as an
error when the three outcomes are not all equal. An error rate above the
threshold aborts the session.

Messaging. Alice frames the message through the configured codec, picks
random check positions carrying fresh random bits, and encodes each used
surviving triple with H (bit 0) or HX (bit 1) on her qubit. In variant
"qdc1" the A qubits travel to Bob, who Bell-measures each (A, B) pair
while Trent measures T in x and publishes the outcome. In variant "qdc2"
the A qubits travel to Trent, who Bell-measures (A, T) and publishes one
bit per position (0 for Phi+/Psi-, 1 for Phi-/Psi+) while Bob measures B
in x privately. Either way Bob reconstructs Alice's bits, announces
completion, and only then does Alice reveal the check positions for
comparison. A check error rate above the threshold discards the message;
otherwise the codec decodes the surviving frame.

Transmission is modelled as ownership transfer inside the in-memory joint
state; channels are hook points where an adversary may act. Classical
announcements are public, append-only, and readable (not forgeable) by
the adversary.

The transcript serializes to JSON lines, one event per line with keys
ordinal / actor / kind / payload; see the README for the event catalogue.
Auth-key bits never appear in transcript payloads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .adversary import (
    AttackModel,
    Channel,
    EveRecord,
    NO_ATTACK,
    apply_channel_attack,
    eve_measure_ancilla,
)
from .authkeys import AuthKey, random_bits, unitary_for_key_bit
from .ecc import Codec, FramingError, decode as ecc_decode, encode as ecc_encode, none_codec
from .statevector import (
    BellOutcome,
    H,
    HX,
    PureState,
    XOutcome,
    apply_gate,
    measure_bell,
    measure_x,
    measure_z,
    new_ghz3,
)

# Qubit slots inside a triple's register; ancillas are appended after.
IDX_A, IDX_T, IDX_B = 0, 1, 2


class ConfigError(ValueError):
    """Session or run configuration is inconsistent."""


class CapacityError(ConfigError):
    """Frame plus check bits exceed the surviving triples."""


class InsufficientKeyError(ValueError):
    """An authentication key does not cover all GHZ positions."""


class Verdict(str, Enum):
    AUTHENTICATED = "authenticated"
    AUTH_ABORTED = "auth_aborted"
    MESSAGE_DELIVERED = "message_delivered"
    MESSAGE_DISCARDED = "message_discarded"


@dataclass(frozen=True)
class Event:
    ordinal: int
    actor: str  # trent | alice | bob | eve | public
    kind: str
    payload: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "ordinal": self.ordinal,
                "actor": self.actor,
                "kind": self.kind,
                "payload": self.payload,
            },
            sort_keys=True,
        )


class Transcript:
    """Append-only ordered event log for one session."""

    def __init__(self):
        self.events: list[Event] = []

    def emit(self, actor: str, kind: str, **payload) -> Event:
        ev = Event(len(self.events), actor, kind, payload)
        self.events.append(ev)
        return ev

    def announcements(self) -> list[Event]:
        """The public-channel subset, i.e. everything the adversary reads."""
        return [e for e in self.events if e.kind == "announce"]

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self.events) + "\n"

    def __len__(self) -> int:
        return len(self.events)


def _emit(transcript: Transcript | None, actor: str, kind: str, **payload):
    if transcript is not None:
        transcript.emit(actor, kind, **payload)


@dataclass(frozen=True)
class SessionConfig:
    """Knobs for one session; validated eagerly via validate()."""

    n_ghz: int
    m_auth_check: int
    check_fraction_msg: float = 0.25
    error_threshold_auth: float = 0.0
    error_threshold_msg: float = 0.0
    codec: Codec = field(default_factory=none_codec)
    protocol_variant: str = "qdc1"
    rng_seed: int = 0
    measure_order: tuple[str, str, str] | None = None  # permutation of bob/trent/eve
    record_transcript: bool = True
    record_eve: bool = True

    def validate(self) -> None:
        if self.n_ghz < 1:
            raise ConfigError("n_ghz must be >= 1")
        if not 0 <= self.m_auth_check < self.n_ghz:
            raise ConfigError("m_auth_check must satisfy 0 <= m < n_ghz")
        if not 0.0 <= self.check_fraction_msg < 1.0:
            raise ConfigError("check_fraction_msg must be in [0, 1)")
        for name in ("error_threshold_auth", "error_threshold_msg"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.protocol_variant not in ("qdc1", "qdc2"):
            raise ConfigError("protocol_variant must be 'qdc1' or 'qdc2'")
        if self.measure_order is not None and sorted(self.measure_order) != ["bob", "eve", "trent"]:
            raise ConfigError("measure_order must be a permutation of bob/trent/eve")

    def resolved_measure_order(self) -> tuple[str, str, str]:
        if self.measure_order is not None:
            return self.measure_order
        if self.protocol_variant == "qdc1":
            return ("bob", "trent", "eve")
        return ("trent", "bob", "eve")

    def to_dict(self) -> dict:
        return {
            "n_ghz": self.n_ghz,
            "m_auth_check": self.m_auth_check,
            "check_fraction_msg": self.check_fraction_msg,
            "error_threshold_auth": self.error_threshold_auth,
            "error_threshold_msg": self.error_threshold_msg,
            "codec": self.codec.name if self.codec.name != "repetition" else f"rep{self.codec.n}",
            "protocol_variant": self.protocol_variant,
            "rng_seed": self.rng_seed,
        }


@dataclass
class GhzTriple:
    """One GHZ triple plus whatever ancillas got entangled onto it."""

    position: int
    state: PureState


@dataclass(frozen=True)
class AuthCheckRecord:
    position: int
    alice_key_bit: int
    bob_key_bit: int
    outcome_alice: int
    outcome_trent: int
    outcome_bob: int

    @property
    def error(self) -> bool:
        return not (self.outcome_alice == self.outcome_trent == self.outcome_bob)


@dataclass
class AuthPhaseResult:
    verdict: Verdict
    surviving: list[GhzTriple]
    checks: list[AuthCheckRecord]
    error_rate: float
    all_triples: list[GhzTriple]


def auth_phase(
    config: SessionConfig,
    alice_key: AuthKey,
    bob_key: AuthKey,
    attack: AttackModel = NO_ATTACK,
    *,
    rng: np.random.Generator,
    eve_rng: np.random.Generator | None = None,
    transcript: Transcript | None = None,
    eve_record: EveRecord | None = None,
) -> AuthPhaseResult:
    """Run the authentication phase and return the surviving triples."""
    config.validate()
    n = config.n_ghz
    if len(alice_key.bits) < n:
        raise InsufficientKeyError(f"alice key covers {len(alice_key.bits)} < {n} positions")
    if len(bob_key.bits) < n:
        raise InsufficientKeyError(f"bob key covers {len(bob_key.bits)} < {n} positions")
    if eve_rng is None:
        eve_rng = np.random.default_rng(0)

    triples: list[GhzTriple] = []
    for pos in range(n):
        a_bit = int(alice_key.bits[pos])
        b_bit = int(bob_key.bits[pos])
        state = new_ghz3()
        _emit(transcript, "trent", "ghz_prepared", position=pos)

        state = apply_gate(state, unitary_for_key_bit(a_bit), IDX_A)
        _emit(transcript, "trent", "auth_encode", position=pos, target="alice")
        state = apply_gate(state, unitary_for_key_bit(b_bit), IDX_B)
        _emit(transcript, "trent", "auth_encode", position=pos, target="bob")

        for qubit, channel in ((IDX_A, Channel.TRENT_TO_ALICE), (IDX_B, Channel.TRENT_TO_BOB)):
            _emit(transcript, "trent", "transmit", position=pos, channel=channel.value)
            state, _ = apply_channel_attack(
                attack,
                state,
                qubit,
                channel=channel,
                ghz_position=pos,
                phase="auth",
                eve_rng=eve_rng,
                record=eve_record,
            )

        state = apply_gate(state, unitary_for_key_bit(a_bit), IDX_A)
        _emit(transcript, "alice", "auth_decode", position=pos)
        state = apply_gate(state, unitary_for_key_bit(b_bit), IDX_B)
        _emit(transcript, "bob", "auth_decode", position=pos)
        triples.append(GhzTriple(pos, state))

    m = config.m_auth_check
    check_positions = sorted(int(p) for p in rng.choice(n, size=m, replace=False)) if m else []
    _emit(
        transcript,
        "alice",
        "announce",
        what="auth_check_positions",
        positions=list(check_positions),
    )

    checks: list[AuthCheckRecord] = []
    for pos in check_positions:
        triple = triples[pos]
        outcomes = []
        for actor, qubit in (("alice", IDX_A), ("bob", IDX_B), ("trent", IDX_T)):
            z, triple.state = measure_z(triple.state, qubit, rng)
            _emit(transcript, actor, "z_measure", position=pos, outcome=z)
            _emit(transcript, actor, "announce", what="auth_z_outcome", position=pos, outcome=z)
            outcomes.append(z)
        za, zb, zt = outcomes
        rec = AuthCheckRecord(
            position=pos,
            alice_key_bit=int(alice_key.bits[pos]),
            bob_key_bit=int(bob_key.bits[pos]),
            outcome_alice=za,
            outcome_trent=zt,
            outcome_bob=zb,
        )
        checks.append(rec)
        _emit(
            transcript,
            "public",
            "auth_compare",
            position=pos,
            outcomes=[za, zt, zb],
            error=rec.error,
        )

    errors = sum(1 for c in checks if c.error)
    error_rate = errors / m if m else 0.0
    verdict = Verdict.AUTH_ABORTED if error_rate > config.error_threshold_auth else Verdict.AUTHENTICATED
    _emit(
        transcript,
        "public",
        "verdict",
        phase="auth",
        verdict=verdict.value,
        error_rate=error_rate,
        errors=errors,
        checked=m,
    )
    check_set = set(check_positions)
    surviving = [t for t in triples if t.position not in check_set]
    return AuthPhaseResult(verdict, surviving, checks, error_rate, triples)


# ---------------------------------------------------------------------------
# Messaging phase


@dataclass(frozen=True)
class MessagePlan:
    """Alice's private position plan for one messaging phase."""

    frame_bits: str
    message_positions: tuple[int, ...]
    check_positions: tuple[int, ...]
    check_bits: str

    def used_positions(self) -> list[int]:
        return sorted(self.message_positions + self.check_positions)

    def bit_at(self, seq_position: int) -> int:
        check_idx = self._check_index
        if seq_position in check_idx:
            return int(self.check_bits[check_idx[seq_position]])
        return int(self.frame_bits[self._message_index[seq_position]])

    def source_at(self, seq_position: int) -> str:
        return "check" if seq_position in self._check_index else "message"

    @cached_property
    def _check_index(self) -> dict[int, int]:
        return {p: i for i, p in enumerate(self.check_positions)}

    @cached_property
    def _message_index(self) -> dict[int, int]:
        return {p: i for i, p in enumerate(self.message_positions)}


def message_channel(variant: str) -> Channel:
    """The channel Alice's encoded qubits travel on: to Bob in qdc1, to Trent in qdc2."""
    return Channel.ALICE_TO_BOB if variant == "qdc1" else Channel.ALICE_TO_TRENT


def check_capacity(num_surviving: int, frame_len: int, check_fraction: float) -> int:
    """Number of message check bits for the survivors.

    Raises CapacityError when the frame plus those check bits exceed the
    surviving triples.
    """
    n_checks = int(num_surviving * check_fraction + 0.5) if check_fraction > 0 else 0
    if frame_len + n_checks > num_surviving:
        raise CapacityError(
            f"frame of {frame_len} bits plus {n_checks} check bits "
            f"exceeds {num_surviving} surviving triples"
        )
    return n_checks


def plan_message_positions(
    num_surviving: int,
    frame_bits: str,
    check_fraction: float,
    rng: np.random.Generator,
) -> MessagePlan:
    """Pick disjoint check and message positions among the survivors.

    Check positions are a uniform without-replacement sample; their bits
    are fresh random draws unrelated to the message. Message positions are
    the lowest remaining indices, in order.
    """
    n_checks = check_capacity(num_surviving, len(frame_bits), check_fraction)
    check_positions = (
        tuple(sorted(int(p) for p in rng.choice(num_surviving, size=n_checks, replace=False)))
        if n_checks
        else ()
    )
    check_bits = random_bits(rng, n_checks)
    check_set = set(check_positions)
    free = [p for p in range(num_surviving) if p not in check_set]
    message_positions = tuple(free[: len(frame_bits)])
    return MessagePlan(frame_bits, message_positions, check_positions, check_bits)


def _encode_and_send(
    surviving: list[GhzTriple],
    plan: MessagePlan,
    channel: Channel,
    attack: AttackModel,
    *,
    eve_rng: np.random.Generator,
    transcript: Transcript | None,
    eve_record: EveRecord | None,
) -> None:
    """Encode H / HX per bit and transmit the A qubits on `channel`."""
    for seq in plan.used_positions():
        triple = surviving[seq]
        bit = plan.bit_at(seq)
        gate = HX if bit else H
        triple.state = apply_gate(triple.state, gate, IDX_A)
        _emit(
            transcript,
            "alice",
            "msg_encode",
            position=seq,
            bit=bit,
            source=plan.source_at(seq),
            gate=gate.name,
        )
        _emit(transcript, "alice", "transmit", position=seq, channel=channel.value)
        triple.state, _ = apply_channel_attack(
            attack,
            triple.state,
            IDX_A,
            channel=channel,
            ghz_position=triple.position,
            phase="message",
            eve_rng=eve_rng,
            record=eve_record,
            seq_position=seq,
        )


_BELL_BIT = {
    BellOutcome.PHI_PLUS: 0,
    BellOutcome.PSI_MINUS: 0,
    BellOutcome.PHI_MINUS: 1,
    BellOutcome.PSI_PLUS: 1,
}


def _x_bit(x: XOutcome) -> int:
    return 0 if x is XOutcome.PLUS else 1


def qdc1_decode(bell: BellOutcome, x: XOutcome) -> int:
    """Bob's bit from his Bell outcome on (A, B) and Trent's published x."""
    return 1 ^ _BELL_BIT[bell] ^ _x_bit(x)


def trent_publish(bell: BellOutcome) -> int:
    """Trent's one-bit publication: 0 for Phi+/Psi-, 1 for Phi-/Psi+."""
    return _BELL_BIT[bell]


def qdc2_decode(trent_bit: int, x: XOutcome) -> int:
    """Bob's bit from Trent's published bit and his own x outcome on B."""
    if trent_bit not in (0, 1):
        raise ValueError(f"trent bit must be 0 or 1, got {trent_bit!r}")
    return 1 ^ trent_bit ^ _x_bit(x)


def _measure_eve_ancillas(
    triple: GhzTriple,
    eve_record: EveRecord | None,
    eve_rng: np.random.Generator,
    transcript: Transcript | None,
) -> None:
    if eve_record is None:
        return
    for capture in eve_record.pending_ancillas(triple.position):
        idx = triple.state.index_of(capture.ancilla_label)
        outcome, triple.state = eve_measure_ancilla(
            triple.state, idx, "z", eve_rng, capture=capture
        )
        _emit(
            transcript,
            "eve",
            "eve_ancilla_measure",
            position=capture.ghz_position,
            ancilla=capture.ancilla_label,
            outcome=outcome,
        )


def _measure_and_decode(
    surviving: list[GhzTriple],
    plan: MessagePlan,
    variant: str,
    *,
    rng: np.random.Generator,
    eve_rng: np.random.Generator,
    order: tuple[str, str, str],
    transcript: Transcript | None,
    eve_record: EveRecord | None,
    record_eve: bool,
) -> dict[int, int]:
    decoded: dict[int, int] = {}
    for seq in plan.used_positions():
        triple = surviving[seq]
        bell = x = tbit = None
        for step in order:
            if step == "bob" and variant == "qdc1":
                bell, triple.state = measure_bell(triple.state, IDX_A, IDX_B, rng)
                _emit(transcript, "bob", "bell_measure", position=seq, outcome=bell.value)
            elif step == "bob":
                x, triple.state = measure_x(triple.state, IDX_B, rng)
                _emit(transcript, "bob", "x_measure", position=seq, outcome=x.value)
            elif step == "trent" and variant == "qdc1":
                x, triple.state = measure_x(triple.state, IDX_T, rng)
                _emit(transcript, "trent", "x_measure", position=seq, outcome=x.value)
                _emit(
                    transcript,
                    "trent",
                    "announce",
                    what="x_outcome",
                    position=seq,
                    outcome=x.value,
                )
            elif step == "trent":
                bell, triple.state = measure_bell(triple.state, IDX_A, IDX_T, rng)
                _emit(transcript, "trent", "bell_measure", position=seq, outcome=bell.value)
                tbit = trent_publish(bell)
                _emit(transcript, "trent", "announce", what="trent_bit", position=seq, bit=tbit)
            elif step == "eve" and record_eve:
                _measure_eve_ancillas(triple, eve_record, eve_rng, transcript)
        bit = qdc1_decode(bell, x) if variant == "qdc1" else qdc2_decode(tbit, x)
        decoded[seq] = bit
        _emit(transcript, "bob", "decode_bit", position=seq, bit=bit)
    return decoded


@dataclass
class MessageResult:
    verdict: Verdict
    message: str | None
    error_rate: float
    errors: int
    checked: int
    corrected_errors: int
    diagnostic: str | None = None


def message_check_and_deliver(
    decoded: dict[int, int],
    plan: MessagePlan,
    threshold: float,
    codec: Codec,
    transcript: Transcript | None = None,
) -> MessageResult:
    """Compare the revealed check bits, then deliver or discard."""
    errors = sum(
        1 for i, pos in enumerate(plan.check_positions) if decoded[pos] != int(plan.check_bits[i])
    )
    checked = len(plan.check_positions)
    error_rate = errors / checked if checked else 0.0
    _emit(
        transcript,
        "public",
        "msg_compare",
        errors=errors,
        checked=checked,
        error_rate=error_rate,
    )
    message = diagnostic = None
    corrected = 0
    if error_rate <= threshold:
        frame = "".join(str(decoded[pos]) for pos in plan.message_positions)
        try:
            message, corrected = ecc_decode(codec, frame)
        except FramingError as exc:
            diagnostic = str(exc)
    verdict = Verdict.MESSAGE_DISCARDED if message is None else Verdict.MESSAGE_DELIVERED
    extra = {} if diagnostic is None else {"diagnostic": diagnostic}
    _emit(
        transcript,
        "public",
        "verdict",
        phase="message",
        verdict=verdict.value,
        error_rate=error_rate,
        **extra,
    )
    if message is not None:
        _emit(transcript, "bob", "deliver", message=message, corrected_errors=corrected)
    return MessageResult(verdict, message, error_rate, errors, checked, corrected, diagnostic)


# ---------------------------------------------------------------------------
# Whole-session orchestration


@dataclass
class SessionResult:
    config: SessionConfig
    auth_verdict: Verdict
    auth_error_rate: float
    auth_checks: list[AuthCheckRecord]
    message_sent: str | None = None
    plan: MessagePlan | None = None
    decoded_bits: dict[int, int] | None = None
    msg_verdict: Verdict | None = None
    msg_error_rate: float | None = None
    msg_check_errors: int = 0
    msg_checked: int = 0
    delivered_message: str | None = None
    corrected_errors: int = 0
    transcript: Transcript | None = None
    eve_record: EveRecord | None = None

    @property
    def delivered_ok(self) -> bool:
        return self.delivered_message is not None and self.delivered_message == self.message_sent


def session_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Honest-party and adversary generators, derived from one seed."""
    honest_ss, eve_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(honest_ss), np.random.default_rng(eve_ss)


def run_session(
    config: SessionConfig,
    alice_key: AuthKey,
    bob_key: AuthKey,
    message_bits: str | None,
    attack: AttackModel = NO_ATTACK,
) -> SessionResult:
    """Run one full session. message_bits=None runs authentication only."""
    config.validate()
    if message_bits is not None and any(c not in "01" for c in message_bits):
        raise ConfigError("message_bits must be a string of 0s and 1s")

    rng, eve_rng = session_rngs(config.rng_seed)
    transcript = Transcript() if config.record_transcript else None
    eve_record = EveRecord()
    _emit(
        transcript,
        "public",
        "session_start",
        protocol=config.protocol_variant,
        n_ghz=config.n_ghz,
        m_auth_check=config.m_auth_check,
        seed=config.rng_seed,
    )

    auth = auth_phase(
        config,
        alice_key,
        bob_key,
        attack,
        rng=rng,
        eve_rng=eve_rng,
        transcript=transcript,
        eve_record=eve_record,
    )
    result = SessionResult(
        config=config,
        auth_verdict=auth.verdict,
        auth_error_rate=auth.error_rate,
        auth_checks=auth.checks,
        message_sent=message_bits,
        transcript=transcript,
        eve_record=eve_record,
    )
    if auth.verdict is Verdict.AUTH_ABORTED or message_bits is None:
        return result

    frame = ecc_encode(config.codec, message_bits)
    plan = plan_message_positions(len(auth.surviving), frame, config.check_fraction_msg, rng)
    result.plan = plan

    _encode_and_send(
        auth.surviving,
        plan,
        message_channel(config.protocol_variant),
        attack,
        eve_rng=eve_rng,
        transcript=transcript,
        eve_record=eve_record,
    )
    decoded = _measure_and_decode(
        auth.surviving,
        plan,
        config.protocol_variant,
        rng=rng,
        eve_rng=eve_rng,
        order=config.resolved_measure_order(),
        transcript=transcript,
        eve_record=eve_record,
        record_eve=config.record_eve,
    )
    result.decoded_bits = decoded
    _emit(transcript, "bob", "announce", what="decoding_complete")
    _emit(
        transcript,
        "alice",
        "announce",
        what="msg_check_reveal",
        positions=list(plan.check_positions),
        values=plan.check_bits,
    )
    msg = message_check_and_deliver(
        decoded, plan, config.error_threshold_msg, config.codec, transcript
    )
    result.msg_verdict = msg.verdict
    result.msg_error_rate = msg.error_rate
    result.msg_check_errors = msg.errors
    result.msg_checked = msg.checked
    result.delivered_message = msg.message
    result.corrected_errors = msg.corrected_errors

    # Eve measures whatever ancillas are still live (check triples, unused
    # survivors) once the session is over.
    if config.record_eve and eve_record.pending_ancillas():
        by_position = {t.position: t for t in auth.all_triples}
        for pos in sorted({c.ghz_position for c in eve_record.pending_ancillas()}):
            _measure_eve_ancillas(by_position[pos], eve_record, eve_rng, transcript)
    return result
