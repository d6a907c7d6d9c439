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
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from itertools import islice

import numpy as np

from .adversary import (
    AttackModel,
    Channel,
    NO_ATTACK,
    apply_channel_attack,
    attack_draws,
    eve_measure_ancilla,
)
from .authkeys import AuthKey, random_bits, unitary_for_key_bit
from .ecc import (
    Codec, FramingError, decode as ecc_decode, encode as ecc_encode, format_bits, none_codec
)
from .statevector import (
    BELL_OUTCOMES,
    H,
    HX,
    X_OUTCOMES,
    PureState,
    apply_gate,
    measure_bell,
    measure_x,
    measure_z,
    new_ghz3,
)

# Qubit slots inside a triple's register; Eve's ancilla slots follow.
IDX_A, IDX_T, IDX_B = 0, 1, 2
# The keyed gate: key bit 1 selects it, key bit 0 the identity.
_KEY_GATE = unitary_for_key_bit(1)


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


@dataclass(frozen=True)
class Triples:
    """GHZ triples as one register, one row per triple.

    Qubits are (A, T, B), then one slot per attacked channel the triples
    crossed, in crossing order. `attached[r, s]` marks an ancilla Eve
    entangled in slot s of row r; she labels a row's attached ancillas
    E0, E1, ... in slot order.
    """

    state: PureState
    positions: np.ndarray  # GHZ position of each row
    attached: np.ndarray  # (rows, slots) bool

    def __len__(self) -> int:
        return self.state.rows

    def take(self, rows) -> Triples:
        return Triples(self.state.take(rows), self.positions[rows], self.attached[rows])


def _transmit(
    triples: Triples, attack: AttackModel, qubit: int, channel: Channel, hit, u
) -> tuple[Triples, np.ndarray | None]:
    """Send every row's `qubit` over `channel`; returns the intercept outcomes, if any."""
    width = triples.state.num_qubits
    state, outcomes = apply_channel_attack(attack, triples.state, qubit, channel, hit, u)
    attached = triples.attached
    if state.num_qubits > width:
        attached = np.column_stack([attached, hit])
    return Triples(state, triples.positions, attached), outcomes


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


@dataclass(frozen=True, eq=False)
class Trial:
    """One session's inputs: both keys, the message (None runs authentication
    only) and the seed of the session's honest and adversary generators.

    The generators are the two children SeedSequence(seed).spawn(2) would
    give, child i being SeedSequence(seed, spawn_key=(i,)). Each is built
    on first use: Eve's is never read in a run without an attack, nor in an
    authentication-only run of an entangling attack at full coverage.
    """

    alice_key: AuthKey
    bob_key: AuthKey
    message: np.ndarray | None
    seed: int

    @cached_property
    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0,)))

    @cached_property
    def eve_rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(1,)))


@dataclass
class AuthPhaseResult:
    """The authentication phase of a chunk of trials, trial by trial.

    `checks` has one row per check position, with the fields of
    AuthCheckRecord as its columns; `surviving` holds each trial's
    n - m unchecked triples in turn.
    """

    aborted: np.ndarray  # (trials,) bool
    errors: np.ndarray  # (trials,) check errors
    error_rates: np.ndarray  # (trials,)
    checks: np.ndarray  # (trials * m, 6)
    surviving: Triples


def auth_phase(
    config: SessionConfig,
    attack: AttackModel,
    trials: list[Trial],
    transcript: Transcript | None = None,
) -> AuthPhaseResult:
    """Run the authentication phase of every trial at once; a transcript records one trial."""
    n, m, count = config.n_ghz, config.m_auth_check, len(trials)
    legs = ((IDX_A, Channel.TRENT_TO_ALICE), (IDX_B, Channel.TRENT_TO_BOB))
    channels = [channel for _, channel in legs]
    keys = np.empty((2, count, n), dtype=bool)
    hit, eve_u = np.empty((count, n, 2), dtype=bool), np.empty((count, n, 2))
    check_positions = np.empty((count, m), dtype=int)
    u = np.empty((count, m, 3))
    # Each trial's draws, in the order its generators have always been read.
    for i, trial in enumerate(trials):
        for who, key, row in (("alice", trial.alice_key, keys[0]), ("bob", trial.bob_key, keys[1])):
            if len(key.bits) < n:
                raise InsufficientKeyError(f"{who} key covers {len(key.bits)} < {n} positions")
            row[i] = key.bits[:n]
        eve_rng = trial.eve_rng if attack.draws else None  # built only if Eve draws
        hit[i], eve_u[i] = attack_draws(attack, channels, n, eve_rng)
        if m:
            check_positions[i] = np.sort(trial.rng.choice(n, size=m, replace=False))
            # One uniform per check position and party, in (position, Alice/Bob/Trent) order.
            u[i] = trial.rng.random((m, 3))

    # Row i * n + p is position p of trial i.
    a_key, b_key = keys[0].reshape(-1), keys[1].reshape(-1)
    hit, eve_u = hit.reshape(-1, 2), eve_u.reshape(-1, 2)
    state = new_ghz3(count * n)
    state = apply_gate(state, _KEY_GATE, IDX_A, where=a_key)
    state = apply_gate(state, _KEY_GATE, IDX_B, where=b_key)
    triples = Triples(state, np.tile(np.arange(n), count), np.zeros((count * n, 0), dtype=bool))
    for j, (qubit, channel) in enumerate(legs):
        triples, _ = _transmit(triples, attack, qubit, channel, hit[:, j], eve_u[:, j])
    state = apply_gate(triples.state, _KEY_GATE, IDX_A, where=a_key)
    state = apply_gate(state, _KEY_GATE, IDX_B, where=b_key)
    triples = replace(triples, state=state)
    if transcript is not None:
        for pos in range(n):
            transcript.emit("trent", "ghz_prepared", position=pos)
            transcript.emit("trent", "auth_encode", position=pos, target="alice")
            transcript.emit("trent", "auth_encode", position=pos, target="bob")
            for channel in channels:
                transcript.emit("trent", "transmit", position=pos, channel=channel.value)
            transcript.emit("alice", "auth_decode", position=pos)
            transcript.emit("bob", "auth_decode", position=pos)
        transcript.emit("alice", "announce", what="auth_check_positions",
                        positions=check_positions[0].tolist())

    rows = (np.arange(count)[:, None] * n + check_positions).reshape(-1)
    outcomes = np.zeros((len(rows), 3), dtype=int)
    if m:
        state, u = triples.state.take(rows), u.reshape(-1, 3)
        for col, qubit in enumerate((IDX_A, IDX_B, IDX_T)):
            outcomes[:, col], state = measure_z(state, qubit, u[:, col])
    za, zb, zt = outcomes.T
    checks = np.column_stack([check_positions.reshape(-1), a_key[rows], b_key[rows], za, zt, zb])
    if transcript is not None:
        for pos, _, _, a, t, b in checks.tolist():
            for actor, z in (("alice", a), ("bob", b), ("trent", t)):
                transcript.emit(actor, "z_measure", position=pos, outcome=z)
                transcript.emit(actor, "announce", what="auth_z_outcome", position=pos,
                                outcome=z)
            transcript.emit("public", "auth_compare", position=pos,
                            outcomes=[a, t, b], error=not a == t == b)

    errors = (~((za == zt) & (zt == zb))).reshape(count, m).sum(axis=1)
    error_rates = errors / m if m else np.zeros(count)
    aborted = error_rates > config.error_threshold_auth
    if transcript is not None:
        verdict = Verdict.AUTH_ABORTED if aborted[0] else Verdict.AUTHENTICATED
        transcript.emit("public", "verdict", phase="auth", verdict=verdict.value,
                        error_rate=float(error_rates[0]), errors=int(errors[0]), checked=m)
    keep = np.ones(count * n, dtype=bool)
    keep[rows] = False
    return AuthPhaseResult(aborted, errors, error_rates, checks, triples.take(keep))


# ---------------------------------------------------------------------------
# Messaging phase


@dataclass(frozen=True, eq=False)
class MessagePlan:
    """Alice's private plan for one messaging phase, as three aligned arrays.

    `positions` are the used survivor indices in ascending order, `bits`
    the bit Alice sends at each, and `is_check` marks the check positions.
    The frame is `bits[~is_check]`, in order, and the check bits are
    `bits[is_check]`.
    """

    positions: np.ndarray
    bits: np.ndarray
    is_check: np.ndarray

    def used_positions(self) -> np.ndarray:
        """`positions`, for callers that read it through a method (perfbench's tracer)."""
        return self.positions


def message_channel(variant: str) -> Channel:
    """The channel Alice's encoded qubits travel on: to Bob in qdc1, to Trent in qdc2."""
    return Channel.ALICE_TO_BOB if variant == "qdc1" else Channel.ALICE_TO_TRENT


def check_capacity(num_surviving: int, frame_len: int, check_fraction: float) -> int:
    """Number of message check bits for the survivors.

    Raises CapacityError when the frame plus those check bits exceed the
    surviving triples.
    """
    n_checks = int(num_surviving * check_fraction + 0.5)
    if frame_len + n_checks > num_surviving:
        raise CapacityError(
            f"frame of {frame_len} bits plus {n_checks} check bits "
            f"exceeds {num_surviving} surviving triples"
        )
    return n_checks


def plan_message_positions(
    num_surviving: int,
    frame_bits: np.ndarray,
    check_fraction: float,
    rng: np.random.Generator,
) -> MessagePlan:
    """Pick disjoint check and message positions among the survivors.

    Check positions are a uniform without-replacement sample; their bits
    are fresh random draws unrelated to the message, in position order.
    Message positions are the lowest remaining indices, in order.
    """
    n_checks = check_capacity(num_surviving, len(frame_bits), check_fraction)
    check = np.zeros(num_surviving, dtype=bool)
    if n_checks:
        check[rng.choice(num_surviving, size=n_checks, replace=False)] = True
    check_bits = random_bits(rng, n_checks)
    free = ~check
    positions = np.flatnonzero(check | (free & (np.cumsum(free) <= len(frame_bits))))
    is_check = check[positions]
    bits = np.empty(len(positions), dtype=np.uint8)
    bits[is_check], bits[~is_check] = check_bits, frame_bits
    return MessagePlan(positions, bits, is_check)


def _encode_and_send(
    sent: Triples,
    plan: MessagePlan,
    channel: Channel,
    attack: AttackModel,
    hit: np.ndarray,
    u: np.ndarray,
    transcript: Transcript | None,
) -> tuple[Triples, np.ndarray | None]:
    """Encode H / HX per planned bit on every row and transmit the A qubits on `channel`.

    `hit` and `u` are Eve's draws per row. Returns the sent triples and an
    intercept's outcomes (-1 on rows Eve skipped); an entangling attack's
    ancillas take the register's last slot.
    """
    state = apply_gate(sent.state, H, IDX_A, where=plan.bits == 0)
    state = apply_gate(state, HX, IDX_A, where=plan.bits == 1)
    sent, outcomes = _transmit(replace(sent, state=state), attack, IDX_A, channel, hit, u)
    if transcript is not None:
        rows = zip(plan.positions.tolist(), plan.bits.tolist(), plan.is_check.tolist())
        for seq, bit, check in rows:
            transcript.emit("alice", "msg_encode", position=seq, bit=bit,
                            source="check" if check else "message", gate=HX.name if bit else H.name)
            transcript.emit("alice", "transmit", position=seq, channel=channel.value)
    return sent, outcomes


# Trent's published bit per Bell outcome code: 0 for Phi+/Psi-, 1 for Phi-/Psi+.
_BELL_BIT = np.array([0, 1, 1, 0])


def _decode(trent_bit, x):
    """Bob's bit from Trent's bit and the x outcome code (0 plus, 1 minus)."""
    return 1 ^ trent_bit ^ x


def _measure_eve_ancillas(
    attached: np.ndarray, state: PureState, u: np.ndarray
) -> tuple[np.ndarray, PureState]:
    """Eve's step: z-measure every attached ancilla with its uniform from `u`, (rows, slots).

    Returns the outcomes per (row, slot), -1 where no ancilla is attached.
    """
    outcomes = np.full(attached.shape, -1)
    for slot in range(attached.shape[1]):
        outcomes[:, slot], state = eve_measure_ancilla(
            state, IDX_B + 1 + slot, u[:, slot], where=attached[:, slot]
        )
    return outcomes, state


def _measure_and_decode(
    sent: Triples,
    plan: MessagePlan,
    variant: str,
    order: tuple[str, str, str],
    u: np.ndarray,
    eve_u: np.ndarray,
    transcript: Transcript | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's, Trent's and Eve's measurements in `order`, then Bob's decoding.

    `u` holds one uniform per row for each of Bob and Trent, columns in
    `order`; `eve_u` one per (row, ancilla slot). Returns (decoded bits,
    Eve's outcomes per (row, slot)).
    """
    honest = [step for step in order if step != "eve"]
    state = sent.state
    for step in order:
        if step == "eve":
            eve, state = _measure_eve_ancillas(sent.attached, state, eve_u)
            continue
        col = u[:, honest.index(step)]
        if step == "bob" and variant == "qdc1":
            bell, state = measure_bell(state, IDX_A, IDX_B, col)
        elif step == "bob":
            x, state = measure_x(state, IDX_B, col)
        elif variant == "qdc1":
            x, state = measure_x(state, IDX_T, col)
        else:
            bell, state = measure_bell(state, IDX_A, IDX_T, col)
    decoded = _decode(_BELL_BIT[bell], x).astype(np.uint8)
    if transcript is not None:
        _emit_measurements(transcript, sent, plan, variant, order, bell, x, eve, decoded)
    return decoded, eve


def _emit_measurements(transcript, sent, plan, variant, order, bell, x, eve, decoded) -> None:
    labels = np.cumsum(sent.attached, axis=1) - 1  # rank among the row's attached ancillas
    rows = zip(plan.positions.tolist(), sent.positions.tolist(), bell.tolist(), x.tolist(),
               eve.tolist(), labels.tolist(), decoded.tolist())
    for seq, pos, b, xo, eve_row, label_row, bit in rows:
        bell_value, x_value = BELL_OUTCOMES[b].value, X_OUTCOMES[xo].value
        for step in order:
            if step == "bob" and variant == "qdc1":
                transcript.emit("bob", "bell_measure", position=seq, outcome=bell_value)
            elif step == "bob":
                transcript.emit("bob", "x_measure", position=seq, outcome=x_value)
            elif step == "trent" and variant == "qdc1":
                transcript.emit("trent", "x_measure", position=seq, outcome=x_value)
                transcript.emit("trent", "announce", what="x_outcome", position=seq,
                                outcome=x_value)
            elif step == "trent":
                transcript.emit("trent", "bell_measure", position=seq, outcome=bell_value)
                transcript.emit("trent", "announce", what="trent_bit", position=seq,
                                bit=int(_BELL_BIT[b]))
            else:
                for outcome, label in zip(eve_row, label_row):
                    if outcome >= 0:
                        transcript.emit("eve", "eve_ancilla_measure", position=pos,
                                        ancilla=f"E{label}", outcome=outcome)
        transcript.emit("bob", "decode_bit", position=seq, bit=bit)


@dataclass
class MessageResult:
    verdict: Verdict
    message: np.ndarray | None
    error_rate: float
    errors: int
    checked: int
    corrected_errors: int
    diagnostic: str | None = None


def message_check_and_deliver(
    decoded: np.ndarray,
    plan: MessagePlan,
    threshold: float,
    codec: Codec,
    transcript: Transcript | None = None,
) -> MessageResult:
    """Compare the revealed check bits, then deliver or discard; `decoded` aligns with the plan."""
    is_check = plan.is_check
    errors = int(np.count_nonzero(decoded[is_check] != plan.bits[is_check]))
    checked = int(np.count_nonzero(is_check))
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
        try:
            message, corrected = ecc_decode(codec, decoded[~is_check])
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
        _emit(transcript, "bob", "deliver", message=format_bits(message),
              corrected_errors=corrected)
    return MessageResult(verdict, message, error_rate, errors, checked, corrected, diagnostic)


# ---------------------------------------------------------------------------
# Trial-major orchestration

# Most rows a chunk's registers hold: a chunk runs max(1, ROW_CAP // n_ghz)
# trials. Larger chunks buy little once kernel calls are amortised, and
# each row held at once costs memory, so the cap keeps peak memory flat
# however many trials a run has.
ROW_CAP = 512


@dataclass(frozen=True)
class Tally:
    """Integer counts over a set of trials; tallies of disjoint sets add with `+`.

    The four verdict counts are named after the `Verdict` members. The auth
    tuples count check positions by (Alice's key bit a, Bob's key bit b) at
    index 2a + b; `eve` counts Eve's message-phase outcomes by (Alice's
    bit, Eve's outcome) at index 2 * bit + outcome.
    """

    trials: int = 0
    authenticated: int = 0
    auth_aborted: int = 0
    message_delivered: int = 0
    message_discarded: int = 0
    delivered_ok: int = 0
    auth_checked: tuple[int, int, int, int] = (0, 0, 0, 0)
    auth_errors: tuple[int, int, int, int] = (0, 0, 0, 0)
    msg_checked: int = 0
    msg_errors: int = 0
    eve: tuple[int, int, int, int] = (0, 0, 0, 0)

    def __add__(self, other: Tally) -> Tally:
        sums = {}
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            sums[f.name] = a + b if isinstance(a, int) else tuple(map(operator.add, a, b))
        return Tally(**sums)


@dataclass
class SessionResult:
    """One trial's outcome; `msg` is None when the trial sent no message."""

    auth_verdict: Verdict
    auth_error_rate: float
    auth_errors: int
    checks: np.ndarray  # one row per check position, the fields of AuthCheckRecord as columns
    message_sent: np.ndarray | None = None
    plan: MessagePlan | None = None
    decoded_bits: np.ndarray | None = None  # Bob's bit at each of plan.positions
    msg: MessageResult | None = None
    transcript: Transcript | None = None
    # (Alice's bit, Eve's outcome) for each message-phase attack.
    eve_observations: list[tuple[int, int]] = field(default_factory=list)

    @property
    def auth_checks(self) -> list[AuthCheckRecord]:
        return [AuthCheckRecord(*row) for row in self.checks.tolist()]

    @property
    def delivered_ok(self) -> bool:
        return (
            self.msg is not None
            and self.msg.message is not None
            and np.array_equal(self.msg.message, self.message_sent)
        )


def _message_phase(
    config: SessionConfig,
    attack: AttackModel,
    trials: list[Trial],
    auth: AuthPhaseResult,
    results: list[SessionResult],
    transcript: Transcript | None,
) -> tuple[int, int, int, int]:
    """Send the message of every authenticated trial at once; fills in their results.

    Returns the chunk's counts of Eve's message-phase outcomes, indexed
    by 2 * (Alice's bit) + outcome.
    """
    survivors = config.n_ghz - config.m_auth_check
    channel = message_channel(config.protocol_variant)
    active = [i for i, (trial, aborted) in enumerate(zip(trials, auth.aborted.tolist()))
              if trial.message is not None and not aborted]
    if not active:
        return (0, 0, 0, 0)
    plans, rows, hits, eve_us, us = [], [], [], [], []
    for i in active:
        trial = trials[i]
        frame = ecc_encode(config.codec, trial.message)
        plan = plan_message_positions(survivors, frame, config.check_fraction_msg, trial.rng)
        eve_rng = trial.eve_rng if attack.draws else None
        hit, eve_u = attack_draws(attack, (channel,), len(plan.bits), eve_rng)
        plans.append(plan)
        rows.append(i * survivors + plan.positions)
        hits.append(hit[:, 0])
        eve_us.append(eve_u[:, 0])
        us.append(trial.rng.random((len(plan.bits), 2)))
    bounds = np.cumsum([0] + [len(plan.bits) for plan in plans]).tolist()
    chunk_plan = MessagePlan(*(np.concatenate([getattr(plan, name) for plan in plans])
                               for name in ("positions", "bits", "is_check")))

    sent, eve_msg = _encode_and_send(
        auth.surviving.take(np.concatenate(rows)), chunk_plan, channel, attack,
        np.concatenate(hits), np.concatenate(eve_us), transcript,
    )
    # Eve's uniforms for her attached ancillas, trial by trial in (row, slot) order.
    ancilla_u = np.zeros(sent.attached.shape)
    for i, lo, hi in zip(active, bounds, bounds[1:]):
        attached = sent.attached[lo:hi]
        if attached.any():
            ancilla_u[lo:hi][attached] = trials[i].eve_rng.random(int(attached.sum()))
    decoded, eve = _measure_and_decode(
        sent, chunk_plan, config.protocol_variant, config.resolved_measure_order(),
        np.concatenate(us), ancilla_u, transcript,
    )
    if sent.attached.shape[1] > auth.surviving.attached.shape[1]:
        eve_msg = eve[:, -1]  # the message-phase ancilla, measured at Eve's step

    for i, plan, lo, hi in zip(active, plans, bounds, bounds[1:]):
        res = results[i]
        res.plan, res.decoded_bits = plan, decoded[lo:hi]
        if eve_msg is not None:
            outcomes = eve_msg[lo:hi]
            seen = outcomes >= 0
            res.eve_observations = list(zip(plan.bits[seen].tolist(), outcomes[seen].tolist()))
        _emit(transcript, "bob", "announce", what="decoding_complete")
        _emit(
            transcript,
            "alice",
            "announce",
            what="msg_check_reveal",
            positions=plan.positions[plan.is_check].tolist(),
            values=format_bits(plan.bits[plan.is_check]),
        )
        res.msg = message_check_and_deliver(
            decoded[lo:hi], plan, config.error_threshold_msg, config.codec, transcript
        )
    if eve_msg is None:
        return (0, 0, 0, 0)
    seen = eve_msg >= 0
    return tuple(np.bincount(2 * chunk_plan.bits[seen] + eve_msg[seen], minlength=4).tolist())


def run_chunk(
    config: SessionConfig,
    attack: AttackModel,
    trials: list[Trial],
    transcript: Transcript | None = None,
) -> tuple[Tally, list[SessionResult]]:
    """Run a chunk of trials trial-major: rows are (trial, position) pairs.

    Each phase runs each kernel once over the rows of every trial in it;
    trials that abort skip the message phase. Every trial's generators are
    read in the same order as in a session run alone, so a trial's outcome
    does not depend on its chunk. A transcript records a one-trial chunk.
    """
    config.validate()
    auth = auth_phase(config, attack, trials, transcript)
    checks = auth.checks.reshape(len(trials), config.m_auth_check, auth.checks.shape[1])
    results = [
        SessionResult(
            Verdict.AUTH_ABORTED if aborted else Verdict.AUTHENTICATED,
            rate,
            errors,
            trial_checks,
            trial.message,
        )
        for trial, aborted, rate, errors, trial_checks in zip(
            trials, auth.aborted.tolist(), auth.error_rates.tolist(), auth.errors.tolist(), checks
        )
    ]
    eve = _message_phase(config, attack, trials, auth, results, transcript)

    msgs = [res.msg for res in results if res.msg is not None]
    delivered = sum(msg.verdict is Verdict.MESSAGE_DELIVERED for msg in msgs)
    aborted = int(auth.aborted.sum())
    pair = 2 * auth.checks[:, 1] + auth.checks[:, 2]
    outcomes = auth.checks[:, 3:]
    error = (outcomes != outcomes[:, :1]).any(axis=1)
    tally = Tally(
        trials=len(trials),
        authenticated=len(trials) - aborted,
        auth_aborted=aborted,
        message_delivered=delivered,
        message_discarded=len(msgs) - delivered,
        delivered_ok=sum(res.delivered_ok for res in results),
        auth_checked=tuple(np.bincount(pair, minlength=4).tolist()),
        auth_errors=tuple(np.bincount(pair[error], minlength=4).tolist()),
        msg_checked=sum(msg.checked for msg in msgs),
        msg_errors=sum(msg.errors for msg in msgs),
        eve=eve,
    )
    return tally, results


def chunk_size(n_ghz: int) -> int:
    """Most trials of n_ghz triples each that one chunk runs: max(1, ROW_CAP // n_ghz)."""
    return max(1, ROW_CAP // n_ghz)


def run_trials(
    config: SessionConfig, attack: AttackModel, trials: Iterable[Trial]
) -> Iterator[tuple[Tally, list[SessionResult]]]:
    """Run `trials` in chunks of chunk_size(n_ghz) trials, yielding each chunk's results.

    Each chunk's trials are taken from `trials` only when the chunk starts.
    """
    size = chunk_size(config.n_ghz)
    trials = iter(trials)
    while chunk := list(islice(trials, size)):
        yield run_chunk(config, attack, chunk)


def run_session(
    config: SessionConfig,
    alice_key: AuthKey,
    bob_key: AuthKey,
    message_bits: np.ndarray | None,
    attack: AttackModel = NO_ATTACK,
) -> SessionResult:
    """Run one full session as a one-trial chunk. message_bits=None runs authentication only."""
    transcript = Transcript() if config.record_transcript else None
    _emit(
        transcript,
        "public",
        "session_start",
        protocol=config.protocol_variant,
        n_ghz=config.n_ghz,
        m_auth_check=config.m_auth_check,
        seed=config.rng_seed,
    )
    trial = Trial(alice_key, bob_key, message_bits, config.rng_seed)
    _, (result,) = run_chunk(config, attack, [trial], transcript)
    result.transcript = transcript
    return result
