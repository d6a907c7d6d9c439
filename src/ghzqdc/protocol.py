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

A triple's state is fixed by its key bits, Eve's hits, Alice's bit and
the outcomes so far, so `branch_table` enumerates every state once per
(variant, measurement order, attack but its coverage), with each
measurement's Born probabilities. A row carries only its node in that
table: a gate or a transmission moves it to a child node, and a
measurement picks an outcome with the row's uniform. Channels are hook
points where an adversary may act. Classical announcements are public,
append-only, and readable (not forgeable) by the adversary.

A run moves a `Chunk` of trials at a time as columns, (trial, ...) arrays:
a trial's loops hold only its generator calls, every other step is one
array operation over the chunk, and `run_chunk` returns a `Tally` and
per-trial column arrays. `SessionResult` comes only from `run_session`.

A session's transcript is rendered from its finished `SessionResult` by
`render_transcript` as a list of event records, dicts with keys ordinal /
actor / kind / payload; no phase records anything as it runs. `to_jsonl`
writes them as JSON lines, one event per line; see the README for the
event catalogue. Auth-key bits never appear in transcript payloads, and
a verdict is its name, one of `VERDICTS`.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .adversary import AttackModel, Channel, NO_ATTACK, apply_channel_attack, attack_draws
from .authkeys import AuthKey
from .ecc import Codec, decode as ecc_decode, encode as ecc_encode, format_bits, framing_error
from .seeds import generator, session_words
from .statevector import (
    BELL_OUTCOMES, H, HX, X_OUTCOMES, apply_gate, measure_branches, new_ghz3, pick,
)

# Not called here since the branch table replaced per-chunk kernels; perfbench's
# tracer rebinds these names of this module.
from .adversary import eve_measure_ancilla  # noqa: F401
from .statevector import measure_bell, measure_x, measure_z  # noqa: F401

# Qubit slots inside a triple's register; Eve's ancilla slots follow.
IDX_A, IDX_T, IDX_B = 0, 1, 2
# Alice's message gate by bit, and its name: H encodes 0, HX encodes 1.
_MESSAGE_GATE = (H, HX)
_MESSAGE_GATE_NAME = ("H", "HX")


class ConfigError(ValueError):
    """Session or run configuration is inconsistent."""


class CapacityError(ConfigError):
    """Frame plus check bits exceed the surviving triples."""


class InsufficientKeyError(ValueError):
    """An authentication key does not cover all GHZ positions."""


# The public verdicts, by name: authentication's, then the message phase's.
VERDICTS = ("authenticated", "auth_aborted", "message_delivered", "message_discarded")


@dataclass(frozen=True)
class SessionConfig:
    """Knobs for one session; validated at construction (and by dataclasses.replace)."""

    n_ghz: int
    m_auth_check: int
    check_fraction_msg: float = 0.25
    error_threshold_auth: float = 0.0
    error_threshold_msg: float = 0.0
    codec: Codec = Codec("none")
    protocol_variant: str = "qdc1"
    rng_seed: int = 0
    measure_order: tuple[str, str, str] | None = None  # permutation of bob/trent/eve

    def __post_init__(self):
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
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")

    def resolved_measure_order(self) -> tuple[str, str, str]:
        if self.measure_order is not None:
            return self.measure_order
        if self.protocol_variant == "qdc1":
            return ("bob", "trent", "eve")
        return ("trent", "bob", "eve")

    def to_dict(self) -> dict:
        """Every field but `measure_order`, the codec by its name."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "measure_order"}
        return out | {"codec": self.codec.name}


# ---------------------------------------------------------------------------
# Branch table: every state a row can reach, as integer nodes


def _read_only(array: np.ndarray) -> np.ndarray:
    """`array`, locked: a cached table is shared by every run in the process."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Measurement:
    """A measurement as a step between nodes: each node's Born probabilities
    and the node each outcome leads to. Rows at nodes outside `acts` are
    not measured: they move to `child[node, 0]` and read outcome -1."""

    acts: np.ndarray  # (nodes,) bool
    probs: np.ndarray  # (nodes, outcomes)
    child: np.ndarray  # (nodes, outcomes); -1 past a branch no uniform can pick

    def __post_init__(self):
        for array in (self.acts, self.probs, self.child):
            _read_only(array)

    def __call__(self, node: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(outcome code, next node) of each row, picked with the row's uniform from `u`."""
        act = self.acts[node]
        k = np.zeros(node.shape, dtype=np.intp)
        k[act] = pick(self.probs[node[act]], u[act])
        return np.where(act, k, -1), self.child[node, k]


@dataclass(frozen=True, eq=False)
class BranchTable:
    """A session's steps over the states its rows can reach, as integer nodes.

    A fresh GHZ triple moves to `keyed[0, 2a + b]` for key bits (a, b) and
    crosses `legs`, to Alice and to Bob (the owners' decoding is folded into
    the nodes after). A checked row meets `checks`, z of A, B and T; a used
    row moves to `encode[node, bit]`, crosses `send` and meets `measure`,
    (basis or "eve", step) pairs in measurement order, one Eve step per ancilla
    slot. A crossing is empty when Eve ignores the channel, else the
    (nodes, 2) children by her hit, then an intercept's Measurement.
    `attached[node]` marks, after `send`, the slots whose ancilla Eve
    entangled; `message_ancilla`: the last slot is the message-phase one.
    """

    keyed: np.ndarray  # (1, 4)
    legs: tuple[tuple, tuple]
    checks: tuple[Measurement, Measurement, Measurement]
    encode: np.ndarray  # (nodes, 2)
    send: tuple
    measure: tuple[tuple[str, Measurement], ...]
    attached: np.ndarray  # (nodes, slots) bool
    message_ancilla: bool


def _cross(crossing: tuple, node, hit, u) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows crossing a channel with Eve's `hit` and intercept uniforms `u`:
    (next nodes, intercept outcomes with -1 where she skipped, or None)."""
    outcomes = None
    if crossing:
        node = crossing[0][node, hit.astype(np.intp)]
    if len(crossing) > 1:
        outcomes, node = crossing[1](node, u)
    return node, outcomes


class _Nodes(NamedTuple):
    """The nodes a step reaches: a register row each, and the code each choice took."""

    state: np.ndarray  # (nodes, 2**n) amplitudes
    codes: dict[str, np.ndarray]


def _choose(front: _Nodes, name: str, count: int, act) -> tuple[_Nodes, np.ndarray]:
    """Branch every node on a code in range(count), applied to each code's copy
    of the nodes by act(state, code); node r with code c leads to node
    c * (number of nodes) + r."""
    rows = np.tile(np.arange(len(front.state)), count)
    code = np.repeat(np.arange(count), len(front.state))
    codes = {key: v[rows] for key, v in front.codes.items()} | {name: code}
    state = np.concatenate([act(front.state, c) for c in range(count)])
    return _Nodes(state, codes), _read_only(np.arange(len(rows)).reshape(count, -1).T)


def _per_code(front: _Nodes, name: str, count: int, act) -> _Nodes:
    """act(state, code) on each node with the node's own code under `name`, in node order."""
    copies = np.stack([act(front.state, c) for c in range(count)])
    return front._replace(state=copies[front.codes[name], np.arange(len(front.state))])


def _branch(front: _Nodes, qubits, basis: str, acts=None) -> tuple[_Nodes, Measurement]:
    """Expand the `acts` nodes (all by default) into every branch of a measurement;
    the other nodes pass through."""
    state = front.state
    acts = np.ones(len(state), dtype=bool) if acts is None else acts
    probs, reached, branches = measure_branches(state[acts], qubits, basis)
    at, k = np.nonzero(reached)
    passing, parents = np.flatnonzero(~acts), np.flatnonzero(acts)[at]
    shape = (len(state), probs.shape[1])
    all_probs, child = np.zeros(shape), np.full(shape, -1)
    all_probs[acts] = probs
    child[passing] = np.arange(len(passing))[:, None]
    child[parents, k] = len(passing) + np.arange(len(k))
    step = Measurement(acts, all_probs, child)
    rows = np.concatenate([passing, parents])
    codes = {key: v[rows] for key, v in front.codes.items()}
    return _Nodes(np.concatenate([state[passing], branches]), codes), step


def _cross_all(front: _Nodes, attack: AttackModel, qubit: int, channel: Channel):
    """Every branch of `qubit` crossing `channel`: Eve's hit, then an intercept's outcome."""
    if not attack.targets(channel):
        return front, ()
    hit = channel.value
    front, hits = _choose(front, hit, 2, lambda s, code: apply_channel_attack(
        attack, s, qubit, channel, code == 1))
    if attack.unitary is not None:  # an entangling attack
        return front, (hits,)
    front, intercept = _branch(front, (qubit,), attack.intercept_basis, front.codes[hit] == 1)
    return front, (hits, intercept)


# The message-phase measurement of Bob and of Trent, by variant: (qubits, basis).
_MEASUREMENTS = {("bob", "qdc1"): ((IDX_A, IDX_B), "bell"), ("trent", "qdc1"): ((IDX_T,), "x"),
                 ("bob", "qdc2"): ((IDX_B,), "x"), ("trent", "qdc2"): ((IDX_A, IDX_T), "bell")}


# Every init field of an attack but coverage: Eve's hits are choices in the
# table, so coverage weights its paths but changes none of its arrays. The
# derived operators follow from the init fields (and are unhashable arrays).
_TABLE_FIELDS = operator.attrgetter(
    *(f.name for f in fields(AttackModel) if f.init and f.name != "coverage"))
_TABLES: dict[tuple, BranchTable] = {}  # at most 32, the oldest dropped first


def branch_table(variant: str, order: tuple[str, str, str], attack: AttackModel) -> BranchTable:
    """The branch table of a protocol variant, resolved measurement order and attack.

    Built once per distinct (variant, order, attack but its coverage) by
    pushing one small register through the kernels: every choice, and every
    measurement outcome of nonzero probability, becomes a row of its own.
    Each kernel gives a stack, bit for bit, what it gives each row alone, so
    a walk of the table sees the probabilities the kernels would give the
    session's own rows.
    """
    key = (variant, order, _TABLE_FIELDS(attack))
    table = _TABLES.get(key)
    if table is None:
        if len(_TABLES) == 32:
            del _TABLES[next(iter(_TABLES))]
        table = _TABLES[key] = _build_table(variant, order, attack)
    return table


def _build_table(variant: str, order: tuple[str, str, str], attack: AttackModel) -> BranchTable:
    def keyed(state, pair):  # key bits (a, b) = divmod(pair, 2): H where an owner's bit is 1
        for bit, qubit in zip(divmod(pair, 2), (IDX_A, IDX_B)):
            if bit:
                state = apply_gate(state, H, qubit)
        return state

    front, keys = _choose(_Nodes(new_ghz3(), {}), "keys", 4, keyed)
    front, to_alice = _cross_all(front, attack, IDX_A, Channel.TRENT_TO_ALICE)
    front, to_bob = _cross_all(front, attack, IDX_B, Channel.TRENT_TO_BOB)
    front = _per_code(front, "keys", 4, keyed)
    checked, checks = front, []
    for qubit in (IDX_A, IDX_B, IDX_T):
        checked, step = _branch(checked, (qubit,), "z")
        checks.append(step)

    channel = message_channel(variant)
    front, bits = _choose(front, "bit", 2, lambda s, bit: apply_gate(s, _MESSAGE_GATE[bit], IDX_A))
    front, send = _cross_all(front, attack, IDX_A, channel)
    # Eve's ancilla slots, in the order the crossings appended them.
    slots = [c.value for c in (Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB, channel)
             if attack.targets(c) and attack.unitary is not None]
    attached = np.array([front.codes[hit] == 1 for hit in slots], dtype=bool)
    attached = _read_only(attached.reshape(len(slots), len(front.state)).T)
    measure = []
    for party in order:
        if party != "eve":
            qubits, basis = _MEASUREMENTS[party, variant]
            front, step = _branch(front, qubits, basis)
            measure.append((basis, step))
        for j, hit in enumerate(slots if party == "eve" else ()):
            front, step = _branch(front, (IDX_B + 1 + j,), "z", front.codes[hit] == 1)
            measure.append(("eve", step))
    return BranchTable(keys, (to_alice, to_bob), tuple(checks), bits, send, tuple(measure),
                       attached, channel.value in slots)


@dataclass(frozen=True, eq=False)
class Chunk:
    """A chunk's inputs as columns, a row per trial: the (trials, 2, >= n) key
    bits, Alice's then Bob's; the (trials, bits) messages, or None for
    authentication only; and the (trials, 2, 4) uint64 PCG64 words of each
    trial's honest and adversary generators, built on first use (Eve's only
    when she draws)."""

    keys: np.ndarray
    messages: np.ndarray | None
    words: np.ndarray

    @cached_property
    def rngs(self) -> np.ndarray:
        return np.array([generator(w) for w in self.words[:, 0]], dtype=object)

    @cached_property
    def eve_rngs(self) -> np.ndarray:
        return np.array([generator(w) for w in self.words[:, 1]], dtype=object)


@dataclass
class AuthPhaseResult:
    """The authentication phase of a chunk of trials, trial by trial.

    `checks` has one row per check position, with columns (position, a, b,
    z_A, z_T, z_B): the owners' key bits there and the three z outcomes.
    `error` marks its check errors, where the outcomes are not all equal;
    `surviving` holds each trial's n - m unchecked triples in turn, in
    position order.
    """

    aborted: np.ndarray  # (trials,) bool
    errors: np.ndarray  # (trials,) check errors
    error_rates: np.ndarray  # (trials,)
    checks: np.ndarray  # (trials * m, 6)
    error: np.ndarray  # (trials * m,) bool
    surviving: np.ndarray  # the branch-table node of each surviving triple


def _attack_draws(attack: AttackModel, channels, rows: int, chunk: Chunk, trials: np.ndarray):
    """`attack_draws` over `rows` triples of each of the chunk's `trials`, as
    (trials, rows, channels) arrays: one call for all of them when Eve reads
    no generator, else one per trial on its own adversary generator."""
    if not attack.draws:
        draws = attack_draws(attack, channels, len(trials) * rows, None)
        return [a.reshape(len(trials), rows, len(channels)) for a in draws]
    hit = np.empty((len(trials), rows, len(channels)), dtype=bool)
    u = np.empty(hit.shape)
    for i, eve_rng in enumerate(chunk.eve_rngs[trials]):
        hit[i], u[i] = attack_draws(attack, channels, rows, eve_rng)
    return hit, u


def auth_phase(config: SessionConfig, attack: AttackModel, chunk: Chunk) -> AuthPhaseResult:
    """Run the authentication phase of every trial of the chunk at once."""
    n, m, count = config.n_ghz, config.m_auth_check, len(chunk.words)
    if chunk.keys.shape[2] < n:
        raise InsufficientKeyError(f"keys cover {chunk.keys.shape[2]} < {n} positions")
    channels = (Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB)
    picks = np.empty((count, m), dtype=np.intp)
    u = np.empty((count, m, 3))
    # Each trial's draws, in the order its generators have always been read.
    hit, eve_u = _attack_draws(attack, channels, n, chunk, np.arange(count))
    if m:
        for i, rng in enumerate(chunk.rngs):
            picks[i] = rng.choice(n, size=m, replace=False)
            # One uniform per check position and party, in (position, Alice/Bob/Trent) order.
            rng.random(out=u[i])
    check_positions = np.sort(picks, axis=1)

    # Row i * n + p is position p of trial i.
    a_key, b_key = chunk.keys[:, 0, :n].reshape(-1), chunk.keys[:, 1, :n].reshape(-1)
    hit, eve_u = hit.reshape(-1, 2), eve_u.reshape(-1, 2)
    table = branch_table(config.protocol_variant, tuple(config.resolved_measure_order()), attack)
    node = table.keyed[0, 2 * a_key + b_key]
    for j, crossing in enumerate(table.legs):
        node, _ = _cross(crossing, node, hit[:, j], eve_u[:, j])

    rows = (np.arange(count)[:, None] * n + check_positions).reshape(-1)
    outcomes = np.zeros((len(rows), 3), dtype=int)
    if m:
        checked, u = node[rows], u.reshape(-1, 3)
        for col, step in enumerate(table.checks):
            outcomes[:, col], checked = step(checked, u[:, col])
    za, zb, zt = outcomes.T
    checks = np.column_stack([check_positions.reshape(-1), a_key[rows], b_key[rows], za, zt, zb])

    error = ~((za == zt) & (zt == zb))
    errors = error.reshape(count, m).sum(axis=1)
    error_rates = errors / m if m else np.zeros(count)
    aborted = error_rates > config.error_threshold_auth
    keep = np.ones(count * n, dtype=bool)
    keep[rows] = False
    return AuthPhaseResult(aborted, errors, error_rates, checks, error, node[keep])


# ---------------------------------------------------------------------------
# Messaging phase


class MessagePlan(NamedTuple):
    """Alice's private plan for the messaging phase, as three aligned arrays:
    a session's, or a chunk's as (trial, used position) matrices.

    `positions` are the used survivor indices in ascending order, `bits`
    the bit Alice sends at each, and `is_check` marks the check positions.
    The frame is `bits[~is_check]`, in order, and the check bits are
    `bits[is_check]`.
    """

    positions: np.ndarray
    bits: np.ndarray
    is_check: np.ndarray

    def used_positions(self) -> np.ndarray:
        """Every used survivor index, for callers that read it by method (perfbench's tracer)."""
        return self.positions.ravel()


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


def plan_message_positions(picks: np.ndarray, check_bits: np.ndarray, frames: np.ndarray,
                           num_surviving: int) -> MessagePlan:
    """Lay out each trial's frame and check bits over its survivors, a row per trial.

    `picks` are a trial's check positions, a uniform without-replacement
    sample of its survivors, and `check_bits` the fresh random bits,
    unrelated to the message, that Alice sends there in position order.
    Message positions are the lowest remaining indices, in order.
    """
    count = len(frames)
    check = np.zeros((count, num_surviving), dtype=bool)
    check[np.arange(count)[:, None], picks] = True
    free = ~check
    used = check | (free & (np.cumsum(free, axis=1) <= frames.shape[1]))
    positions = np.nonzero(used)[1].reshape(count, picks.shape[1] + frames.shape[1])
    is_check = check[used].reshape(positions.shape)
    bits = np.empty(positions.shape, dtype=np.uint8)
    bits[is_check], bits[~is_check] = check_bits.ravel(), frames.ravel()
    return MessagePlan(positions, bits, is_check)


# Trent's published bit per Bell outcome code: 0 for Phi+/Psi-, 1 for Phi-/Psi+.
_BELL_BIT = np.array([0, 1, 1, 0])


def _decode(trent_bit, x):
    """Bob's bit from Trent's bit and the x outcome code (0 plus, 1 minus)."""
    return 1 ^ trent_bit ^ x


def _measure(table: BranchTable, node: np.ndarray, u: np.ndarray, eve_u) -> dict[str, np.ndarray]:
    """Bob's, Trent's and Eve's measurements in the table's order: the outcome codes by basis.

    `u` holds one uniform per row for each of Bob and Trent, on its last
    axis in measurement order; `eve_u` one per (row, ancilla slot) for Eve's
    z measurement of each attached ancilla. Returns the "bell" and "x"
    codes, and Eve's (rows, slots) under "eve", -1 where no ancilla is attached.
    """
    codes = {"eve": np.full(eve_u.shape, -1)}
    col = slot = 0
    for basis, step in table.measure:
        if basis == "eve":
            codes["eve"][..., slot], node = step(node, eve_u[..., slot])
            slot += 1
        else:
            codes[basis], node = step(node, u[..., col])
            col += 1
    return codes


@dataclass
class MessageResult:
    verdict: str  # one of VERDICTS
    message: np.ndarray | None
    error_rate: float
    errors: int
    checked: int
    corrected_errors: int
    diagnostic: str | None = None


def message_check_and_deliver(
    decoded: np.ndarray, plan: MessagePlan, messages: np.ndarray, threshold: float, codec: Codec
) -> dict[str, np.ndarray]:
    """Compare each trial's revealed check bits, then deliver or discard its frame.

    `decoded` holds Bob's bit at each of `plan.positions` and `messages`
    what Alice sent, a row per trial. Returns columns: the check `errors`,
    `checked` and `error_rate`; whether the frame was `delivered`; the
    decoded `data` with the header's `pad` still on (a delivered message
    is a row's first width - pad bits); the `corrected` bits, 0 where
    nothing was delivered; and `delivered_ok`, exactly the sent message.
    """
    is_check = plan.is_check
    errors = np.count_nonzero((decoded != plan.bits) & is_check, axis=1)
    checked = np.count_nonzero(is_check, axis=1)
    error_rate = errors / np.maximum(checked, 1)  # 0 where nothing was checked
    frames = decoded[~is_check].reshape(len(decoded), decoded.shape[1] - checked[0])
    data, corrected, pad, framed = ecc_decode(codec, frames)
    delivered = (error_rate <= threshold) & framed
    bits = messages.shape[1]
    delivered_ok = (delivered & (data.shape[1] - pad == bits)
                    & (data[:, :bits] == messages).all(axis=1))
    return {"errors": errors, "checked": checked, "error_rate": error_rate,
            "delivered": delivered, "data": data, "pad": pad,
            "corrected": np.where(delivered, corrected, 0), "delivered_ok": delivered_ok}


def message_result(plan: MessagePlan, out: dict, i: int, threshold: float,
                   codec: Codec) -> MessageResult:
    """Row i of `message_check_and_deliver`'s columns `out`, for `plan`, as a `MessageResult`."""
    rate, errors, checked = (out[k][i].item() for k in ("error_rate", "errors", "checked"))
    message = diagnostic = None
    if out["delivered"][i]:
        message = out["data"][i, :out["data"].shape[1] - out["pad"][i]]
    elif rate <= threshold:  # the checks passed, so the frame failed
        diagnostic = framing_error(codec, plan.positions.shape[1] - checked, int(out["pad"][i]))
    return MessageResult("message_discarded" if message is None else "message_delivered", message,
                         rate, errors, checked, int(out["corrected"][i]), diagnostic)


# ---------------------------------------------------------------------------
# Trial-major orchestration

@dataclass(frozen=True)
class Tally:
    """Integer counts over a set of trials; tallies of disjoint sets add with `+`.

    The four verdict counts are named after `VERDICTS`. The auth
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
    """One trial's outcome; `msg` is None when the trial sent no message.

    `bell`, `x`, `eve` and `eve_msg` are the outcome codes at each of
    `plan.positions`: the Bell outcome (an index into BELL_OUTCOMES), the x
    outcome (into X_OUTCOMES), Eve's z outcome per ancilla slot, -1 where
    she attached none, and her message-phase outcome (an intercept's at
    send time, the message-phase ancilla's at her step), -1 where she did
    not attack. They are rows of the chunk's (trial, used position) arrays.
    """

    auth_verdict: str  # one of VERDICTS
    auth_error_rate: float
    auth_errors: int
    checks: np.ndarray  # one row per check position: (position, a, b, z_A, z_T, z_B)
    plan: MessagePlan | None = None
    decoded_bits: np.ndarray | None = None  # Bob's bit at each of plan.positions
    msg: MessageResult | None = None
    bell: np.ndarray | None = None
    x: np.ndarray | None = None
    eve: np.ndarray | None = None  # (used positions, ancilla slots)
    eve_msg: np.ndarray | None = None


def _message_phase(config: SessionConfig, attack: AttackModel, chunk: Chunk,
                   auth: AuthPhaseResult) -> tuple[np.ndarray, MessagePlan | None, dict | None]:
    """Send the message of every authenticated trial of the chunk at once, over
    its surviving nodes. Returns the indices of those `sent` trials, their
    plan, and `message_check_and_deliver`'s columns plus Bob's `decoded`
    bits and `SessionResult`'s `bell`, `x`, `eve` and `eve_msg` codes as
    (trial, used position) arrays; plan and columns are None if none sent."""
    sent = np.flatnonzero(~auth.aborted & (chunk.messages is not None))
    if not len(sent):
        return sent, None, None
    surviving = auth.surviving.reshape(len(auth.aborted), -1)[sent]
    messages = chunk.messages[sent]
    frames = ecc_encode(config.codec, messages)
    count, survivors = surviving.shape
    n_checks = check_capacity(survivors, frames.shape[1], config.check_fraction_msg)
    used = n_checks + frames.shape[1]
    picks = np.empty((count, n_checks), dtype=np.intp)
    check_bits = np.empty((count, n_checks), dtype=np.uint8)
    us = np.empty((count, used, 2))
    # Each trial's rng gives its check positions and bits, then one uniform
    # per used position and measuring party.
    for i, rng in enumerate(chunk.rngs[sent]):
        if n_checks:
            picks[i] = rng.choice(survivors, size=n_checks, replace=False)
        check_bits[i] = rng.integers(0, 2, size=n_checks)
        rng.random(out=us[i])
    plan = plan_message_positions(picks, check_bits, frames, survivors)
    hit, eve_u = _attack_draws(attack, (message_channel(config.protocol_variant),), used,
                               chunk, sent)

    table = branch_table(config.protocol_variant, tuple(config.resolved_measure_order()), attack)
    node = table.encode[np.take_along_axis(surviving, plan.positions, axis=1), plan.bits]
    node, eve_msg = _cross(table.send, node, hit[..., 0], eve_u[..., 0])
    # Eve's uniforms for her attached ancillas, trial by trial in (position, slot) order.
    attached = table.attached[node]
    ancilla_u = np.zeros(attached.shape)
    counts = attached.sum(axis=(1, 2)).tolist()
    if any(counts):
        draws = zip(chunk.eve_rngs[sent], counts)
        ancilla_u[attached] = np.concatenate([rng.random(c) for rng, c in draws if c])
    codes = _measure(table, node, us, ancilla_u)
    bell, x, eve = codes["bell"], codes["x"], codes["eve"]
    decoded = _decode(_BELL_BIT[bell], x).astype(np.uint8)
    if table.message_ancilla:
        eve_msg = eve[..., -1]  # the message-phase ancilla, measured at Eve's step
    elif eve_msg is None:  # Eve ignores the message channel
        eve_msg = np.full(node.shape, -1)
    out = message_check_and_deliver(decoded, plan, messages, config.error_threshold_msg,
                                    config.codec)
    out.update(decoded=decoded, bell=bell, x=x, eve=eve, eve_msg=eve_msg)
    return sent, plan, out


def run_chunk(config: SessionConfig, attack: AttackModel,
              chunk: Chunk) -> tuple[Tally, dict[str, np.ndarray]]:
    """Run a chunk of trials trial-major: rows are (trial, position) pairs.

    Each step of the branch table moves the rows of every trial in it at
    once; trials that abort skip the message phase. Every trial's generators are
    read in the same order as in a session run alone, so a trial's outcome
    does not depend on its chunk. Returns the chunk's `Tally` and its
    per-trial columns, named as a report's per-trial record's keys
    (`msg_verdict` is None where no message was sent, `delivered_ok` None
    in an authentication-only chunk).
    """
    auth = auth_phase(config, attack, chunk)
    sent, plan, out = _message_phase(config, attack, chunk, auth)
    count, aborted = len(auth.aborted), int(auth.aborted.sum())
    columns = {"auth_verdict": np.where(auth.aborted, "auth_aborted", "authenticated"),
               "auth_errors": auth.errors, "auth_checked": np.full(count, config.m_auth_check),
               "msg_verdict": np.full(count, None, dtype=object),
               "msg_errors": np.zeros(count, dtype=int), "msg_checked": np.zeros(count, dtype=int),
               "delivered_ok": np.full(count, None if chunk.messages is None else False,
                                       dtype=object)}
    delivered = delivered_ok = 0
    eve = np.zeros(4, dtype=int)
    if plan is not None:
        columns["msg_verdict"][sent] = np.where(out["delivered"], *VERDICTS[2:])
        for name in ("msg_errors", "msg_checked", "delivered_ok"):
            columns[name][sent] = out[name.removeprefix("msg_")]
        delivered, delivered_ok = (int(out[k].sum()) for k in ("delivered", "delivered_ok"))
        seen = out["eve_msg"] >= 0
        eve = np.bincount(2 * plan.bits[seen].astype(np.intp) + out["eve_msg"][seen], minlength=4)
    pair = 2 * auth.checks[:, 1] + auth.checks[:, 2]
    return Tally(
        trials=count,
        authenticated=count - aborted,
        auth_aborted=aborted,
        message_delivered=delivered,
        message_discarded=len(sent) - delivered,
        delivered_ok=delivered_ok,
        auth_checked=tuple(np.bincount(pair, minlength=4).tolist()),
        auth_errors=tuple(np.bincount(pair[auth.error], minlength=4).tolist()),
        msg_checked=int(columns["msg_checked"].sum()),
        msg_errors=int(columns["msg_errors"].sum()),
        eve=tuple(eve.tolist()),
    ), columns


def session_results(config: SessionConfig, attack: AttackModel,
                    chunk: Chunk) -> list[SessionResult]:
    """Every trial of `chunk` as a `SessionResult`, for transcripts and tests;
    a run reads `run_chunk`'s columns instead."""
    auth = auth_phase(config, attack, chunk)
    sent, plan, out = _message_phase(config, attack, chunk, auth)
    checks = auth.checks.reshape(len(auth.aborted), config.m_auth_check, auth.checks.shape[1])
    results = [
        SessionResult("auth_aborted" if aborted else "authenticated", rate, errors, trial_checks)
        for aborted, rate, errors, trial_checks in zip(
            auth.aborted.tolist(), auth.error_rates.tolist(), auth.errors.tolist(), checks)
    ]
    for row, i in enumerate(sent.tolist()):
        res = results[i]
        res.plan, res.decoded_bits = MessagePlan(*(a[row] for a in plan)), out["decoded"][row]
        res.msg = message_result(plan, out, row, config.error_threshold_msg, config.codec)
        for name in ("bell", "x", "eve", "eve_msg"):
            setattr(res, name, out[name][row])
    return results


def run_session(config: SessionConfig, alice_key: AuthKey, bob_key: AuthKey,
                message_bits: np.ndarray | None, attack: AttackModel = NO_ATTACK) -> SessionResult:
    """Run one full session as a one-trial chunk. message_bits=None runs authentication only."""
    width = min(config.n_ghz, len(alice_key.bits), len(bob_key.bits))
    keys = np.stack([alice_key.bits[:width], bob_key.bits[:width]])[None]
    messages = None if message_bits is None else np.asarray(message_bits, dtype=np.uint8)[None]
    chunk = Chunk(keys, messages, session_words(config.rng_seed)[None])
    return session_results(config, attack, chunk)[0]


# ---------------------------------------------------------------------------
# Transcripts


def render_transcript(config: SessionConfig, result: SessionResult) -> list[dict]:
    """The events of the session `result` records, in order, with `config.rng_seed` as its seed.

    Trent prepares, keys and sends every triple, Alice announces the check
    positions and each party its z outcomes; then, if a message was sent,
    Alice encodes and sends each used triple, Bob, Trent and Eve measure it
    in the configured order, and Bob decodes it, before the check reveal,
    the comparison and the verdict. Eve's ancillas are labelled E0, E1, ...
    by their rank among the triple's attached slots.
    """
    events = []

    def emit(actor: str, kind: str, **payload) -> None:
        events.append({"ordinal": len(events), "actor": actor, "kind": kind, "payload": payload})

    n, variant, checks = config.n_ghz, config.protocol_variant, result.checks
    emit("public", "session_start", protocol=variant, n_ghz=n, m_auth_check=config.m_auth_check,
         seed=config.rng_seed)
    for pos in range(n):
        emit("trent", "ghz_prepared", position=pos)
        emit("trent", "auth_encode", position=pos, target="alice")
        emit("trent", "auth_encode", position=pos, target="bob")
        for channel in (Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB):
            emit("trent", "transmit", position=pos, channel=channel.value)
        emit("alice", "auth_decode", position=pos)
        emit("bob", "auth_decode", position=pos)
    emit("alice", "announce", what="auth_check_positions", positions=checks[:, 0].tolist())
    for pos, _, _, a, t, b in checks.tolist():
        for actor, z in (("alice", a), ("bob", b), ("trent", t)):
            emit(actor, "z_measure", position=pos, outcome=z)
            emit(actor, "announce", what="auth_z_outcome", position=pos, outcome=z)
        emit("public", "auth_compare", position=pos, outcomes=[a, t, b], error=not a == t == b)
    emit("public", "verdict", phase="auth", verdict=result.auth_verdict,
         error_rate=result.auth_error_rate, errors=result.auth_errors,
         checked=config.m_auth_check)
    plan, msg = result.plan, result.msg
    if plan is None:
        return events

    channel = message_channel(variant).value
    for seq, bit, check in zip(plan.positions.tolist(), plan.bits.tolist(), plan.is_check.tolist()):
        emit("alice", "msg_encode", position=seq, bit=bit, source="check" if check else "message",
             gate=_MESSAGE_GATE_NAME[bit])
        emit("alice", "transmit", position=seq, channel=channel)
    # The GHZ position of each used survivor.
    positions = np.delete(np.arange(n), checks[:, 0])[plan.positions]
    labels = np.cumsum(result.eve >= 0, axis=1) - 1  # rank among the row's attached ancillas
    rows = zip(plan.positions.tolist(), positions.tolist(), result.bell.tolist(),
               result.x.tolist(), result.eve.tolist(), labels.tolist(),
               result.decoded_bits.tolist())
    for seq, pos, b, xo, eve_row, label_row, bit in rows:
        bell, x = BELL_OUTCOMES[b], X_OUTCOMES[xo]
        for party in config.resolved_measure_order():
            if party == "eve":
                for outcome, label in zip(eve_row, label_row):
                    if outcome >= 0:
                        emit("eve", "eve_ancilla_measure", position=pos, ancilla=f"E{label}",
                             outcome=outcome)
                continue
            basis = _MEASUREMENTS[party, variant][1]
            emit(party, f"{basis}_measure", position=seq, outcome=x if basis == "x" else bell)
            if party == "trent" and basis == "x":
                emit("trent", "announce", what="x_outcome", position=seq, outcome=x)
            elif party == "trent":
                emit("trent", "announce", what="trent_bit", position=seq, bit=int(_BELL_BIT[b]))
        emit("bob", "decode_bit", position=seq, bit=bit)

    emit("bob", "announce", what="decoding_complete")
    emit("alice", "announce", what="msg_check_reveal",
         positions=plan.positions[plan.is_check].tolist(),
         values=format_bits(plan.bits[plan.is_check]))
    emit("public", "msg_compare", errors=msg.errors, checked=msg.checked,
         error_rate=msg.error_rate)
    extra = {} if msg.diagnostic is None else {"diagnostic": msg.diagnostic}
    emit("public", "verdict", phase="message", verdict=msg.verdict,
         error_rate=msg.error_rate, **extra)
    if msg.message is not None:
        emit("bob", "deliver", message=format_bits(msg.message),
             corrected_errors=msg.corrected_errors)
    return events


def to_jsonl(events: list[dict]) -> str:
    """The events as JSON lines, one per event with its keys sorted."""
    return "".join(json.dumps(event, sort_keys=True) + "\n" for event in events)
