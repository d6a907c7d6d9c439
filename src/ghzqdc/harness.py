"""Monte Carlo driver: repeated sessions, aggregate statistics, reports.

Every trial is an independent session with fresh random identities (keys
derived by SHAKE-256 in counter mode), a fresh message unless one is
pinned, and its own deterministic seed: numpy's SeedSequence((spec.seed,
trial_index)).spawn(2) gives its key and session seeds. `seeds.py`
derives that chain's words for a block of trials in one array pass, equal
to the SeedSequence chain by construction, so reports are byte-identical
across runs of the same RunSpec, the timestamp field aside, no matter how
trials are scheduled.

Trials run trial-major, in chunks of at most max(1, ROW_CAP // n_ghz)
trials whose rows walk the run's cached `protocol.branch_table` as integer
nodes; the statevector kernels run only when that table is built. Each
trial reads its own generators in the order a lone session would, so the
seed contract (v1) is unchanged and a report does not depend on the chunk
size. Chunk `Tally`s add up to the report.

`run` and a detection sweep share one driver, `_chunks`: per block of
trials it derives the seed words and builds the keys and messages once, as
(trial, ...) arrays, and every row (one spec in a run, one m in a sweep)
runs its own chunks from them. A chunk runs as columns, and `run` builds
`per_trial` from its per-trial column arrays, not from `SessionResult`s.

The JSON report schema (schema_version 1) is documented in the README.
Its `analytic` block holds hard-coded reference values (0.25, 1/2 and
1-(3/4)^m) beside the empirical rates. They hold only for the analysed
configurations: an attack on both auth legs, a nonzero auth threshold, a
coverage below 1 or a general attack other than the default one makes
them wrong or leaves them out (ROADMAP item 1 lists the cases).
"""
from __future__ import annotations

import csv
import io
import json
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .adversary import AttackModel, AttackVariant, Channel, NO_ATTACK, attack_to_dict
from .authkeys import derive_key
from .ecc import encode as ecc_encode, format_bits, parse_bits
from .protocol import (
    Chunk,
    ConfigError,
    SessionConfig,
    Tally,
    VERDICTS,
    check_capacity,
    message_channel,
    run_chunk,
    run_session,  # only read by perfbench's tracer, which wraps harness.run_session
)
from .seeds import generator, trial_words

SCHEMA_VERSION = 1

_AUTH_CHANNELS = {Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB}

# Most rows a chunk holds: a chunk runs max(1, ROW_CAP // n_ghz) trials.
# A row peaks at ~160-270 bytes inside `run_chunk` (its draws and node
# indices; tracemalloc, honest n=128 to auth-only n=5), so a full chunk
# stays near 1.3-2.2 MiB however many trials a run has, while it is still
# large enough for an n=128 run to pay numpy's per-call cost once per 64 trials.
ROW_CAP = 8192


@dataclass(frozen=True)
class RunSpec:
    """One Monte Carlo experiment: a session template plus trial plumbing.

    Validated at construction (and by dataclasses.replace), so a RunSpec
    that exists is a runnable one.
    """

    config: SessionConfig
    attack: AttackModel = NO_ATTACK
    trials: int = 1
    seed: int = 0
    message_bits: int | None = 64  # None: authentication-only trials
    message: str | None = None  # pinned message; None draws one per trial

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.message_bits is not None and self.message_bits < 0:
            raise ConfigError("message_bits must be >= 0 or None")
        if self.message is not None:
            try:
                parse_bits(self.message, "message")
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            if self.message_bits is None:
                raise ConfigError("message given but message_bits is None (auth-only run)")
            if len(self.message) != self.message_bits:
                raise ConfigError(
                    f"message length {len(self.message)} != message_bits {self.message_bits}"
                )
        if self.message_bits is not None:
            frame_len = len(ecc_encode(self.config.codec, np.zeros(self.message_bits, np.uint8)))
            surviving = self.config.n_ghz - self.config.m_auth_check
            check_capacity(surviving, frame_len, self.config.check_fraction_msg)


@dataclass
class RunReport:
    """Aggregated outcome of one run; serializes to JSON, each field under its
    own name, or to CSV."""

    spec: dict
    seed: int
    trials: int
    verdicts: dict
    per_trial: list[dict]
    auth: dict
    message: dict
    eve: dict
    analytic: dict
    timestamp: str = ""

    def to_json(self, include_timestamp: bool = True) -> str:
        out = {"schema_version": SCHEMA_VERSION, **vars(self)}
        if not include_timestamp:
            del out["timestamp"]
        return json.dumps(out, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        """Flat section,key,value rows of the aggregate statistics."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "key", "value"])
        writer.writerow(["run", "schema_version", SCHEMA_VERSION])
        writer.writerow(["run", "seed", self.seed])
        writer.writerow(["run", "trials", self.trials])
        for section in ("verdicts", "auth", "message", "analytic"):
            for key, value in sorted(getattr(self, section).items()):
                if isinstance(value, dict):
                    value = json.dumps(value, sort_keys=True)
                writer.writerow([section, key, value])
        return buf.getvalue()


def detection_rate_reference(m: int) -> float:
    """Closed-form chance that m honest check triples expose an entangling
    or intercepting adversary who attacked every transmission under
    uniformly random keys: 1 - (3/4)^m."""
    return 1.0 - 0.75**m


def _analytic_references(spec: RunSpec) -> dict:
    out: dict = {}
    attack = spec.attack
    checked = spec.config.m_auth_check > 0  # a rate over no check bits has no reference
    if attack.variant == AttackVariant.NONE or not attack.channels:
        if checked:
            out["auth_check_error_rate"] = 0.0
        out["msg_check_error_rate"] = 0.0
        out["auth_detection_rate"] = 0.0
        return out
    on_auth = bool(attack.channels & _AUTH_CHANNELS)
    on_msg = message_channel(spec.config.protocol_variant) in attack.channels
    if on_auth and attack.coverage == 1.0:
        if checked:
            # Per check bit with uniform keys: error only when the owner's key
            # bit is 1, and then with chance 1/2.
            out["auth_check_error_rate"] = 0.25
            out["auth_check_error_rate_key_bit_one"] = 0.5
            out["auth_check_error_rate_key_bit_zero"] = 0.0
        out["auth_detection_rate"] = detection_rate_reference(spec.config.m_auth_check)
    if on_msg:
        out["msg_check_error_rate"] = 0.5 * attack.coverage
    return out


def _normalize_eve_counts(counts: dict) -> dict:
    normalized = {}
    for bit, hist in counts.items():
        total = sum(hist.values())
        normalized[f"bit{bit}"] = {
            "counts": hist,
            "probabilities": {k: (v / total if total else 0.0) for k, v in hist.items()},
        }
    return normalized


def chunk_size(n_ghz: int) -> int:
    """Most trials of n_ghz triples each that one chunk runs: max(1, ROW_CAP // n_ghz)."""
    return max(1, ROW_CAP // n_ghz)


def _inputs(spec: RunSpec, first: int, stop: int, pinned: np.ndarray | None):
    """The `Chunk` columns of trials first..stop-1: keys (trials, 2, n) and
    messages (trials, bits) or None, both from each trial's key generator,
    then the session generators' words."""
    keys_words, _, words = trial_words(spec.seed, first, stop)
    drawn = pinned is None and spec.message_bits is not None
    nbytes = (spec.message_bits + 7) // 8 if drawn else 0
    draws = []
    for key_words in keys_words:
        keys_rng = generator(key_words)
        # Alice's 128-bit identity, then Bob's: one 32-byte draw reads the
        # generator exactly as two 16-byte draws would; then the message.
        draws.append(keys_rng.bytes(32) + (keys_rng.bytes(nbytes) if drawn else b""))
    bits = np.unpackbits(np.frombuffer(b"".join(draws), dtype=np.uint8)).reshape(len(words), -1)
    text, n = format_bits(bits[:, :256]), spec.config.n_ghz
    keys = np.array([derive_key(text[i:i + 128], needed=n).bits[:n]
                     for i in range(0, len(text), 128)]).reshape(len(words), 2, n)
    # A RunSpec pins a message only when message_bits is set.
    messages = bits[:, 256:256 + spec.message_bits] if drawn else None
    if pinned is not None:
        messages = np.broadcast_to(pinned, (len(words), len(pinned)))
    return keys, messages, words


def _chunks(specs: list[RunSpec]) -> Iterator[tuple[int, Tally, dict[str, np.ndarray]]]:
    """Run the trials of `specs`, which differ only in their config, as
    (row, tally, columns) per chunk, row being the spec's index.

    A trial's keys, message and session words do not depend on n (a longer
    counter-mode key starts with every shorter one), so they are built once
    per block of chunk_size(smallest n) trials, for the widest row. Each row
    runs fresh `Chunk`s of them, chunk_size(its n) trials at a time, as a
    chunk's generators are consumed when it runs.
    """
    widest = max(specs, key=lambda spec: spec.config.n_ghz)
    pinned = None if widest.message is None else parse_bits(widest.message)
    block = chunk_size(min(spec.config.n_ghz for spec in specs))
    for start in range(0, widest.trials, block):
        keys, messages, words = _inputs(widest, start, min(start + block, widest.trials), pinned)
        for row, spec in enumerate(specs):
            size = chunk_size(spec.config.n_ghz)
            for lo in range(0, len(words), size):
                part = slice(lo, lo + size)
                chunk = Chunk(keys[part], None if messages is None else messages[part], words[part])
                yield row, *run_chunk(spec.config, spec.attack, chunk)


def run(spec: RunSpec) -> RunReport:
    """Execute spec.trials independent sessions, chunk by chunk, and aggregate."""
    tally, chunks = Tally(), []
    for _, chunk, columns in _chunks([spec]):
        tally += chunk
        chunks.append(columns)
    names = list(chunks[0])
    rows = zip(*(np.concatenate([c[name] for c in chunks]).tolist() for name in names))
    per_trial = [dict(zip(names, row), trial=i) for i, row in enumerate(rows)]

    def rate(errors, total):
        return errors / total if total else 0.0

    checked, errors = tally.auth_checked, tally.auth_errors  # by 2 * alice bit + bob bit
    auth = {
        "check_bits": sum(checked),
        "errors": sum(errors),
        "error_rate": rate(sum(errors), sum(checked)),
        "error_rate_by_alice_key_bit": {
            str(b): rate(errors[2 * b] + errors[2 * b + 1], checked[2 * b] + checked[2 * b + 1])
            for b in (0, 1)
        },
        "error_rate_by_bob_key_bit": {
            str(b): rate(errors[b] + errors[b + 2], checked[b] + checked[b + 2]) for b in (0, 1)
        },
        "detection_rate": rate(tally.auth_aborted, tally.trials),
    }
    delivered = tally.message_delivered
    message_stats = {
        "check_bits": tally.msg_checked,
        "errors": tally.msg_errors,
        "error_rate": rate(tally.msg_errors, tally.msg_checked),
        "attempted": tally.trials if spec.message_bits is not None else 0,
        "delivered": delivered,
        "delivery_fidelity": rate(tally.delivered_ok, delivered),
    }
    eve_counts = {
        str(bit): {str(outcome): tally.eve[2 * bit + outcome] for outcome in (0, 1)}
        for bit in (0, 1)
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
        verdicts={v: getattr(tally, v) for v in VERDICTS},
        per_trial=per_trial,
        auth=auth,
        message=message_stats,
        eve=_normalize_eve_counts(eve_counts),
        analytic=_analytic_references(spec),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )


@dataclass
class SweepReport:
    """Detection-rate curve over the number of auth check bits."""

    seed: int
    trials: int
    rows: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"schema_version": SCHEMA_VERSION, **vars(self)}, sort_keys=True,
                          indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        columns = ["m", "trials", "empirical_detection_rate", "analytic_detection_rate"]
        writer.writerow(columns)
        writer.writerows([row[k] for k in columns] for row in self.rows)
        return buf.getvalue()


def sweep_detection_curve(base: RunSpec, m_values: list[int]) -> SweepReport:
    """One row per m, keeping the number of surviving triples constant.

    Each row reports what `run` would for its m under base.seed. A row
    reports only the authentication phase, so its trials send no message.
    """
    if any(m < 1 for m in m_values):
        raise ConfigError("m values must be positive")
    surplus = base.config.n_ghz - base.config.m_auth_check
    specs = [
        replace(base, config=replace(base.config, m_auth_check=m, n_ghz=m + surplus),
                message_bits=None, message=None)
        for m in m_values
    ]
    report = SweepReport(seed=base.seed, trials=base.trials)
    if not specs:
        return report
    tallies = [Tally() for _ in specs]
    for row, chunk, _ in _chunks(specs):
        tallies[row] += chunk
    for spec, tally in zip(specs, tallies):
        report.rows.append({
            "m": spec.config.m_auth_check,
            "trials": spec.trials,
            "empirical_detection_rate": tally.auth_aborted / tally.trials,
            "analytic_detection_rate": _analytic_references(spec).get("auth_detection_rate"),
        })
    return report
