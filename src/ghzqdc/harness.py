"""Monte Carlo driver: repeated sessions, aggregate statistics, reports.

Every trial is an independent session with fresh random identities (keys
derived through the SHAKE-256 contract), a fresh message unless one is
pinned, and its own deterministic seed. The per-trial seed chain is:

    trial_ss   = numpy SeedSequence((spec.seed, trial_index))
    keys, sess = trial_ss.spawn(2)

so reports are byte-identical across runs of the same RunSpec, the
timestamp field aside, no matter how trials are scheduled.

Trials run trial-major through `protocol.run_trials`, in chunks of at
most max(1, ROW_CAP // n_ghz) trials: each kernel runs once per chunk,
while the cap (`protocol.ROW_CAP` rows) bounds the memory a chunk holds.
Each trial still reads its own generators in the order a lone session
would, so the seed contract (v1) is unchanged and a report does not
depend on the chunk size. Each chunk's `Tally` of counts is added up, and
the report's rates come from the total.

A detection sweep shares inputs per block of trials: it builds each
trial's keys, message and seed once and runs every m row from them, each
row adding up its own tally (see `sweep_detection_curve`).

The JSON report schema (schema_version 1) is documented in the README.
Alongside every empirical statistic the report carries the matching
closed-form reference value where one exists, so a report is
self-contained for acceptance checking.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .adversary import AttackModel, AttackVariant, Channel, NO_ATTACK, attack_to_dict
from .authkeys import AuthKey, Counter, Shake256Hash, UserIdentity, derive_key
from .ecc import encode as ecc_encode, format_bits, parse_bits
from .protocol import (
    ConfigError,
    SessionConfig,
    SessionResult,
    Tally,
    Trial,
    Verdict,
    check_capacity,
    chunk_size,
    message_channel,
    run_session,  # only read by perfbench's tracer, which wraps harness.run_session
    run_trials,
)

SCHEMA_VERSION = 1

_AUTH_CHANNELS = {Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB}


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
        self.validate()

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.config.validate()
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


def trial_seed(seed: int, index: int) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """Spawn the (key material, session) seed pair for one trial."""
    return tuple(np.random.SeedSequence((seed, index)).spawn(2))


def _random_bits(rng: np.random.Generator, length: int) -> np.ndarray:
    nbytes = (length + 7) // 8
    return np.unpackbits(np.frombuffer(rng.bytes(nbytes), dtype=np.uint8))[:length]


def _derive_trial_keys(keys_rng: np.random.Generator, n: int) -> tuple[AuthKey, AuthKey]:
    h = Shake256Hash()
    # Alice's 128-bit identity, then Bob's: one 32-byte draw reads the
    # generator exactly as two 16-byte draws would.
    ids = _random_bits(keys_rng, 256)
    alice, bob = (
        derive_key(UserIdentity(format_bits(bits), role), h, Counter(0), needed=n)
        for bits, role in ((ids[:128], "alice"), (ids[128:], "bob"))
    )
    return alice, bob


@dataclass
class RunReport:
    """Aggregated outcome of one run; serializes to JSON or CSV."""

    spec_echo: dict
    seed: int
    trials: int
    verdicts: dict
    per_trial: list[dict]
    auth: dict
    message: dict
    eve: dict
    analytic: dict
    timestamp: str = ""

    def to_dict(self, include_timestamp: bool = True) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "trials": self.trials,
            "spec": self.spec_echo,
            "verdicts": self.verdicts,
            "auth": self.auth,
            "message": self.message,
            "eve": self.eve,
            "analytic": self.analytic,
            "per_trial": self.per_trial,
        }
        if include_timestamp:
            out["timestamp"] = self.timestamp
        return out

    def to_json(self, include_timestamp: bool = True) -> str:
        return json.dumps(self.to_dict(include_timestamp), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        """Flat section,key,value rows of the aggregate statistics."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "key", "value"])
        writer.writerow(["run", "schema_version", SCHEMA_VERSION])
        writer.writerow(["run", "seed", self.seed])
        writer.writerow(["run", "trials", self.trials])
        for section, data in (
            ("verdicts", self.verdicts),
            ("auth", self.auth),
            ("message", self.message),
            ("analytic", self.analytic),
        ):
            for key, value in sorted(data.items()):
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
    if attack.variant == AttackVariant.NONE or not attack.channels:
        out["auth_check_error_rate"] = 0.0
        out["msg_check_error_rate"] = 0.0
        out["auth_detection_rate"] = 0.0
        return out
    on_auth = bool(attack.channels & _AUTH_CHANNELS)
    on_msg = message_channel(spec.config.protocol_variant) in attack.channels
    if on_auth and attack.coverage == 1.0:
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


def _trial(spec: RunSpec, index: int, pinned: np.ndarray | None) -> Trial:
    """Trial `index`: keys, then the message from the key generator, then the session seed."""
    keys_ss, session_ss = trial_seed(spec.seed, index)
    keys_rng = np.random.default_rng(keys_ss)
    alice_key, bob_key = _derive_trial_keys(keys_rng, spec.config.n_ghz)
    message = pinned  # validate() allows a pinned message only when message_bits is set
    if message is None and spec.message_bits is not None:
        message = _random_bits(keys_rng, spec.message_bits)
    session_seed = int(session_ss.generate_state(1, dtype=np.uint64)[0])
    return Trial(alice_key, bob_key, message, session_seed)


def _trial_record(index: int, res: SessionResult) -> dict:
    msg = res.msg
    return {
        "trial": index,
        "auth_verdict": res.auth_verdict.value,
        "auth_errors": res.auth_errors,
        "auth_checked": len(res.checks),
        "msg_verdict": None if msg is None else msg.verdict.value,
        "msg_errors": 0 if msg is None else msg.errors,
        "msg_checked": 0 if msg is None else msg.checked,
        "delivered_ok": None if res.message_sent is None else res.delivered_ok,
    }


def run(spec: RunSpec) -> RunReport:
    """Execute spec.trials independent sessions, chunk by chunk, and aggregate."""
    pinned = None if spec.message is None else parse_bits(spec.message)
    trials = (_trial(spec, t, pinned) for t in range(spec.trials))
    tally, per_trial = Tally(), []
    for chunk, sessions in run_trials(spec.config, spec.attack, trials):
        tally += chunk
        first = len(per_trial)
        per_trial.extend(_trial_record(first + i, res) for i, res in enumerate(sessions))

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

    spec_echo = {
        "config": spec.config.to_dict(),
        "attack": attack_to_dict(spec.attack),
        "trials": spec.trials,
        "seed": spec.seed,
        "message_bits": spec.message_bits,
        "message": spec.message,
    }
    report = RunReport(
        spec_echo=spec_echo,
        seed=spec.seed,
        trials=spec.trials,
        verdicts={v.value: getattr(tally, v.name.lower()) for v in Verdict},
        per_trial=per_trial,
        auth=auth,
        message=message_stats,
        eve=_normalize_eve_counts(eve_counts),
        analytic=_analytic_references(spec),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    return report


@dataclass
class SweepReport:
    """Detection-rate curve over the number of auth check bits."""

    seed: int
    trials: int
    rows: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return (
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "seed": self.seed,
                    "trials": self.trials,
                    "rows": self.rows,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m", "trials", "empirical_detection_rate", "analytic_detection_rate"])
        for row in self.rows:
            writer.writerow(
                [row["m"], row["trials"], row["empirical_detection_rate"], row["analytic_detection_rate"]]
            )
        return buf.getvalue()


def sweep_detection_curve(base: RunSpec, m_values: list[int]) -> SweepReport:
    """One row per m, keeping the number of surviving triples constant.

    Each row reports what `run` would for its m under base.seed. A trial's
    keys, message and session seed do not depend on m (a longer counter-mode
    key starts with every shorter one), so they are built once per block of
    chunk_size(smallest n) trials, for the widest row. Every row runs fresh
    `Trial`s from them, as a `Trial`'s generators are consumed when it runs.
    """
    if any(m < 1 for m in m_values):
        raise ConfigError("m values must be positive")
    surplus = base.config.n_ghz - base.config.m_auth_check
    specs = [
        replace(base, config=replace(base.config, m_auth_check=m, n_ghz=m + surplus))
        for m in m_values
    ]
    report = SweepReport(seed=base.seed, trials=base.trials)
    if not specs:
        return report
    widest = max(specs, key=lambda spec: spec.config.n_ghz)
    pinned = None if base.message is None else parse_bits(base.message)
    block = chunk_size(min(spec.config.n_ghz for spec in specs))
    tallies = [Tally() for _ in specs]
    for start in range(0, base.trials, block):
        inputs = [_trial(widest, t, pinned) for t in range(start, min(start + block, base.trials))]
        for row, spec in enumerate(specs):
            fresh = (Trial(t.alice_key, t.bob_key, t.message, t.seed) for t in inputs)
            for chunk, _ in run_trials(spec.config, spec.attack, fresh):
                tallies[row] += chunk
    for spec, tally in zip(specs, tallies):
        report.rows.append(
            {
                "m": spec.config.m_auth_check,
                "trials": spec.trials,
                "empirical_detection_rate": tally.auth_aborted / tally.trials,
                "analytic_detection_rate": _analytic_references(spec).get("auth_detection_rate"),
            }
        )
    return report
