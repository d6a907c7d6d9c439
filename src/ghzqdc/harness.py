"""Monte Carlo driver: repeated sessions, aggregate statistics, reports.

Every trial is an independent session with fresh random identities (keys
derived through the SHAKE-256 contract), a fresh message unless one is
pinned, and its own deterministic seed. The per-trial seed chain is:

    trial_ss   = numpy SeedSequence((spec.seed, trial_index))
    keys, sess = trial_ss.spawn(2)

so reports are byte-identical across runs of the same RunSpec, the
timestamp field aside, no matter how trials would be scheduled.

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
    ConfigError, SessionConfig, Verdict, check_capacity, message_channel, run_session
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
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.fmt not in ("json", "csv"):
            raise ConfigError("format must be 'json' or 'csv'")
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
    keys = []
    for role in ("alice", "bob"):
        identity = UserIdentity(id_bits=format_bits(_random_bits(keys_rng, 128)), role=role)
        keys.append(derive_key(identity, h, Counter(0), needed=n))
    return keys[0], keys[1]


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


def run(spec: RunSpec) -> RunReport:
    """Execute spec.trials independent sessions and aggregate."""

    per_trial: list[dict] = []
    verdict_counts = {v.value: 0 for v in Verdict}
    auth_errors = auth_checked = 0
    auth_err_by_alice_bit = {0: [0, 0], 1: [0, 0]}  # bit -> [errors, total]
    auth_err_by_bob_bit = {0: [0, 0], 1: [0, 0]}
    detected = 0
    msg_errors = msg_checked = 0
    delivered = delivered_ok = attempted = 0
    eve_counts = {"0": {"0": 0, "1": 0}, "1": {"0": 0, "1": 0}}

    pinned = None if spec.message is None else parse_bits(spec.message)
    for t in range(spec.trials):
        keys_ss, session_ss = trial_seed(spec.seed, t)
        keys_rng = np.random.default_rng(keys_ss)
        alice_key, bob_key = _derive_trial_keys(keys_rng, spec.config.n_ghz)
        message = pinned  # validate() allows a pinned message only when message_bits is set
        if message is None and spec.message_bits is not None:
            message = _random_bits(keys_rng, spec.message_bits)
        session_seed = int(session_ss.generate_state(1, dtype=np.uint64)[0])
        config = replace(spec.config, rng_seed=session_seed)
        res = run_session(config, alice_key, bob_key, message, spec.attack)
        for bit, outcome in res.eve_observations:
            eve_counts[str(bit)][str(outcome)] += 1

        verdict_counts[res.auth_verdict.value] += 1
        if res.msg_verdict is not None:
            verdict_counts[res.msg_verdict.value] += 1
        for check in res.auth_checks:
            auth_checked += 1
            err = 1 if check.error else 0
            auth_errors += err
            auth_err_by_alice_bit[check.alice_key_bit][0] += err
            auth_err_by_alice_bit[check.alice_key_bit][1] += 1
            auth_err_by_bob_bit[check.bob_key_bit][0] += err
            auth_err_by_bob_bit[check.bob_key_bit][1] += 1
        if res.auth_verdict is Verdict.AUTH_ABORTED:
            detected += 1
        msg_errors += res.msg_check_errors
        msg_checked += res.msg_checked
        if message is not None:
            attempted += 1
            if res.msg_verdict is Verdict.MESSAGE_DELIVERED:
                delivered += 1
                if res.delivered_ok:
                    delivered_ok += 1
        per_trial.append(
            {
                "trial": t,
                "auth_verdict": res.auth_verdict.value,
                "auth_errors": sum(1 for c in res.auth_checks if c.error),
                "auth_checked": len(res.auth_checks),
                "msg_verdict": res.msg_verdict.value if res.msg_verdict else None,
                "msg_errors": res.msg_check_errors,
                "msg_checked": res.msg_checked,
                "delivered_ok": res.delivered_ok if message is not None else None,
            }
        )

    def rate(errors, total):
        return errors / total if total else 0.0

    auth = {
        "check_bits": auth_checked,
        "errors": auth_errors,
        "error_rate": rate(auth_errors, auth_checked),
        "error_rate_by_alice_key_bit": {
            str(b): rate(*auth_err_by_alice_bit[b]) for b in (0, 1)
        },
        "error_rate_by_bob_key_bit": {str(b): rate(*auth_err_by_bob_bit[b]) for b in (0, 1)},
        "detection_rate": rate(detected, spec.trials),
    }
    message_stats = {
        "check_bits": msg_checked,
        "errors": msg_errors,
        "error_rate": rate(msg_errors, msg_checked),
        "attempted": attempted,
        "delivered": delivered,
        "delivery_fidelity": rate(delivered_ok, delivered) if delivered else 0.0,
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
        verdicts=verdict_counts,
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
    """One run per m, keeping the number of surviving triples constant.

    Each run keeps base.seed so rows are reproducible independently.
    """
    if any(m < 1 for m in m_values):
        raise ConfigError("m values must be positive")
    surplus = base.config.n_ghz - base.config.m_auth_check
    report = SweepReport(seed=base.seed, trials=base.trials)
    for m in m_values:
        config = replace(base.config, m_auth_check=m, n_ghz=m + surplus)
        spec = replace(base, config=config)
        result = run(spec)
        report.rows.append(
            {
                "m": m,
                "trials": spec.trials,
                "empirical_detection_rate": result.auth["detection_rate"],
                "analytic_detection_rate": result.analytic.get("auth_detection_rate"),
            }
        )
    return report
