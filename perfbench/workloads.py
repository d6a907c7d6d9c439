"""The benchmark's workloads: the CLI argv each invocation sends, and the
invariants every report must satisfy for any seed.

Each workload is a closed loop of `ghzqdc` report invocations. Invocation
`i` of workload seed `s` is a pure function of (name, s, i): the program
only sees the argv, and its `--seed` is drawn from a stdlib generator
seeded with the workload seed.

Why these three (the layers each one stresses differs):

* honest_message  - the paper's main path, no adversary. Statevector
  kernels dominate; the qdc2 half runs the Hamming(7,4) decode path.
  ROADMAP item 4 (batched engine) should move it first; an
  adversary-only change should not move it.
* detection_sweep - thousands of tiny auth-only sessions (n = m + 4) under
  the CNOT attack: fixed per-trial cost in harness, authkeys and protocol
  set-up dominates. Batching across trials helps it, batching across
  positions barely does.
* message_attack  - the general entangling attack on the message channel:
  the adversary layer dominates (the pair unitary is rebuilt per attacked
  qubit). ROADMAP item 1 (unitary cache) must move it and nothing else.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random

# Binomial checks reject an observed count only when its one-sided tail
# probability is below this; with ~10^4 checks over a full set of runs
# a false alarm stays below 1e-4 while gross errors still show.
TAIL_ALPHA = 1e-9
# Two-proportion z limit for Eve's bit0/bit1 histograms (two-sided p ~ 2e-9).
EVE_Z_LIMIT = 6.0
# Noise allowance, in standard errors, for monotonicity of the sweep curve.
MONOTONE_Z = 5.0

SWEEP_M_VALUES = (1, 2, 5, 10, 20)

HONEST_QDC1 = ["run", "--protocol", "qdc1", "--n-ghz", "128", "--auth-check-bits", "16",
               "--message-bits", "64"]
HONEST_QDC2 = ["run", "--protocol", "qdc2", "--ecc", "hamming74", "--n-ghz", "128",
               "--auth-check-bits", "16", "--message-bits", "40"]
SWEEP = ["sweep", "--attack", "entangle-cnot", "--n-ghz", "5", "--auth-check-bits", "1",
         "--message-bits", "0", "--m-values", ",".join(map(str, SWEEP_M_VALUES)),
         "--format", "csv"]
ATTACK = ["run", "--attack", "entangle-general", "--alpha", "0.8,0", "--beta", "0.6,0",
          "--alpha-p", "0.8,0", "--beta-p=-0.6,0", "--n-ghz", "48", "--auth-check-bits", "2",
          "--msg-check-fraction", "0.5", "--message", "10110010", "--threshold-msg", "1.0"]

# Trials per invocation: about 0.6 s of work each, so a 30 s run holds some
# 50 invocations and the tail percentile with ten beyond it sits near p80;
# smaller invocations push it towards p95, which the host's noise swamps.
TRIALS = {"honest_message": 30, "detection_sweep": 60, "message_attack": 24}

NAMES = tuple(TRIALS)


def base_argv(name: str, index: int) -> list[str]:
    if name == "honest_message":
        return HONEST_QDC1 if index % 2 == 0 else HONEST_QDC2
    if name == "detection_sweep":
        return SWEEP
    if name == "message_attack":
        return ATTACK
    raise KeyError(name)


def sessions_per_invocation(name: str, trials: int) -> int:
    return trials * len(SWEEP_M_VALUES) if name == "detection_sweep" else trials


class Invocations:
    """The deterministic argv sequence of one workload at one seed."""

    def __init__(self, name: str, seed: int, out_path: str):
        self.name = name
        self.out_path = out_path
        self._rng = random.Random(seed)
        self._seeds: list[int] = []

    def program_seed(self, index: int) -> int:
        while len(self._seeds) <= index:
            self._seeds.append(self._rng.randrange(2**31))
        return self._seeds[index]

    def argv(self, index: int, trials: int | None = None) -> list[str]:
        trials = TRIALS[self.name] if trials is None else trials
        return base_argv(self.name, index) + [
            "--trials", str(trials), "--seed", str(self.program_seed(index)),
            "--out", self.out_path,
        ]


def digest(name: str, text: str) -> str:
    """sha256 of a report, JSON reports with `timestamp` stripped."""
    if name != "detection_sweep":
        doc = json.loads(text)
        doc.pop("timestamp", None)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# Invariants


def _binom_pmf(k: int, n: int, p: float) -> float:
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def binomial_consistent(k: int, n: int, p: float, alpha: float = TAIL_ALPHA) -> bool:
    """False when k successes in n trials sit in a tail of Binomial(n, p)
    with probability below alpha (exact tails, no normal approximation)."""
    lower = sum(_binom_pmf(i, n, p) for i in range(k + 1))
    upper = sum(_binom_pmf(i, n, p) for i in range(k, n + 1))
    return lower >= alpha and upper >= alpha


def _check_honest(report: dict, trials: int) -> list[str]:
    problems = []
    v = report["verdicts"]
    if v["authenticated"] != trials or v["message_delivered"] != trials:
        problems.append(f"verdicts {v} for {trials} trials")
    if report["auth"]["errors"] or report["message"]["errors"]:
        problems.append(f"check errors auth={report['auth']['errors']} "
                        f"message={report['message']['errors']}")
    bad = [t["trial"] for t in report["per_trial"]
           if t["delivered_ok"] is not True or t["auth_errors"] or t["msg_errors"]]
    if bad:
        problems.append(f"trials not delivered exactly: {bad}")
    return problems


def _check_attack(report: dict, trials: int) -> list[str]:
    problems = []
    if report["auth"]["errors"] or report["verdicts"]["auth_aborted"]:
        problems.append(f"auth errors {report['auth']['errors']} on an unattacked auth channel")
    msg = report["message"]
    if msg["attempted"] != trials or not binomial_consistent(msg["errors"], msg["check_bits"], 0.5):
        problems.append(f"message check errors {msg['errors']}/{msg['check_bits']} vs rate 0.5")
    c0, c1 = report["eve"]["bit0"]["counts"], report["eve"]["bit1"]["counts"]
    n0, n1 = c0["0"] + c0["1"], c1["0"] + c1["1"]
    if n0 and n1:
        pooled = (c0["1"] + c1["1"]) / (n0 + n1)
        se = math.sqrt(pooled * (1 - pooled) * (1 / n0 + 1 / n1))
        z = (c0["1"] / n0 - c1["1"] / n1) / se if se else 0.0
        if abs(z) > EVE_Z_LIMIT:
            problems.append(f"Eve's histograms differ by bit: {c0} vs {c1} (z={z:.1f})")
    return problems


def _check_sweep(text: str, trials: int) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["m"]) for r in rows] != list(SWEEP_M_VALUES):
        return [f"sweep rows {[r['m'] for r in rows]}"]
    problems = []
    rates, refs = [], []
    for r in rows:
        m, n = int(r["m"]), int(r["trials"])
        rate = float(r["empirical_detection_rate"])
        ref = 1.0 - 0.75**m
        if n != trials or not math.isclose(float(r["analytic_detection_rate"]), ref):
            problems.append(f"m={m}: trials {n}, analytic {r['analytic_detection_rate']}")
        if not binomial_consistent(round(rate * n), n, ref):
            problems.append(f"m={m}: detection rate {rate} vs 1-(3/4)^m = {ref:.4f}")
        rates.append(rate)
        refs.append(ref)
    for i in range(len(rates) - 1):
        var = sum(p * (1 - p) / trials for p in refs[i : i + 2])
        if rates[i + 1] < rates[i] - MONOTONE_Z * math.sqrt(var):
            problems.append(f"curve not monotone at m={SWEEP_M_VALUES[i + 1]}: {rates}")
    return problems


def check(name: str, text: str, trials: int) -> list[str]:
    """Every violation of the workload's invariants in one report."""
    if name == "detection_sweep":
        return _check_sweep(text, trials)
    report = json.loads(text)
    if report["trials"] != trials or len(report["per_trial"]) != trials:
        return [f"report has {report['trials']} trials, {len(report['per_trial'])} records"]
    if name == "honest_message":
        return _check_honest(report, trials)
    return _check_attack(report, trials)
