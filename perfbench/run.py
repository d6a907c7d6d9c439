"""ghzqdc benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Run from the root of a source checkout; the program is imported from
`src/`. Workloads (see workloads.py): honest_message, detection_sweep,
message_attack. One client, one process, closed loop: each report
invocation of `ghzqdc.cli.main(argv)` starts after the previous one
returned. Worker processes run with BLAS pools pinned to one thread.

--trace 0 prints the end-to-end metrics:
  sessions_per_s  sessions completed / wall seconds spent in invocations.
                  The run's aggregate, not the median of per-invocation
                  rates: on a host whose speed switches between regimes
                  every few seconds those rates are bimodal and their
                  median jumps between the modes from run to run.
  report_tail_s   invocation wall time at the highest percentile with at
                  least ten invocations beyond it
  setup_s         median over fresh interpreters of importing ghzqdc plus
                  one single-trial warm-up invocation
  peak_rss_mb     peak resident memory of the process that ran the loop
--trace 1 alternates blocks of untraced invocations with blocks traced by
spans around every layer's call sites (tracing.py) and prints the
per-layer metrics; trace.overhead compares the two kinds of block.

Every report is checked against the workload's invariants; a violated
invocation counts all its sessions as failed. For the default seed (0) the
first report digests must match digests.json. Human-readable detail
(machine record, quartiles, sample counts) precedes the final JSON line and
is also written to .perfbench/run-<workload>-<seed>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import NAMES as WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh interpreters timed for setup_s, on top of the measuring worker.
SETUP_SAMPLES = 8
WORKER_TIMEOUT_S = 60
PIN_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def worker(mode: str, workload: str, seed: int, seconds: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = {**os.environ, **PIN_THREADS}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(seconds)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=seconds + WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {mode} {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with >= 10 above it."""
    s = sorted(values)
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def end_to_end(args, detail: dict) -> tuple[dict, dict]:
    # Half the set-up samples before the loop and half after, so that they
    # straddle the host's slow and fast spells instead of sharing one.
    setups = [worker("setup", args.workload, args.seed, 0)
              for _ in range(SETUP_SAMPLES // 2)]
    res = worker("measure", args.workload, args.seed, args.seconds)
    setups += [worker("setup", args.workload, args.seed, 0)
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    setup_samples = [r["setup_s"] for r in setups] + [res["setup_s"]]
    rates = [res["sessions_each"] / w for w in res["walls"]]
    tail_s, pct = tail(res["walls"])
    detail.update(
        invocation_sessions_per_s=quartiles(rates),
        invocation_wall_s=quartiles(res["walls"]),
        report_tail=f"p{pct:.1f} of {len(res['walls'])} invocations",
        setup_s=quartiles(setup_samples),
        import_s=quartiles([r["import_s"] for r in setups] + [res["import_s"]]),
        numpy=res["numpy"],
    )
    metrics = {
        "sessions_per_s": {"value": res["sessions_each"] * len(rates) / sum(res["walls"]),
                           "unit": "1/s"},
        "report_tail_s": {"value": tail_s, "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
    }
    for r in setups:
        res["attempted"] += r["attempted"]
        res["failed"] += r["failed"]
        res["problems"] += r["problems"]
    return metrics, res


def per_layer(args, detail: dict) -> tuple[dict, dict]:
    res = worker("trace", args.workload, args.seed, args.seconds)
    detail.update({k: res[k] for k in (
        "untraced_sessions_per_s", "traced_sessions_per_s", "traced_invocations",
        "traced_wall_s", "spans", "exact_counts")}, numpy=res["numpy"])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    return metrics, res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ghzqdc" / "cli.py").is_file():
        sys.stderr.write(f"error: no ghzqdc source under {ROOT / 'src'}\n")
        return 2

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "loadavg_before": os.getloadavg()}
    metrics, res = (per_layer if args.trace else end_to_end)(args, detail)
    detail.update(loadavg_after=os.getloadavg(), attempted=res["attempted"],
                  failed=res["failed"], problems=res["problems"], digests=res["digests"])

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"run-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="ascii") as fh:
        json.dump({**detail, "metrics": metrics}, fh, indent=2)
    for key, value in detail.items():
        print(f"# {key}: {json.dumps(value)}")
    for problem in res["problems"]:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
