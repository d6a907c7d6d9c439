"""One benchmark process: import ghzqdc from the checkout, warm up, then run
a workload's closed loop through `ghzqdc.cli.main(argv)` in-process.

    python3 perfbench/worker.py {setup|measure|trace} WORKLOAD SEED SECONDS

Prints one JSON object as its last stdout line. `run.py` starts it with
the BLAS pools pinned to one thread; it is not meant to be run by hand.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# Invocations whose report digests are pinned for the default seed, and
# over which a traced run takes its exact call counts.
PINNED = 2
DEFAULT_SEED = 0
# A tail percentile needs ten invocations beyond it.
MIN_INVOCATIONS = 11


def import_ghzqdc():
    sys.path.insert(0, str(ROOT / "src"))
    import ghzqdc
    import ghzqdc.cli

    if Path(ghzqdc.__file__).resolve().parent != ROOT / "src" / "ghzqdc":
        raise ImportError(f"ghzqdc imported from {ghzqdc.__file__}, not from this checkout")
    return ghzqdc


class Loop:
    """Closed loop over one workload's invocations; checks every report."""

    def __init__(self, name: str, seed: int, main):
        self.name = name
        self.seed = seed
        self.main = main
        self.out_path = str(OUT_DIR / f"report-{name}-{os.getpid()}.out")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []

    def invoke(self, invocations: workloads.Invocations, index: int,
               trials: int | None = None) -> float:
        """Run one invocation; return its wall time in seconds."""
        argv = invocations.argv(index, trials)
        trials = workloads.TRIALS[self.name] if trials is None else trials
        sessions = workloads.sessions_per_invocation(self.name, trials)
        self.attempted += sessions
        t0 = time.perf_counter()
        try:
            rc = self.main(argv)
        except Exception:
            wall = time.perf_counter() - t0
            self.fail(sessions, f"invocation {index} raised:\n{traceback.format_exc()}")
            return wall
        wall = time.perf_counter() - t0
        if rc != 0:
            self.fail(sessions, f"invocation {index} exited {rc}: {argv}")
            return wall
        with open(self.out_path, encoding="ascii") as fh:
            text = fh.read()
        problems = workloads.check(self.name, text, trials)
        if trials == workloads.TRIALS[self.name] and index < PINNED:
            got = workloads.digest(self.name, text)
            self.digests.append(got)
            if self.seed == DEFAULT_SEED:
                want = pinned_digests()[self.name][index]
                if got != want:
                    problems.append(f"report digest {got} != pinned {want}")
        if problems:
            self.fail(sessions, f"invocation {index} {argv}: " + "; ".join(problems))
        return wall

    def fail(self, sessions: int, message: str) -> None:
        self.failed += sessions
        self.problems.append(message)

    def timed(self, seconds: float, min_invocations: int) -> list[float]:
        """Invocations 0, 1, ... until `seconds` have passed; their wall times."""
        invocations = workloads.Invocations(self.name, self.seed, self.out_path)
        walls = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(walls) < min_invocations:
            walls.append(self.invoke(invocations, len(walls)))
        return walls


def pinned_digests() -> dict:
    with open(Path(__file__).with_name("digests.json"), encoding="ascii") as fh:
        return json.load(fh)


def with_spans(spans: tracing.Tracer, ghzqdc, loop: Loop, run):
    """Call `run()` with `spans` installed around every layer's call sites."""
    spans.install(ghzqdc)
    loop.main = spans.wrap("cli.main", ghzqdc.cli.main)
    try:
        return run()
    finally:
        spans.uninstall()
        loop.main = ghzqdc.cli.main


def trace_run(ghzqdc, loop: Loop, seconds: float, sessions_each: int):
    """Blocks of two invocations, alternately untraced and traced, so both
    halves see the same host speed; then the exact-count self-check: two
    traced passes over the first PINNED invocations must count alike."""
    spans = tracing.Tracer()
    untraced, walls = [], []
    invocations = workloads.Invocations(loop.name, loop.seed, loop.out_path)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < 4:
        if (i // 2) % 2:
            walls.append(with_spans(spans, ghzqdc, loop, lambda: loop.invoke(invocations, i)))
        else:
            untraced.append(loop.invoke(invocations, i))
        i += 1
    counts = []
    for _ in range(2):
        counter = tracing.Tracer()
        with_spans(counter, ghzqdc, loop, lambda: loop.timed(0, PINNED))
        counts.append({**counter.call_counts(), **counter.counters})
    if counts[0] != counts[1]:
        loop.fail(0, f"call counts differ between two traced passes: {counts}")

    untraced_sps = len(untraced) * sessions_each / sum(untraced)
    traced_sps = len(walls) * sessions_each / sum(walls)
    metrics, problems = tracing.layer_metrics(
        spans, exact=counts[0], exact_sessions=PINNED * sessions_each,
        sessions=len(walls) * sessions_each, invocations=len(walls), wall=sum(walls),
        overhead=untraced_sps / traced_sps)
    for p in problems:
        loop.fail(0, p)
    spans.save(str(OUT_DIR / f"spans-{loop.name}.txt"))
    return metrics, {"untraced_sessions_per_s": untraced_sps, "traced_sessions_per_s": traced_sps,
                     "traced_invocations": len(walls), "traced_wall_s": sum(walls),
                     "spans": len(spans), "exact_counts": counts[0]}


def main(argv: list[str]) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    t_start = time.perf_counter()
    ghzqdc = import_ghzqdc()
    t_import = time.perf_counter()
    import numpy

    loop = Loop(name, seed, ghzqdc.cli.main)
    OUT_DIR.mkdir(exist_ok=True)
    warmup = workloads.Invocations(name, seed, loop.out_path)
    loop.invoke(warmup, 0, trials=1)
    out = {
        "import_s": t_import - t_start,
        "setup_s": time.perf_counter() - t_start,
        "numpy": numpy.__version__,
    }
    sessions_each = workloads.sessions_per_invocation(name, workloads.TRIALS[name])
    if mode == "measure":
        walls = loop.timed(seconds, MIN_INVOCATIONS)
        out["walls"] = walls
        out["sessions_each"] = sessions_each
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif mode == "trace":
        out["metrics"], info = trace_run(ghzqdc, loop, seconds, sessions_each)
        out.update(info)
    out.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems,
               digests=loop.digests)
    if os.path.exists(loop.out_path):
        os.remove(loop.out_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
