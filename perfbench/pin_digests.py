"""Rewrite digests.json: the report digests of each workload's first
invocations at the default seed, which every default-seed run must reproduce.

    python3 perfbench/pin_digests.py

Only for a deliberate, documented change of the report contract.
"""
from __future__ import annotations

import json
from pathlib import Path

import workloads
from worker import DEFAULT_SEED, OUT_DIR, PINNED, import_ghzqdc


def main() -> None:
    cli = import_ghzqdc().cli
    OUT_DIR.mkdir(exist_ok=True)
    out_path = str(OUT_DIR / "pin.out")
    pinned = {}
    for name in workloads.NAMES:
        invocations = workloads.Invocations(name, DEFAULT_SEED, out_path)
        pinned[name] = []
        for i in range(PINNED):
            if cli.main(invocations.argv(i)) != 0:
                raise SystemExit(f"{name} invocation {i} failed")
            text = Path(out_path).read_text(encoding="ascii")
            problems = workloads.check(name, text, workloads.TRIALS[name])
            if problems:
                raise SystemExit(f"{name} invocation {i}: {problems}")
            pinned[name].append(workloads.digest(name, text))
    Path(out_path).unlink()
    target = Path(__file__).with_name("digests.json")
    target.write_text(json.dumps(pinned, indent=2) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
