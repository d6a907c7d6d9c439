#!/usr/bin/env python3
"""Detection-rate curve of the auth phase under an entangling adversary.

Runs auth-only sessions with uniformly random keys for several check
counts m and prints the empirical detection rate next to the closed form
1 - (3/4)^m.
"""
import argparse

from ghzqdc.adversary import Channel, entangle_cnot_attack
from ghzqdc.harness import RunSpec, sweep_detection_curve
from ghzqdc.protocol import SessionConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=606)
    parser.add_argument("--m-values", default="1,2,5,10,20")
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args()

    config = SessionConfig(
        n_ghz=5, m_auth_check=1, record_transcript=False
    )
    base = RunSpec(
        config=config,
        attack=entangle_cnot_attack({Channel.TRENT_TO_ALICE}),
        trials=args.trials,
        seed=args.seed,
        message_bits=None,
    )
    m_values = [int(v) for v in args.m_values.split(",")]
    report = sweep_detection_curve(base, m_values)

    print(f"{'m':>4}  {'empirical':>10}  {'analytic':>10}")
    for row in report.rows:
        print(
            f"{row['m']:>4}  {row['empirical_detection_rate']:>10.4f}"
            f"  {row['analytic_detection_rate']:>10.4f}"
        )
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(report.to_csv())
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
