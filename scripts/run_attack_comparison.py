#!/usr/bin/env python3
"""Side-by-side error statistics for every adversary model.

Each attack runs against its natural channel: intercept and the
controlled flip hit the auth distribution (Trent to Alice), the general
entangling unitary hits the message channel of the chosen protocol.
"""
import argparse

from ghzqdc.adversary import NO_ATTACK, AttackModel, Channel
from ghzqdc.harness import RunSpec, run
from ghzqdc.protocol import SessionConfig, message_channel


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", choices=["qdc1", "qdc2"], default="qdc1")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    msg_channel = message_channel(args.protocol)
    attacks = {
        "none": NO_ATTACK,
        "intercept (auth)": AttackModel("intercept", {Channel.TRENT_TO_ALICE}),
        "entangle-cnot (auth)": AttackModel("entangle-cnot", {Channel.TRENT_TO_ALICE}),
        "entangle-general (msg)": AttackModel("entangle-general", {msg_channel}),
    }
    config = SessionConfig(
        n_ghz=48,
        m_auth_check=16,
        check_fraction_msg=0.25,
        error_threshold_msg=1.0,
        protocol_variant=args.protocol,
    )

    header = f"{'attack':<24} {'auth err':>9} {'detect':>7} {'msg err':>8} {'fidelity':>9}"
    print(header)
    print("-" * len(header))
    for name, attack in attacks.items():
        spec = RunSpec(
            config=config, attack=attack, trials=args.trials, seed=args.seed, message_bits=16
        )
        rep = run(spec)
        print(
            f"{name:<24} {rep.auth['error_rate']:>9.4f} {rep.auth['detection_rate']:>7.3f}"
            f" {rep.message['error_rate']:>8.4f} {rep.message['delivery_fidelity']:>9.3f}"
        )


if __name__ == "__main__":
    main()
