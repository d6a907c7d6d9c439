#!/usr/bin/env python3
"""Print the full event transcript of one small session.

By default the session is honest; with --attacked, Eve runs the general
entangling attack on every channel a qdc1 triple crosses at coverage 0.5,
so some triples carry fewer ancillas than others.

Also the generator for tests/data/golden_session.jsonl and
tests/data/golden_attacked_session.jsonl; run with --out to refresh a
fixture after an intentional format change.
"""
import argparse

from ghzqdc.adversary import NO_ATTACK, Channel, entangle_general_attack
from ghzqdc.authkeys import Counter, Shake256Hash, UserIdentity, derive_key
from ghzqdc.ecc import parse_bits
from ghzqdc.protocol import SessionConfig, run_session


def golden_keys(needed: int):
    h = Shake256Hash()
    alice = derive_key(UserIdentity("1011001110001111", "alice"), h, Counter(0), needed=needed)
    bob = derive_key(UserIdentity("0100110001110000", "bob"), h, Counter(0), needed=needed)
    return alice, bob


def golden_session():
    alice, bob = golden_keys(20)
    config = SessionConfig(
        n_ghz=20, m_auth_check=2, check_fraction_msg=0.25, rng_seed=2024
    )
    return run_session(config, alice, bob, parse_bits("1101"), NO_ATTACK)


def golden_attacked_session():
    alice, bob = golden_keys(24)
    config = SessionConfig(
        n_ghz=24,
        m_auth_check=4,
        error_threshold_auth=1.0,
        error_threshold_msg=1.0,
        measure_order=("bob", "eve", "trent"),
        rng_seed=31,
    )
    attack = entangle_general_attack(
        {Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB, Channel.ALICE_TO_BOB}, coverage=0.5
    )
    return run_session(config, alice, bob, parse_bits("1101"), attack)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--attacked", action="store_true", help="dump the attacked session")
    parser.add_argument("--out", default=None, help="write JSONL here instead of stdout")
    args = parser.parse_args()
    result = golden_attacked_session() if args.attacked else golden_session()
    text = result.transcript.to_jsonl()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(result.transcript)} events)")
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
