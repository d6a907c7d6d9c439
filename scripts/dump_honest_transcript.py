#!/usr/bin/env python3
"""Print the full event transcript of one small named session.

The cases, by name:
  honest            qdc1, no attack (tests/data/golden_session.jsonl);
  attacked          the general entangling attack on every channel a qdc1
                    triple crosses at coverage 0.5, Eve measuring between
                    Bob and Trent, so some triples carry fewer ancillas than
                    others (tests/data/golden_attacked_session.jsonl);
  qdc2_hamming74    qdc2 with the Hamming(7,4) codec: Trent's Bell
                    measurement and published bit, Bob's x;
  auth_aborted      an intercept on trent-alice that aborts authentication;
  auth_only         no message, authentication only;
  msg_discarded     a CNOT on alice-bob whose check errors discard the message;
  intercept_qdc2    an intercept on alice-trent, order eve, trent, bob;
  cnot_two_slots    a CNOT on trent-bob and alice-bob, Eve measuring first,
                    so her ancillas are labelled E0 and E1.

Each transcript is rendered from the session's result by
`protocol.render_transcript` and written by `protocol.to_jsonl`. With
--out the script writes one case's JSONL to a file, which refreshes a
golden fixture; with --write it rewrites
tests/data/transcript_digests.json, the sha256 of every case's JSONL,
which the tests check, after an intentional change of the transcript
format.
"""
import argparse
import hashlib
import json
from pathlib import Path

from ghzqdc.adversary import NO_ATTACK, AttackModel, Channel
from ghzqdc.authkeys import derive_key
from ghzqdc.ecc import Codec, parse_bits
from ghzqdc.protocol import SessionConfig, render_transcript, run_session, to_jsonl

DIGESTS = Path(__file__).resolve().parent.parent / "tests" / "data" / "transcript_digests.json"


def golden_keys(needed: int):
    return derive_key("1011001110001111", needed), derive_key("0100110001110000", needed)


def session(config: SessionConfig, attack=NO_ATTACK, message: str | None = "1101") -> list[dict]:
    """The event records of one session over the golden keys."""
    alice, bob = golden_keys(config.n_ghz)
    bits = None if message is None else parse_bits(message)
    return render_transcript(config, run_session(config, alice, bob, bits, attack))


def golden_session() -> list[dict]:
    return session(SessionConfig(n_ghz=20, m_auth_check=2, check_fraction_msg=0.25, rng_seed=2024))


def golden_attacked_session() -> list[dict]:
    config = SessionConfig(
        n_ghz=24,
        m_auth_check=4,
        error_threshold_auth=1.0,
        error_threshold_msg=1.0,
        measure_order=("bob", "eve", "trent"),
        rng_seed=31,
    )
    attack = AttackModel(
        "entangle-general",
        {Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB, Channel.ALICE_TO_BOB},
        coverage=0.5,
    )
    return session(config, attack)


def small_session(attack=NO_ATTACK, message="10110010", **config) -> list[dict]:
    """A session at n=40, m=4, seed 5 unless `config` says otherwise."""
    config = SessionConfig(**{"n_ghz": 40, "m_auth_check": 4, "rng_seed": 5, **config})
    return session(config, attack, message)


CASES = {
    "honest": golden_session,
    "attacked": golden_attacked_session,
    "qdc2_hamming74": lambda: small_session(protocol_variant="qdc2", codec=Codec("hamming74")),
    "auth_aborted": lambda: small_session(
        AttackModel("intercept", {Channel.TRENT_TO_ALICE}), m_auth_check=8),
    "auth_only": lambda: small_session(message=None),
    "msg_discarded": lambda: small_session(AttackModel("entangle-cnot", {Channel.ALICE_TO_BOB})),
    "intercept_qdc2": lambda: small_session(
        AttackModel("intercept", {Channel.ALICE_TO_TRENT}), protocol_variant="qdc2",
        measure_order=("eve", "trent", "bob"), error_threshold_msg=1.0),
    "cnot_two_slots": lambda: small_session(
        AttackModel("entangle-cnot", {Channel.TRENT_TO_BOB, Channel.ALICE_TO_BOB}),
        measure_order=("eve", "bob", "trent"), error_threshold_auth=1.0,
        error_threshold_msg=1.0),
}


def case_jsonl(name: str) -> str:
    return to_jsonl(CASES[name]())


def digests() -> dict[str, str]:
    """The sha256 of every case's JSONL transcript, by case name."""
    return {name: hashlib.sha256(case_jsonl(name).encode("ascii")).hexdigest() for name in CASES}


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("case", nargs="?", default="honest", choices=sorted(CASES))
    parser.add_argument("--out", default=None, help="write the case's JSONL here instead of stdout")
    parser.add_argument("--write", action="store_true", help=f"rewrite {DIGESTS.name}")
    args = parser.parse_args()
    if args.write:
        DIGESTS.write_text(json.dumps(digests(), indent=2) + "\n", encoding="ascii")
        print(f"wrote {DIGESTS}")
        return
    text = case_jsonl(args.case)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({text.count(chr(10))} events)")
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
