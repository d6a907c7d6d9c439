#!/usr/bin/env python3
"""Digests of small CLI reports that every later version must reproduce.

Each configuration is one `ghzqdc run` or `ghzqdc sweep` argv; its digest
is the sha256 of the JSON report with `timestamp` stripped (a sweep report
has none). Also the generator for tests/data/golden_reports.json; run with
--write to refresh that fixture after an intentional change of the report
contract.
"""
import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from ghzqdc.cli import main as cli_main

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_reports.json"

CONFIGS = {
    "general_message_channel": [
        "run", "--attack", "entangle-general", "--alpha", "0.8,0", "--beta", "0.6,0",
        "--alpha-p", "0.8,0", "--beta-p=-0.6,0", "--n-ghz", "48", "--auth-check-bits", "2",
        "--msg-check-fraction", "0.5", "--message", "10110010", "--threshold-msg", "1.0",
        "--trials", "4", "--seed", "3",
    ],
    "cnot_trent_alice": [
        "run", "--attack", "entangle-cnot", "--attack-channels", "trent-alice",
        "--n-ghz", "40", "--auth-check-bits", "8", "--message-bits", "8",
        "--threshold-auth", "1.0", "--trials", "6", "--seed", "5",
    ],
    "intercept_half_coverage": [
        "run", "--attack", "intercept", "--attack-channels", "trent-alice,alice-bob",
        "--attack-coverage", "0.5", "--n-ghz", "40", "--auth-check-bits", "8",
        "--message-bits", "8", "--threshold-auth", "1.0", "--threshold-msg", "1.0",
        "--trials", "6", "--seed", "7",
    ],
    "honest_qdc2_hamming74": [
        "run", "--protocol", "qdc2", "--ecc", "hamming74", "--n-ghz", "64",
        "--auth-check-bits", "8", "--message-bits", "16", "--trials", "4", "--seed", "9",
    ],
    "honest_qdc1_rep3": [
        "run", "--ecc", "rep3", "--n-ghz", "64", "--auth-check-bits", "8",
        "--message-bits", "8", "--trials", "4", "--seed", "11",
    ],
    "general_qdc2_alice_trent": [
        "run", "--protocol", "qdc2", "--attack", "entangle-general",
        "--attack-channels", "alice-trent", "--n-ghz", "40", "--auth-check-bits", "4",
        "--message-bits", "8", "--threshold-msg", "1.0", "--trials", "4", "--seed", "13",
    ],
    "sweep_cnot_trent_alice": [
        "sweep", "--attack", "entangle-cnot", "--attack-channels", "trent-alice",
        "--n-ghz", "8", "--auth-check-bits", "2", "--message-bits", "0",
        "--m-values", "1,3", "--trials", "20", "--seed", "15",
    ],
    "cnot_auth_and_message_half": [
        "run", "--attack", "entangle-cnot", "--attack-channels", "trent-alice,alice-bob",
        "--attack-coverage", "0.5", "--n-ghz", "40", "--auth-check-bits", "8",
        "--message-bits", "8", "--threshold-auth", "1.0", "--threshold-msg", "1.0",
        "--trials", "6", "--seed", "17",
    ],
    "general_all_channels_half": [
        "run", "--attack", "entangle-general",
        "--attack-channels", "trent-alice,trent-bob,alice-bob", "--attack-coverage", "0.5",
        "--n-ghz", "40", "--auth-check-bits", "8", "--message-bits", "8",
        "--threshold-auth", "1.0", "--threshold-msg", "1.0", "--trials", "6", "--seed", "19",
    ],
    "intercept_qdc2_all_half": [
        "run", "--protocol", "qdc2", "--attack", "intercept",
        "--attack-channels", "trent-alice,trent-bob,alice-trent", "--attack-coverage", "0.5",
        "--n-ghz", "40", "--auth-check-bits", "8", "--message-bits", "8",
        "--threshold-auth", "1.0", "--threshold-msg", "1.0", "--trials", "6", "--seed", "21",
    ],
    "general_many_trials_2560_rows": [
        "run", "--protocol", "qdc2", "--ecc", "hamming74", "--attack", "entangle-general",
        "--attack-channels", "trent-bob,alice-trent", "--attack-coverage", "0.5",
        "--n-ghz", "128", "--auth-check-bits", "16", "--message-bits", "40",
        "--threshold-auth", "1.0", "--threshold-msg", "1.0", "--trials", "20", "--seed", "23",
    ],
    "intercept_mixed_verdicts": [
        "run", "--attack", "intercept", "--attack-channels", "trent-alice",
        "--attack-coverage", "0.3", "--n-ghz", "24", "--auth-check-bits", "2",
        "--message-bits", "8", "--threshold-msg", "0.3", "--trials", "40", "--seed", "25",
    ],
}


def report_digest(argv: list[str]) -> str:
    """Run the CLI on `argv` and hash its JSON report without `timestamp`."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        if cli_main([*argv, "--out", str(out)]) != 0:
            raise RuntimeError(f"ghzqdc {' '.join(argv)} failed")
        doc = json.loads(out.read_text(encoding="ascii"))
    doc.pop("timestamp", None)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help=f"rewrite {FIXTURE.name}")
    args = parser.parse_args()
    digests = {name: report_digest(argv) for name, argv in CONFIGS.items()}
    text = json.dumps(digests, indent=2) + "\n"
    if args.write:
        FIXTURE.write_text(text, encoding="ascii")
        print(f"wrote {FIXTURE}")
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
