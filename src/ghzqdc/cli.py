"""Command-line front end for the Monte Carlo harness.

Two subcommands:
  run    repeated sessions under one configuration, JSON/CSV report
  sweep  detection-rate curve over a list of auth check counts

Exit status is 0 for a completed run, 1 for a configuration error (an
attack flag the chosen --attack ignores among them) or an unwritable output
path, and 2 for a malformed flag such as an empty channel list. Both kinds
of error are raised before the output file is created.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext, suppress

import numpy as np

from .adversary import AttackModel, AttackVariant, Channel, NO_ATTACK
from .ecc import Codec, check_distance_rule, format_bits, parse_bits
from .harness import RunSpec, run, sweep_detection_curve
from .protocol import ConfigError, SessionConfig, message_channel


def parse_complex(text: str) -> complex:
    """Parse a complex number written as "re,im" (or a bare real)."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")


def parse_message(text: str) -> str:
    """Accept a non-empty bit string, or hex (0x-prefixed or containing hex digits)."""
    hexpart = text[2:] if text.startswith(("0x", "0X")) else None
    if hexpart is None:
        with suppress(ValueError):
            if len(parse_bits(text)):
                return text
        hexpart = text
    with suppress(ValueError):
        nibbles = np.array([int(c, 16) for c in hexpart], dtype=np.uint8)
        if len(nibbles):
            return format_bits(np.unpackbits(nibbles[:, None], axis=1)[:, 4:])
    raise argparse.ArgumentTypeError(f"message must be bits or hex, got {text!r}")


def parse_message_bits(text: str) -> int:
    """Random message length; 0 runs authentication only."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def parse_channels(text: str) -> frozenset[Channel]:
    """Comma list of one or more channel names."""
    out = set()
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            out.add(Channel(name))
        except ValueError:
            valid = ", ".join(c.value for c in Channel)
            raise argparse.ArgumentTypeError(f"unknown channel {name!r}; one of: {valid}") from None
    if not out:
        raise argparse.ArgumentTypeError(f"expected at least one channel, got {text!r}")
    return frozenset(out)


def parse_m_values(text: str) -> list[int]:
    """Comma list of positive auth check counts for a sweep."""
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected positive integers like 1,2,5, got {text!r}")
    return values


def _default_channels(attack: str, protocol: str) -> frozenset[Channel]:
    if attack == "entangle-general":
        return frozenset({message_channel(protocol)})
    return frozenset({Channel.TRENT_TO_ALICE})


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--protocol", choices=["qdc1", "qdc2"], default="qdc1")
    p.add_argument("--n-ghz", type=int, default=128, help="GHZ triples per session")
    p.add_argument("--auth-check-bits", type=int, default=16, help="auth check positions m")
    p.add_argument("--msg-check-fraction", type=float, default=0.25)
    p.add_argument("--message", type=parse_message, default=None,
                   help="fixed message, bits or hex; default draws a fresh one per trial")
    p.add_argument("--message-bits", type=parse_message_bits, default=64,
                   help="random message length when --message is not given; 0 for none")
    p.add_argument("--ecc", default="none", help="none | hamming74 | rep<r> for odd r, e.g. rep3")
    p.add_argument("--attack", choices=[v.value for v in AttackVariant], default="none")
    p.add_argument("--attack-channels", type=parse_channels, default=None,
                   help="comma list of trent-alice, trent-bob, alice-bob, alice-trent")
    p.add_argument("--attack-coverage", type=float, default=None, help="default 1.0")
    for name in ("alpha", "beta", "alpha-p", "beta-p"):
        p.add_argument(f"--{name}", type=parse_complex, default=None, help='complex as "re,im"')
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold-auth", type=float, default=0.0)
    p.add_argument("--threshold-msg", type=float, default=0.0)
    p.add_argument("--out", default=None, help="output path; default stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzqdc",
        description="Monte Carlo simulator for authenticated direct messaging over GHZ triples",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run repeated sessions and report statistics")
    _add_common_flags(run_p)
    sweep_p = sub.add_parser("sweep", help="detection-rate curve over auth check counts")
    _add_common_flags(sweep_p)
    sweep_p.add_argument("--m-values", type=parse_m_values, default="1,2,5,10,20",
                         help="comma list of auth check counts")
    return parser


def _build_attack(args) -> AttackModel:
    """The attack the flags describe; a flag the chosen --attack would ignore is a ConfigError."""
    params = {name: getattr(args, name) for name in ("alpha", "beta", "alpha_p", "beta_p")}
    ignored = {} if args.attack == "entangle-general" else dict(params)
    if args.attack == "none":
        ignored.update(attack_channels=args.attack_channels, attack_coverage=args.attack_coverage)
    for name, value in ignored.items():
        if value is not None:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} has no effect with --attack {args.attack}")
    if args.attack == "none":
        return NO_ATTACK
    channels = args.attack_channels
    if channels is None:
        channels = _default_channels(args.attack, args.protocol)
    coverage = 1.0 if args.attack_coverage is None else args.attack_coverage
    extra = {name: value for name, value in params.items() if value is not None}
    return AttackModel(args.attack, channels, coverage, **extra)


def _build_spec(args) -> RunSpec:
    codec = Codec(args.ecc)
    attack = _build_attack(args)  # a stray attack flag is reported before a bad config
    config = SessionConfig(
        n_ghz=args.n_ghz,
        m_auth_check=args.auth_check_bits,
        check_fraction_msg=args.msg_check_fraction,
        error_threshold_auth=args.threshold_auth,
        error_threshold_msg=args.threshold_msg,
        codec=codec,
        protocol_variant=args.protocol,
    )
    message = args.message
    message_bits = len(message) if message is not None else args.message_bits
    if args.command == "sweep":  # its rows run authentication only, so no message is checked
        message, message_bits = None, 0
    return RunSpec(
        config=config,
        attack=attack,
        trials=args.trials,
        seed=args.seed,
        message_bits=message_bits if message_bits > 0 else None,
        message=message,
    )


def _warn_distance_rule(spec: RunSpec) -> None:
    codec = spec.config.codec
    if codec.name == "none":
        return
    # Advisory only: expected raw error rate under the configured attack.
    # An attack on any channel the protocol uses randomises the message bits
    # (the distribution channels too, since the message rides on the same
    # triples); the other protocol's message channel carries nothing.
    used = (Channel.TRENT_TO_ALICE, Channel.TRENT_TO_BOB,
            message_channel(spec.config.protocol_variant))
    attacked = any(spec.attack.targets(c) for c in used)
    rate = spec.attack.coverage * 0.5 if attacked else 0.0
    if rate > 0 and not check_distance_rule(rate, codec.n, codec.d):
        sys.stderr.write(
            f"warning: codec distance d={codec.d} may be too small for an "
            f"expected raw error rate of {rate:.2f} on n={codec.n} blocks\n"
        )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _build_spec(args)  # validates the spec
        # Opened before the first trial, so an unwritable path fails fast.
        out = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="ascii")
        with out as fh:
            if args.command == "run":
                _warn_distance_rule(spec)
                report = run(spec)
            else:
                report = sweep_detection_curve(spec, args.m_values)
            fh.write(report.to_json() if args.format == "json" else report.to_csv())
    except (ValueError, OSError) as exc:  # ValueError covers ConfigError and InvalidAttackError
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
