"""Authenticated quantum direct communication over GHZ triples.

A desk-scale simulator: a dense statevector core, keyed authentication,
two direct-messaging protocol variants, eavesdropper models, and a
seeded Monte Carlo harness with machine-readable reports.
"""
from .adversary import NO_ATTACK, AttackModel, AttackVariant, Channel
from .authkeys import AuthKey, derive_key
from .ecc import Codec
from .harness import RunSpec, run, sweep_detection_curve
from .protocol import SessionConfig, SessionResult, render_transcript, run_session, to_jsonl
from .statevector import new_ghz3

__version__ = "0.1.0"
