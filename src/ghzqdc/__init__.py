"""Authenticated quantum direct communication over GHZ triples.

A desk-scale simulator: a dense statevector core, keyed authentication,
two direct-messaging protocol variants, eavesdropper models, and a
seeded Monte Carlo harness with machine-readable reports.
"""
from .adversary import (
    AttackModel,
    AttackVariant,
    Channel,
    NO_ATTACK,
    entangle_cnot_attack,
    entangle_general_attack,
    intercept_resend_attack,
)
from .authkeys import AuthKey, Counter, Shake256Hash, UserIdentity, derive_key
from .ecc import Codec, codec_by_name, hamming74_codec, none_codec, repetition_codec
from .harness import RunSpec, run, sweep_detection_curve
from .protocol import SessionConfig, SessionResult, Verdict, run_session
from .statevector import (
    BellOutcome,
    PureState,
    XOutcome,
    measure_bell,
    measure_x,
    measure_z,
    new_ghz3,
)

__version__ = "0.1.0"
