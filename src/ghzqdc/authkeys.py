"""Authentication key derivation from a registered identity and a counter.

A key is the concatenation h(ID, 0) || h(ID, 1) || ... of 128-bit blocks,
one per counter value, until the key covers the requested number of
positions. h is SHAKE-256 (FIPS 202) over the ASCII text
"{id_bits}|{counter}", the counter written as 32 binary digits; a block is
the first 16 bytes of its output, most significant bit first.

Key bit k drives the encode/decode unitary on the matching GHZ particle:
0 selects the identity, 1 selects the Hadamard. Both are self-inverse, so
applying the keyed operation twice restores the state exactly.

Key material is never written to output files by the rest of the package;
only derived statistics leave the process.
"""
from __future__ import annotations

import hashlib
from dataclasses import InitVar, dataclass

import numpy as np

from .ecc import parse_bits

_BLOCK_BITS = 128
_COUNTER_VALUES = 2**32  # the counter is written as 32 binary digits


class CounterOverflowError(ValueError):
    """Raised when a key would need a counter value past 2**32 - 1."""


@dataclass(frozen=True, eq=False)
class AuthKey:
    """Key bits, as a read-only uint8 array of 0s and 1s."""

    bits: np.ndarray
    check: InitVar[bool] = True  # False only for bits that already are such an array

    def __post_init__(self, check: bool):
        if check:
            object.__setattr__(self, "bits", parse_bits(self.bits, "key bits"))


def derive_key(id_bits: str, needed: int) -> AuthKey:
    """The ceil(needed / 128) blocks h(id_bits, 0) || h(id_bits, 1) || ...

    Raises CounterOverflowError, before hashing anything, when that takes
    more blocks than the counter has values.
    """
    if needed < 1:
        raise ValueError("needed must be >= 1")
    if not id_bits or id_bits.strip("01"):  # the text is hashed as given, never parsed
        raise ValueError(f"id_bits must be a non-empty string of 0s and 1s, got {id_bits!r}")
    blocks = -(-needed // _BLOCK_BITS)
    if blocks > _COUNTER_VALUES:
        raise CounterOverflowError(
            f"{needed} key bits need {blocks} blocks, past the counter's {_COUNTER_VALUES} values"
        )
    digest = b"".join(
        hashlib.shake_256(f"{id_bits}|{c:032b}".encode("ascii")).digest(_BLOCK_BITS // 8)
        for c in range(blocks)
    )
    bits = np.unpackbits(np.frombuffer(digest, dtype=np.uint8))
    bits.flags.writeable = False
    return AuthKey(bits, check=False)  # a digest's bits are 0s and 1s

