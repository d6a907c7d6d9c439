"""Authentication key derivation from identities and counters.

A key is the concatenation h(ID, c) || h(ID, c+1) || ... of fixed-width
hash blocks, extended by incrementing the counter until the key covers the
requested number of positions. The hash itself is a pluggable contract:
any deterministic callable (id_bits, counter_bits) -> bit array of
constant width, both inputs being "0"/"1" text. Shake256Hash is the
production choice; tests substitute a deterministic pattern stub.

Key bit k drives the encode/decode unitary on the matching GHZ particle:
0 selects the identity, 1 selects the Hadamard. Both are self-inverse, so
applying the keyed operation twice restores the state exactly.

Key material is never written to output files by the rest of the package;
only derived statistics leave the process.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ecc import parse_bits
from .statevector import H, I, Gate1Q

#: Hash contract: deterministic, fixed output width per instance.
HashContract = Callable[[str, str], np.ndarray]

DEFAULT_KEY_BLOCK_BITS = 128
DEFAULT_COUNTER_BITS = 32


class CounterOverflowError(ValueError):
    """Raised when key derivation would step a counter past its width."""


@dataclass(frozen=True)
class UserIdentity:
    """Secret identity bit string registered with the arbitrator."""

    id_bits: str
    role: str  # "alice" or "bob"

    def __post_init__(self):
        parse_bits(self.id_bits, "id_bits")
        if not self.id_bits:
            raise ValueError("identity must be non-empty")
        if self.role not in ("alice", "bob"):
            raise ValueError(f"role must be 'alice' or 'bob', got {self.role!r}")


@dataclass(frozen=True)
class Counter:
    """Hash-call counter, rendered as a fixed-width bit string."""

    value: int
    width: int = DEFAULT_COUNTER_BITS

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("counter width must be positive")
        if not 0 <= self.value < 2**self.width:
            raise ValueError(f"counter value {self.value} out of range for width {self.width}")

    def bits(self) -> str:
        return format(self.value, f"0{self.width}b")


class Shake256Hash:
    """One-way hash in counter mode: SHAKE-256 over id bits and counter bits."""

    def __init__(self, output_bits: int = DEFAULT_KEY_BLOCK_BITS):
        if output_bits < 1:
            raise ValueError("output_bits must be positive")
        self.output_bits = output_bits

    def __call__(self, id_bits: str, counter_bits: str) -> np.ndarray:
        shake = hashlib.shake_256(f"{id_bits}|{counter_bits}".encode("ascii"))
        digest = shake.digest((self.output_bits + 7) // 8)
        return np.unpackbits(np.frombuffer(digest, dtype=np.uint8))[: self.output_bits]


@dataclass(frozen=True, eq=False)
class AuthKey:
    """Derived key bits (read-only uint8) plus the counters of the hash blocks
    that built them, block i being the i-th block-width slice of `bits`."""

    bits: np.ndarray
    counters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "bits", parse_bits(self.bits, "key bits"))


def derive_key(
    identity: UserIdentity,
    h: HashContract,
    start_counter: Counter,
    needed: int,
) -> AuthKey:
    """Concatenate hash blocks h(ID, c), h(ID, c+1), ... until >= needed bits.

    Raises CounterOverflowError if the counter would pass 2**width - 1
    before enough bits are collected.
    """
    if needed < 1:
        raise ValueError("needed must be >= 1")
    blocks: list[np.ndarray] = []
    collected = 0
    start = value = start_counter.value
    while collected < needed:
        if value >= 2**start_counter.width:
            raise CounterOverflowError(
                f"counter overflow past {2**start_counter.width - 1} while deriving key"
            )
        counter = Counter(value, start_counter.width)
        block = h(identity.id_bits, counter.bits())  # AuthKey checks the bits
        if not blocks and len(block) == 0:
            raise ValueError("hash contract returned an empty block")
        if blocks and len(block) != len(blocks[0]):
            raise ValueError("hash contract returned blocks of varying width")
        blocks.append(block)
        collected += len(block)
        value += 1
    return AuthKey(bits=np.concatenate(blocks), counters=tuple(range(start, value)))


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniformly random bits as a uint8 array, from one integers() draw."""
    return rng.integers(0, 2, size=n).astype(np.uint8)


def unitary_for_key_bit(bit: int) -> Gate1Q:
    """Key bit 0 selects the identity, 1 selects the Hadamard."""
    if bit == 0:
        return I
    if bit == 1:
        return H
    raise ValueError(f"key bit must be 0 or 1, got {bit!r}")
