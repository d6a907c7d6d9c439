"""Key derivation: SHAKE-256 counter-mode blocks, keyed unitaries."""
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzqdc.authkeys import (
    AuthKey,
    CounterOverflowError,
    derive_key,
)
from ghzqdc.ecc import format_bits, parse_bits
from ghzqdc.statevector import ATOL, H, apply_gate, make_state
from oracles import random_bits

ALICE = "1011"
# Key bit 0 selects the identity, 1 the Hadamard.
KEY_GATE = (np.eye(2, dtype=complex), H)


def shake_block(id_bits: str, counter: int) -> np.ndarray:
    """Block `counter` of a key, written out from its definition: the first
    128 bits of SHAKE-256 over "{id_bits}|{counter as 32 binary digits}"."""
    text = id_bits + "|" + format(counter, "b").zfill(32)
    digest = hashlib.shake_256(text.encode("ascii")).digest(16)
    return np.unpackbits(np.frombuffer(digest, dtype=np.uint8))


def test_single_block_is_one_hash_call():
    for needed in (1, 100, 128):
        assert np.array_equal(derive_key(ALICE, needed).bits, shake_block(ALICE, 0))


def test_counter_increases_when_one_block_is_short():
    key = derive_key(ALICE, 129)
    assert len(key.bits) == 256
    assert np.array_equal(key.bits[:128], shake_block(ALICE, 0))
    assert np.array_equal(key.bits[128:], shake_block(ALICE, 1))
    assert not np.array_equal(key.bits[:128], key.bits[128:])


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
@settings(derandomize=True, deadline=None, max_examples=80)
def test_coverage_law(needed, other):
    """A key covers `needed` in whole blocks, and a shorter key is a prefix of
    a longer one (the detection sweep derives keys once, for its widest row)."""
    short, long = sorted((needed, other))
    short_key, long_key = derive_key(ALICE, short), derive_key(ALICE, long)
    for k, key in ((short, short_key), (long, long_key)):
        assert k <= len(key.bits) < k + 128
    assert np.array_equal(short_key.bits, long_key.bits[: len(short_key.bits)])


def test_derive_key_deterministic():
    k1, k2 = derive_key(ALICE, 300), derive_key(ALICE, 300)
    assert np.array_equal(k1.bits, k2.bits)


def test_different_ids_give_different_keys():
    for other in ("0011", "10110", "1"):
        assert not np.array_equal(derive_key(ALICE, 128).bits, derive_key(other, 128).bits)


def test_shake_hash_properties():
    """Blocks are joined in counter order; the bits are a read-only uint8 array."""
    key = derive_key(ALICE, 300)
    expected = np.concatenate([shake_block(ALICE, c) for c in range(3)])
    assert np.array_equal(key.bits, expected)
    assert key.bits.dtype == np.uint8 and not key.bits.flags.writeable


def test_counter_overflow(monkeypatch):
    """A key past 2**32 blocks fails at once: before any hashing, allocating nothing."""

    def no_hashing(*args):
        raise AssertionError("hashed before the overflow check")

    monkeypatch.setattr(hashlib, "shake_256", no_hashing)
    tracemalloc.start()
    try:
        with pytest.raises(CounterOverflowError):
            derive_key(ALICE, 2**32 * 128 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_derive_key_rejects_bad_input():
    for id_bits, needed in (("", 8), ("012", 8), ("01 ", 8), (ALICE, 0), (ALICE, -1)):
        with pytest.raises(ValueError):
            derive_key(id_bits, needed)


def test_random_key_shape():
    key = AuthKey(random_bits(np.random.default_rng(0), 33))
    assert len(key.bits) == 33
    assert key.bits.dtype == np.uint8 and set(key.bits.tolist()) <= {0, 1}


def test_authkey_rejects_non_bits():
    with pytest.raises(ValueError):
        AuthKey("01x0")
    with pytest.raises(ValueError):
        AuthKey(np.array([0, 1, 2, 0]))


def test_authkey_bits_are_read_only():
    key = AuthKey(parse_bits("0110"))
    with pytest.raises(ValueError):
        key.bits[0] = 1


@given(
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=8, max_size=8),
    st.integers(0, 1),
    st.integers(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_encode_then_decode_with_same_bits_is_identity(values, a_bit, b_bit):
    """Keyed encode followed by keyed decode restores any state."""
    amps = np.array(values[:4]) + 1j * np.array(values[4:])
    if np.linalg.norm(amps) < 1e-3:
        amps = np.array([1.0, 0, 0, 0])
    amps = amps / np.linalg.norm(amps)
    s = make_state(amps)
    out = s
    for bit, target in ((a_bit, 0), (b_bit, 1)):
        out = apply_gate(out, KEY_GATE[bit], target)
    for bit, target in ((a_bit, 0), (b_bit, 1)):
        out = apply_gate(out, KEY_GATE[bit], target)
    assert np.allclose(out, s, atol=ATOL)


def test_golden_identity_keys_known_answer():
    """SHAKE-256 keys of the golden transcript identities, pinned by digest.

    Honest sessions cancel the keyed gates, so only this test (and the
    attacked goldens) would catch a bit-order slip in key derivation.
    """
    digests = {}
    for id_bits, role in (("1011001110001111", "alice"), ("0100110001110000", "bob")):
        key = derive_key(id_bits, 300)
        digests[role] = hashlib.sha256(format_bits(key.bits).encode("ascii")).hexdigest()
    assert digests == {
        "alice": "7aed019ac90d07ad9ae461a28af3f8f23ba977e67742ae567d1ad4cf98342598",
        "bob": "9fc5e9e560c67f1e3efc46caf23119ca6a9b1e190b9e4e514185b6ef35c6d08e",
    }
