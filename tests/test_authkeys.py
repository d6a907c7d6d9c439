"""Key derivation: block concatenation, counters, keyed unitaries."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzqdc.authkeys import (
    AuthKey,
    Counter,
    CounterOverflowError,
    Shake256Hash,
    UserIdentity,
    derive_key,
    random_bits,
    unitary_for_key_bit,
)
from ghzqdc.ecc import format_bits, parse_bits
from ghzqdc.statevector import ATOL, H, I, apply_gate, make_state

from oracles import PatternHash

ALICE = UserIdentity(id_bits="1011", role="alice")


def test_single_block_is_one_hash_call():
    h = PatternHash(pattern="0110", output_bits=8)
    key = derive_key(ALICE, h, Counter(3, width=8), needed=8)
    assert format_bits(key.bits) == "01100110"
    assert key.counters == (3,)


def test_counter_increases_when_one_block_is_short():
    h = PatternHash(pattern="0110", output_bits=8)
    key = derive_key(ALICE, h, Counter(3, width=8), needed=9)
    assert format_bits(key.bits) == "01100110" * 2
    assert key.counters == (3, 4)


def test_stub_concatenation_matches_hand_computation():
    # pattern "10" at width 5 gives "10101"; needed 12 takes three blocks
    h = PatternHash(pattern="10", output_bits=5)
    key = derive_key(ALICE, h, Counter(0, width=4), needed=12)
    assert format_bits(key.bits) == "10101" * 3
    assert len(key.bits) == 15


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=40, deadline=None)
def test_coverage_law(needed):
    h = PatternHash(pattern="0110", output_bits=16)
    key = derive_key(ALICE, h, Counter(0), needed=needed)
    assert needed <= len(key.bits) < needed + 16


def test_derive_key_deterministic():
    h = Shake256Hash(output_bits=64)
    k1 = derive_key(ALICE, h, Counter(7), needed=100)
    k2 = derive_key(ALICE, h, Counter(7), needed=100)
    assert np.array_equal(k1.bits, k2.bits) and k1.counters == k2.counters == (7, 8)


def test_counter_overflow():
    h = PatternHash(pattern="1", output_bits=4)
    with pytest.raises(CounterOverflowError):
        derive_key(ALICE, h, Counter(2, width=2), needed=16)


def test_shake_hash_properties():
    h = Shake256Hash(output_bits=128)
    a = h("1011", Counter(0).bits())
    b = h("1011", Counter(1).bits())
    c = h("0011", Counter(0).bits())
    assert len(a) == len(b) == len(c) == 128
    assert a.dtype == np.uint8 and set(a.tolist()) <= {0, 1}
    assert not np.array_equal(a, b) and not np.array_equal(a, c)
    assert np.array_equal(a, h("1011", Counter(0).bits()))


def test_identity_and_counter_validation():
    with pytest.raises(ValueError):
        UserIdentity(id_bits="", role="alice")
    with pytest.raises(ValueError):
        UserIdentity(id_bits="012", role="alice")
    with pytest.raises(ValueError):
        UserIdentity(id_bits="01", role="carol")
    with pytest.raises(ValueError):
        Counter(-1)
    with pytest.raises(ValueError):
        Counter(4, width=2)
    assert Counter(5, width=8).bits() == "00000101"


def test_random_key_shape():
    key = AuthKey(random_bits(np.random.default_rng(0), 33))
    assert len(key.bits) == 33
    assert key.bits.dtype == np.uint8 and set(key.bits.tolist()) <= {0, 1}
    assert key.counters == ()


def test_authkey_rejects_non_bits():
    with pytest.raises(ValueError):
        AuthKey("01x0")
    with pytest.raises(ValueError):
        AuthKey(np.array([0, 1, 2, 0]))


def test_authkey_bits_are_read_only():
    key = AuthKey(parse_bits("0110"))
    with pytest.raises(ValueError):
        key.bits[0] = 1


def test_unitary_for_key_bit_mapping():
    assert unitary_for_key_bit(0) is I
    assert unitary_for_key_bit(1) is H
    with pytest.raises(ValueError):
        unitary_for_key_bit(2)


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
    s = make_state(amps, ("p", "q"))
    out = s
    for bit, target in ((a_bit, 0), (b_bit, 1)):
        out = apply_gate(out, unitary_for_key_bit(bit), target)
    for bit, target in ((a_bit, 0), (b_bit, 1)):
        out = apply_gate(out, unitary_for_key_bit(bit), target)
    assert np.allclose(out.amplitudes, s.amplitudes, atol=ATOL)


def test_golden_identity_keys_known_answer():
    """SHAKE-256 keys of the golden transcript identities, pinned by digest.

    Honest sessions cancel the keyed gates, so only this test (and the
    attacked goldens) would catch a bit-order slip in key derivation.
    """
    h = Shake256Hash()
    digests = {}
    for id_bits, role in (("1011001110001111", "alice"), ("0100110001110000", "bob")):
        key = derive_key(UserIdentity(id_bits, role), h, Counter(0), needed=300)
        digests[role] = hashlib.sha256(format_bits(key.bits).encode("ascii")).hexdigest()
    assert digests == {
        "alice": "7aed019ac90d07ad9ae461a28af3f8f23ba977e67742ae567d1ad4cf98342598",
        "bob": "9fc5e9e560c67f1e3efc46caf23119ca6a9b1e190b9e4e514185b6ef35c6d08e",
    }
