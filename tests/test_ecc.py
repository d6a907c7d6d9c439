"""Codecs: exhaustive Hamming checks, repetition, framing, the bit text edge."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzqdc.ecc import (
    Codec,
    FramingError,
    check_distance_rule,
    codec_by_name,
    decode,
    encode,
    format_bits,
    hamming74_codec,
    none_codec,
    parse_bits,
    repetition_codec,
)

import oracles

bits = st.text(alphabet="01", min_size=0, max_size=64)


def encode_text(codec, data: str) -> str:
    """encode() on the text form of the bits, for readable assertions."""
    frame = encode(codec, parse_bits(data))
    assert frame.dtype == np.uint8 and frame.ndim == 1
    return format_bits(frame)


def decode_text(codec, frame: str) -> tuple[str, int]:
    data, fixed = decode(codec, parse_bits(frame))
    assert data.dtype == np.uint8 and data.ndim == 1
    return format_bits(data), fixed


def flip(word: str, pos: int) -> str:
    return word[:pos] + ("1" if word[pos] == "0" else "0") + word[pos + 1 :]


# ---------------------------------------------------------------------------
# Hamming(7,4)


def test_hamming_zero_word():
    frame = encode_text(hamming74_codec(), "0000")
    assert frame == "00000000" + "0000000"


def test_hamming_all_codewords_match_matrix_oracle():
    codec = hamming74_codec()
    for k in range(16):
        data = format(k, "04b")
        frame = encode_text(codec, data)
        assert frame[:8] == "00000000"  # no padding for 4-bit input
        assert frame[8:] == oracles.h74_encode(data)


def test_hamming_corrects_every_single_bit_flip():
    """All 16 codewords x 7 flip positions decode back, one correction."""
    codec = hamming74_codec()
    failures = 0
    for k in range(16):
        data = format(k, "04b")
        word = encode_text(codec, data)[8:]
        for pos in range(7):
            got, fixed = decode_text(codec, "00000000" + flip(word, pos))
            if got != data or fixed != 1:
                failures += 1
    assert failures == 0


def test_hamming_linearity():
    codec = hamming74_codec()
    words = {k: encode_text(codec, format(k, "04b"))[8:] for k in range(16)}
    for a in range(16):
        for b in range(16):
            xored = "".join(str(int(x) ^ int(y)) for x, y in zip(words[a], words[b]))
            assert xored == words[a ^ b]


def test_hamming_double_error_is_miscorrected_not_flagged():
    # d=3 cannot correct two flips; the decoder still "fixes" one bit and
    # returns wrong data. Pin that behavior so it stays documented.
    codec = hamming74_codec()
    data = "1011"
    word = flip(flip(encode_text(codec, data)[8:], 0), 6)
    got, fixed = decode_text(codec, "00000000" + word)
    assert fixed == 1
    assert got != data


# ---------------------------------------------------------------------------
# Repetition and none


def test_repetition_encode():
    assert encode_text(repetition_codec(3), "1")[8:] == "111"


def test_repetition_majority_vote():
    got, fixed = decode_text(repetition_codec(3), "00000000" + "101")
    assert got == "1"
    assert fixed == 1


def test_repetition_requires_odd_length():
    with pytest.raises(ValueError):
        repetition_codec(4)


def test_codec_by_name():
    assert codec_by_name("rep5").n == 5
    assert codec_by_name("hamming74").k == 4
    assert codec_by_name("none").d == 1
    with pytest.raises(ValueError):
        codec_by_name("turbo")
    with pytest.raises(ValueError):
        Codec("turbo", n=1, k=1, d=1)


@given(bits, st.sampled_from(["none", "rep3", "rep5", "hamming74"]))
@settings(max_examples=120, deadline=None)
def test_round_trip_all_codecs(data, name):
    codec = codec_by_name(name)
    got, fixed = decode_text(codec, encode_text(codec, data))
    assert got == data
    assert fixed == 0


@given(st.text(alphabet="01", min_size=1, max_size=24), st.sampled_from(["rep3", "rep5", "hamming74"]))
@settings(max_examples=80, deadline=None)
def test_round_trip_under_correctable_errors(data, name):
    """Flipping up to floor((d-1)/2) bits in each block is transparent."""
    codec = codec_by_name(name)
    frame = encode_text(codec, data)
    body = frame[8:]
    t = (codec.d - 1) // 2
    corrupted = ""
    expected_fixes = 0
    for i in range(0, len(body), codec.n):
        block = body[i : i + codec.n]
        for pos in range(t):
            block = flip(block, pos)
        expected_fixes += t
        corrupted += block
    got, fixed = decode_text(codec, frame[:8] + corrupted)
    assert got == data
    assert fixed == expected_fixes


@pytest.mark.parametrize("r", [3, 5])
def test_repetition_exhaustive_correctable_patterns(r):
    """Every error pattern within the majority-vote bound, both bit values."""
    from itertools import combinations

    codec = repetition_codec(r)
    t = (codec.d - 1) // 2
    for data in ("0", "1"):
        word = encode_text(codec, data)[8:]
        for k in range(t + 1):
            for positions in combinations(range(r), k):
                corrupted = word
                for pos in positions:
                    corrupted = flip(corrupted, pos)
                got, fixed = decode_text(codec, "00000000" + corrupted)
                assert got == data
                assert fixed == k


def test_padding_header_round_trip():
    codec = hamming74_codec()
    frame = encode_text(codec, "10110")  # 5 bits -> pad 3
    assert frame[:8] == format(3, "08b")
    assert len(frame) == 8 + 2 * 7
    got, _ = decode_text(codec, frame)
    assert got == "10110"


def test_empty_message_frame():
    codec = none_codec()
    frame = encode_text(codec, "")
    assert frame == "00000000"
    assert decode_text(codec, frame) == ("", 0)


def test_framing_errors():
    codec = hamming74_codec()
    with pytest.raises(FramingError):
        decode_text(codec, "0000")  # shorter than the header
    with pytest.raises(FramingError):
        decode_text(codec, "00000000" + "000")  # body not a multiple of 7
    with pytest.raises(FramingError):
        decode_text(codec, format(9, "08b") + "0000000")  # pad 9 impossible for k=4


# ---------------------------------------------------------------------------
# Text edge


@given(bits)
@settings(max_examples=60, deadline=None)
def test_parse_and_format_bits_round_trip(text):
    arr = parse_bits(text)
    assert arr.dtype == np.uint8 and arr.shape == (len(text),)
    assert arr.tolist() == [int(c) for c in text]
    assert format_bits(arr) == text
    assert format_bits(parse_bits(arr.tolist())) == text


def test_parse_bits_is_read_only_and_validates():
    arr = parse_bits("0110")
    with pytest.raises(ValueError):
        arr[0] = 1
    assert parse_bits(np.array([True, False])).tolist() == [1, 0]
    for bad in ("01x0", "0 1", "٠١", [0, 2], [[0, 1]], np.array([0.5]), None, 1):
        with pytest.raises(ValueError):
            parse_bits(bad)


# ---------------------------------------------------------------------------
# Distance rule


@pytest.mark.parametrize(
    "rate,n,d,expected",
    [
        (0.2, 5, 4, True),  # floor(2) + 1 = 3 < 4
        (0.2, 5, 3, False),
        (0.0, 7, 1, False),  # 1 > 1 fails
        (0.5, 7, 7, False),
        (0.1, 7, 3, True),
    ],
)
def test_check_distance_rule(rate, n, d, expected):
    assert check_distance_rule(rate, n, d) is expected


def test_check_distance_rule_validation():
    with pytest.raises(ValueError):
        check_distance_rule(1.5, 7, 3)
    with pytest.raises(ValueError):
        check_distance_rule(0.1, 0, 3)
