"""Classical error-correction codecs for the message frame.

A frame is: 8 header bits (pad length, uncoded) followed by the coded
body. The body is the message padded with zeros to a multiple of the
codec's data width k, encoded block by block into codewords of width n.

Codecs: "none" (pass-through), "repetition" with odd block length r
(majority vote), and "hamming74" (single error corrected per 7-bit
block). Neither hamming74 nor odd repetition has detect-but-uncorrectable
syndromes, so decode never rejects a block; framing inconsistencies
(bad length, impossible pad) raise FramingError instead.
"""
from __future__ import annotations

from dataclasses import dataclass

HEADER_BITS = 8


class FramingError(ValueError):
    """Received bits are inconsistent with the codec framing."""


@dataclass(frozen=True)
class Codec:
    """Block code parameters: codeword width n, data width k, min distance d."""

    name: str  # "none" | "repetition" | "hamming74"
    n: int
    k: int
    d: int

    def correctable_per_block(self) -> int:
        return (self.d - 1) // 2


def none_codec() -> Codec:
    return Codec("none", n=1, k=1, d=1)


def repetition_codec(r: int) -> Codec:
    if r < 1 or r % 2 == 0:
        raise ValueError(f"repetition length must be odd and positive, got {r}")
    return Codec("repetition", n=r, k=1, d=r)


def hamming74_codec() -> Codec:
    return Codec("hamming74", n=7, k=4, d=3)


def codec_by_name(name: str) -> Codec:
    """Resolve a CLI codec name: none, rep3, rep5 (any odd repN), hamming74."""
    if name == "none":
        return none_codec()
    if name == "hamming74":
        return hamming74_codec()
    if name.startswith("rep"):
        try:
            r = int(name[3:])
        except ValueError:
            raise ValueError(f"unknown codec name: {name!r}") from None
        return repetition_codec(r)
    raise ValueError(f"unknown codec name: {name!r}")


def _check_bits(bits: str, what: str) -> str:
    # str.strip("01") leaves something behind iff a non-bit char exists.
    if not isinstance(bits, str) or bits.strip("01"):
        raise ValueError(f"{what} must be a string of 0s and 1s, got {bits!r}")
    return bits


# Hamming(7,4): data bits at codeword positions 3,5,6,7 (1-indexed),
# parity bits at 1,2,4. The syndrome reads out the 1-indexed error
# position directly.


def _h74_encode_block(data: str) -> str:
    d1, d2, d3, d4 = (int(b) for b in data)
    p1 = d1 ^ d2 ^ d4
    p2 = d1 ^ d3 ^ d4
    p4 = d2 ^ d3 ^ d4
    return "".join(str(b) for b in (p1, p2, d1, p4, d2, d3, d4))


def _h74_decode_block(word: str) -> tuple[str, int]:
    b = [int(c) for c in word]
    s1 = b[0] ^ b[2] ^ b[4] ^ b[6]
    s2 = b[1] ^ b[2] ^ b[5] ^ b[6]
    s3 = b[3] ^ b[4] ^ b[5] ^ b[6]
    pos = s1 | (s2 << 1) | (s3 << 2)
    corrected = 0
    if pos:
        b[pos - 1] ^= 1
        corrected = 1
    return f"{b[2]}{b[4]}{b[5]}{b[6]}", corrected


def _rep_decode_block(word: str) -> tuple[str, int]:
    ones = word.count("1")
    zeros = len(word) - ones
    majority = "1" if ones > zeros else "0"
    return majority, min(ones, zeros)


def _encode_block(codec: Codec, block: str) -> str:
    if codec.name == "none":
        return block
    if codec.name == "repetition":
        return block * codec.n
    if codec.name == "hamming74":
        return _h74_encode_block(block)
    raise ValueError(f"unknown codec: {codec.name!r}")


def _decode_block(codec: Codec, word: str) -> tuple[str, int]:
    if codec.name == "none":
        return word, 0
    if codec.name == "repetition":
        return _rep_decode_block(word)
    if codec.name == "hamming74":
        return _h74_decode_block(word)
    raise ValueError(f"unknown codec: {codec.name!r}")


def encode(codec: Codec, data: str) -> str:
    """Frame and encode a bit string: header (pad length) + coded blocks."""
    _check_bits(data, "data")
    pad = (-len(data)) % codec.k
    padded = data + "0" * pad
    header = format(pad, f"0{HEADER_BITS}b")
    body = "".join(
        _encode_block(codec, padded[i : i + codec.k]) for i in range(0, len(padded), codec.k)
    )
    return header + body


def decode(codec: Codec, received: str) -> tuple[str, int]:
    """Decode a frame back to (data, number of corrected bits).

    Raises FramingError when the frame length or pad header cannot belong
    to this codec.
    """
    _check_bits(received, "received")
    if len(received) < HEADER_BITS:
        raise FramingError(f"frame shorter than the {HEADER_BITS}-bit header")
    pad = int(received[:HEADER_BITS], 2)
    body = received[HEADER_BITS:]
    if len(body) % codec.n != 0:
        raise FramingError(f"body length {len(body)} is not a multiple of n={codec.n}")
    if pad >= codec.k and not (pad == 0 and codec.k == 1):
        raise FramingError(f"pad length {pad} impossible for k={codec.k}")
    corrected = 0
    chunks: list[str] = []
    for i in range(0, len(body), codec.n):
        block, fixed = _decode_block(codec, body[i : i + codec.n])
        chunks.append(block)
        corrected += fixed
    padded = "".join(chunks)
    if pad > len(padded):
        raise FramingError(f"pad length {pad} exceeds decoded length {len(padded)}")
    data = padded[: len(padded) - pad] if pad else padded
    return data, corrected


def check_distance_rule(error_rate: float, n: int, d: int) -> bool:
    """Advisory rule of thumb: is d large enough for the channel error rate?

    True when d > floor(2 * error_rate * n) + 1. Used as a CLI warning
    only, never enforced.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError("error_rate must be in [0, 1]")
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    return d > int(2 * error_rate * n) + 1
