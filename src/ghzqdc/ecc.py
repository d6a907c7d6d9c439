"""Classical error-correction codecs for the message frame.

A frame is: 8 header bits (pad length, uncoded) followed by the coded
body. The body is the message padded with zeros to a multiple of the
codec's data width k, encoded block by block into codewords of width n.

Codecs: "none" (pass-through), "repetition" with odd block length r
(majority vote), and "hamming74" (single error corrected per 7-bit
block). Neither hamming74 nor odd repetition has detect-but-uncorrectable
syndromes, so decode never rejects a block; framing inconsistencies
(bad length, impossible pad) raise FramingError instead.

Inside the library a bit sequence is a 1-D uint8 array of 0s and 1s; this
module owns the "0"/"1" text used at the edges (CLI, report, transcript):
parse_bits reads and checks it, format_bits writes it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HEADER_BITS = 8


class FramingError(ValueError):
    """Received bits are inconsistent with the codec framing."""


@dataclass(frozen=True)
class Codec:
    """Block code parameters: codeword width n, data width k, min distance d."""

    name: str  # "none" (the 1-fold repetition) | "repetition" | "hamming74"
    n: int
    k: int
    d: int

    def __post_init__(self):
        if self.name not in ("none", "repetition", "hamming74"):
            raise ValueError(f"unknown codec: {self.name!r}")


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


_TEXT_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def parse_bits(bits, what: str = "bits") -> np.ndarray:
    """Bits as a read-only 1-D uint8 array from "0"/"1" text or a 0/1 sequence, else ValueError."""
    if isinstance(bits, str):
        if bits.strip("01"):  # leaves something behind iff a non-bit character exists
            raise ValueError(f"{what} must be 0s and 1s, got {bits!r}")
        # A view of immutable bytes, so already read-only.
        return np.frombuffer(bits.encode("ascii").translate(_TEXT_TO_BITS), dtype=np.uint8)
    arr = np.asarray(bits)
    if arr.ndim != 1 or np.count_nonzero(arr.astype(bool) != arr):  # a value other than 0 or 1
        raise ValueError(f"{what} must be 0s and 1s, got {bits!r}")
    out = arr.astype(np.uint8)
    out.flags.writeable = False
    return out


def format_bits(bits) -> str:
    """The "0"/"1" text of a bit array."""
    return np.asarray(bits, dtype=np.uint8).tobytes().translate(_BITS_TO_TEXT).decode("ascii")


# Hamming(7,4): data bits at codeword positions 3,5,6,7 (1-indexed),
# parity bits at 1,2,4. Row j of the check matrix holds the bits of j+1,
# so the syndrome reads out the 1-indexed error position directly, and
# parity bit 2^i covers the data positions whose index has bit i set.
_H74_CHECK = (np.arange(1, 8)[:, None] >> np.arange(3)) & 1
_H74_DATA = [2, 4, 5, 6]
_H74_GENERATOR = np.zeros((4, 7), dtype=np.uint8)
_H74_GENERATOR[:, _H74_DATA] = np.eye(4, dtype=np.uint8)
_H74_GENERATOR[:, [0, 1, 3]] = _H74_CHECK[_H74_DATA]


def encode(codec: Codec, data: np.ndarray) -> np.ndarray:
    """Frame and encode a bit array: header (pad length) + coded blocks."""
    pad = (-len(data)) % codec.k
    blocks = np.concatenate([data, np.zeros(pad, dtype=np.uint8)]).reshape(-1, codec.k)
    if codec.name == "hamming74":
        blocks = blocks @ _H74_GENERATOR % 2
    else:
        blocks = np.repeat(blocks, codec.n, axis=1)
    header = np.unpackbits(np.array([pad], dtype=np.uint8))
    return np.concatenate([header, blocks.ravel()]).astype(np.uint8)


def decode(codec: Codec, received: np.ndarray) -> tuple[np.ndarray, int]:
    """Decode a frame back to (data bits, number of corrected bits).

    Raises FramingError when the frame length or pad header cannot belong
    to this codec.
    """
    if len(received) < HEADER_BITS:
        raise FramingError(f"frame shorter than the {HEADER_BITS}-bit header")
    pad = int(np.packbits(received[:HEADER_BITS])[0])
    body = received[HEADER_BITS:]
    if len(body) % codec.n != 0:
        raise FramingError(f"body length {len(body)} is not a multiple of n={codec.n}")
    if pad >= codec.k:
        raise FramingError(f"pad length {pad} impossible for k={codec.k}")
    words = np.asarray(body, dtype=np.uint8).reshape(-1, codec.n)
    if codec.name == "hamming74":
        position = words @ _H74_CHECK % 2 @ (1, 2, 4)  # 1-indexed error position, 0 for none
        words = (words ^ (np.arange(1, 8) == position[:, None]))[:, _H74_DATA]
        corrected = int(np.count_nonzero(position))
    else:  # majority vote per block
        ones = words.sum(axis=1)
        words = (2 * ones > codec.n).astype(np.uint8)
        corrected = int(np.minimum(ones, codec.n - ones).sum())
    padded = words.ravel()
    if pad > len(padded):
        raise FramingError(f"pad length {pad} exceeds decoded length {len(padded)}")
    return padded[: len(padded) - pad], corrected


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
