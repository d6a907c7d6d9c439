"""Classical error-correction codecs for the message frame.

A frame is: 8 header bits (pad length, uncoded) followed by the coded
body. The body is the message padded with zeros to a multiple of the
codec's data width k, encoded block by block into codewords of width n.

A codec is its name, as the CLI and the report spell it: "none"
(pass-through), "rep<r>" for odd r >= 1 (r-fold repetition, majority
vote) and "hamming74" (single error corrected per 7-bit block). Neither
hamming74 nor odd repetition has detect-but-uncorrectable syndromes, so
decode never rejects a block; framing inconsistencies (bad length,
impossible pad) raise FramingError instead, or are flagged per row when
`encode` and `decode` take a matrix, a frame per row, as a chunk holds them.

Inside the library a bit sequence is a uint8 array of 0s and 1s; this
module owns the "0"/"1" text used at the edges (CLI, report, transcript):
parse_bits reads and checks it, format_bits writes it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HEADER_BITS = 8


class FramingError(ValueError):
    """Received bits are inconsistent with the codec framing."""


@dataclass(frozen=True)
class Codec:
    """A block code named as at the CLI and in the report: "none",
    "hamming74" or "rep<r>" for odd r >= 1. The name fixes the codeword
    width n, the data width k and the minimum distance d."""

    name: str
    n: int = field(init=False)
    k: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        name = self.name
        if name == "none":  # the 1-fold repetition
            n, k, d = 1, 1, 1
        elif name == "hamming74":
            n, k, d = 7, 4, 3
        else:
            try:
                r = int(name[3:]) if isinstance(name, str) and name.startswith("rep") else 0
            except ValueError:
                r = 0
            if r < 1 or r % 2 == 0:
                raise ValueError(
                    f"unknown codec: {name!r}; expected none, hamming74 or rep<r> for odd r >= 1"
                )
            name, n, k, d = f"rep{r}", r, 1, r
        for attr, value in (("name", name), ("n", n), ("k", k), ("d", d)):
            object.__setattr__(self, attr, value)


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
    """Frame and encode bits, a (bits,) array or a (rows, bits) matrix row by
    row: header (pad length) + coded blocks."""
    data = np.asarray(data, dtype=np.uint8)
    *rows, bits = data.shape
    pad = (-bits) % codec.k
    blocks = np.concatenate([data, np.zeros((*rows, pad), dtype=np.uint8)], axis=-1)
    blocks = blocks.reshape(*rows, (bits + pad) // codec.k, codec.k)
    if codec.name == "hamming74":
        blocks = blocks @ _H74_GENERATOR % 2
    else:
        blocks = np.repeat(blocks, codec.n, axis=-1)
    header = np.broadcast_to(np.unpackbits(np.array([pad], dtype=np.uint8)), (*rows, HEADER_BITS))
    return np.concatenate([header, blocks.reshape(*rows, -1)], axis=-1).astype(np.uint8)


def framing_error(codec: Codec, length: int, pad: int) -> str | None:
    """Why a frame of `length` bits whose header reads `pad` cannot belong to
    this codec, or None when it can."""
    body = length - HEADER_BITS
    if body < 0:
        return f"frame shorter than the {HEADER_BITS}-bit header"
    if body % codec.n != 0:
        return f"body length {body} is not a multiple of n={codec.n}"
    if pad >= codec.k:
        return f"pad length {pad} impossible for k={codec.k}"
    if pad > body // codec.n * codec.k:
        return f"pad length {pad} exceeds decoded length {body // codec.n * codec.k}"


def decode(codec: Codec, received: np.ndarray):
    """Decode a frame to (data bits, corrected bits), or raise FramingError
    with `framing_error`'s reason. A (rows, frame) matrix, of which a frame
    is the one-row case, decodes to (data, corrected, pad, framed): each
    row's decoded blocks, pad still on, its corrected bits, its header's pad
    length and whether `framing_error` finds nothing wrong with it."""
    frames = np.asarray(received, dtype=np.uint8)
    if frames.ndim == 1:
        data, corrected, pad, framed = decode(codec, frames[None])
        if not framed[0]:
            raise FramingError(framing_error(codec, len(frames), int(pad[0])))
        return data[0, :data.shape[1] - pad[0]], int(corrected[0])
    rows, length = frames.shape
    if framing_error(codec, length, 0) is not None:  # a wrong length: no row is a frame
        empty = np.zeros(rows, dtype=np.intp)
        return np.zeros((rows, 0), dtype=np.uint8), empty, empty, np.zeros(rows, dtype=bool)
    blocks = (length - HEADER_BITS) // codec.n
    pad = np.packbits(frames[:, :HEADER_BITS], axis=1)[:, 0].astype(np.intp)
    words = frames[:, HEADER_BITS:].reshape(rows, blocks, codec.n)
    if codec.name == "hamming74":
        position = words @ _H74_CHECK % 2 @ (1, 2, 4)  # 1-indexed error position, 0 for none
        words = (words ^ (np.arange(1, 8) == position[..., None]))[..., _H74_DATA]
        corrected = np.count_nonzero(position, axis=1)
    else:  # majority vote per block
        ones = words.sum(axis=2)
        words = (2 * ones > codec.n).astype(np.uint8)
        corrected = np.minimum(ones, codec.n - ones).sum(axis=1)
    framed = (pad < codec.k) & (pad <= blocks * codec.k)
    return words.reshape(rows, -1), corrected, pad, framed


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
