"""Every trial's generator seeds in one array pass, equal to numpy's SeedSequence chain.

Trial t of a run seeded s is seeded by the chain (seed contract v1)

    keys_ss, session_ss = SeedSequence((s, t)).spawn(2)
    session seed        = session_ss.generate_state(1, uint64)[0]
    rng, eve_rng        = SeedSequence(session seed).spawn(2)

and each generator is default_rng of its SeedSequence. A SeedSequence
hashes its entropy words into a pool of four uint32 words, and
`generate_state` hashes the pool into its output (O'Neill, PCG,
HMC-CS-2014-0905; NumPy NEP 19 keeps both stable). Both are fixed uint32
rounds whose number depends only on the number of entropy words, so they
run here over a block of trials at once. A spawned child pads its parent's
entropy with zeros to four words, so a session seed hashes as its two
32-bit halves whether or not it is below 2**32.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_POOL = 4
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_STATE_WORDS = 8  # PCG64 seeds itself from generate_state(4, uint64)


def _constants(init: np.uint32, mult: np.uint32, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..count: the hash constant at each step."""
    c = np.full(count + 1, mult)
    c[0] = init
    return np.cumprod(c, dtype=np.uint32)


def _hash(value: np.ndarray, c: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of `value`, step k xoring c[k] and multiplying by c[k + 1]."""
    value = (value ^ c[:-1]) * c[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _children(entropy: np.ndarray) -> np.ndarray:
    """generate_state(8) of SeedSequence(entropy, spawn_key=(k,)) for k = 0, 1:
    (..., 2, 8) uint32 from each row of (..., w) uint32 entropy words."""
    width = entropy.shape[-1]
    words = np.zeros((*entropy.shape[:-1], 2, max(width, _POOL) + 1), dtype=np.uint32)
    words[..., :width] = entropy[..., None, :]
    words[..., 1, -1] = 1  # the spawn key
    extra = words.shape[-1] - _POOL
    c = _constants(_INIT_A, _MULT_A, _POOL * (_POOL + extra))
    pool = _hash(words[..., :_POOL], c[:_POOL + 1])
    for src in range(_POOL):  # pool[src] is hashed into each other pool word in turn
        dst, k = [d for d in range(_POOL) if d != src], _POOL + 3 * src
        pool[..., dst] = _mix(pool[..., dst], _hash(pool[..., src, None], c[k:k + 4]))
    for src in range(_POOL, _POOL + extra):  # later words are hashed into all four
        k = _POOL * src
        pool = _mix(pool, _hash(words[..., src, None], c[k:k + _POOL + 1]))
    return _hash(pool[..., np.arange(_STATE_WORDS) % _POOL],
                 _constants(_INIT_B, _MULT_B, _STATE_WORDS))


def _uint64(words: np.ndarray) -> np.ndarray:
    """Little-endian pairs of uint32 words as uint64, as generate_state(..., uint64) joins them."""
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


def _int_words(value: int) -> list[int]:
    """The uint32 entropy words SeedSequence takes from an int, least significant first."""
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    return [(value >> s) & 0xFFFFFFFF for s in range(0, max(value.bit_length(), 1), 32)]


def session_words(seed: int) -> np.ndarray:
    """(2, 4) uint64: the PCG64 words of the children SeedSequence(seed).spawn(2)."""
    return _uint64(_children(np.array(_int_words(seed), dtype=np.uint32)))


def trial_words(seed: int, first: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trials first..stop-1 (indices below 2**64) of a run seeded `seed`: the key
    generator's (trials, 4) uint64 words, the (trials,) uint64 session seeds and
    the (trials, 2, 4) uint64 words of each trial's `rng` and `eve_rng`."""
    head, states = _int_words(seed), []
    while first < stop:  # the trials whose index has as many words as `first`
        width = len(_int_words(first))
        index = np.arange(first, min(stop, 1 << (32 * width)), dtype=np.uint64)
        entropy = np.empty((len(index), len(head) + width), dtype=np.uint32)
        entropy[:, :len(head)] = head
        for j in range(width):
            entropy[:, len(head) + j] = (index >> (32 * j)) & 0xFFFFFFFF
        states.append(_children(entropy))
        first += len(index)
    state = np.concatenate(states)
    session = state[:, 1, :2]
    return _uint64(state[:, 0]), _uint64(session)[:, 0], _uint64(_children(session))


class _Words(ISeedSequence):
    """Hands PCG64 the words a SeedSequence would have generated for it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for (4, uint64)
        words = np.ascontiguousarray(self.words, dtype=dtype)  # PCG64 reads the raw buffer
        if words.shape != (n_words,):
            raise ValueError(f"PCG64 asked for {n_words} words, got shape {words.shape}")
        return words


def generator(words: np.ndarray) -> np.random.Generator:
    """default_rng of a SeedSequence whose generate_state(4, uint64) is `words`."""
    return np.random.Generator(np.random.PCG64(_Words(words)))
