"""The seed words of `ghzqdc.seeds` against numpy's own SeedSequence chain."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import trial_seed

from ghzqdc import seeds

SeedSequence = np.random.SeedSequence

# One-, two-, three-word seeds and beyond four words, where entropy outgrows the pool.
SEEDS = st.one_of(
    st.integers(0, 2**32 + 5),
    st.integers(2**64 - 5, 2**64 + 10),
    st.integers(0, 2**140),
)
# Trial indices near 0 and on both sides of 2**32, where an index takes a second word.
FIRST = st.one_of(st.integers(0, 50), st.integers(2**32 - 6, 2**32 + 2), st.integers(0, 2**63))


def draws(rng: np.random.Generator) -> list:
    """The first draws of each kind the library reads from a generator."""
    return [rng.random(3).tolist(), rng.choice(20, size=5, replace=False).tolist(),
            rng.integers(0, 2, size=7).tolist(), rng.bytes(5)]


def child_words(seed: int, k: int) -> list[int]:
    return SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64).tolist()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=SEEDS, first=FIRST, count=st.integers(1, 6))
@example(seed=0, first=0, count=3)
@example(seed=2**64 + 5, first=2**32 - 2, count=4)  # a block across the index word boundary
@example(seed=2**96, first=2**32 - 1, count=2)  # five entropy words before the spawn key
def test_trial_words_match_seed_sequence(seed, first, count):
    keys, session_seeds, session = seeds.trial_words(seed, first, first + count)
    assert keys.shape == (count, 4) and session.shape == (count, 2, 4)
    for i, t in enumerate(range(first, first + count)):
        keys_ss, session_ss = trial_seed(seed, t)
        assert keys[i].tolist() == keys_ss.generate_state(4, np.uint64).tolist()
        session_seed = int(session_ss.generate_state(1, np.uint64)[0])
        assert int(session_seeds[i]) == session_seed
        assert session[i].tolist() == [child_words(session_seed, k) for k in (0, 1)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(session_seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)))
@example(session_seed=0)
@example(session_seed=2**32 - 1)
@example(session_seed=2**32)
def test_session_words_match_seed_sequence(session_seed):
    """Session seeds below 2**32, one entropy word, which a trial's draws
    almost never give, hash as their two 32-bit halves: the block path
    takes every session seed as (low, high) words."""
    want = [child_words(session_seed, k) for k in (0, 1)]
    halves = np.array([[session_seed & 0xFFFFFFFF, session_seed >> 32]], dtype=np.uint32)
    assert seeds._uint64(seeds._children(halves))[0].tolist() == want
    assert seeds.session_words(session_seed).tolist() == want


def test_session_words_of_a_wide_seed():
    for seed in (2**64, 2**64 + 5, 2**127 + 3, 3**200):
        assert seeds.session_words(seed).tolist() == [child_words(seed, k) for k in (0, 1)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=SEEDS, first=FIRST)
def test_generators_draw_as_default_rng(seed, first):
    keys, session_seeds, session = seeds.trial_words(seed, first, first + 1)
    keys_ss, _ = trial_seed(seed, first)
    assert draws(seeds.generator(keys[0])) == draws(np.random.default_rng(keys_ss))
    for k in (0, 1):
        want = np.random.default_rng(SeedSequence(int(session_seeds[0]), spawn_key=(k,)))
        assert draws(seeds.generator(session[0, k])) == draws(want)


def test_negative_seed_is_rejected_like_numpy():
    with pytest.raises(ValueError):
        SeedSequence(-1)
    with pytest.raises(ValueError):
        seeds.session_words(-1)


def test_generator_rejects_words_of_the_wrong_shape():
    """PCG64 reads four words from the buffer it is handed, so fewer must not reach it."""
    with pytest.raises(ValueError, match="4 words"):
        seeds.generator(seeds.session_words(0)[0, :3])
