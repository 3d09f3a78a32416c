"""The one-pass stream keys against numpy's SeedSequence.

``rng.stream_keys`` re-implements the last steps of SeedSequence's hash for
many indices at once.  These tests pin it to SeedSequence itself: if numpy
ever changes its algorithm, they fail instead of letting the mark noise drift.
"""

import numpy as np
import pytest

from bdspin import rng

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [rng.replica_seed(s, r)
                                              for s, r in ((1, 0), (42, 3), (7, 9))]
IDS = [0, 1, 2**32 - 1]


def seed_sequence_key(seed, namespace, index):
    return np.random.SeedSequence(entropy=seed, spawn_key=(namespace, index)).generate_state(
        2, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_equal_seed_sequence(seed):
    want = np.array([seed_sequence_key(seed, rng.BROWNIAN, i) for i in IDS])
    got = rng.stream_keys(seed, rng.BROWNIAN, IDS)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [3, 2**128, 2**200 + 5])  # the last two overflow the pool
@pytest.mark.parametrize("namespace", [0, rng.SAMPLING, 2**32 + 3])  # the last is two words
def test_keys_for_other_namespaces_and_long_seeds(seed, namespace):
    ids = [0, 5, 1000, 2**31]
    want = np.array([seed_sequence_key(seed, namespace, i) for i in ids])
    assert np.array_equal(rng.stream_keys(seed, namespace, ids), want)


def test_no_indices():
    assert rng.stream_keys(5, rng.BROWNIAN, []).shape == (0, 2)
    assert list(rng.keyed_streams(5, rng.BROWNIAN, [])) == []


@pytest.mark.parametrize("index", [-1, 2**32])
def test_keys_take_32_bit_indices_only(index):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        rng.stream_keys(1, rng.BROWNIAN, [0, index])


def test_streams_start_as_fresh_generators():
    ids = [0, 7, 2**32, 2**40, 2**32 - 1, 3]  # two ids past 32 bits fall back
    for i, gen in zip(ids, rng.keyed_streams(2**64 - 1, rng.BROWNIAN, ids)):
        fresh = rng.keyed_generator(2**64 - 1, rng.BROWNIAN, i)
        assert np.array_equal(gen.standard_normal(9), fresh.standard_normal(9))
        # leave a buffered half word behind; the next stream must not see it
        assert np.array_equal(gen.integers(0, 2**32, size=3, dtype=np.uint32),
                              fresh.integers(0, 2**32, size=3, dtype=np.uint32))


def test_negative_seed_raises_as_seed_sequence_does():
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence(entropy=-1, spawn_key=(rng.BROWNIAN, 0))
    with pytest.raises(ValueError, match=str(want.value)):
        rng.stream_keys(-1, rng.BROWNIAN, [0])
    with pytest.raises(ValueError, match=str(want.value)):
        next(rng.keyed_streams(-1, rng.BROWNIAN, [0]))
