"""Deterministic, splittable random number streams.

Every stream in the package is a counter-based Philox generator keyed through
numpy's SeedSequence by ``(seed, namespace, *indices)``.  A stream is therefore
a pure function of its key: adding particles, replicas or solve passes never
perturbs the randomness consumed by existing ones, which is what makes
pathwise comparisons (cutoff vs full solve, short vs long horizon, replayed
runs) exact.

A solve needs one stream per particle.  ``keyed_streams`` serves them from one
Philox re-keyed per index, its keys derived for all indices in one vectorised
pass of SeedSequence's hash (``stream_keys``), instead of building a
SeedSequence, a Philox and a Generator for every index.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

# Stream namespaces.  Never renumber: reproducibility of archived runs
# depends on these values.
DRIVING = 0            # birth-candidate Poisson process
INITIAL_LIFETIMES = 1  # unit exponentials attached to the initial points
BROWNIAN = 2           # per-particle Wiener increments, keyed (BROWNIAN, id)
REPLICA = 3            # derivation of per-replica master seeds
SAMPLING = 4           # randomized verification checks
INITIAL_CONFIG = 5     # Poisson sampling of initial configurations
# 6 is reserved: archived runs may have keyed a stream with it; never reuse


def keyed_generator(seed: int, *key: int) -> np.random.Generator:
    """Generator that is a pure function of ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def replica_seed(seed: int, index: int) -> int:
    """Independent integer master seed for replica ``index`` of a run."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(REPLICA, int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).  They
# are part of its stream-compatibility promise; tests/test_rng.py checks
# ``stream_keys`` against SeedSequence itself, so a change fails loudly.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _hashmix(value: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(hash_const)
    hash_const = hash_const * _MULT_A & _WORD
    value = value * np.uint32(hash_const)
    return value ^ (value >> np.uint32(16)), hash_const


def _word_count(value: int) -> int:
    """32-bit words SeedSequence makes of a nonnegative integer (0 is one)."""
    return max(1, -(-value.bit_length() // 32))


def stream_keys(seed: int, namespace: int, indices: Sequence[int]) -> np.ndarray:
    """Philox keys of the streams ``(seed, namespace, i)``, one row per index:
    row k equals ``SeedSequence(entropy=seed, spawn_key=(namespace, indices[k]))
    .generate_state(2, np.uint64)``, the key ``keyed_generator`` gives.

    Every index must fit in 32 bits; it is then the last entropy word.
    SeedSequence mixes ``(seed, namespace)`` into its pool first, and its
    hash constant evolves without looking at the data, so only the last
    word's mixing and the state generation run here, over all indices at once.
    """
    words = np.asarray(indices, dtype=np.int64)
    if np.any((words < 0) | (words > _WORD)):
        raise ValueError("stream_keys takes indices in [0, 2**32)")
    words = words.astype(np.uint32)
    head = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(namespace),))
    # hashmix calls so far: one per pool word, one per ordered pair of pool
    # words, then one per pool word for each word past the pool: the seed's
    # words beyond it (zero-padded up to it) and the namespace's
    pool = head.pool_size
    mixed_words = max(pool, _word_count(int(seed))) + _word_count(int(namespace))
    calls = pool ** 2 + pool * (mixed_words - pool)
    hash_const = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _WORD
    state = []
    for pool_word in head.pool.tolist():
        mixed, hash_const = _hashmix(words, hash_const)
        pool_word = np.uint32(_MIX_L * pool_word & _WORD) - mixed * np.uint32(_MIX_R)
        pool_word ^= pool_word >> np.uint32(16)
        state.append(pool_word)
    hash_const = _INIT_B
    for i, pool_word in enumerate(state):
        pool_word ^= np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _WORD
        pool_word *= np.uint32(hash_const)
        state[i] = (pool_word ^ (pool_word >> np.uint32(16))).astype(np.uint64)
    return np.column_stack((state[0] | state[1] << np.uint64(32),
                            state[2] | state[3] << np.uint64(32)))


def keyed_streams(seed: int, namespace: int,
                  indices: Sequence[int]) -> Iterator[np.random.Generator]:
    """``keyed_generator(seed, namespace, i)`` for each index in turn.

    One Philox is re-keyed for every index in [0, 2**32), with counter 0 and
    an empty buffer, exactly as a fresh one starts; so a yielded generator is
    valid until the next one is taken.  Other indices get their own
    ``keyed_generator``.
    """
    indices = [int(i) for i in indices]
    fast = [0 <= i <= _WORD for i in indices]
    keys = stream_keys(seed, namespace, [i if ok else 0 for i, ok in zip(indices, fast)])
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    fresh = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for i, ok, key in zip(indices, fast, keys):
        if not ok:
            yield keyed_generator(seed, namespace, i)
            continue
        fresh["state"]["key"] = key
        bitgen.state = fresh
        yield gen
