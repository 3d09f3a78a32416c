"""Deterministic, splittable random number streams.

Every stream in the package is a counter-based Philox generator keyed through
numpy's SeedSequence by ``(seed, namespace, *indices)``.  A stream is therefore
a pure function of its key: adding particles, replicas or solve passes never
perturbs the randomness consumed by existing ones, which is what makes
pathwise comparisons (cutoff vs full solve, short vs long horizon, replayed
runs) exact.
"""
from __future__ import annotations

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
