"""Deterministic, splittable random streams for parallel experiments.

Streams are keyed by a master seed plus an integer path (e.g. run index,
round index) through numpy's SeedSequence spawn keys, and each key seeds a
PCG64DXSM generator, so distinct paths give independent streams whose
output does not depend on the order in which they are created or consumed.
This is the only module that builds a generator; the library takes every
draw from these streams.
"""
from __future__ import annotations

import numpy as np


def check_seed(seed: int) -> None:
    """Reject a negative seed, which SeedSequence cannot take."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _seed_sequence(master_seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    check_seed(master_seed)
    return np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(p) for p in path))


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given (master_seed, *path) key."""
    return np.random.Generator(np.random.PCG64DXSM(_seed_sequence(master_seed, path)))


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable 63-bit integer seed derived from (master_seed, *path)."""
    return int(_seed_sequence(master_seed, path).generate_state(1, dtype=np.uint64)[0] >> 1)
