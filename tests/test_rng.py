"""The stream contract of semgmm.rng: a (master_seed, *path) key fixes its
draws, distinct keys give distinct draws whatever order their streams are
made in, derived seeds keep their values, and every stream is PCG64DXSM
seeded through SeedSequence spawn keys."""
import numpy as np
import pytest

from semgmm.harness import ExperimentPlan
from semgmm.rng import derive_seed, substream
from semgmm.rounds import SemConfig
from semgmm.synth import GenSpec

KEYS = [(5,), (5, 0), (5, 1), (5, 0, 0), (5, 0, 1), (5, 1, 0), (6,), (6, 0)]


def test_same_key_same_draws():
    for key in KEYS:
        np.testing.assert_array_equal(substream(*key).random(16), substream(*key).random(16))


def test_distinct_paths_distinct_draws():
    draws = {key: substream(*key).random(16) for key in KEYS}
    for a in KEYS:
        for b in KEYS:
            if a != b:
                assert not np.isin(draws[a], draws[b]).any(), (a, b)


def test_draws_independent_of_creation_order():
    forward = [substream(*key) for key in KEYS]
    backward = [substream(*key) for key in reversed(KEYS)][::-1]
    # interleave the consumption too: each stream owns its state
    first = [g.random(4) for g in forward]
    second = [g.random(4) for g in reversed(backward)][::-1]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("key, seed", [
    ((0,), 7896617691693857887),
    ((0, 2, 0, 0), 5269293826583923909),
    ((7, 3, 1), 7327967498983432124),
    ((12345, 2, 4, 9), 7894074316315938984),
    ((2**40, 1, 0), 1078918431840695915),
])
def test_derive_seed_values_unchanged(key, seed):
    # the values derive_seed gave while streams were built on Philox: the
    # seed layout of the experiments did not move with the generator
    assert derive_seed(*key) == seed


def test_bit_generator_is_pcg64dxsm():
    # a different generator would change every stochastic output at once
    rng = substream(0)
    assert type(rng.bit_generator) is np.random.PCG64DXSM
    assert rng.bit_generator.random_raw(3).tolist() == [
        15672045205194312304, 10230625629676741203, 1393141542142426128,
    ]
    assert substream(7, 2, 1, 3).bit_generator.random_raw(2).tolist() == [
        3376066559382898564, 15227872234154306379,
    ]


@pytest.mark.parametrize("build", [
    lambda: substream(-1),
    lambda: substream(-1, 0, 2),
    lambda: derive_seed(-1, 2, 0, 0),
    lambda: SemConfig(rng_seed=-1),
    lambda: GenSpec(d=2, k=2, n=10, rng_seed=-1),
    lambda: ExperimentPlan(dataset="data.csv", k=2, master_seed=-1),
], ids=["substream", "substream-path", "derive_seed", "SemConfig", "GenSpec", "ExperimentPlan"])
def test_negative_seed_rejected(build):
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        build()
