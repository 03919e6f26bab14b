import numpy as np
import pytest

from semgmm import GenSpec, MixtureModel, generate_mixture, initialize, sample_dataset
from semgmm.rng import substream


def make_instance(seed, d=2, k=3, n=2000, overlap=1.5, weight_mode="balanced"):
    """Synthetic data set plus an initial model, fully seeded."""
    spec = GenSpec(d=d, k=k, n=n, overlap=overlap, weight_mode=weight_mode, rng_seed=seed)
    truth = generate_mixture(spec, substream(seed, 0))
    data, labels = sample_dataset(truth, n, substream(seed, 1))
    model0 = initialize(data, k, substream(seed, 2))
    return truth, data, labels, model0


def separated_instance(seed, d=1, k=2, n=400, gap=1e4):
    """Clusters so far apart that responsibilities are exactly one-hot."""
    rng = substream(seed, 7)
    means = (np.arange(k, dtype=float)[:, None] * gap) * np.ones(d)
    covs = np.stack([np.eye(d)] * k)
    truth = MixtureModel(np.full(k, 1.0 / k), means, covs)
    data, labels = sample_dataset(truth, n, rng)
    return truth, data, labels


@pytest.fixture
def small_instance():
    return make_instance(11)
