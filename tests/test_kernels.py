"""The coordinate-major kernels against the direct formulas of
tests/oracles.py, on plain data, far from the origin and at tiny scale; the
storage layout of every way a DataSet is built; and a bound on the memory a
round and a bound evaluation allocate."""
import math
import tracemalloc

import numpy as np
import pytest

from semgmm import (
    DataSet,
    GenSpec,
    MixtureModel,
    SemConfig,
    assemble_bounds,
    em_m_step,
    generate_mixture,
    load_csv,
    normalize,
    responsibilities,
    sample_assignment,
    sample_dataset,
    save_csv,
)
from semgmm.em import _em_params, em_round
from semgmm.model import component_log_joint
from semgmm.rng import substream
from semgmm.sem import hard_params, sem_round

from conftest import make_instance
from oracles import gaussian_log_density, masked_mle, weighted_mle

EPS = np.finfo(np.float64).eps

SHIFTS = pytest.mark.parametrize(
    "offset, scale", [(0.0, 1.0), (1e6, 1.0), (0.0, 1e-6)],
    ids=["plain", "offset-1e6", "scale-1e-6"],
)
DIMS = pytest.mark.parametrize("d", [3, 10])


def shifted_instance(seed, d, offset, scale, n=3000, k=3):
    """A soft mixture draw and its generating model, moved by `offset` and
    scaled by `scale` in every coordinate."""
    truth = generate_mixture(GenSpec(d=d, k=k, n=n, rng_seed=seed), substream(seed, 0))
    data, labels = sample_dataset(truth, n, substream(seed, 1))
    moved = MixtureModel(
        truth.weights, truth.means * scale + offset, truth.covariances * scale**2
    )
    return DataSet(data.points * scale + offset), moved, labels


@DIMS
@SHIFTS
class TestAgainstOracles:
    def test_log_joint(self, d, offset, scale):
        data, model, _ = shifted_instance(91, d, offset, scale)
        lj = component_log_joint(model, data)
        # centring by a product with the inverse factor loses about
        # eps * offset / scale per coordinate, which the squared norm doubles
        atol = 1e3 * EPS * (1.0 + offset / scale)
        for k in range(model.k):
            expected = math.log(model.weights[k]) + gaussian_log_density(
                model.means[k], model.chol[k], data.points
            )
            np.testing.assert_allclose(lj[:, k], expected, rtol=1e-12, atol=atol)

    def test_em_m_step(self, d, offset, scale):
        data, model, _ = shifted_instance(92, d, offset, scale)
        resp = responsibilities(model, data)
        partial, degenerate = _em_params(resp, data)
        means, covs = weighted_mle(resp.probs, data.points)
        assert degenerate == []
        np.testing.assert_allclose(
            partial.means, means, rtol=0, atol=1e3 * EPS * (offset + 10 * scale)
        )
        np.testing.assert_allclose(
            partial.covariances, covs, rtol=1e4 * EPS, atol=1e4 * EPS * scale**2
        )

    def test_hard_params(self, d, offset, scale):
        data, model, _ = shifted_instance(93, d, offset, scale)
        assign = sample_assignment(responsibilities(model, data), substream(93, 2))
        hard = hard_params(assign, data)
        means, covs = masked_mle(data.points, assign.labels, assign.k)
        np.testing.assert_allclose(
            hard.means, means, rtol=0, atol=1e3 * EPS * (offset + 10 * scale)
        )
        np.testing.assert_allclose(
            hard.covariances, covs, rtol=1e4 * EPS, atol=1e4 * EPS * scale**2
        )


def _sampled(tmp_path):
    return sample_dataset(make_instance(94, d=3, k=2, n=50)[0], 400, substream(94, 3))[0]


def _loaded(tmp_path):
    save_csv(_sampled(tmp_path), tmp_path / "data.csv")
    return load_csv(tmp_path / "data.csv")


BUILDERS = {
    "sample_dataset": _sampled,
    "load_csv": _loaded,
    "normalize": lambda tmp_path: normalize(_sampled(tmp_path))[0],
    "c_array": lambda tmp_path: DataSet(np.arange(12.0).reshape(4, 3)),
    "f_array": lambda tmp_path: DataSet(np.asfortranarray(np.arange(12.0).reshape(4, 3))),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_coordinate_major_single_buffer(tmp_path, build):
    data = build(tmp_path)
    assert data.points.shape == (data.n, data.d)
    assert data.points.T.flags.c_contiguous
    # the points are a view of one buffer holding exactly N x D values
    base = data.points.base
    assert base is not None and base.base is None
    assert base.size == data.n * data.d
    assert np.shares_memory(base, data.points)


#: a round or a bound evaluation may allocate at most this many
#: N x max(D, K) float64 arrays at once; measured at D10/K10/N1e5: em_round
#: 3.0, sem_round 2.4, assemble_bounds 2.0 (with rho 2.0), so one more
#: full-size copy in any of them fails
PEAK_ARRAYS = 3.5


def test_peak_memory_of_a_round_and_a_bound():
    _, data, _, model0 = make_instance(95, d=10, k=10, n=100_000)
    resp = responsibilities(model0, data)
    em = em_m_step(resp, data)
    cfg = SemConfig(rng_seed=95)
    limit = PEAK_ARRAYS * data.n * max(data.d, model0.k) * 8
    calls = {
        "em_round": lambda: em_round(model0, data, cfg, 0),
        "sem_round": lambda: sem_round(model0, data, cfg, 0),
        "assemble_bounds": lambda: assemble_bounds(resp, data, em, 0.01).cov_bound,
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(peak < limit for peak in peaks.values()), (peaks, limit)
