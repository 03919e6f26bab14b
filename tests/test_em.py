import warnings

import numpy as np
import pytest

from semgmm import (
    DataSet,
    DegeneracyError,
    MixtureModel,
    em_fit,
    em_m_step,
    log_likelihood,
    responsibilities,
    validate,
)
from semgmm.estep import from_probs
from semgmm.rng import substream
from semgmm.rounds import SemConfig, ridge_repair
from semgmm.synth import initialize

from conftest import make_instance
from oracles import scalar_em_update


class TestEmMStep:
    def test_scalar_fixture(self):
        # X = {0, 1}, p = [[0.25, 0.75], [0.75, 0.25]] (rows sum to 1):
        # component 0 has r = 1, mu = 0.75, var = 0.25*0.75^2 + 0.75*0.25^2
        data = DataSet([[0.0], [1.0]])
        resp = from_probs(np.array([[0.25, 0.75], [0.75, 0.25]]))
        model = em_m_step(resp, data)
        np.testing.assert_allclose(model.weights, [0.5, 0.5], atol=1e-15)
        assert model.means[0, 0] == pytest.approx(0.75, abs=1e-15)
        assert model.means[1, 0] == pytest.approx(0.25, abs=1e-15)
        expected_var = 0.25 * 0.75**2 + 0.75 * 0.25**2
        assert model.covariances[0, 0, 0] == pytest.approx(expected_var, abs=1e-15)
        assert model.covariances[1, 0, 0] == pytest.approx(expected_var, abs=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(41)
        pts = rng.normal(size=25)
        raw = rng.random((25, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        model = em_m_step(from_probs(probs), DataSet(pts[:, None]))
        oracle = scalar_em_update(pts.tolist(), probs.tolist())
        for k, (w, mu, var) in enumerate(oracle):
            assert model.weights[k] == pytest.approx(w, rel=1e-12)
            assert model.means[k, 0] == pytest.approx(mu, rel=1e-12)
            assert model.covariances[k, 0, 0] == pytest.approx(var, rel=1e-12)

    def test_uniform_responsibilities_give_global_moments(self):
        _, data, _, _ = make_instance(42, d=2, k=2, n=300)
        probs = np.full((data.n, 2), 0.5)
        model = em_m_step(from_probs(probs), data)
        global_mean = data.points.mean(axis=0)
        xc = data.points - global_mean
        global_cov = xc.T @ xc / data.n
        for k in range(2):
            np.testing.assert_allclose(model.means[k], global_mean, rtol=1e-10)
            np.testing.assert_allclose(model.covariances[k], global_cov, rtol=1e-9)

    def test_zero_mass_component_raises(self):
        data = DataSet([[0.0], [1.0], [2.0]])
        probs = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegeneracyError):
            em_m_step(from_probs(probs), data)

    def test_output_validates(self, small_instance):
        _, data, _, model0 = small_instance
        model = em_m_step(responsibilities(model0, data), data)
        assert validate(model) is None


class TestRidgeRepair:
    def test_repairs_singular(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        fixed = ridge_repair(cov)
        assert fixed is not None
        np.linalg.cholesky(fixed)

    def test_zero_matrix_unrepairable(self):
        assert ridge_repair(np.zeros((2, 2))) is None

    def test_leaves_healthy_scale(self):
        cov = np.array([[2.0, 0.0], [0.0, 1e-30]])
        fixed = ridge_repair(cov)
        assert fixed is not None
        # ridge is at most 1e-2 * trace/D on the diagonal
        assert abs(fixed[0, 0] - 2.0) <= 1e-2 * 1.0 + 1e-12


class TestEmFit:
    def test_monotone_log_likelihood(self, small_instance):
        _, data, _, model0 = small_instance
        traj = em_fit(model0, data, 25)
        lls = [log_likelihood(m, data) for m in [model0] + traj]
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-9 * abs(prev)

    def test_trajectory_length_and_validity(self, small_instance):
        _, data, _, model0 = small_instance
        traj = em_fit(model0, data, 7)
        assert len(traj) == 7
        for m in traj:
            assert validate(m) is None

    def test_zero_rounds(self, small_instance):
        _, data, _, model0 = small_instance
        assert em_fit(model0, data, 0) == []

    def test_deterministic(self, small_instance):
        _, data, _, model0 = small_instance
        a = em_fit(model0, data, 5)
        b = em_fit(model0, data, 5)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.weights, mb.weights)
            np.testing.assert_array_equal(ma.means, mb.means)
            np.testing.assert_array_equal(ma.covariances, mb.covariances)

    def test_recovers_separated_truth(self):
        truth, data, _, _ = make_instance(44, d=1, k=2, n=4000, overlap=8.0)
        # start near the truth and run to convergence
        model0 = MixtureModel(truth.weights, truth.means, truth.covariances)
        final = em_fit(model0, data, 40)[-1]
        order = np.argsort(final.means[:, 0])
        torder = np.argsort(truth.means[:, 0])
        np.testing.assert_allclose(
            final.means[order, 0], truth.means[torder, 0], atol=0.5
        )

    def test_repair_survives_far_component(self):
        # one initial mean absurdly far away gets ~zero responsibility and
        # must be repaired rather than crashing the run
        _, data, _, _ = make_instance(45, d=2, k=2, n=500)
        means = np.vstack([data.points[0], data.points[1], [1e8, 1e8]])
        model0 = MixtureModel(
            [1 / 3] * 3, means, np.stack([np.eye(2)] * 3)
        )
        traj = em_fit(model0, data, 5, SemConfig(rng_seed=9))
        for m in traj:
            assert validate(m) is None


class TestCollapseOntoAPoint:
    """EM can shrink a component onto one point until its covariance is far
    below the data's rounding resolution and still factors; that component
    must be repaired, or the next E-step overflows in its inverse factor."""

    def test_collapsed_component_repaired(self):
        # D 2, N 4, K 3: one component's covariance reaches eigenvalues of
        # about 1e-291 and -9e-308 by round 3
        data = DataSet(substream(5, 4, 3).normal(size=(4, 2)))
        cfg = SemConfig(rng_seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = em_fit(initialize(data, 3, substream(5, 1)), data, 5, cfg)
        assert len(traj) == 5
        assert all(validate(m) is None for m in traj)
