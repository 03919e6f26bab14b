import math
import warnings

import numpy as np
import pytest

import semgmm.estep
import semgmm.model
from semgmm import (
    DataError,
    DataSet,
    MixtureModel,
    ResponsibilityMatrix,
    log_likelihood,
    responsibilities,
)
from semgmm.estep import from_probs, posterior_weights
from semgmm.model import block_width, column_blocks, component_log_joint, normalized_joint
from semgmm.rng import substream

from conftest import make_instance
from oracles import logsumexp_posterior, naive_responsibilities


class TestResponsibilities:
    def test_two_equal_components_point_between(self):
        # x = 0 between means at -1 and +1 with unit variances and equal
        # weights: responsibilities are exactly (1/2, 1/2)
        m = MixtureModel([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])
        resp = responsibilities(m, DataSet([[0.0]]))
        np.testing.assert_allclose(resp.probs, [[0.5, 0.5]], atol=1e-15)

    def test_logistic_form_1d(self):
        # means 0 and 2, unit variances, equal weights, x = 0:
        # p_1 = 1 / (1 + exp(-2))
        m = MixtureModel([0.5, 0.5], [[0.0], [2.0]], [[[1.0]], [[1.0]]])
        resp = responsibilities(m, DataSet([[0.0]]))
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert resp.probs[0, 0] == pytest.approx(expected, abs=1e-15)
        assert resp.probs[0, 1] == pytest.approx(1.0 - expected, abs=1e-15)

    def test_matches_naive_oracle(self):
        rng = substream(21)
        pts = rng.normal(size=30).tolist()
        weights = [0.2, 0.5, 0.3]
        means = [-1.0, 0.5, 2.0]
        variances = [0.5, 1.5, 0.8]
        m = MixtureModel(
            weights, [[v] for v in means], [[[v]] for v in variances]
        )
        resp = responsibilities(m, DataSet([[x] for x in pts]))
        oracle = naive_responsibilities(pts, weights, means, variances)
        np.testing.assert_allclose(resp.probs, oracle, rtol=1e-12, atol=1e-15)

    def test_rows_sum_to_one(self):
        _, data, _, model0 = make_instance(31, d=3, k=4, n=500)
        resp = responsibilities(model0, data)
        np.testing.assert_allclose(resp.probs.sum(axis=1), 1.0, atol=1e-12)
        assert resp.check() is None

    def test_posterior_weights_are_unnormalized_rows(self):
        _, data, _, model0 = make_instance(33, d=3, k=4, n=500)
        q = posterior_weights(model0, data)
        np.testing.assert_array_equal(q.max(axis=1), 1.0)
        resp = responsibilities(model0, data)
        np.testing.assert_array_equal(resp.probs, q / q.sum(axis=1, keepdims=True))

    def test_column_sums_total_n(self):
        _, data, _, model0 = make_instance(32, d=2, k=3, n=700)
        resp = responsibilities(model0, data)
        assert resp.column_sums.sum() == pytest.approx(data.n, abs=1e-8)

    def test_extreme_separation_no_underflow(self):
        # naive density ratio would be exp(-5e5) ~ underflow; log-space keeps
        # a finite, correct answer
        m = MixtureModel([0.5, 0.5], [[0.0], [1000.0]], [[[1.0]], [[1.0]]])
        resp = responsibilities(m, DataSet([[0.0], [1000.0]]))
        np.testing.assert_allclose(resp.probs, [[1.0, 0.0], [0.0, 1.0]], atol=1e-200)
        assert resp.check() is None

    @pytest.mark.parametrize("estep", [responsibilities, posterior_weights, log_likelihood])
    def test_overflowing_point_is_a_data_error(self, estep):
        # a squared Mahalanobis norm past the largest float under every
        # component, for a point in the third column block of the log-joint
        # and of its normalisation
        n, far = 3 * block_width(2), 2 * block_width(2) + 5
        x = substream(34, 0).normal(size=(n, 2))
        x[far] = 1e200
        m = MixtureModel([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [np.eye(2), np.eye(2)])
        assert len(column_blocks(n, 2)) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as err:
                estep(m, DataSet(x))
        assert str(err.value) == (
            f"row {far}: point is infinitely unlikely under every component"
        )

    def test_high_dimension_no_underflow(self):
        d = 40
        rng = substream(33)
        m = MixtureModel(
            [0.5, 0.5],
            [np.zeros(d), np.ones(d) * 3.0],
            [np.eye(d) * 0.01, np.eye(d) * 0.01],
        )
        data = DataSet(rng.normal(scale=0.1, size=(20, d)))
        resp = responsibilities(m, data)
        assert resp.check() is None
        assert np.isfinite(resp.probs).all()

    def test_weight_influence(self):
        heavy = MixtureModel([0.9, 0.1], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])
        light = MixtureModel([0.1, 0.9], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])
        data = DataSet([[0.0]])
        p_heavy = responsibilities(heavy, data).probs[0, 0]
        p_light = responsibilities(light, data).probs[0, 0]
        assert p_heavy == pytest.approx(0.9, abs=1e-15)
        assert p_light == pytest.approx(0.1, abs=1e-15)


class TestResponsibilityMatrix:
    def test_from_probs_valid(self):
        resp = from_probs(np.array([[0.25, 0.75], [1.0, 0.0]]))
        np.testing.assert_allclose(resp.column_sums, [1.25, 0.75])
        assert resp.n == 2 and resp.k == 2

    def test_from_probs_bad_row_sum(self):
        with pytest.raises(DataError, match="sums"):
            from_probs(np.array([[0.3, 0.3]]))

    def test_from_probs_negative(self):
        with pytest.raises(DataError, match="outside"):
            from_probs(np.array([[-0.1, 1.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_probs_non_finite(self, bad):
        # every comparison with NaN is False: the range and row-sum checks
        # alone let a NaN row through to the M-step
        with pytest.raises(DataError, match="non-finite"):
            from_probs(np.array([[bad, bad], [0.5, 0.5], [0.5, 0.5]]))

    def test_frozen_arrays(self):
        resp = from_probs(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            resp.probs[0, 0] = 0.9

    def test_caller_array_stays_writeable(self):
        p = np.array([[0.5, 0.5]])
        resp = ResponsibilityMatrix(p, p.sum(0))
        assert p.flags.writeable
        assert not resp.probs.flags.writeable
        p[0, 0] = 0.25

    def test_check_detects_bad_column_sums(self):
        resp = ResponsibilityMatrix(np.array([[0.5, 0.5]]), np.array([9.0, 9.0]))
        assert resp.check() is not None


def random_model(rng, k, d, offset, scale):
    """K-component model around `offset` with spreads of order `scale`."""
    w = rng.random(k) + 0.2
    a = rng.normal(size=(k, d, d))
    covs = (a @ a.transpose(0, 2, 1) + 0.5 * np.eye(d)) * scale**2
    means = offset + scale * 2.0 * rng.normal(size=(k, d))
    return MixtureModel(w / w.sum(), means, covs)


SHIFTS = pytest.mark.parametrize(
    "offset, scale", [(0.0, 1.0), (1e6, 1.0), (0.0, 1e-6)],
    ids=["plain", "offset-1e6", "scale-1e-6"],
)


@pytest.mark.parametrize("k", [3, 10])
@SHIFTS
class TestNormalizedJoint:
    def test_matches_naive_oracle_1d(self, k, offset, scale):
        rng = substream(71, k)
        model = random_model(rng, k, 1, offset, scale)
        pts = offset + scale * 3.0 * rng.normal(size=200)
        q, s, _ = normalized_joint(model, DataSet(pts[:, None]))
        oracle = naive_responsibilities(
            pts.tolist(), model.weights, model.means[:, 0], model.covariances[:, 0, 0]
        )
        np.testing.assert_allclose((q / s).T, oracle, rtol=1e-7, atol=1e-12)

    def test_matches_logsumexp_oracle(self, k, offset, scale):
        rng = substream(72, k)
        model = random_model(rng, k, 3, offset, scale)
        data = DataSet(offset + scale * 3.0 * rng.normal(size=(300, 3)))
        q, s, loglik = normalized_joint(model, data)
        post, total = logsumexp_posterior(model.weights, model.means, model.chol, data.points)
        np.testing.assert_allclose((q / s).T, post, rtol=1e-7, atol=1e-12)
        np.testing.assert_array_equal(q.max(axis=0), 1.0)
        assert loglik == pytest.approx(total, rel=1e-9)
        resp = responsibilities(model, data)
        np.testing.assert_allclose(resp.probs, post, rtol=1e-7, atol=1e-12)


class TestComponentMajor:
    def test_storage_and_shapes(self):
        _, data, _, model0 = make_instance(73, d=3, k=4, n=500)
        lj = component_log_joint(model0, data)
        resp = responsibilities(model0, data)
        q = posterior_weights(model0, data)
        for a in (lj, resp.probs, q):
            assert a.shape == (500, 4)
            assert a.T.flags.c_contiguous
            assert a[:, 2].flags.c_contiguous

    def test_column_sums_are_pairwise(self):
        # a row-by-row sum of the C-order N x K matrix drifts by O(N eps);
        # the contiguous pairwise sum stays near math.fsum
        _, data, _, model0 = make_instance(74, d=2, k=3, n=100_000)
        resp = responsibilities(model0, data)
        exact = np.array([math.fsum(resp.probs[:, k]) for k in range(3)])
        pairwise_err = np.abs(resp.column_sums - exact).max()
        row_by_row_err = np.abs(np.ascontiguousarray(resp.probs).sum(axis=0) - exact).max()
        assert pairwise_err <= 1e-15 * data.n
        assert 10.0 * pairwise_err < row_by_row_err


@pytest.fixture
def log_joint_calls(monkeypatch):
    """Counts component_log_joint calls made through model and estep."""
    calls = []
    real = semgmm.model.component_log_joint

    def counted(*args):
        calls.append(1)
        return real(*args)

    for module in (semgmm.model, semgmm.estep):
        monkeypatch.setattr(module, "component_log_joint", counted)
    return calls


class TestLogLikelihoodFromEStep:
    @pytest.mark.parametrize("estep", [responsibilities, posterior_weights])
    def test_reuses_the_estep_bit_for_bit(self, log_joint_calls, estep):
        _, data, _, model0 = make_instance(75, d=3, k=4, n=2000)
        estep(model0, data)
        assert len(log_joint_calls) == 1
        reused = log_likelihood(model0, data)
        assert len(log_joint_calls) == 1
        fresh = MixtureModel(model0.weights, model0.means, model0.covariances)
        assert log_likelihood(fresh, data) == reused
        assert len(log_joint_calls) == 2

    def test_other_data_set_recomputes(self, log_joint_calls):
        _, data, _, model0 = make_instance(76, d=2, k=3, n=500)
        first = log_likelihood(model0, data)
        copy = DataSet(data.points)
        assert log_likelihood(model0, copy) == first
        assert log_likelihood(model0, copy) == first
        assert len(log_joint_calls) == 2

    def test_model_pickles_without_the_memo(self):
        import pickle

        _, data, _, model0 = make_instance(77, d=2, k=3, n=200)
        value = log_likelihood(model0, data)
        clone = pickle.loads(pickle.dumps(model0))
        np.testing.assert_array_equal(clone.means, model0.means)
        assert log_likelihood(clone, data) == value
