import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scipy.linalg

from semgmm import (
    Assignment,
    DataError,
    DataSet,
    DegeneracyError,
    InvalidModelError,
    MixtureModel,
    SemConfig,
    em_fit,
    log_likelihood,
    sem_fit,
    validate,
)
from semgmm.em import em_round
from semgmm.ingest import normalize
from semgmm.model import cholesky_screen, component_log_joint
from semgmm.rng import substream
from semgmm.sem import sem_round

from conftest import make_instance
from oracles import gaussian_log_density

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class TestDataSet:
    def test_spread_basic(self):
        data = DataSet([[0.0, 1.0], [3.0, -1.0]])
        np.testing.assert_array_equal(data.spread, [3.0, 2.0])

    def test_spread_single_point(self):
        assert DataSet([[5.0]]).spread == np.array([0.0])

    def test_spread_after_normalization_is_one(self):
        pts = substream(5).random((100, 3)) * 7.0 - 3.0
        normalized, _ = normalize(DataSet(pts))
        np.testing.assert_array_equal(normalized.spread, [1.0, 1.0, 1.0])

    def test_spread_translation_invariant(self):
        pts = substream(6).normal(size=(50, 2))
        shifted = pts + np.array([123.0, -7.0])
        np.testing.assert_allclose(
            DataSet(pts).spread, DataSet(shifted).spread,
            rtol=0, atol=1e-12,
        )

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="non-finite"):
            DataSet([[0.0], [float("nan")]])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            DataSet(np.empty((0, 2)))

    def test_rejects_ragged_rows(self):
        with pytest.raises(DataError, match="rectangular"):
            DataSet([[1.0, 2.0], [3.0]])

    @pytest.mark.parametrize("points", [
        np.array([[1.0 + 0.5j], [0.0]]),
        np.array([["1"], ["0"]]),
        np.array([[b"1"], [b"0"]]),
        np.array([[1.0], [0.0]], dtype=object),
        [[1 + 2j, 3.0], [0.0, 1.0]],
    ])
    def test_rejects_values_that_are_not_real_numbers(self, points):
        # a cast to float64 would drop the imaginary part or parse the text
        with pytest.raises(DataError, match="real numbers"):
            DataSet(points)

    def test_integer_and_boolean_points_taken(self):
        data = DataSet(np.array([[1, 0], [3, 1]], dtype=np.int32))
        np.testing.assert_array_equal(data.points, [[1.0, 0.0], [3.0, 1.0]])
        assert data.points.dtype == np.float64
        np.testing.assert_array_equal(DataSet([[True], [False]]).points, [[1.0], [0.0]])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_array_stays_writeable(self, order):
        x = np.zeros((3, 2), order=order)
        data = DataSet(x)
        assert x.flags.writeable
        assert not data.points.flags.writeable
        assert not data.points.T.flags.writeable
        with pytest.raises(ValueError):
            data.points[0, 0] = 1.0
        x[0, 0] = 1.0  # the caller's own array is still theirs to write


class TestMixtureModel:
    def test_valid_construction(self):
        m = MixtureModel([0.5, 0.5], [[0.0], [2.0]], [[[1.0]], [[2.0]]])
        assert validate(m) is None
        assert m.k == 2 and m.d == 1

    def test_weight_drift_renormalized(self):
        m = MixtureModel([0.5 + 2e-10, 0.5], [[0.0], [2.0]], [[[1.0]], [[1.0]]])
        assert abs(m.weights.sum() - 1.0) <= 1e-12

    def test_large_weight_drift_rejected(self):
        with pytest.raises(InvalidModelError, match="sum"):
            MixtureModel([0.7, 0.7], [[0.0], [2.0]], [[[1.0]], [[1.0]]])

    def test_validate_params_not_positive_definite(self):
        # eigendecomposition with eigenvalues (1, -0.1)
        q = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
        bad = q @ np.diag([1.0, -0.1]) @ q.T
        bad = 0.5 * (bad + bad.T)
        with pytest.raises(InvalidModelError, match="positive definite"):
            MixtureModel([1.0], [[0.0, 0.0]], bad[None])

    def test_validate_params_asymmetric(self):
        cov = np.array([[[1.0, 0.5], [0.2, 1.0]]])
        with pytest.raises(InvalidModelError, match="symmetric"):
            MixtureModel([1.0], [[0.0, 0.0]], cov)

    @pytest.mark.parametrize("kinds, message", [
        ("ok pd- asym", "covariance 1 is not positive definite"),
        ("ok asym pd-", "covariance 1 is not symmetric"),
        ("ok both pd-", "covariance 1 is not symmetric"),
        ("pd- pd- ok", "covariance 0 is not positive definite"),
        ("ok ok asym", "covariance 2 is not symmetric"),
    ])
    def test_first_failing_covariance_named(self, kinds, message):
        # asymmetric, not positive definite, or both; symmetry is checked
        # first within one component
        cov = {
            "ok": np.eye(2),
            "asym": np.array([[1.0, 0.5], [0.2, 1.0]]),
            "pd-": np.array([[1.0, 0.0], [0.0, -1.0]]),
            "both": np.array([[1.0, 0.5], [0.2, -1.0]]),
        }
        covs = np.stack([cov[kind] for kind in kinds.split()])
        with pytest.raises(InvalidModelError, match=message):
            MixtureModel(np.full(3, 1 / 3), np.zeros((3, 2)), covs)

    @pytest.mark.parametrize("round_fn", [em_round, sem_round])
    def test_one_factorization_per_model(self, monkeypatch, round_fn):
        # a round without degeneracy factors its covariances twice, each time
        # in one batched call: the M-step's screen, then the model's own
        # (K+1 calls when the M-step checked each component alone)
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        for d, k in ((2, 3), (10, 10)):
            _, data, _, model0 = make_instance(11, d=d, k=k)
            calls.clear()
            model = round_fn(model0, data, SemConfig(rng_seed=3), 0)
            assert model.k == k
            assert calls == [(k, d, d)] * 2

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidModelError, match="positive"):
            MixtureModel([1.0, 0.0], [[0.0], [1.0]], [[[1.0]], [[1.0]]])


def random_spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.1 * np.eye(d)


class TestCholeskyScreen:
    def test_factors_as_each_matrix_alone(self):
        covs = np.stack([random_spd(substream(13, k), 4) for k in range(5)])
        chol, failed = cholesky_screen(covs)
        assert not failed.any()
        for k in range(5):
            np.testing.assert_array_equal(chol[k], np.linalg.cholesky(covs[k]))

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_fallback_names_the_failing_matrix(self, bad):
        covs = np.stack([random_spd(substream(13, k), 4) for k in range(5)])
        covs[bad] = np.diag([1.0, 1.0, 0.0, 1.0])
        chol, failed = cholesky_screen(covs)
        assert chol is None
        assert np.flatnonzero(failed).tolist() == [bad]

    def test_empty_stack(self):
        chol, failed = cholesky_screen(np.zeros((0, 3, 3)))
        assert chol.shape == (0, 3, 3) and failed.shape == (0,)


class TestPrecisionFactor:
    def test_inverse_transposed_cholesky(self):
        rng = substream(12)
        covs = np.stack([random_spd(rng, 10) for _ in range(5)])
        m = MixtureModel(np.full(5, 0.2), rng.normal(size=(5, 10)), covs)
        for k in range(5):
            np.testing.assert_allclose(
                m.prec_chol[k].T @ m.chol[k], np.eye(10), rtol=0, atol=1e-12
            )

    def test_rounds_do_not_call_scipy(self, monkeypatch, small_instance):
        # scipy's BLAS is a second thread pool; no per-round code may wake it
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy called during a round")

        for name in scipy.linalg.__all__:
            obj = getattr(scipy.linalg, name)
            if callable(obj) and not isinstance(obj, type):
                monkeypatch.setattr(scipy.linalg, name, forbidden)
        _, data, _, model0 = small_instance
        em_fit(model0, data, 2)
        sem_fit(model0, data, 2, SemConfig(rng_seed=1))

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_log_joint_matches_density_route(self, d):
        rng = substream(13, d)
        k = 3
        w = rng.random(k) + 0.1
        m = MixtureModel(
            w / w.sum(), rng.normal(size=(k, d)),
            np.stack([random_spd(rng, d) for _ in range(k)]),
        )
        data = DataSet(rng.normal(size=(200, d)) * 2.0)
        lj = component_log_joint(m, data)
        for j in range(k):
            expected = math.log(m.weights[j]) + gaussian_log_density(
                m.means[j], m.chol[j], data.points
            )
            np.testing.assert_allclose(lj[:, j], expected, rtol=1e-10, atol=1e-10)


class TestGaussianLogDensity:
    def test_standard_normal_at_origin(self):
        m = MixtureModel([1.0], [[0.0]], [[[1.0]]])
        assert gaussian_log_density(m.means[0], m.chol[0], [0.0]) == pytest.approx(
            -HALF_LOG_2PI, abs=1e-14
        )

    def test_2d_identity_at_origin(self):
        m = MixtureModel([1.0], [[0.0, 0.0]], [np.eye(2)])
        val = gaussian_log_density(m.means[0], m.chol[0], [0.0, 0.0])
        assert val == pytest.approx(-math.log(2 * math.pi), abs=1e-14)

    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_at_mean_identity_cov(self, d):
        mu = substream(8, d).normal(size=d)
        m = MixtureModel([1.0], [mu], [np.eye(d)])
        val = gaussian_log_density(m.means[0], m.chol[0], mu)
        assert val == pytest.approx(-0.5 * d * HALF_LOG_2PI * 2, abs=1e-12)

    def test_normalization_monte_carlo(self):
        # E_p[p(x)] over draws from p equals the L2 norm of the density,
        # (4 pi)^(-D/2) det(Sigma)^(-1/2) for a Gaussian
        rng = substream(9)
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        mu = np.array([1.0, -2.0])
        m = MixtureModel([1.0], [mu], [cov])
        g = rng.normal(size=(100_000, 2))
        x = mu + g @ m.chol[0].T
        w = np.exp(gaussian_log_density(mu, m.chol[0], x))
        expected = (4 * math.pi) ** -1.0 / math.sqrt(np.linalg.det(cov))
        se = w.std() / math.sqrt(len(w))
        assert abs(w.mean() - expected) < 3 * se


class TestLogLikelihood:
    def test_single_standard_normal(self):
        m = MixtureModel([1.0], [[0.0]], [[[1.0]]])
        assert log_likelihood(m, DataSet([[0.0]])) == pytest.approx(
            -HALF_LOG_2PI, abs=1e-14
        )

    def test_two_points_sum(self):
        m = MixtureModel([1.0], [[0.0]], [[[1.0]]])
        val = log_likelihood(m, DataSet([[0.0], [1.0]]))
        assert val == pytest.approx(-HALF_LOG_2PI + (-HALF_LOG_2PI - 0.5), abs=1e-13)

    def test_identical_components_collapse(self):
        data = DataSet(substream(10).normal(size=(40, 2)))
        one = MixtureModel([1.0], [[0.0, 0.0]], [np.eye(2)])
        two = MixtureModel([0.5, 0.5], [[0.0, 0.0]] * 2, [np.eye(2)] * 2)
        assert log_likelihood(one, data) == pytest.approx(
            log_likelihood(two, data), abs=1e-12
        )

    def test_permutation_invariance(self):
        data = DataSet(substream(12).normal(size=(30, 1)))
        a = MixtureModel([0.3, 0.7], [[0.0], [2.0]], [[[1.0]], [[0.5]]])
        b = MixtureModel([0.7, 0.3], [[2.0], [0.0]], [[[0.5]], [[1.0]]])
        assert log_likelihood(a, data) == pytest.approx(
            log_likelihood(b, data), abs=1e-12
        )

    def test_dimension_mismatch(self):
        m = MixtureModel([1.0], [[0.0, 0.0]], [np.eye(2)])
        with pytest.raises(DataError, match="dimension"):
            log_likelihood(m, DataSet([[0.0]]))

    def test_no_underflow_high_dim(self):
        d = 27
        m = MixtureModel([1.0], [np.zeros(d)], [np.eye(d) * 1e-4])
        data = DataSet(np.full((3, d), 2.0))
        val = log_likelihood(m, data)
        assert np.isfinite(val)


class TestAssignment:
    def test_counts_match_labels(self):
        a = Assignment([0, 1, 1, 2, 1], k=3)
        np.testing.assert_array_equal(a.counts, [1, 3, 1])
        assert a.counts.sum() == a.n

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            Assignment([0, 3], k=2)

    @pytest.mark.parametrize("labels", [[0.5, 1.7, 0.2], [0.0, np.nan], [np.inf, 0.0]])
    def test_non_whole_labels_rejected(self, labels):
        with pytest.raises(DataError, match="whole numbers"):
            Assignment(labels, 2)

    @pytest.mark.parametrize("labels", [
        np.array(["1", "0"]),
        np.array([b"1", b"0"]),
        np.array([1 + 0.5j, 0]),
        np.array([True, False]),
        np.array([1, 0], dtype=object),
    ])
    def test_labels_that_are_not_numbers_rejected(self, labels):
        # a cast to int64 would parse the text or drop the imaginary part
        with pytest.raises(DataError, match="integers"):
            Assignment(labels, 2)

    def test_whole_float_labels_accepted(self):
        a = Assignment([0.0, 1.0, 1.0], 2)
        np.testing.assert_array_equal(a.labels, [0, 1, 1])
        np.testing.assert_array_equal(a.counts, [1, 2])

    @pytest.mark.parametrize("k, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_labels_in_smallest_unsigned_type(self, k, dtype):
        given = np.array([0, k - 1, 0])
        a = Assignment(given, k)
        assert a.labels.dtype == dtype
        np.testing.assert_array_equal(a.labels, given)
        assert not a.labels.flags.writeable and not a.counts.flags.writeable
        assert given.flags.writeable

    def test_from_counts_adopts_labels(self):
        labels = np.array([2, 0, 2], dtype=np.uint8)
        a = Assignment.from_counts(labels, np.array([1, 0, 2]))
        assert a.labels is labels and (a.k, a.n) == (3, 3)
        np.testing.assert_array_equal(a.counts, [1, 0, 2])

    def test_from_counts_rejects_wrong_total(self):
        with pytest.raises(DataError, match="sum to N"):
            Assignment.from_counts(np.zeros(3, dtype=np.uint8), np.array([2, 0]))


class TestDegeneracyError:
    @pytest.mark.parametrize("clone", [
        lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trip(self, clone):
        err = clone(DegeneracyError(2, "zero responsibility mass"))
        assert isinstance(err, DegeneracyError)
        assert err.component == 2
        assert str(err) == "component 2: zero responsibility mass"


@given(
    pts=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 30), st.integers(1, 4)),
        elements=st.floats(-1e6, 1e6),
    ),
    shift=st.floats(-1e6, 1e6),
)
@settings(max_examples=50, deadline=None)
def test_spread_shift_property(pts, shift):
    base = DataSet(pts).spread
    moved = DataSet(pts + shift).spread
    assert np.allclose(base, moved, rtol=0, atol=1e-9 * (1 + np.abs(pts).max()))
