import numpy as np
import pytest

from semgmm import (
    DataError,
    DataSet,
    GenSpec,
    MixtureModel,
    generate_mixture,
    initialize,
    sample_dataset,
    validate,
)
from semgmm.rng import substream
from semgmm.synth import _interfusing

from oracles import masked_sample


class TestGenSpec:
    def test_defaults(self):
        spec = GenSpec(d=2, k=3, n=100)
        assert spec.weight_mode == "balanced"
        assert spec.overlap == 1.5

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(d=0, k=1, n=10)
        with pytest.raises(ValueError):
            GenSpec(d=2, k=2, n=2)  # n < d + 1
        with pytest.raises(ValueError):
            GenSpec(d=2, k=2, n=100, weight_mode="other")
        with pytest.raises(ValueError):
            GenSpec(d=2, k=2, n=100, overlap=0.0)
        for overlap in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                GenSpec(d=2, k=2, n=100, overlap=overlap)


class TestGenerateMixture:
    @pytest.mark.parametrize("d,k", [(1, 2), (2, 3), (3, 5), (10, 10)])
    def test_valid_and_interfusing(self, d, k):
        spec = GenSpec(d=d, k=k, n=1000)
        truth = generate_mixture(spec, substream(91, d, k))
        assert validate(truth) is None
        radii = np.sqrt(np.trace(truth.covariances, axis1=1, axis2=2))
        assert _interfusing(truth.means, radii, spec.overlap)

    def test_balanced_weights_uniform(self):
        truth = generate_mixture(GenSpec(d=2, k=4, n=100), substream(92))
        np.testing.assert_allclose(truth.weights, 0.25, atol=1e-15)

    def test_unbalanced_weights_decreasing(self):
        truth = generate_mixture(
            GenSpec(d=2, k=4, n=100, weight_mode="unbalanced"), substream(93)
        )
        assert (np.diff(truth.weights) < 0).all()
        assert truth.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalue_range(self):
        truth = generate_mixture(GenSpec(d=5, k=3, n=100), substream(94))
        for cov in truth.covariances:
            eig = np.linalg.eigvalsh(cov)
            assert (eig >= 0.5 - 1e-9).all() and (eig <= 2.0 + 1e-9).all()

    def test_deterministic_given_stream(self):
        spec = GenSpec(d=3, k=3, n=100)
        a = generate_mixture(spec, substream(95))
        b = generate_mixture(spec, substream(95))
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covariances, b.covariances)


class TestSampleDataset:
    def test_shapes_and_labels(self):
        truth = generate_mixture(GenSpec(d=2, k=3, n=100), substream(96))
        data, labels = sample_dataset(truth, 500, substream(96, 1))
        assert data.n == 500 and data.d == 2
        assert labels.shape == (500,)
        assert labels.min() >= 0 and labels.max() < 3

    def test_label_frequencies_match_weights(self):
        truth = MixtureModel(
            [0.7, 0.3], [[0.0], [100.0]], [[[1.0]], [[1.0]]]
        )
        _, labels = sample_dataset(truth, 100_000, substream(97))
        freq = np.bincount(labels, minlength=2) / 100_000
        # SE ~ 0.0014, allow 4 SE
        np.testing.assert_allclose(freq, [0.7, 0.3], atol=0.006)

    def test_component_moments(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        truth = MixtureModel([1.0], [[1.0, -1.0]], [cov])
        data, _ = sample_dataset(truth, 200_000, substream(98))
        np.testing.assert_allclose(data.points.mean(axis=0), [1.0, -1.0], atol=0.02)
        np.testing.assert_allclose(np.cov(data.points.T, bias=True), cov, atol=0.03)

    def test_near_degenerate_weight(self):
        # weight arbitrarily close to zero is allowed; the heavy component
        # dominates the sample
        truth = MixtureModel(
            [1.0 - 1e-12, 1e-12], [[0.0], [50.0]], [[[1.0]], [[1.0]]]
        )
        data, labels = sample_dataset(truth, 1000, substream(99))
        assert (labels == 0).all()
        assert data.points.max() < 50.0

    def test_rejects_nonpositive_n(self):
        truth = MixtureModel([1.0], [[0.0]], [[[1.0]]])
        with pytest.raises(ValueError):
            sample_dataset(truth, 0, substream(100))

    @pytest.mark.parametrize("d, k, n", [(3, 3, 5000), (10, 10, 5000), (2, 4, 400)])
    def test_matches_masked_oracle_bit_for_bit(self, d, k, n):
        truth = generate_mixture(GenSpec(d=d, k=k, n=n, weight_mode="unbalanced"), substream(107))
        data, labels = sample_dataset(truth, n, substream(107, 1))
        points, oracle_labels = masked_sample(
            truth.weights, truth.means, truth.chol, n, substream(107, 1)
        )
        np.testing.assert_array_equal(labels, oracle_labels)
        np.testing.assert_array_equal(data.points, points)


class TestInitialize:
    def test_means_are_data_points(self, small_instance):
        _, data, _, _ = small_instance
        model = initialize(data, 4, substream(101))
        for mu in model.means:
            assert (mu == data.points).all(axis=1).any()

    def test_spherical_covariance_scale(self):
        data = DataSet([[0.0, 0.0], [6.0, 0.0], [0.0, 8.0], [6.0, 8.0]])
        model = initialize(data, 2, substream(102))
        d2 = ((model.means[0] - model.means[1]) ** 2).sum()
        for cov in model.covariances:
            np.testing.assert_allclose(cov, np.eye(2) * d2 / 4.0, rtol=1e-12)

    def test_uniform_weights(self, small_instance):
        _, data, _, _ = small_instance
        model = initialize(data, 5, substream(103))
        np.testing.assert_allclose(model.weights, 0.2, atol=1e-15)

    def test_k_one(self):
        data = DataSet(substream(104).normal(size=(50, 2)))
        model = initialize(data, 1, substream(104, 1))
        assert validate(model) is None
        assert model.k == 1

    def test_k_one_scale(self):
        # with no other mean, I * mean_n ||x_n - mu||^2 / (2D); every corner of
        # this rectangle has mean squared distance (0 + 4 + 16 + 20) / 4 = 10
        data = DataSet([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [2.0, 4.0]])
        for seed in range(4):
            model = initialize(data, 1, substream(104, 2, seed))
            np.testing.assert_array_equal(model.covariances[0], np.eye(2) * 2.5)

    def test_each_component_its_own_nearest_distance(self):
        # pairwise squared distances 1, 9 and 10: nearest 1, 1 and 9
        points = [[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]]
        expected = {(0.0, 0.0): 0.25, (1.0, 0.0): 0.25, (0.0, 3.0): 2.25}
        model = initialize(DataSet(points), 3, substream(107))
        for mu, cov in zip(model.means, model.covariances):
            np.testing.assert_array_equal(cov, np.eye(2) * expected[tuple(mu)])

    def test_duplicate_points_rejected(self):
        data = DataSet(np.zeros((10, 2)))
        with pytest.raises(DataError, match="distinct"):
            initialize(data, 2, substream(105))

    def test_needs_enough_points(self):
        data = DataSet([[0.0], [1.0]])
        with pytest.raises(DataError):
            initialize(data, 3, substream(106))

    def test_k_zero_rejected(self):
        data = DataSet([[0.0], [1.0]])
        with pytest.raises(ValueError, match="k must be >= 1"):
            initialize(data, 0, substream(108))
