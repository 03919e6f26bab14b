import numpy as np
import pytest

from semgmm import (
    Assignment,
    DataError,
    DataSet,
    MixtureModel,
    SemConfig,
    em_fit,
    responsibilities,
    sample_assignment,
    sem_fit,
    sem_m_step,
    validate,
)
from semgmm.em import em_m_step
from semgmm.estep import from_probs, posterior_weights
from semgmm.model import block_width
from semgmm.sem import PartialParams, hard_means, hard_params, repair_component
from semgmm.rng import substream

from conftest import make_instance, separated_instance
from oracles import component_mle, row_cdf_labels


class TestSemConfig:
    def test_default_zeta_is_d_plus_one(self):
        cfg = SemConfig()
        assert cfg.effective_zeta(3) == 4
        assert cfg.effective_zeta(1) == 2

    def test_explicit_zeta(self):
        assert SemConfig(zeta=7).effective_zeta(3) == 7

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            SemConfig(repair_policy="nonsense")

    def test_bad_zeta_rejected(self):
        with pytest.raises(ValueError, match="zeta"):
            SemConfig(zeta=0)


class TestComponentMle:
    def test_two_points(self):
        mu, cov = component_mle(np.array([[0.0], [2.0]]))
        assert mu[0] == 1.0
        assert cov[0, 0] == 1.0  # biased: ((0-1)^2 + (2-1)^2)/2

    def test_matches_numpy(self):
        pts = substream(51).normal(size=(60, 3))
        mu, cov = component_mle(pts)
        np.testing.assert_allclose(mu, pts.mean(axis=0), rtol=1e-14)
        np.testing.assert_allclose(cov, np.cov(pts.T, bias=True), rtol=1e-10)
        np.testing.assert_array_equal(cov, cov.T)


class TestSampleAssignment:
    def test_hard_probabilities_deterministic(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        resp = from_probs(probs)
        assign = sample_assignment(resp, substream(52))
        np.testing.assert_array_equal(assign.labels, [0, 1, 0])

    def test_marginals_match_probabilities(self):
        probs = np.tile([0.2, 0.5, 0.3], (1000, 1))
        resp = from_probs(probs)
        counts = np.zeros(3)
        trials = 200
        for t in range(trials):
            counts += np.bincount(
                sample_assignment(resp, substream(53, t)).labels, minlength=3
            )
        freq = counts / (1000 * trials)
        # 200k draws: SE ~ 0.0011, allow 4 SE
        np.testing.assert_allclose(freq, [0.2, 0.5, 0.3], atol=0.005)

    def test_reproducible(self, small_instance):
        _, data, _, model0 = small_instance
        resp = responsibilities(model0, data)
        a = sample_assignment(resp, substream(54))
        b = sample_assignment(resp, substream(54))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_probability_never_drawn(self):
        probs = np.tile([0.5, 0.0, 0.5], (500, 1))
        assign = sample_assignment(from_probs(probs), substream(55))
        assert not (assign.labels == 1).any()


    @pytest.mark.parametrize("k", [3, 10])
    def test_labels_match_row_cdf_oracle(self, k):
        _, data, _, model0 = make_instance(56, d=3, k=k, n=3000)
        rows = posterior_weights(model0, data)
        resp = responsibilities(model0, data)
        for weights, probs in ((rows, rows), (resp, resp.probs)):
            labels = sample_assignment(weights, substream(56, k)).labels
            np.testing.assert_array_equal(labels, row_cdf_labels(probs, substream(56, k)))
        plain = np.ascontiguousarray(rows)  # a row-major array is accepted too
        np.testing.assert_array_equal(
            sample_assignment(plain, substream(56, k)).labels,
            row_cdf_labels(plain, substream(56, k)),
        )


class _MaxDraw:
    """Generator stub whose every uniform draw is the largest double below 1."""

    def random(self, n):
        return np.full(n, 1.0 - 2.0**-53)


class _ZeroDraw:
    """Generator stub whose every uniform draw is 0."""

    def random(self, n):
        return np.zeros(n)


class TestSampleUnnormalizedRows:
    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_scaled_rows_give_marginals(self, scale):
        p = np.array([0.2, 0.5, 0.3])
        rows = np.tile(scale * p, (1000, 1))
        counts = np.zeros(3)
        trials = 200
        for t in range(trials):
            counts += np.bincount(
                sample_assignment(rows, substream(57, t)).labels, minlength=3
            )
        # 200k draws: SE ~ 0.0011, allow 4 SE
        np.testing.assert_allclose(counts / (1000 * trials), p, atol=0.005)

    def test_scaling_does_not_change_labels(self):
        rows = substream(58).random((500, 4))
        base = sample_assignment(rows, substream(59)).labels
        scaled = sample_assignment(rows * 2.0, substream(59)).labels
        np.testing.assert_array_equal(base, scaled)

    def test_zero_weight_never_drawn(self):
        rows = np.tile([0.0, 3.0, 0.0, 1.0, 0.0], (2000, 1))
        labels = sample_assignment(rows, substream(60)).labels
        assert set(np.unique(labels)) == {1, 3}

    def test_draw_at_row_total_takes_last_positive(self):
        # in the subnormal range (1 - 2^-53) * rowsum rounds to rowsum itself,
        # which lies past every running sum of the row
        # (the last row is normal: the same draw stays below its total)
        tiny = np.nextafter(0.0, 1.0)
        rows = np.array([
            [0.0, 3 * tiny, 0.0, 2 * tiny, 0.0],
            [tiny, 0.0, 0.0, 0.0, 0.0],
            [0.25, 0.75, 0.0, 0.0, 0.0],
        ])
        assert (1.0 - 2.0**-53) * rows[0].sum() == rows[0].sum()
        assign = sample_assignment(rows, _MaxDraw())
        np.testing.assert_array_equal(assign.labels, [3, 0, 1])
        np.testing.assert_array_equal(assign.counts, [1, 1, 0, 1, 0])

    @pytest.mark.parametrize("shape, row", [((3, 3), 1), ((3 * block_width(3) + 7, 3), -1)],
                             ids=["small", "last-of-3-blocks"])
    def test_zero_weight_row_rejected(self, shape, row):
        # a row with no positive entry has no label to give; it used to be
        # given the last one silently
        rows = substream(61).random(shape)
        rows[row] = 0.0
        with pytest.raises(DataError, match=f"row {row % shape[0]} of the weights"):
            sample_assignment(rows, substream(62))

    @pytest.mark.parametrize("bad, message", [
        ([np.nan, 1.0], "no finite total"),
        ([np.inf, 1.0], "no finite total"),
        ([-np.inf, 1.0], "no finite total"),
        ([np.inf, -np.inf], "no finite total"),
        ([-1.0, 1.0], "no positive total"),
        ([-1.0, 0.5], "no positive total"),
        ([-0.0, 0.0], "no positive total"),
    ], ids=["nan", "inf", "-inf", "inf-inf", "zero-total", "negative-total", "signed-zeros"])
    @pytest.mark.parametrize("row", [0, 3, -1])
    def test_malformed_row_rejected(self, bad, message, row):
        rows = substream(63).random((3 * block_width(2) + 7, 2))
        rows[row] = bad
        # every draw, including 0 and the largest below 1, meets the check
        for rng in (substream(63, 1), _MaxDraw(), _ZeroDraw()):
            with pytest.raises(DataError, match=f"row {row % len(rows)} of the weights has {message}"):
                sample_assignment(rows, rng)

    def test_malformed_rows_named_in_turn(self):
        # weights that used to be labelled [0 1 1 1] silently
        rows = np.array([[np.nan, 1.0], [0.5, 0.5], [np.inf, 1.0], [-1.0, 1.0]])
        for row, message in [(0, "finite"), (2, "finite"), (3, "positive")]:
            with pytest.raises(DataError, match=f"row {row} of the weights has no {message} total"):
                sample_assignment(rows, substream(63))
            rows[row] = 0.5
        assert sample_assignment(rows, substream(63)).k == 2

    def test_negative_entry_under_a_positive_total_is_a_precondition(self):
        # not checked, to keep the common path free of a per-entry pass
        rows = np.array([[-1.0, 2.0], [0.5, 0.5]])
        assert sample_assignment(rows, _MaxDraw()).labels[0] == 1


class TestSampledCounts:
    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("blocks", ["1", "B-1", "B+1", "3B+7"])
    def test_counts_match_bincount(self, k, blocks):
        b = block_width(k)
        n = {"1": 1, "B-1": b - 1, "B+1": b + 1, "3B+7": 3 * b + 7}[blocks]
        # zero entries make some labels rare or absent
        rows = substream(64, k, n).random((n, k)) ** 4
        rows[:, k // 2] = 0.0 if k > 1 else 1.0
        assign = sample_assignment(rows, substream(65, k, n))
        np.testing.assert_array_equal(assign.labels, row_cdf_labels(rows, substream(65, k, n)))
        np.testing.assert_array_equal(assign.counts, np.bincount(assign.labels, minlength=k))
        assert assign.labels.dtype == np.min_scalar_type(k - 1)

    @pytest.mark.parametrize("k", [3, 10])
    def test_counts_after_draws_past_the_row_total(self, k):
        # subnormal rows scattered over several blocks send the draw past the
        # row total; the fix-up moves them to their last positive entry
        n = 3 * block_width(k) + 7
        rows = substream(66, k).random((n, k))
        tiny = np.nextafter(0.0, 1.0)
        past = substream(67, k).choice(n, size=40, replace=False)
        rows[past] = tiny * (substream(68, k).random((40, k)) < 0.5)
        rows[past, 0] = 2 * tiny
        assign = sample_assignment(rows, _MaxDraw())
        np.testing.assert_array_equal(assign.labels, row_cdf_labels(rows, _MaxDraw()))
        np.testing.assert_array_equal(assign.counts, np.bincount(assign.labels, minlength=k))
        assert (assign.labels[past] < k).all()


class TestHardParams:
    def test_matches_masked_mle_and_leaves_empty_nan(self):
        rng = substream(55)
        pts = rng.normal(size=(60, 2))
        labels = rng.integers(0, 2, size=60) * 2  # component 1 stays empty
        hard = hard_params(Assignment(labels, 3), DataSet(pts))
        for k in (0, 2):
            mu, cov = component_mle(pts[labels == k])
            np.testing.assert_array_equal(hard.means[k], mu)
            np.testing.assert_array_equal(hard.covariances[k], cov)
        assert np.isnan(hard.means[1]).all() and np.isnan(hard.covariances[1]).all()
        np.testing.assert_array_equal(hard.counts, np.bincount(labels, minlength=3))
        assert hard.repaired == []

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            hard_params(Assignment([0, 1], 2), DataSet(np.zeros((3, 1))))


class TestHardMeans:
    @pytest.mark.parametrize("d", [3, 10])
    @pytest.mark.parametrize("offset, scale", [(0.0, 1.0), (1e6, 1.0), (0.0, 1e-6)])
    def test_equal_to_hard_params_means(self, d, offset, scale):
        rng = substream(69, d)
        data = DataSet(rng.normal(size=(5000, d)) * scale + offset)
        assign = Assignment(rng.integers(0, 4, size=5000), 4)
        np.testing.assert_array_equal(
            hard_means(assign, data), hard_params(assign, data).means
        )

    def test_empty_label_gives_nan_row(self):
        pts = substream(70).normal(size=(30, 2))
        labels = np.arange(30) % 2 * 2  # label 1 stays empty
        means = hard_means(Assignment(labels, 3), DataSet(pts))
        assert np.isnan(means[1]).all()
        for k in (0, 2):
            np.testing.assert_array_equal(means[k], component_mle(pts[labels == k])[0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            hard_means(Assignment([0, 1], 2), DataSet(np.zeros((3, 1))))


class TestSemMStep:
    def test_exact_mle_per_component(self):
        _, data, labels = separated_instance(56, d=2, k=2, n=200)
        assign = Assignment(labels, k=2)
        prev = MixtureModel(
            [0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [np.eye(2)] * 2
        )
        model = sem_m_step(
            hard_params(assign, data), data, prev, SemConfig(), substream(56, 1)
        )
        for k in range(2):
            mu, cov = component_mle(data.points[labels == k])
            np.testing.assert_array_equal(model.means[k], mu)
            np.testing.assert_array_equal(model.covariances[k], cov)
            assert model.weights[k] == pytest.approx(
                (labels == k).sum() / data.n, abs=1e-15
            )

    def test_small_component_repaired(self):
        # component 1 gets a single point: fewer than zeta = D+1 = 3
        rng = substream(57)
        pts = rng.normal(size=(50, 2))
        labels = np.zeros(50, dtype=int)
        labels[0] = 1
        prev = MixtureModel([0.5, 0.5], [[0.0, 0.0], [3.0, 3.0]], [np.eye(2)] * 2)
        data = DataSet(pts)
        partial = hard_params(Assignment(labels, 2), data)
        model = sem_m_step(partial, data, prev, SemConfig(), rng)
        assert validate(model) is None

    def test_keep_policy_preserves_covariance(self):
        rng = substream(58)
        pts = rng.normal(size=(50, 2))
        labels = np.zeros(50, dtype=int)
        labels[:2] = 1  # 2 points < zeta = 3 but enough for a mean
        prev_cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        prev = MixtureModel(
            [0.5, 0.5], [[0.0, 0.0], [3.0, 3.0]], [np.eye(2), prev_cov]
        )
        cfg = SemConfig(repair_policy="keep_previous_covariance")
        data = DataSet(pts)
        partial = hard_params(Assignment(labels, 2), data)
        model = sem_m_step(partial, data, prev, cfg, rng)
        np.testing.assert_array_equal(model.covariances[1], prev_cov)
        mu, _ = component_mle(pts[:2])
        np.testing.assert_array_equal(model.means[1], mu)

    def test_blend_policy_averages(self):
        rng = substream(59)
        pts = rng.normal(size=(50, 3))
        labels = np.zeros(50, dtype=int)
        labels[:3] = 1  # 3 points < zeta = 4, c_k >= 2 so blending is allowed
        prev_cov = np.eye(3) * 2.0
        prev = MixtureModel(
            [0.5, 0.5], [np.zeros(3), np.ones(3)], [np.eye(3), prev_cov]
        )
        cfg = SemConfig(repair_policy="blend_with_previous")
        data = DataSet(pts)
        partial = hard_params(Assignment(labels, 2), data)
        model = sem_m_step(partial, data, prev, cfg, rng)
        _, raw_cov = component_mle(pts[:3])
        np.testing.assert_allclose(
            model.covariances[1], 0.5 * raw_cov + 0.5 * prev_cov, rtol=1e-12
        )

    def test_empty_component_resampled(self):
        rng = substream(60)
        pts = rng.normal(size=(40, 2))
        labels = np.zeros(40, dtype=int)  # component 1 empty
        prev = MixtureModel([0.5, 0.5], [[0.0, 0.0], [5.0, 5.0]], [np.eye(2)] * 2)
        for pi, policy in enumerate(
            ("resample_mean_fresh_covariance", "blend_with_previous",
             "keep_previous_covariance")
        ):
            data = DataSet(pts)
            model = sem_m_step(
                hard_params(Assignment(labels, 2), data), data, prev,
                SemConfig(repair_policy=policy), substream(60, pi)
            )
            assert validate(model) is None
            # resampled mean is an actual data point
            assert (model.means[1] == pts).all(axis=1).any()


class TestRepairComponent:
    def test_fresh_covariance_scale(self):
        # repaired spherical covariance is I * nearest-mean-distance^2 / (2D)
        data = DataSet(np.array([[0.0, 0.0], [10.0, 0.0]]))
        prev = MixtureModel(
            [0.5, 0.5], [[0.0, 0.0], [10.0, 0.0]], [np.eye(2)] * 2
        )
        partial = PartialParams(
            means=np.array([[0.0, 0.0], [np.nan, np.nan]]),
            covariances=np.full((2, 2, 2), np.nan),
            counts=np.array([2.0, 0.0]),
        )
        partial.covariances[0] = np.eye(2)
        mu, cov = repair_component(
            1, data, prev, partial, SemConfig(), substream(61)
        )
        dist2 = ((mu - partial.means[0]) ** 2).sum()
        np.testing.assert_allclose(cov, np.eye(2) * dist2 / 4.0, rtol=1e-12)


class TestSemFit:
    def test_trajectory_valid(self, small_instance):
        _, data, _, model0 = small_instance
        traj = sem_fit(model0, data, 10, SemConfig(rng_seed=7))
        assert len(traj) == 10
        for m in traj:
            assert validate(m) is None

    def test_seed_determinism(self, small_instance):
        _, data, _, model0 = small_instance
        a = sem_fit(model0, data, 8, SemConfig(rng_seed=3))
        b = sem_fit(model0, data, 8, SemConfig(rng_seed=3))
        c = sem_fit(model0, data, 8, SemConfig(rng_seed=4))
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.means, mb.means)
        assert any(
            not np.array_equal(ma.means, mc.means) for ma, mc in zip(a, c)
        )

    def test_too_few_points_rejected(self):
        model0 = MixtureModel([1.0], [np.zeros(3)], [np.eye(3)])
        with pytest.raises(DataError, match="D\\+1"):
            sem_fit(model0, DataSet(np.zeros((2, 3)) + np.eye(3)[:2]), 1, SemConfig())

    @pytest.mark.parametrize("fit", [em_fit, sem_fit])
    def test_model_of_other_dimension_rejected(self, fit):
        # both algorithms check their arguments before the first round
        _, data, _, _ = make_instance(63, d=3, k=2, n=100)
        model0 = MixtureModel([1.0], [np.zeros(2)], [np.eye(2)])
        with pytest.raises(DataError, match="model dimension 2 != data dimension 3"):
            fit(model0, data, 0, SemConfig())

    def test_hard_responsibilities_match_em(self):
        # widely separated clusters: responsibilities round to exactly {0, 1},
        # so sampling is deterministic and both algorithms take the same step
        _, data, _ = separated_instance(62, d=1, k=2, n=300)
        model0 = MixtureModel(
            [0.5, 0.5], [[-100.0], [10100.0]], [[[200.0]], [[200.0]]]
        )
        em_model = em_m_step(responsibilities(model0, data), data)
        sem_traj = sem_fit(model0, data, 1, SemConfig(rng_seed=1))
        np.testing.assert_array_equal(em_model.weights, sem_traj[0].weights)
        np.testing.assert_array_equal(em_model.means, sem_traj[0].means)
        np.testing.assert_array_equal(em_model.covariances, sem_traj[0].covariances)
