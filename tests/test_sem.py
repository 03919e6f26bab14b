import copy
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import semgmm.em
import semgmm.rounds
import semgmm.sem
from semgmm import (
    Assignment,
    DataError,
    DataSet,
    DegeneracyError,
    MixtureModel,
    SemConfig,
    assemble_bounds,
    em_fit,
    responsibilities,
    sample_assignment,
    sem_fit,
    sem_m_step,
    validate,
)
from semgmm.em import em_m_step
from semgmm.estep import from_probs, posterior_weights
from semgmm.model import PartialParams, block_width, cholesky_screen, hard_means, hard_params
from semgmm.rng import substream
from semgmm.rounds import finalize_model, repair_component
from semgmm.synth import initialize

from conftest import make_instance, separated_instance
from oracles import component_mle, row_cdf_labels


class TestSemConfig:
    def test_seed_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(SemConfig)] == ["rng_seed"]
        with pytest.raises(ValueError, match="seed"):
            SemConfig(rng_seed=-1)


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

    @pytest.mark.parametrize("k", [1, 3])
    def test_no_rows_give_empty_assignment(self, k):
        assign = sample_assignment(np.empty((0, k)), substream(56))
        assert (assign.n, assign.k, assign.labels.size) == (0, k, 0)
        np.testing.assert_array_equal(assign.counts, np.zeros(k))

    @pytest.mark.parametrize("n", [0, 5])
    def test_no_columns_rejected(self, n):
        with pytest.raises(DataError, match="need K >= 1"):
            sample_assignment(np.empty((n, 0)), substream(56))


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

    def test_malformed_weights_rejected(self):
        # these used to escape as AttributeError, ValueError, or a
        # ComplexWarning and then a UFuncTypeError
        rows = [[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]]
        np.testing.assert_array_equal(
            sample_assignment(rows, substream(64)).labels,
            sample_assignment(np.array(rows), substream(64)).labels,
        )
        bad = [np.ones(3), np.ones((2, 2, 2)), np.array([["1", "2"]]), np.array([[1j, 1.0]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for weights in bad:
                with pytest.raises(DataError, match="weights must be an N x K real array"):
                    sample_assignment(weights, substream(64))

    def test_broadcast_row_is_not_copied(self):
        # the ancestral sampler of synth passes N copies of one weight row as
        # a broadcast view; a copy would take n * k floats
        n, k = 200_000, 10
        rows = np.broadcast_to(np.full(k, 1.0 / k), (n, k))
        tracemalloc.start()
        try:
            sample_assignment(rows, substream(65))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * k * 8 / 4

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
        model = sem_m_step(hard_params(assign, data), data, prev, substream(56, 1))
        for k in range(2):
            mu, cov = component_mle(data.points[labels == k])
            np.testing.assert_array_equal(model.means[k], mu)
            np.testing.assert_array_equal(model.covariances[k], cov)
            assert model.weights[k] == pytest.approx(
                (labels == k).sum() / data.n, abs=1e-15
            )

    def test_small_component_repaired(self):
        # component 1 gets a single point: fewer than D+1 = 3; it is
        # re-seeded onto a data point with the covariance I dist^2 / (2D),
        # dist the distance to the other component's mean
        rng = substream(57)
        pts = rng.normal(size=(50, 2))
        labels = np.zeros(50, dtype=int)
        labels[0] = 1
        prev = MixtureModel([0.5, 0.5], [[0.0, 0.0], [3.0, 3.0]], [np.eye(2)] * 2)
        data = DataSet(pts)
        partial = hard_params(Assignment(labels, 2), data)
        model = sem_m_step(partial, data, prev, rng)
        assert validate(model) is None
        assert (model.means[1] == pts).all(axis=1).any()
        np.testing.assert_array_equal(model.means[0], partial.means[0])
        dist2 = ((model.means[1] - partial.means[0]) ** 2).sum()
        np.testing.assert_allclose(model.covariances[1], np.eye(2) * dist2 / 4.0, rtol=1e-15)

    @pytest.mark.parametrize("count, kept", [(2, False), (3, True)])
    def test_fewer_than_d_plus_one_points_repaired(self, count, kept):
        # D 2: component 1 holds D points, or D+1 in general position.  The
        # D points' covariance has rank 1 but factors through rounding, so
        # only the point count can send it to repair
        own = np.vstack([substream(63, 17).normal(size=(2, 2)) + 5.0, [[5.0, 3.0]]])[:count]
        pts = np.vstack([substream(62).normal(size=(40, 2)), own])
        labels = np.repeat([0, 1], [40, count])
        prev = MixtureModel([0.5, 0.5], [[0.0, 0.0], [5.0, 5.0]], [np.eye(2)] * 2)
        data = DataSet(pts)
        partial = hard_params(Assignment(labels, 2), data)
        assert cholesky_screen(partial.covariances)[0] is not None
        model = sem_m_step(partial, data, prev, substream(62, 1))
        assert validate(model) is None
        mu, cov = component_mle(own)
        assert bool((model.means[1] == mu).all() and (model.covariances[1] == cov).all()) is kept

    def test_empty_component_resampled(self):
        rng = substream(60)
        pts = rng.normal(size=(40, 2))
        labels = np.zeros(40, dtype=int)  # component 1 empty
        prev = MixtureModel([0.5, 0.5], [[0.0, 0.0], [5.0, 5.0]], [np.eye(2)] * 2)
        for pi in range(3):
            data = DataSet(pts)
            model = sem_m_step(
                hard_params(Assignment(labels, 2), data), data, prev, substream(60, pi)
            )
            assert validate(model) is None
            # resampled mean is an actual data point
            assert (model.means[1] == pts).all(axis=1).any()


class TestRepairLeavesInputAlone:
    """Both M-step entry points repair a copy of the PartialParams they are
    given; within one call, each repair sees the ones made before it."""

    @staticmethod
    def two_degenerate():
        # component 0 holds 49 points, component 1 one (below D+1 = 3) and
        # component 2 none
        pts = substream(64).normal(size=(50, 2))
        labels = np.zeros(50, dtype=int)
        labels[0] = 1
        prev = MixtureModel(
            [0.4, 0.3, 0.3], [[0.0, 0.0], [30.0, 30.0], [-30.0, 30.0]], [np.eye(2)] * 3
        )
        data = DataSet(pts)
        return data, prev, hard_params(Assignment(labels, 3), data)

    @pytest.mark.parametrize("entry", ["sem_m_step", "finalize_model"])
    def test_partial_unchanged(self, entry):
        data, prev, partial = self.two_degenerate()
        given = copy.deepcopy(partial)
        rng = substream(64, 1)
        if entry == "sem_m_step":
            model = sem_m_step(partial, data, prev, rng)
        else:
            model = finalize_model(partial, [1, 2], data, prev, rng)
        assert validate(model) is None
        for name in ("means", "covariances", "counts"):
            np.testing.assert_array_equal(getattr(partial, name), getattr(given, name))

    def test_later_repair_sees_earlier(self):
        # both components are resampled onto data points; the fresh
        # covariance of component 2 is scaled by its distance to the nearest
        # other mean, which counts component 1's new mean, not the previous
        # model's mean far away
        data, prev, partial = self.two_degenerate()
        model = sem_m_step(partial, data, prev, substream(64, 1))
        means = model.means
        for k in (1, 2):
            assert (means[k] == data.points).all(axis=1).any()
        dist2 = min(((means[2] - means[i]) ** 2).sum() for i in (0, 1))
        assert dist2 < ((means[2] - prev.means[1]) ** 2).sum()
        np.testing.assert_array_equal(model.covariances[2], np.eye(2) * (dist2 / 4.0))
        # repaired weights count at least one point each, then renormalize
        np.testing.assert_allclose(model.weights, np.array([49.0, 1.0, 1.0]) / 51.0, rtol=1e-15)


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
        mu, cov = repair_component(1, data, prev, partial, substream(61))
        dist2 = ((mu - partial.means[0]) ** 2).sum()
        np.testing.assert_allclose(cov, np.eye(2) * dist2 / 4.0, rtol=1e-12)

    def test_one_component_scale(self):
        # with no other mean, the seeding rule of initialize at K = 1:
        # I * mean_n ||x_n - mu||^2 / (2D), 10 / 4 from every corner here
        data = DataSet([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [2.0, 4.0]])
        prev = MixtureModel([1.0], [[1.0, 2.0]], [np.eye(2)])
        partial = PartialParams(
            means=np.full((1, 2), np.nan),
            covariances=np.full((1, 2, 2), np.nan),
            counts=np.array([0.0]),
        )
        mu, cov = repair_component(0, data, prev, partial, substream(62))
        assert (mu == data.points).all(axis=1).any()
        np.testing.assert_array_equal(cov, np.eye(2) * 2.5)


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


@pytest.fixture
def repairs(monkeypatch):
    """Records each ridge repair (the covariance it was given) and each full
    repair (the component) that a round makes."""
    events = {"ridge": [], "component": []}
    ridge, component = semgmm.em.ridge_repair, semgmm.rounds.repair_component

    def ridge_recording(cov):
        events["ridge"].append(cov.copy())
        return ridge(cov)

    def component_recording(k, *args, **kwargs):
        events["component"].append(k)
        return component(k, *args, **kwargs)

    monkeypatch.setattr(semgmm.em, "ridge_repair", ridge_recording)
    monkeypatch.setattr(semgmm.rounds, "repair_component", component_recording)
    return events


def line_in_the_middle(k=5, per=20):
    """D2 points in k groups: group g is a normal cloud about (10 g, 0), but
    group k // 2 lies on the x-axis, so any covariance of its points alone is
    exactly [[v, 0], [0, 0]], which has no Cholesky factor."""
    rng = substream(97)
    groups = [rng.normal(size=(per, 2)) + [10.0 * g, 0.0] for g in range(k)]
    groups[k // 2][:, 1] = 0.0
    return DataSet(np.vstack(groups)), np.repeat(np.arange(k), per)


class TestCholeskyScreenInTheMSteps:
    """One covariance in the middle of the stack fails to factor: the screen
    names exactly that component, and only it is repaired."""

    def test_sem_repairs_exactly_the_failing_component(self, monkeypatch):
        data, labels = line_in_the_middle()
        partial = hard_params(Assignment(labels, 5), data)
        prev = MixtureModel(np.full(5, 0.2), partial.means, [np.eye(2)] * 5)
        seen = []

        def recording(partial, degenerate, *args):
            seen.append(degenerate)
            return finalize_model(partial, degenerate, *args)

        monkeypatch.setattr(semgmm.sem, "finalize_model", recording)
        model = sem_m_step(partial, data, prev, substream(98))
        assert seen == [[2]]
        expected = finalize_model(partial, [2], data, prev, substream(98))
        for name in ("weights", "means", "covariances"):
            np.testing.assert_array_equal(getattr(model, name), getattr(expected, name))

    def test_em_ridges_exactly_the_failing_component(self, repairs):
        # soft rows: each point gives 3/4 to its own group and 1/4 to a
        # neighbour, and only the line's own points give the line's
        # component any weight, so its weighted covariance is [[v, 0], [0, 0]]
        data, labels = line_in_the_middle()
        rows = np.arange(data.n)
        probs = np.zeros((data.n, 5))
        probs[rows, labels] = 0.75
        probs[rows, np.where(labels == 0, 1, 0)] += 0.25
        probs[labels == 2] = [0.0, 0.25, 0.5, 0.25, 0.0]
        partial, degenerate = semgmm.em._em_params(from_probs(probs), data)
        assert degenerate == []
        [raw] = repairs["ridge"]
        assert raw[1, 1] == raw[0, 1] == 0.0 < raw[0, 0]
        # the first ridge, 1e-6 of the covariance scale trace/D, factors it
        ridged = raw + (1e-6 * np.trace(raw) / 2) * np.eye(2)
        np.testing.assert_array_equal(partial.covariances[2], ridged)
        others = [0, 1, 3, 4]
        assert not cholesky_screen(partial.covariances[others])[1].any()


class TestDegenerateData:
    @pytest.mark.parametrize("d", [3, 10])
    @pytest.mark.parametrize("fit", [em_fit, sem_fit])
    def test_component_of_copies_is_repaired(self, d, fit, repairs):
        # component 1 holds 60 copies of one point, far from the others:
        # its covariance collapses to (nearly) zero in the first round
        rng = substream(95, d)
        copy = rng.normal(size=d) * 0.5 + 6.0
        data = DataSet(np.vstack([rng.normal(size=(200, d)), np.tile(copy, (60, 1))]))
        model0 = MixtureModel([0.7, 0.3], [np.zeros(d), copy], [np.eye(d)] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = fit(model0, data, 5, SemConfig(rng_seed=4))
        assert len(traj) == 5
        assert all(validate(m) is None for m in traj)
        # a ridge repair can only be of the collapsed component
        assert 1 in repairs["component"] or any(
            np.trace(cov) < 1e-6 for cov in repairs["ridge"]
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("extra", [1, 2])
    @pytest.mark.parametrize("seed", range(8))
    def test_barely_enough_points(self, d, extra, seed, repairs):
        # N = D+1 or D+2 points for two or three components, over 10 rounds,
        # in which EM can collapse a component onto a point: every call
        # either runs, repairing what it must, or raises one of the library's
        # own errors
        data = DataSet(substream(96, d, extra, seed).normal(size=(d + extra, d)))
        cfg = SemConfig(rng_seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k, init_rng in ((2, substream(96, seed)), (3, substream(96, seed, 3))):
                if data.n < k:
                    continue  # no initial model
                model0 = initialize(data, k, init_rng)
                for fit in (em_fit, sem_fit):
                    try:
                        traj = fit(model0, data, 10, cfg)
                    except (DataError, DegeneracyError):
                        continue
                    assert len(traj) == 10
                    assert all(validate(m) is None for m in traj)
                try:
                    report = assemble_bounds(responsibilities(model0, data), data, 0.05)
                    cov_bound = report.cov_bound
                except (DataError, DegeneracyError):
                    continue
                assert np.isnan(cov_bound[~report.applicable]).all()
        # a sampled component of at most D+2 points is below D+1 or
        # leaves another one below it
        assert repairs["component"]
