import math

import numpy as np
import pytest

import semgmm.bounds
import semgmm.model
from semgmm import (
    DataSet,
    DegeneracyError,
    assemble_bounds,
    em_m_step,
    monte_carlo_violation_rate,
    responsibilities,
)
from semgmm.bounds import (
    BoundReport,
    compute_rho,
    compute_tau,
    lambda_cov,
    lambda_mean,
    lambda_weight,
)
from semgmm.estep import from_probs
from semgmm.model import column_blocks
from semgmm.rng import substream

from conftest import make_instance
from oracles import (
    chunked_rho,
    elementwise_tau,
    per_trial_violation_rates,
    scalar_bound_report,
    scalar_lambda_dev,
    scalar_lambda_w,
    scalar_rho,
    scalar_tau,
)


def half_half_resp(n):
    return from_probs(np.full((n, 2), 0.5))


class TestLambdaWeight:
    def test_frozen_value(self):
        # sqrt(3 ln(20) / 300)
        lw = lambda_weight(300.0, 0.1)
        assert lw.value == pytest.approx(0.17308183826022855, rel=1e-14)
        assert lw.applicable and lw.usable_downstream

    def test_matches_oracle(self):
        for r in (10.0, 50.0, 1234.5):
            for delta in (0.01, 0.1, 0.5):
                assert lambda_weight(r, delta).value == pytest.approx(
                    scalar_lambda_w(r, delta), rel=1e-14
                )

    def test_applicability_hypothesis(self):
        # hypothesis: delta >= 2 exp(-r/3); at r = 3 that is 2/e ~ 0.7358
        assert not lambda_weight(3.0, 0.5).applicable
        assert lambda_weight(3.0, 0.74).applicable

    def test_usable_downstream_needs_value_below_one(self):
        # the hypothesis delta >= 2 e^{-r/3} is equivalent to value <= 1, so
        # exactly at equality the factor is 1 and unusable downstream
        r = 3.0
        delta = 2.0 * math.exp(-r / 3.0)
        lw = lambda_weight(r, delta)
        assert lw.applicable
        assert lw.value >= 1.0 and not lw.usable_downstream
        # strictly inside the hypothesis the factor drops below 1
        assert lambda_weight(r, delta * 1.01).usable_downstream

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lambda_weight(0.0, 0.1)
        with pytest.raises(ValueError):
            lambda_weight(10.0, 0.0)
        with pytest.raises(ValueError):
            lambda_weight(10.0, 1.0)


class TestDeviationLambdas:
    def test_wide_case_frozen(self):
        # sd/cap = 2 >= sqrt(2e ln 20)/e: factor is sqrt(2e ln 20)
        assert lambda_mean(2.0, 1.0, 0.1) == pytest.approx(
            4.035652265032287, rel=1e-12
        )

    def test_narrow_case_frozen(self):
        # sd/cap = 0.5 below the threshold: factor is (2 cap / sd) ln(2/delta)
        assert lambda_mean(0.5, 1.0, 0.1) == pytest.approx(
            4.0 * math.log(20.0), rel=1e-14
        )

    def test_case_boundary_continuous(self):
        delta = 0.07
        wide = math.sqrt(2.0 * math.e * math.log(2.0 / delta))
        boundary_sd = wide / math.e  # cap = 1
        below = lambda_mean(boundary_sd * (1 - 1e-12), 1.0, delta)
        at = lambda_mean(boundary_sd, 1.0, delta)
        above = lambda_mean(boundary_sd * (1 + 1e-12), 1.0, delta)
        assert at == pytest.approx(wide, rel=1e-14)
        assert below == pytest.approx(at, rel=1e-9)
        assert above == pytest.approx(at, rel=1e-9)

    def test_zero_sd_gives_zero(self):
        assert lambda_mean(0.0, 1.0, 0.1) == 0.0
        assert lambda_cov(0.0, 1.0, 1.0, 0.1) == 0.0

    def test_cov_uses_product_cap(self):
        # cov factor with spreads (a, b) equals mean factor with cap a*b
        assert lambda_cov(0.3, 2.0, 5.0, 0.05) == pytest.approx(
            lambda_mean(0.3, 10.0, 0.05), rel=1e-14
        )

    def test_matches_oracle(self):
        for sd in (0.01, 0.5, 3.0, 50.0):
            for cap in (1.0, 4.0):
                for delta in (0.01, 0.2):
                    assert lambda_mean(sd, cap, delta) == pytest.approx(
                        scalar_lambda_dev(sd, cap, delta), rel=1e-14
                    )


class TestTauRho:
    def test_tau_fixture(self):
        # X = {0, 2}, p = 0.5 everywhere, mu = 1: tau = sqrt(2 * 0.25 * 1)
        data = DataSet([[0.0], [2.0]])
        resp = half_half_resp(2)
        em = em_m_step(resp, data)
        tau = compute_tau(resp, data, em.means)
        assert tau[0, 0] == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert tau[1, 0] == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_hard_responsibilities_give_zero(self):
        data = DataSet([[0.0], [1.0], [4.0], [6.0]])
        resp = from_probs(
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        )
        em = em_m_step(resp, data)
        tau = compute_tau(resp, data, em.means)
        rho = compute_rho(resp, data, em.means, em.covariances)
        np.testing.assert_array_equal(tau, 0.0)
        np.testing.assert_array_equal(rho, 0.0)

    def test_matches_scalar_oracles(self):
        rng = substream(71)
        pts = rng.normal(size=12)
        raw = rng.random((12, 2))
        probs = raw / raw.sum(axis=1, keepdims=True)
        data = DataSet(pts[:, None])
        resp = from_probs(probs)
        em = em_m_step(resp, data)
        tau = compute_tau(resp, data, em.means)
        rho = compute_rho(resp, data, em.means, em.covariances)
        for k in range(2):
            assert tau[k, 0] == pytest.approx(
                scalar_tau(pts.tolist(), probs.tolist(), em.means[k, 0], k),
                rel=1e-11,
            )
            assert rho[k, 0, 0] == pytest.approx(
                scalar_rho(
                    pts.tolist(), probs.tolist(),
                    em.means[k, 0], em.covariances[k, 0, 0], k,
                ),
                rel=1e-11,
            )

    def test_rho_chunking_invariant(self, monkeypatch):
        _, data, _, model0 = make_instance(72, d=2, k=2, n=600)
        resp = responsibilities(model0, data)
        em = em_m_step(resp, data)

        def rho_at_width(width):
            # block_width(2) is _BLOCK_BYTES // 16 columns
            monkeypatch.setattr(semgmm.model, "_BLOCK_BYTES", 16 * width)
            assert len(column_blocks(600, 2)) == -(-600 // width)
            return compute_rho(resp, data, em.means, em.covariances)

        big = rho_at_width(10_000)
        small = rho_at_width(7)
        np.testing.assert_allclose(big, small, rtol=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 10])
    @pytest.mark.parametrize("offset, scale", [(0.0, 1.0), (1e6, 1.0), (0.0, 1e-6)])
    def test_match_array_oracles(self, d, offset, scale):
        # the GEMV/GEMM kernels against the elementwise and explicit
        # outer-product formulas they replace, far from the origin and at
        # tiny scale as well
        rng = substream(87, d)
        n, k = 3000, 3
        pts = rng.normal(size=(n, d)) * (1.0 + rng.random(d))
        pts[: n // 3] += 2.0
        raw = rng.random((n, k)) + 0.05
        probs = raw / raw.sum(axis=1, keepdims=True)
        data = DataSet(pts * scale + offset)
        resp = from_probs(probs)
        em = em_m_step(resp, data)
        np.testing.assert_allclose(
            compute_tau(resp, data, em.means),
            elementwise_tau(probs, data.points, em.means),
            rtol=1e-10, atol=0,
        )
        np.testing.assert_allclose(
            compute_rho(resp, data, em.means, em.covariances),
            chunked_rho(probs, data.points, em.means, em.covariances),
            rtol=1e-10, atol=0,
        )

    def test_rho_symmetric(self):
        _, data, _, model0 = make_instance(73, d=3, k=2, n=400)
        resp = responsibilities(model0, data)
        em = em_m_step(resp, data)
        rho = compute_rho(resp, data, em.means, em.covariances)
        np.testing.assert_allclose(rho, np.swapaxes(rho, 1, 2), rtol=1e-12)


@pytest.fixture
def rho_calls(monkeypatch):
    """Records each call of the module-level compute_rho, which is what
    BoundReport calls when rho is first needed."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return compute_rho(*args, **kwargs)

    monkeypatch.setattr(semgmm.bounds, "compute_rho", counting)
    return calls


class TestAssembleBounds:
    def test_matches_scalar_oracle_report(self):
        rng = substream(74)
        pts = rng.normal(size=40)
        raw = rng.random((40, 2)) + 0.05
        probs = raw / raw.sum(axis=1, keepdims=True)
        data = DataSet(pts[:, None])
        resp = from_probs(probs)
        delta = 0.05
        report = assemble_bounds(resp, data, delta)
        oracle = scalar_bound_report(pts.tolist(), probs.tolist(), delta)
        for k, (wb, mb, cb, applicable) in enumerate(oracle):
            assert report.weight_bound[k] == pytest.approx(wb, rel=1e-10)
            assert bool(report.applicable[k]) == applicable
            if applicable:
                assert report.mean_bound[k, 0] == pytest.approx(mb, rel=1e-10)
                assert report.cov_bound[k, 0, 0] == pytest.approx(cb, rel=1e-10)

    def test_rho_computed_on_first_access(self, rho_calls):
        _, data, _, model0 = make_instance(75, d=3, k=2, n=5000)
        resp = responsibilities(model0, data)
        em = em_m_step(resp, data)
        report = assemble_bounds(resp, data, 0.05)
        assert np.isfinite(report.mean_bound_euclid).all()
        assert rho_calls == []
        cov_bound = report.cov_bound
        assert report.cov_bound is cov_bound
        np.testing.assert_array_equal(
            report.rho, compute_rho(resp, data, em.means, em.covariances)
        )
        assert len(rho_calls) == 1

    def test_em_model_computed_on_first_access(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return em_m_step(*args, **kwargs)

        monkeypatch.setattr(semgmm.bounds, "em_m_step", counting)
        _, data, _, model0 = make_instance(75, d=3, k=2, n=5000)
        resp = responsibilities(model0, data)
        report = assemble_bounds(resp, data, 0.05)
        assert calls == []
        assert report.rho.shape == (2, 3, 3)
        assert len(calls) == 1
        assert report.cov_bound.shape == (2, 3, 3)
        assert len(calls) == 1
        em = em_m_step(resp, data)
        assert np.array_equal(report.em_means, em.means)
        for name in ("weights", "means", "covariances"):
            assert np.array_equal(getattr(report.em_model, name), getattr(em, name))

    def test_zero_mass_component_raises_degeneracy(self):
        # the EM means are taken before lambda_weight sees r_k = 0
        data = DataSet(np.linspace(0.0, 1.0, 6)[:, None])
        resp = from_probs(np.column_stack([np.ones(6), np.zeros(6)]))
        with pytest.raises(DegeneracyError, match="component 1"):
            assemble_bounds(resp, data, 0.05)

    def test_inapplicable_marked_nan(self):
        # tiny responsibility mass: hypothesis 2 e^{-r/3} <= delta fails
        data = DataSet(np.linspace(0.0, 1.0, 6)[:, None])
        probs = np.column_stack([np.full(6, 0.99), np.full(6, 0.01)])
        resp = from_probs(probs)
        report = assemble_bounds(resp, data, 0.01)
        assert not report.applicable[1]
        assert np.isnan(report.mean_bound[1]).all()
        assert np.isnan(report.cov_bound[1]).all()
        assert np.isfinite(report.weight_bound[1])

    def test_euclid_norm_consistent(self):
        _, data, _, model0 = make_instance(75, d=3, k=2, n=5000)
        resp = responsibilities(model0, data)
        report = assemble_bounds(resp, data, 0.05)
        for k in range(2):
            if report.applicable[k]:
                assert report.mean_bound_euclid[k] == pytest.approx(
                    math.sqrt((report.mean_bound[k] ** 2).sum()), rel=1e-12
                )

    def test_bounds_shrink_with_more_data(self):
        # the relative weight bound scales like 1/sqrt(r): 4x the data should
        # roughly halve it
        reports = {}
        for n in (1000, 4000):
            data = DataSet(substream(76, n).normal(size=(n, 1)))
            resp = half_half_resp(n)
            reports[n] = assemble_bounds(resp, data, 0.05)
        ratio = reports[1000].lambda_w[0] / reports[4000].lambda_w[0]
        assert ratio == pytest.approx(2.0, rel=1e-12)


@pytest.fixture(scope="module")
def half_half_case():
    rng = substream(77)
    n = 1000
    data = DataSet(rng.normal(size=(n, 1)))
    return data, half_half_resp(n)


class TestMonteCarloViolationRate:
    def test_weight_rate_below_delta(self, half_half_case):
        data, resp = half_half_case
        rep = monte_carlo_violation_rate(
            resp, data, 0.05, 2000, substream(78), "weights"
        )
        assert rep.which == "weights"
        assert (rep.conditioning_rate == 1.0).all()
        assert (rep.violation_rate <= 0.05 + 0.02).all()

    def test_mean_rate_below_delta(self, half_half_case):
        data, resp = half_half_case
        rep = monte_carlo_violation_rate(
            resp, data, 0.05, 2000, substream(79), "means"
        )
        assert (rep.conditioning_rate > 0.9).all()
        assert (rep.violation_rate <= 0.05 + 0.02).all()

    def test_cov_rate_below_delta(self, half_half_case):
        data, resp = half_half_case
        rep = monte_carlo_violation_rate(
            resp, data, 0.05, 2000, substream(80), "covariances"
        )
        assert (rep.conditioning_rate > 0.9).all()
        assert (rep.violation_rate <= 0.05 + 0.02).all()

    def test_reproducible_across_batching(self, half_half_case):
        data, resp = half_half_case
        a = monte_carlo_violation_rate(
            resp, data, 0.05, 1000, substream(81), "weights", batch=64
        )
        b = monte_carlo_violation_rate(
            resp, data, 0.05, 1000, substream(81), "weights", batch=1000
        )
        np.testing.assert_array_equal(a.violation_rate, b.violation_rate)

    def test_cov_rate_invariant_to_offset(self):
        # second moments of the sampled update are taken about its own mean,
        # so a 1e8 offset must not change which covariance bounds hold
        x = substream(84).normal(size=(1000, 2))
        resp = half_half_resp(1000)
        rates = [
            monte_carlo_violation_rate(
                resp, DataSet(pts), 0.5, 1000, substream(85), "covariances"
            ).violation_rate
            for pts in (x, x + 1e8)
        ]
        assert np.isfinite(rates[0]).all()
        np.testing.assert_allclose(rates[1], rates[0], atol=0.01)

    def test_inapplicable_components_not_conditioned(self):
        # the fixture of test_inapplicable_marked_nan: no mean bound exists,
        # so no trial may count as a violation of one
        data = DataSet(np.linspace(0.0, 1.0, 6)[:, None])
        resp = from_probs(np.column_stack([np.full(6, 0.99), np.full(6, 0.01)]))
        rep = monte_carlo_violation_rate(resp, data, 0.01, 1000, substream(86), "means")
        assert np.isnan(rep.violation_rate).all()
        assert (rep.conditioning_rate == 0.0).all()

    @pytest.mark.parametrize("which, calls", [
        ("weights", 0), ("means", 0), ("covariances", 1),
    ])
    def test_rho_only_for_covariances(self, half_half_case, rho_calls, which, calls):
        data, resp = half_half_case
        monte_carlo_violation_rate(resp, data, 0.05, 1000, substream(88), which)
        assert len(rho_calls) == calls

    @pytest.mark.parametrize("which, offset, scale", [
        pytest.param(which, offset, scale, id=which + label)
        for offset, scale, label in [(0.0, 1.0, ""), (1e6, 1.0, "-offset-1e6"),
                                     (0.0, 1e-6, "-scale-1e-6")]
        for which in ["weights", "means", "covariances"]
    ])
    def test_rates_match_per_trial_oracle(self, which, offset, scale):
        # a loose budget, so that weight and mean bounds break on some trials;
        # the covariance bounds hold throughout, but their conditioning on
        # the mean bounds fails on some.  The responsibilities are those of
        # the plain data, so the moved data sets pose the same problem
        _, data, _, model0 = make_instance(89, d=3, k=3, n=600)
        resp = responsibilities(model0, data)
        data = DataSet(data.points * scale + offset)
        rep = monte_carlo_violation_rate(resp, data, 0.9, 1000, substream(90), which)
        rate, cond = per_trial_violation_rates(
            assemble_bounds(resp, data, 0.9), 1000, substream(90), which
        )
        if which == "covariances":
            assert (rep.conditioning_rate < 1.0).any()
        else:
            assert np.nansum(rep.violation_rate) > 0
        np.testing.assert_array_equal(rep.violation_rate, rate)
        np.testing.assert_array_equal(rep.conditioning_rate, cond)

    @pytest.mark.parametrize("case", ["half-half", "d3k3"])
    def test_shrunk_cov_bound_is_violated(self, half_half_case, monkeypatch, case):
        # negative control: the covariance bounds are never violated on these
        # inputs, so a validator that cannot see violations would pass too;
        # with every bound 1000 times tighter, the rate must exceed delta
        # wherever the conditioning event occurs
        exact = BoundReport.cov_bound
        monkeypatch.setattr(
            BoundReport, "cov_bound", property(lambda rep: exact.__get__(rep) * 1e-3)
        )
        if case == "half-half":
            (data, resp), delta = half_half_case, 0.05
        else:
            _, data, _, model0 = make_instance(89, d=3, k=3, n=600)
            resp, delta = responsibilities(model0, data), 0.5
        rep = monte_carlo_violation_rate(
            resp, data, delta, 1000, substream(92), "covariances"
        )
        conditioned = rep.conditioning_rate > 0
        assert conditioned.all()
        assert (rep.violation_rate[conditioned] > delta).all()

    def test_means_target_takes_no_covariances(self, half_half_case, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("hard_params called for the means target")

        monkeypatch.setattr(semgmm.bounds, "hard_params", refuse)
        data, resp = half_half_case
        rep = monte_carlo_violation_rate(resp, data, 0.05, 1000, substream(91), "means")
        assert (rep.conditioning_rate > 0.9).all()

    def test_rejects_few_trials(self, half_half_case):
        data, resp = half_half_case
        with pytest.raises(ValueError, match="1000"):
            monte_carlo_violation_rate(
                resp, data, 0.05, 999, substream(82), "weights"
            )

    def test_rejects_unknown_target(self, half_half_case):
        data, resp = half_half_case
        with pytest.raises(ValueError, match="target"):
            monte_carlo_violation_rate(
                resp, data, 0.05, 1000, substream(83), "variances"
            )
