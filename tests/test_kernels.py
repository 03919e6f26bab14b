"""The coordinate-major kernels against the direct formulas of
tests/oracles.py, on plain data, far from the origin and at tiny scale; the
column-blocked kernels against their unblocked formulas at and around the
block boundaries; the storage layout of every way a DataSet is built; and a
bound on the memory a round and a bound evaluation allocate."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgmm import (
    DataSet,
    GenSpec,
    MixtureModel,
    SemConfig,
    assemble_bounds,
    em_m_step,
    generate_mixture,
    initialize,
    load_csv,
    normalize,
    responsibilities,
    sample_assignment,
    sample_dataset,
    save_csv,
)
from semgmm.bounds import compute_rho, compute_tau
from semgmm.em import DEGENERATE_FRACTION, _em_params, em_means, em_round
from semgmm.estep import from_probs, posterior_weights
from semgmm.model import (
    _BLOCK_BYTES,
    block_width,
    column_blocks,
    component_log_joint,
    hard_params,
    normalized_joint,
)
from semgmm.rng import substream
from semgmm.sem import sem_round

from conftest import make_instance
from oracles import (
    chunked_rho,
    full_log_joint,
    full_tau,
    gaussian_log_density,
    masked_mle,
    row_cdf_labels,
    shifted_exp,
    weighted_mle,
)

EPS = np.finfo(np.float64).eps

SHIFTS = pytest.mark.parametrize(
    "offset, scale", [(0.0, 1.0), (1e6, 1.0), (0.0, 1e-6)],
    ids=["plain", "offset-1e6", "scale-1e-6"],
)
DIMS = pytest.mark.parametrize("d", [3, 10])


def shifted_instance(seed, d, offset, scale, n=3000, k=3):
    """A soft mixture draw of n points and its generating model, moved by
    `offset` and scaled by `scale` in every coordinate."""
    truth = generate_mixture(GenSpec(d=d, k=k, n=d + 1, rng_seed=seed), substream(seed, 0))
    data, labels = sample_dataset(truth, n, substream(seed, 1))
    moved = MixtureModel(
        truth.weights, truth.means * scale + offset, truth.covariances * scale**2
    )
    return DataSet(data.points * scale + offset), moved, labels


def check_log_joint(d, offset, scale, n=3000):
    data, model, _ = shifted_instance(91, d, offset, scale, n=n)
    lj = component_log_joint(model, data)
    # centring by a product with the inverse factor loses about
    # eps * offset / scale per coordinate, which the squared norm doubles
    atol = 1e3 * EPS * (1.0 + abs(offset) / scale)
    for k in range(model.k):
        expected = math.log(model.weights[k]) + gaussian_log_density(
            model.means[k], model.chol[k], data.points
        )
        np.testing.assert_allclose(lj[:, k], expected, rtol=1e-12, atol=atol)


def vanishing_weights(probs):
    """probs with component 0's entries on every other row replaced by exact
    zeros, subnormals (5e-324) and 1e-300 in turn, their mass moved to
    component 1; the other rows keep their ordinary entries."""
    p = probs.copy()
    rows = np.arange(0, p.shape[0], 2)
    tiny = np.resize([0.0, 5e-324, 1e-300], rows.size)
    p[rows, 1] = np.minimum(p[rows, 1] + (p[rows, 0] - tiny), 1.0)
    p[rows, 0] = tiny
    return p


def em_params_of(d, offset, scale, n, vanishing):
    """_em_params on the responsibilities of shifted_instance(92, ...),
    raising any RuntimeWarning, with the data set and responsibilities."""
    data, model, _ = shifted_instance(92, d, offset, scale, n=n)
    resp = responsibilities(model, data)
    if vanishing:
        resp = from_probs(vanishing_weights(resp.probs))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        partial, degenerate = _em_params(resp, data)
    return partial, degenerate, data, resp


def check_em_params(d, offset, scale, n=3000, cov_slack=0.0, vanishing=False):
    partial, degenerate, data, resp = em_params_of(d, offset, scale, n, vanishing)
    means, covs = weighted_mle(resp.probs, data.points)
    assert degenerate == []
    np.testing.assert_allclose(
        partial.means, means, rtol=0, atol=1e3 * EPS * (abs(offset) + 10 * scale)
    )
    np.testing.assert_allclose(
        partial.covariances, covs, rtol=1e4 * EPS, atol=1e4 * EPS * scale**2 + cov_slack
    )


def check_hard_params(d, offset, scale, n=3000, cov_slack=0.0):
    data, model, _ = shifted_instance(93, d, offset, scale, n=n)
    assign = sample_assignment(responsibilities(model, data), substream(93, 2))
    hard = hard_params(assign, data)
    means, covs = masked_mle(data.points, assign.labels, assign.k)
    np.testing.assert_allclose(
        hard.means, means, rtol=0, atol=1e3 * EPS * (abs(offset) + 10 * scale)
    )
    np.testing.assert_allclose(
        hard.covariances, covs, rtol=1e4 * EPS, atol=1e4 * EPS * scale**2 + cov_slack
    )


@DIMS
@SHIFTS
class TestAgainstOracles:
    def test_log_joint(self, d, offset, scale):
        check_log_joint(d, offset, scale)

    def test_em_m_step(self, d, offset, scale):
        check_em_params(d, offset, scale)

    def test_em_m_step_vanishing_weights(self, d, offset, scale):
        check_em_params(d, offset, scale, vanishing=True)

    def test_em_means_bit_for_bit(self, d, offset, scale):
        data, model, labels = shifted_instance(92, d, offset, scale)
        soft = responsibilities(model, data)
        one_hot = from_probs(np.eye(model.k)[labels])
        for resp in (soft, one_hot):
            assert np.array_equal(em_means(resp, data), em_m_step(resp, data).means)

    def test_hard_params(self, d, offset, scale):
        check_hard_params(d, offset, scale)


def check_tau(d, offset, scale, n=3000):
    data, model, _ = shifted_instance(98, d, offset, scale, n=n)
    resp = responsibilities(model, data)
    np.testing.assert_allclose(
        compute_tau(resp, data, model.means),
        full_tau(resp.probs, data.points, model.means),
        rtol=1e-13, atol=0,
    )


CHECKS = [check_log_joint, check_em_params, check_hard_params, check_tau]
COV_CHECKS = (check_em_params, check_hard_params)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__[6:])
@given(
    d=st.sampled_from([3, 10]),
    offset=st.floats(-1e6, 1e6),
    scale=st.floats(-6.0, 3.0).map(lambda e: 10.0**e),
)
@settings(max_examples=25, deadline=None)
def test_oracles_at_drawn_offset_and_scale(check, d, offset, scale):
    # offsets up to 1e6 on either side of the origin and scales log-uniform
    # from 1e-6 to 1e3, on 500 points; a covariance centred on a mean that
    # is off by the means' tolerance, 1e3 eps |offset|, is off by its square
    slack = {"cov_slack": (1e3 * EPS * offset) ** 2} if check in COV_CHECKS else {}
    check(d, offset, scale, n=500, **slack)


#: point counts at and around the block boundaries, from the block width B
EDGES = {
    "1": lambda b: 1,
    "B-1": lambda b: b - 1,
    "B": lambda b: b,
    "B+1": lambda b: b + 1,
    "3B+7": lambda b: 3 * b + 7,
}


def blocked_instance(seed, d, edge, offset=0.0, scale=1.0):
    """shifted_instance with K = D components, so the log-joint's and the
    sampler's blocks have the same width B, and EDGES[edge](B) points."""
    n = EDGES[edge](block_width(d))
    data, model, _ = shifted_instance(seed, d, offset, scale, n=n, k=d)
    return data, model


def centred_instance(seed, d, k, edge, offset, scale):
    """shifted_instance with K components and EDGES[edge](B) points, for the
    width B of model.centred_blocks, whose buffer holds 2D rows."""
    n = EDGES[edge](block_width(2 * d))
    data, model, _ = shifted_instance(seed, d, offset, scale, n=n, k=k)
    return data, model


def check_blocked_tau(d, k, edge, offset, scale):
    data, model = centred_instance(98, d, k, edge, offset, scale)
    resp = responsibilities(model, data)
    np.testing.assert_allclose(
        compute_tau(resp, data, model.means),
        full_tau(resp.probs, data.points, model.means),
        rtol=1e-13, atol=0,
    )


def check_blocked_rho(d, k, edge, offset, scale):
    data, model = centred_instance(99, d, k, edge, offset, scale)
    resp = responsibilities(model, data)
    np.testing.assert_allclose(
        compute_rho(resp, data, model.means, model.covariances),
        chunked_rho(resp.probs, data.points, model.means, model.covariances),
        rtol=1e-10, atol=0,
    )


def test_column_blocks_cover_evenly():
    for rows in (1, 3, 10, 1000, 50_000):
        b = block_width(rows)
        assert b == 4 or rows * b * 8 <= _BLOCK_BYTES < rows * (b + 1) * 8
        assert column_blocks(0, rows) == []
        for n in (1, b - 1, b, b + 1, 3 * b + 7):
            blocks = column_blocks(n, rows)
            widths = [c.stop - c.start for c in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == c.start for a, c in zip(blocks, blocks[1:]))
            assert len(blocks) == -(-n // b)
            assert max(widths) == widths[0] <= b
            assert max(widths) - min(widths) <= 1
            assert n == 1 or min(widths) >= 2


@DIMS
@pytest.mark.parametrize("edge", EDGES)
class TestBlockedKernels:
    def test_log_joint_and_estep_bit_for_bit(self, d, edge):
        data, model = blocked_instance(96, d, edge)
        expected = full_log_joint(model, data)
        assert np.array_equal(component_log_joint(model, data).T, expected)
        q, s, loglik = normalized_joint(model, data)
        eq, es, eloglik = shifted_exp(expected)
        assert np.array_equal(q, eq)
        assert np.array_equal(s, es)
        assert loglik == eloglik

    def test_sampled_labels_bit_for_bit(self, d, edge):
        data, model = blocked_instance(97, d, edge)
        weights = posterior_weights(model, data)
        for resp in (weights, responsibilities(model, data)):
            labels = sample_assignment(resp, substream(97, 3)).labels
            probs = getattr(resp, "probs", resp)
            assert np.array_equal(labels, row_cdf_labels(probs, substream(97, 3)))

    @SHIFTS
    def test_tau(self, d, edge, offset, scale):
        check_blocked_tau(d, d, edge, offset, scale)

    @SHIFTS
    @pytest.mark.parametrize("vanishing", [False, True], ids=["soft", "vanishing"])
    def test_em_params(self, d, edge, offset, scale, vanishing):
        # N at and around the EM M-step's own block width, whose buffer
        # holds 2D rows
        n = EDGES[edge](block_width(2 * d))
        if n > 1:
            check_em_params(d, offset, scale, n=n, vanishing=vanishing)
            return
        # one point has no scatter, so no covariance can be estimated from
        # it; every live component's mean is still the point
        partial, degenerate, data, resp = em_params_of(d, offset, scale, 1, vanishing)
        live = resp.column_sums >= DEGENERATE_FRACTION * data.n
        assert degenerate and live.any()
        np.testing.assert_allclose(
            partial.means[live], np.repeat(data.points, live.sum(), axis=0),
            rtol=0, atol=1e3 * EPS * (abs(offset) + 10 * scale),
        )

    @SHIFTS
    def test_rho(self, d, edge, offset, scale):
        check_blocked_rho(d, d, edge, offset, scale)


@pytest.mark.parametrize("edge", EDGES)
@SHIFTS
def test_tau_and_rho_with_more_components_than_rows(edge, offset, scale):
    # D1 K3: K exceeds the 2D rows of centred_blocks' buffer, so a block
    # rule sized by K would cut these blocks elsewhere
    check_blocked_tau(1, 3, edge, offset, scale)
    check_blocked_rho(1, 3, edge, offset, scale)


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


#: a round, a bound evaluation or a K = 1 initialisation may allocate at
#: most this many N x max(D, K) float64 arrays at once; measured at
#: D10/K10/N1e5: em_round 1.30, em_m_step 0.073, sem_round 1.30,
#: assemble_bounds 0.066, cov_bound 0.074 (with rho), initialize_k1 0.068,
#: so one more full-size copy in any of them fails.  em_m_step is measured
#: on given responsibilities, so that it counts the M-step alone; cov_bound
#: is measured after the report's EM update has been computed, so that it
#: counts rho and the bound algebra alone; initialize_k1 seeds its one
#: component's covariance from the data's mean squared distance to its mean
PEAK_ARRAYS = {
    "em_round": 1.5,
    "em_m_step": 0.5,
    "sem_round": 2.0,
    "assemble_bounds": 1.0,
    "cov_bound": 1.0,
    "initialize_k1": 0.25,
}


def test_peak_memory_of_a_round_and_a_bound():
    _, data, _, model0 = make_instance(95, d=10, k=10, n=100_000)
    resp = responsibilities(model0, data)
    report = assemble_bounds(resp, data, 0.01)
    assert report.em_model.k == model0.k
    cfg = SemConfig(rng_seed=95)
    unit = data.n * max(data.d, model0.k) * 8
    calls = {
        "em_round": lambda: em_round(model0, data, cfg, 0),
        "em_m_step": lambda: em_m_step(resp, data),
        "sem_round": lambda: sem_round(model0, data, cfg, 0),
        "assemble_bounds": lambda: assemble_bounds(resp, data, 0.01),
        "cov_bound": lambda: report.cov_bound,
        "initialize_k1": lambda: initialize(data, 1, substream(95, 4)),
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
    assert all(peaks[name] < PEAK_ARRAYS[name] * unit for name in calls), (peaks, unit)
