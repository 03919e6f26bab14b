"""Deterministic EM: the expectation-weighted M-step and iteration driver."""
from __future__ import annotations

import numpy as np

from .estep import ResponsibilityMatrix, responsibilities
from .model import (
    Assignment,
    DataError,
    DataSet,
    DegeneracyError,
    MixtureModel,
    PartialParams,
    cholesky_screen,
    column_blocks,
    hard_means,
    hard_params,
)
from .rng import substream
from .rounds import SemConfig, finalize_model, fit_rounds, ridge_repair

#: a component whose responsibility mass falls below this fraction of N is degenerate
DEGENERATE_FRACTION = 1e-12
_DEGENERATE_MESSAGE = "zero responsibility mass (or unrepairable covariance)"


def _is_hard(p: np.ndarray) -> bool:
    """True when every responsibility is exactly 0 or 1 (cheap early exit on
    the leading rows, since soft matrices are the common case)."""
    head = p[:256]
    if not np.all((head == 0.0) | (head == 1.0)):
        return False
    return bool(np.all((p == 0.0) | (p == 1.0)))


def _live(resp: ResponsibilityMatrix, data: DataSet) -> np.ndarray:
    """Per component, whether its responsibility mass is large enough to
    estimate it; rejects responsibilities of another data set's length."""
    if resp.n != data.n:
        raise DataError("responsibilities and data disagree on N")
    return resp.column_sums >= DEGENERATE_FRACTION * data.n


def _weighted_means(resp: ResponsibilityMatrix, data: DataSet, live: np.ndarray) -> np.ndarray:
    """K x D responsibility-weighted means, NaN where not live, from one
    D x N by N x K product (a matrix-vector product over N per component
    rounds differently at different BLAS thread counts; this one does not)."""
    sums = (data.points.T @ resp.probs).T
    means = np.full(sums.shape, np.nan)
    means[live] = sums[live] / resp.column_sums[live, None]
    return means


def em_means(resp: ResponsibilityMatrix, data: DataSet) -> np.ndarray:
    """K x D means of the expectation-weighted update, without its
    covariances.

    Bit for bit the means of em_m_step(resp, data): one-hot responsibilities
    take hard_means, soft ones the same _weighted_means.  A
    component with (near) zero responsibility mass raises as em_m_step
    does; a covariance that em_m_step could not repair does not.
    """
    live = _live(resp, data)
    if not live.all():
        raise DegeneracyError(int(np.argmin(live)), _DEGENERATE_MESSAGE)
    p = resp.probs
    if _is_hard(p):
        return hard_means(Assignment(p.argmax(axis=1), p.shape[1]), data)
    return _weighted_means(resp, data, live)


def _em_params(
    resp: ResponsibilityMatrix, data: DataSet
) -> tuple[PartialParams, list[int]]:
    """Raw M-step parameters plus the list of components needing repair.

    When every responsibility is 0 or 1 the expectation-weighted update
    coincides with the hard-assignment MLE, and it is computed by the
    stochastic algorithm's own hard_params, so the two algorithms agree bit
    for bit in that case.

    The weighted scatter sum_n p_nk (x_n - mu_k)(x_n - mu_k)^T is w y^T,
    with y the centred coordinate rows and w = p_k y.  It is summed over
    the column blocks of the points: per block and live component, one
    general product (GEMM, all D^2 entries) of the two D-row halves of one
    reused 2D x B buffer, so the M-step holds no D x N temporary.
    """
    live = _live(resp, data)
    p = resp.probs
    r = resp.column_sums
    k_total = p.shape[1]
    if _is_hard(p):
        hard = hard_params(Assignment(p.argmax(axis=1), k_total), data)
        means, covs = hard.means, hard.covariances
    else:
        means = _weighted_means(resp, data, live)
        xt = data.points.T
        d = data.d
        alive = np.flatnonzero(live)
        scatter = np.zeros((k_total, d, d))
        # y and w = p_k y share one reused block of 2D rows
        blocks = column_blocks(data.n, 2 * d)
        buf = np.empty(2 * d * blocks[0].stop)
        for cols in blocks:
            y, w = buf[: 2 * d * (cols.stop - cols.start)].reshape(2, d, -1)
            x = xt[:, cols]
            for k in alive:
                np.subtract(x, means[k][:, None], out=y)
                np.multiply(y, p[cols, k], out=w)
                scatter[k] += w @ y.T
        covs = np.full((k_total, d, d), np.nan)
        cov = scatter[alive] / r[alive, None, None]
        covs[alive] = 0.5 * (cov + cov.transpose(0, 2, 1))
    # a covariance narrower than the data's rounding resolution, eps times
    # its largest spread, is a point mass: a ridge scaled to it cannot widen
    # it, and its inverse factor overflows the next E-step
    floor = data.d * (np.finfo(np.float64).eps * data.spread.max()) ** 2
    fit = live.copy()
    fit[live] = np.trace(covs[live], axis1=1, axis2=2) > floor
    # the fitted covariances that fail the screen are ridged, in ascending k
    for k in np.flatnonzero(fit)[cholesky_screen(covs[fit])[1]]:
        repaired = ridge_repair(covs[k])
        if repaired is None:
            fit[k] = False
        else:
            covs[k] = repaired
    return PartialParams(means, covs, r.astype(np.float64)), np.flatnonzero(~fit).tolist()


def em_m_step(resp: ResponsibilityMatrix, data: DataSet) -> MixtureModel:
    """One expectation-weighted parameter update.

    w_k = r_k/N, mu_k the responsibility-weighted mean, Sigma_k the
    responsibility-weighted covariance about the new mean (symmetrized, with
    ridge repair on factorization failure).  A component with (near) zero
    responsibility raises; callers that can repair should use em_fit.
    """
    partial, degenerate = _em_params(resp, data)
    if degenerate:
        raise DegeneracyError(degenerate[0], _DEGENERATE_MESSAGE)
    # finalize_model's weights: hard responsibilities match the hard M-step bit for bit
    return partial.mixture(data.n)


def em_round(
    model: MixtureModel, data: DataSet, cfg: SemConfig, t: int
) -> MixtureModel:
    """Round t of deterministic EM; degenerate components are repaired from
    the (cfg.rng_seed, t) repair stream."""
    resp = responsibilities(model, data)
    partial, degenerate = _em_params(resp, data)
    return finalize_model(partial, degenerate, data, model, substream(cfg.rng_seed, t, 2))


def em_fit(
    model0: MixtureModel,
    data: DataSet,
    rounds: int,
    repair_cfg: SemConfig | None = None,
) -> list[MixtureModel]:
    """Run deterministic EM for a fixed number of rounds, returning the trajectory.

    Stopping is by round count only.  Degenerate components are repaired with
    the same machinery as the stochastic algorithm; the repair stream is
    derived from repair_cfg.rng_seed so the run stays reproducible.
    """
    cfg = repair_cfg if repair_cfg is not None else SemConfig()
    return list(fit_rounds(em_round, model0, data, rounds, cfg))
