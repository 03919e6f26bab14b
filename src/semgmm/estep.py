"""Posterior responsibilities, the common first step of both algorithms."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# component_log_joint is re-exported: callers that trace or patch the
# E-step's log-joint look it up here as well as in model
from .model import DataError, DataSet, MixtureModel, component_log_joint, normalized_joint

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ResponsibilityMatrix:
    """N x K posterior matrix p_nk plus cached column sums r_k.

    Rows are probability vectors (each sums to 1); r_k = sum_n p_nk is the
    expected number of points owned by component k.  `probs` keeps the
    layout it is given.  The E-step stores it component-major: `probs` is
    the N x K transposed view of a contiguous K x N buffer, so each
    component's column p[:, k] is contiguous and its sum r_k is a pairwise
    sum (at N = 1e7 a constant 0.1 column is exact, where a row-by-row sum
    is 1.6e-10 relative off).
    """

    probs: np.ndarray
    column_sums: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2:
            raise DataError("responsibilities must be an N x K matrix")
        r = np.asarray(self.column_sums, dtype=np.float64)
        # freeze a view, so the caller's own array stays writeable
        p = p.view()
        p.setflags(write=False)
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "column_sums", r)

    def check(self) -> str | None:
        """Re-verify the invariants; returns the first violation or None."""
        p = self.probs
        if not np.isfinite(p).all():
            return "responsibilities contain non-finite values"
        if (p < 0).any() or (p > 1).any():
            return "responsibilities outside [0, 1]"
        row_err = np.abs(p.sum(axis=1) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            return f"a responsibility row sums to 1 +/- {row_err:g}"
        if np.abs(self.column_sums - p.sum(axis=0)).max() > 1e-9 * p.shape[0]:
            return "column_sums disagree with probs"
        return None

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def k(self) -> int:
        return self.probs.shape[1]


def from_probs(probs: np.ndarray) -> ResponsibilityMatrix:
    """Wrap an untrusted row-stochastic matrix, validating the invariants.

    The copy is stored component-major, as the E-step stores its own.
    """
    p = np.array(probs, dtype=np.float64, order="F")
    resp = ResponsibilityMatrix(p, p.sum(axis=0))
    problem = resp.check()
    if problem is not None:
        raise DataError(problem)
    return resp


def posterior_weights(model: MixtureModel, data: DataSet) -> np.ndarray:
    """Unnormalized posterior rows exp(ln w_k N(x_n|mu_k, Sigma_k) - m_n).

    m_n is the row maximum of the log numerators, so every row's largest
    entry is exactly 1 and no row underflows to all zeros.  A row is
    proportional to the posterior; samplers draw from it directly, without
    the division that turns it into responsibilities.  The N x K result is
    the transposed view of model.normalized_joint's K x N buffer.
    """
    return normalized_joint(model, data)[0].T


def responsibilities(model: MixtureModel, data: DataSet) -> ResponsibilityMatrix:
    """Posterior p_nk = w_k N(x_n|mu_k, Sigma_k) / sum_j w_j N(x_n|mu_j, Sigma_j).

    Computed in log-space: each point's log numerators are shifted by their
    maximum before exponentiation (model.normalized_joint), and the
    posteriors are renormalized exactly by the final division.  Mandatory
    for high-dimensional data where direct densities underflow.
    """
    q, s, _ = normalized_joint(model, data)
    q /= s
    return ResponsibilityMatrix(q.T, q.sum(axis=1))
