"""Posterior responsibilities, the common first step of both algorithms."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DataError, DataSet, MixtureModel, component_log_joint

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ResponsibilityMatrix:
    """N x K posterior matrix p_nk plus cached column sums r_k.

    Rows are probability vectors (each sums to 1); r_k = sum_n p_nk is the
    expected number of points owned by component k.  Column sums are
    p.sum(axis=0) over the C-order N x K array, which numpy accumulates row
    by row, not pairwise: at N = 1e7 a constant 0.1 column sums to 1.6e-10
    relative off the exact total.
    """

    probs: np.ndarray
    column_sums: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.probs, dtype=np.float64)
        if p.ndim != 2:
            raise DataError("responsibilities must be an N x K matrix")
        r = np.asarray(self.column_sums, dtype=np.float64)
        p.setflags(write=False)
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "column_sums", r)

    def check(self) -> str | None:
        """Re-verify the invariants; returns the first violation or None."""
        p = self.probs
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
    """Wrap an untrusted row-stochastic matrix, validating the invariants."""
    p = np.ascontiguousarray(probs, dtype=np.float64)
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
    the division that turns it into responsibilities.
    """
    lj = component_log_joint(model, data)
    m = lj.max(axis=1)
    if not np.isfinite(m).all():
        row = int(np.argmin(np.isfinite(m)))
        raise DataError(
            f"row {row}: point is infinitely unlikely under every component"
        )
    lj -= m[:, None]
    return np.exp(lj, out=lj)


def responsibilities(model: MixtureModel, data: DataSet) -> ResponsibilityMatrix:
    """Posterior p_nk = w_k N(x_n|mu_k, Sigma_k) / sum_j w_j N(x_n|mu_j, Sigma_j).

    Computed row-wise in log-space: the per-row log numerators are shifted by
    their maximum before exponentiation (posterior_weights), and rows are
    renormalized exactly by the final division.  Mandatory for
    high-dimensional data where direct densities underflow.
    """
    p = posterior_weights(model, data)
    p /= p.sum(axis=1, keepdims=True)
    return ResponsibilityMatrix(p, p.sum(axis=0))
