"""Core domain types: data sets, Gaussian mixture models, hard assignments
and their per-label statistics (hard_params, hard_means).

All types but PartialParams, the parameters mid-M-step, are immutable after
construction and safe for concurrent reads; the one field written later, a
model's log-likelihood memo, is replaced in a single assignment of the same
value for the same data set.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))

#: tolerance for the weight-sum invariant after renormalization
WEIGHT_SUM_TOL = 1e-12
#: construction tolerates this much accumulated drift in the weight sum
WEIGHT_DRIFT_TOL = 1e-9
#: symmetry tolerance for covariance matrices
SYMMETRY_TOL = 1e-12
#: bytes of one block of a blocked kernel's widest temporary; a few of them
#: stay in a core's L2 where full-size N-column temporaries stream through
#: memory and are page-faulted afresh on most calls
_BLOCK_BYTES = 512 * 1024


class DataError(ValueError):
    """Malformed input data: bad files, non-finite values, dimension mismatch."""


class InvalidModelError(ValueError):
    """Mixture parameters violate a model invariant."""


class DegeneracyError(RuntimeError):
    """A component became degenerate and could not be repaired."""

    def __init__(self, component: int, message: str):
        super().__init__(f"component {component}: {message}")
        self.component = component
        self.message = message

    def __reduce__(self):
        # args holds only the formatted text, so rebuild from both fields;
        # pickling and copying (as worker processes need) go through here
        return type(self), (self.component, self.message), self.__dict__


class DataSet:
    """An N x D observation matrix with cached per-coordinate spreads.

    Stored coordinate-major: `points` is the N x D transposed view of one
    contiguous, read-only D x N buffer, so each coordinate's row
    points.T[d] is contiguous and every kernel runs over rows of length N.
    Ragged rows and complex, string, bytes and object input are a DataError.
    A float64 input that is already F-contiguous is adopted without a copy;
    the caller's own array stays writeable.

    The spread of coordinate d is max_n (x_n)_d - min_n (x_n)_d; it is the
    scale unit for all proximity bounds and is computed lazily and cached.
    """

    def __init__(self, points):
        try:
            pts = np.asarray(points)
        except ValueError:
            raise DataError("points must be a rectangular array (ragged rows)") from None
        # a cast to float64 would drop an imaginary part or parse text
        if pts.dtype.kind not in "biuf":
            raise DataError(f"points must be real numbers, got dtype {pts.dtype}")
        pts = pts.astype(np.float64, copy=False)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise DataError(f"points must be a 2-d array, got ndim={pts.ndim}")
        n, d = pts.shape
        if n < 1 or d < 1:
            raise DataError(f"need N >= 1 and D >= 1, got N={n}, D={d}")
        coords = np.ascontiguousarray(pts.T).view()
        if not np.isfinite(coords).all():
            bad = np.argwhere(~np.isfinite(pts))[0]
            raise DataError(f"non-finite coordinate at row {bad[0]}, column {bad[1]}")
        coords.setflags(write=False)
        self.points = coords.T
        self.n = n
        self.d = d
        self._spread: np.ndarray | None = None

    @property
    def spread(self) -> np.ndarray:
        if self._spread is None:
            xt = self.points.T
            s = xt.max(axis=1) - xt.min(axis=1)
            s.setflags(write=False)
            self._spread = s
        return self._spread

    def __repr__(self):
        return f"DataSet(n={self.n}, d={self.d})"


def cholesky_screen(covs: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """The package's one Cholesky factorization: the lower factors of a
    K x D x D stack from one batched call, or None when some matrix is not
    positive definite, and the per-matrix failure mask.  Only when the
    batched call fails is each matrix factored alone, to find which."""
    failed = np.zeros(len(covs), dtype=bool)
    try:
        return np.linalg.cholesky(covs), failed
    except np.linalg.LinAlgError:
        for i, cov in enumerate(covs):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                failed[i] = True
    return None, failed


def _checked_factors(weights, means, covariances) -> tuple[str | None, np.ndarray | None]:
    """The first violated mixture invariant of raw arrays, or None together
    with the lower Cholesky factors of the covariances from cholesky_screen.
    Symmetry and positive definiteness are reported for the first failing
    component, symmetry first."""
    w = np.asarray(weights, dtype=np.float64)
    mu = np.asarray(means, dtype=np.float64)
    cov = np.asarray(covariances, dtype=np.float64)
    if w.ndim != 1:
        return "weights must be a 1-d sequence", None
    k = w.shape[0]
    if k < 1:
        return "need at least one component", None
    if mu.shape[0] != k or cov.shape[0] != k:
        return "weights, means and covariances disagree on K", None
    if mu.ndim != 2:
        return "means must be a K x D matrix", None
    d = mu.shape[1]
    if cov.shape != (k, d, d):
        return f"covariances must have shape ({k}, {d}, {d}), got {cov.shape}", None
    if not np.isfinite(w).all():
        return "weights contain non-finite values", None
    if not np.isfinite(mu).all():
        return "means contain non-finite values", None
    if not np.isfinite(cov).all():
        return "covariances contain non-finite values", None
    if (w <= 0).any():
        return f"weight {int(np.argmin(w))} is not positive", None
    if abs(w.sum() - 1.0) > WEIGHT_DRIFT_TOL:
        return f"weights sum != 1 (sum = {w.sum()!r})", None
    asymmetric = np.abs(cov - cov.transpose(0, 2, 1)).max(axis=(1, 2)) > SYMMETRY_TOL
    chol, failed = cholesky_screen(cov)
    bad = asymmetric | failed
    if bad.any():
        i = int(np.argmax(bad))
        kind = "symmetric" if asymmetric[i] else "positive definite"
        return f"covariance {i} is not {kind}", None
    return None, chol


class MixtureModel:
    """Gaussian mixture parameters (weights, means, covariances) for K components.

    Weights are renormalized to sum to 1 at construction (tolerating drift up
    to 1e-9; larger drift is rejected).  Each covariance must be symmetric and
    positive definite; its lower-triangular Cholesky factor and log-determinant
    are computed once and cached, since every downstream consumer needs them.
    Failure to factorize is an invariant violation, not a silent repair.
    """

    def __init__(self, weights, means, covariances):
        problem, chol = _checked_factors(weights, means, covariances)
        if problem is not None:
            raise InvalidModelError(problem)
        w = np.array(weights, dtype=np.float64)
        w /= w.sum()
        mu = np.array(means, dtype=np.float64)
        cov = np.array(covariances, dtype=np.float64)
        for a in (w, mu, cov, chol):
            a.setflags(write=False)
        self.k = w.shape[0]
        self.d = mu.shape[1]
        self.weights = w
        self.means = mu
        self.covariances = cov
        self.chol = chol
        log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        log_det.setflags(write=False)
        self.log_det = log_det
        # inverse transposed factor, for density evaluation over many points
        # with a single matrix product per component.  Built with numpy's
        # batched LAPACK: a call into scipy's separately linked BLAS here would
        # wake a second thread pool every round, whose spinning workers then
        # compete with numpy's GEMMs for the cores.
        prec_chol = np.ascontiguousarray(np.linalg.inv(chol).transpose(0, 2, 1))
        prec_chol.setflags(write=False)
        self.prec_chol = prec_chol
        # (weak reference to a DataSet, log-likelihood on it), written by
        # normalized_joint on every E-step and read by log_likelihood
        self._loglik = None

    def __getstate__(self):
        # a weak reference cannot be pickled; the memo is recomputed on demand
        return {**self.__dict__, "_loglik": None}

    def __repr__(self):
        return f"MixtureModel(k={self.k}, d={self.d})"


def validate(model: MixtureModel) -> str | None:
    """Re-check all MixtureModel invariants; return the first violation or None."""
    w = model.weights
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        return f"weights sum != 1 (sum = {w.sum()!r})"
    return _checked_factors(w, model.means, model.covariances)[0]


class Assignment:
    """A hard assignment of each point to one component (dense label encoding).

    `labels` holds 0-based component indices in the smallest unsigned type
    that holds K - 1, which lets group_order sort them by radix; `counts[k]`
    is the number of points assigned to component k and always sums to N.
    Both are read-only.  Integer labels are taken, and float labels that are
    whole numbers; labels of any other dtype are a DataError.
    """

    def __init__(self, labels, k: int):
        lab = np.asarray(labels)
        # a cast to int64 would truncate a fraction, drop an imaginary part or parse text
        if lab.dtype.kind == "f":
            if not (np.isfinite(lab) & (lab == np.trunc(lab))).all():
                raise DataError("labels must be whole numbers")
        elif lab.dtype.kind not in "iu":
            raise DataError(f"labels must be integers, got dtype {lab.dtype}")
        lab = lab.astype(np.int64, copy=False)
        if lab.ndim != 1:
            raise DataError("labels must be a 1-d sequence")
        if k < 1:
            raise DataError("need K >= 1")
        if lab.size and (lab.min() < 0 or lab.max() >= k):
            raise DataError(f"labels out of range [0, {k})")
        self._adopt(lab, np.bincount(lab, minlength=k))

    @classmethod
    def from_counts(cls, labels: np.ndarray, counts: np.ndarray) -> "Assignment":
        """The assignment of integer `labels` already known to lie in
        [0, K), with their per-label `counts` (K = len(counts)), as a sampler
        that counted while it labelled holds them.  Only the total is
        checked; a labels array of the small type is adopted without a copy.
        """
        if counts.ndim != 1 or counts.size < 1 or counts.sum() != labels.size:
            raise DataError("label counts do not sum to N")
        assign = cls.__new__(cls)
        assign._adopt(labels, counts)
        return assign

    def _adopt(self, labels: np.ndarray, counts: np.ndarray) -> None:
        k = counts.size
        lab = labels.astype(np.min_scalar_type(k - 1), copy=False)
        for a in (lab, counts):
            a.setflags(write=False)
        self.labels = lab
        self.k = k
        self.counts = counts
        self.n = lab.size


def group_order(assign: Assignment):
    """The stable order that groups points by label, and the offsets
    delimiting each component in it.

    Component k's points are order[offsets[k]:offsets[k+1]], in their
    original order: gathered with np.take they give the same values in the
    same order as a boolean mask labels == k, so per-component statistics
    match a masked gather bit for bit.  One stable sort of the small-integer
    labels replaces K boolean-mask passes.
    """
    order = np.argsort(assign.labels, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(assign.counts)))
    return order, offsets


@dataclass
class PartialParams:
    """Per-component parameters mid-M-step, before repair.

    Rows of `means`/`covariances` for components that could not be estimated
    are NaN; `counts` carries the (possibly fractional, for the deterministic
    algorithm) point mass behind each component.
    """

    means: np.ndarray
    covariances: np.ndarray
    counts: np.ndarray

    def mixture(self, n: int, repaired=()) -> MixtureModel:
        """The model of these parameters, once repaired, over N points: weights
        counts/N, or max(c_k, 1)/N for a repaired component k, renormalized once."""
        weights = self.counts / n
        for k in repaired:
            weights[k] = max(self.counts[k], 1.0) / n
        weights /= weights.sum()
        return MixtureModel(weights, self.means, self.covariances)


def _rows_mle(xc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and biased covariance of D coordinate rows, each contiguous.

    Two-pass: centre the rows in place on their freshly computed mean, then
    take one product, avoiding the catastrophic cancellation of
    E[xx^T] - mu mu^T.
    """
    mu = xc.mean(axis=1)
    xc -= mu[:, None]
    cov = xc @ xc.T / xc.shape[1]
    return mu, 0.5 * (cov + cov.T)


def _grouped(assign: Assignment, data: DataSet) -> tuple[np.ndarray, np.ndarray]:
    """The D x N coordinate rows gathered so that each label's points are
    contiguous and in their original order, and the offsets delimiting each
    label in them (group_order)."""
    if assign.n != data.n:
        raise DataError("assignment and data disagree on N")
    order, offsets = group_order(assign)
    return np.take(data.points.T, order, axis=1), offsets


def hard_means(assign: Assignment, data: DataSet) -> np.ndarray:
    """K x D per-label means of the points assigned to each component, NaN
    rows for empty components.

    The same mean of the same gathered rows as hard_params, so bit for bit
    hard_params(assign, data).means, without the covariances.
    """
    grouped, offsets = _grouped(assign, data)
    means = np.full((assign.k, data.d), np.nan)
    for k in np.flatnonzero(assign.counts):
        means[k] = grouped[:, offsets[k]:offsets[k + 1]].mean(axis=1)
    return means


def hard_params(assign: Assignment, data: DataSet) -> PartialParams:
    """Per-label Gaussian MLE: each component's mean and biased covariance
    over the points assigned to it, and the label counts.

    Empty components keep NaN rows; nothing is repaired.  With hard_means,
    this is the one implementation of the hard-assignment statistics, shared
    by the stochastic M-step, the deterministic M-step under one-hot
    responsibilities, the bound experiment and the Monte-Carlo validator.
    """
    grouped, offsets = _grouped(assign, data)
    k_total, d = assign.k, data.d
    means = np.full((k_total, d), np.nan)
    covs = np.full((k_total, d, d), np.nan)
    for k in np.flatnonzero(assign.counts):
        means[k], covs[k] = _rows_mle(grouped[:, offsets[k]:offsets[k + 1]])
    return PartialParams(means, covs, assign.counts.astype(np.float64))


def block_width(rows: int) -> int:
    """Largest number of columns per block of the blocked kernels, for a
    kernel whose widest temporary has `rows` float64 rows: a rows x B block
    takes at most _BLOCK_BYTES, so it stays in L2 across the kernel's passes
    over it.  At least 4, so every block of column_blocks spans at least 2
    columns unless N is 1: a one-column block would turn its matrix product
    into a matrix-vector product, which rounds differently."""
    return max(4, _BLOCK_BYTES // (8 * rows))


def column_blocks(n: int, rows: int) -> list[slice]:
    """The fewest column slices of at most block_width(rows) that cover
    range(n), as even as possible and widest first: every block but a
    single one spans at least half the width, and a flat buffer of
    rows * blocks[0].stop floats holds any of them; none for n = 0."""
    if n == 0:
        return []
    count = -(-n // block_width(rows))
    narrow, wide = divmod(n, count)
    blocks, start = [], 0
    for i in range(count):
        stop = start + narrow + (i < wide)
        blocks.append(slice(start, stop))
        start = stop
    return blocks


def component_log_joint(model: MixtureModel, data: DataSet) -> np.ndarray:
    """N x K matrix of ln w_k + ln N(x_n | mu_k, Sigma_k).

    Stored component-major: the result is the transposed view of a
    contiguous K x N buffer, so each component's column is contiguous.
    Computed over column blocks of the D x N points with one reused D x B
    temporary for all K components; every entry gets the same operations
    in the same order as an unblocked pass, so the result does not depend
    on the block width.
    """
    if model.d != data.d:
        raise DataError(f"model dimension {model.d} != data dimension {data.d}")
    d = data.d
    out = np.empty((model.k, data.n))
    xt = data.points.T
    # per-component constants, hoisted out of the block loop
    steps = [(p.T, (mu @ p)[:, None]) for mu, p in zip(model.means, model.prec_chol)]
    const = (np.log(model.weights) - 0.5 * (d * LOG_2PI + model.log_det))[:, None]
    blocks = column_blocks(data.n, d)
    buf = np.empty(d * blocks[0].stop)
    # a point too far from a mean squares to inf: its log-joint under that
    # component is -inf, which normalized_joint reports, not a warning
    with np.errstate(over="ignore"):
        for cols in blocks:
            y = buf[: d * (cols.stop - cols.start)].reshape(d, -1)
            x = xt[:, cols]
            for k, (factor, shift) in enumerate(steps):
                # ||L^-1 (x - mu)||^2 via the cached inverse factor: one GEMM
                # over the D coordinate rows instead of a subtraction plus
                # triangular solve, then D squared rows summed into the
                # component's row
                np.matmul(factor, x, out=y)
                y -= shift
                y *= y
                np.sum(y, axis=0, out=out[k, cols])
            block = out[:, cols]
            block *= -0.5
            block += const
    return out.T


def normalized_joint(
    model: MixtureModel, data: DataSet
) -> tuple[np.ndarray, np.ndarray, float]:
    """The shared E-step kernel: the K x N matrix q = exp(lj - m), its
    column sums s and the total log-likelihood, where lj is the component
    log-joint and m_n the maximum of its column n.

    Every column's largest entry is exactly 1, so no point's column
    underflows to all zeros; q[:, n] / s[n] is point n's posterior.  The
    max, shift, exp and sum run in place over column blocks of the log-joint,
    each entry by the same operations in the same order as over all N
    columns at once.  The log-likelihood sum_n (m_n + ln s_n) is also
    recorded on the model for this data set, where log_likelihood finds it
    without another E-step.
    """
    q = component_log_joint(model, data).T
    m = np.empty(data.n)
    s = np.empty(data.n)
    for cols in column_blocks(data.n, model.k):
        block, top = q[:, cols], m[cols]
        np.max(block, axis=0, out=top)
        if not np.isfinite(top).all():
            row = cols.start + int(np.argmin(np.isfinite(top)))
            raise DataError(
                f"row {row}: point is infinitely unlikely under every component"
            )
        block -= top
        np.exp(block, out=block)
        np.sum(block, axis=0, out=s[cols])
    loglik = float((m + np.log(s)).sum())
    model._loglik = (weakref.ref(data), loglik)
    return q, s, loglik


def log_likelihood(model: MixtureModel, data: DataSet) -> float:
    """Total log-likelihood sum_n ln sum_k w_k N(x_n | mu_k, Sigma_k).

    Combined in log-space with a per-point max shift so intermediate
    densities never underflow to zero for any representable log-likelihood.
    An E-step that already ran on (model, data) supplies the value; it is
    the same computation, so the result is identical either way.
    """
    memo = model._loglik
    if memo is not None and memo[0]() is data:
        return memo[1]
    return normalized_joint(model, data)[2]
