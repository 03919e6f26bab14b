"""Stochastic EM: indicator sampling, the hard-assignment M-step, and
degeneracy repair shared with the deterministic algorithm."""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .estep import ResponsibilityMatrix, posterior_weights
from .model import (
    Assignment,
    DataError,
    DataSet,
    DegeneracyError,
    MixtureModel,
    column_blocks,
    group_order,
)
from .rng import check_seed, substream

RESAMPLE_POLICY = "resample_mean_fresh_covariance"
BLEND_POLICY = "blend_with_previous"
KEEP_POLICY = "keep_previous_covariance"
POLICIES = (RESAMPLE_POLICY, BLEND_POLICY, KEEP_POLICY)


@dataclass(frozen=True)
class SemConfig:
    """Configuration of a stochastic EM run.

    zeta is the minimum number of points a component needs for its own MLE
    (None means D+1, sufficient for points in general linear position; the
    Cholesky check remains the final arbiter and triggers repair regardless).
    """

    zeta: int | None = None
    repair_policy: str = RESAMPLE_POLICY
    rng_seed: int = 0

    def __post_init__(self):
        if self.zeta is not None and self.zeta < 1:
            raise ValueError("zeta must be >= 1")
        if self.repair_policy not in POLICIES:
            raise ValueError(f"unknown repair policy {self.repair_policy!r}")
        check_seed(self.rng_seed)

    def effective_zeta(self, d: int) -> int:
        return d + 1 if self.zeta is None else self.zeta


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


def factorizable(cov: np.ndarray) -> bool:
    """True when the matrix has a Cholesky factor (is positive definite)."""
    try:
        np.linalg.cholesky(cov)
        return True
    except np.linalg.LinAlgError:
        return False


def sample_assignment(weights, rng: np.random.Generator) -> Assignment:
    """Draw one component per row with probability proportional to its entry.

    `weights` is a ResponsibilityMatrix or any N x K array of non-negative
    rows with positive sums, such as estep.posterior_weights: no row needs to
    be normalized.  Inverse CDF per row: the label is the first k whose
    running sum exceeds u * rowsum.  A draw that rounding sends to the row
    total falls on the row's last positive entry.  A row whose total is not
    finite (a NaN or infinite entry) or not positive is a DataError naming
    the row; a negative entry in a row with a positive total is a
    precondition, not checked.  The N uniforms are drawn in one call; the
    running sums are then accumulated over column blocks of the K x N
    transpose (the E-step's own layout), component by component, adding in
    the same order as a row-wise cumulative sum, and each block's
    comparisons are counted into small-integer labels and into the label
    counts, so the Assignment takes no pass of its own.
    """
    q = weights.probs if isinstance(weights, ResponsibilityMatrix) else weights
    n, k = q.shape
    qt = q.T
    u = rng.random(n)
    labels = np.empty(n, dtype=np.min_scalar_type(k))
    # above[j] counts the points whose label exceeds j: a running sum never
    # decreases, so a point's comparisons hold on exactly its first `label`
    # rows
    above = np.zeros(k, dtype=np.intp)
    blocks = column_blocks(n, k)
    cum_buf = np.empty(k * blocks[0].stop)
    below_buf = np.empty(cum_buf.size, dtype=bool)
    # a NaN or infinite row turns its running sums and u * rowsum into NaN or
    # infinity, which the check after the loop reports as a DataError
    with np.errstate(invalid="ignore", over="ignore"):
        for cols in blocks:
            # running sums down the block's K rows, adding as a row-wise
            # cumulative sum does
            cum = cum_buf[: k * (cols.stop - cols.start)].reshape(k, -1)
            cum[0] = qt[0, cols]
            for j in range(1, k):
                np.add(cum[j - 1], qt[j, cols], out=cum[j])
            ub = u[cols]
            ub *= cum[-1]
            below = below_buf[: cum.size].reshape(cum.shape)
            np.less_equal(cum, ub, out=below)
            np.add.reduce(below.view(np.uint8), axis=0, dtype=labels.dtype, out=labels[cols])
            # one flat count per row: count_nonzero along an axis sums through
            # a cast and took about 3 times as long at K = 10
            for j in range(k):
                above[j] += np.count_nonzero(below[j])
    # u now holds u * rowsum, which is finite only for a finite row total
    finite = np.isfinite(u)
    if not finite.all():
        raise DataError(f"row {np.argmin(finite)} of the weights has no finite total")
    counts = np.concatenate(([n], above[:-1])) - above
    if above[-1]:
        # the above[-1] draws past the row total: rounding sends some there,
        # where u * rowsum is at least the positive total, and every draw
        # against a total that is not positive lands there, with u * rowsum <= 0
        past = np.flatnonzero(labels == k)
        empty = past[u[past] <= 0.0]
        if empty.size:
            raise DataError(f"row {empty[0]} of the weights has no positive total")
        last = k - 1 - np.argmax(q[past, ::-1] > 0, axis=1)
        labels[past] = last
        counts += np.bincount(last, minlength=k)
    return Assignment.from_counts(labels, counts)


def repair_component(
    k: int,
    data: DataSet,
    prev: MixtureModel,
    partial: PartialParams,
    cfg: SemConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Replace the parameters of a degenerate component.

    Empty components (no assigned mass) are always re-seeded by drawing a new
    mean from the data and giving it a fresh spherical covariance scaled by
    the squared distance to the nearest other mean.  Components with some but
    too few points follow cfg.repair_policy: re-seed, blend the
    under-determined covariance 50/50 with the previous one, or keep the
    previous covariance outright.
    """
    c_k = partial.counts[k]
    policy = cfg.repair_policy
    if c_k < 2 and policy == BLEND_POLICY:
        policy = RESAMPLE_POLICY
    if c_k < 1:
        policy = RESAMPLE_POLICY

    if policy == KEEP_POLICY:
        return partial.means[k].copy(), prev.covariances[k].copy()

    if policy == BLEND_POLICY:
        cov = 0.5 * partial.covariances[k] + 0.5 * prev.covariances[k]
        if factorizable(cov):
            return partial.means[k].copy(), cov
        policy = RESAMPLE_POLICY

    # resample_mean_fresh_covariance
    d = data.d
    others = np.array(
        [
            partial.means[i] if np.isfinite(partial.means[i]).all() else prev.means[i]
            for i in range(prev.k)
            if i != k
        ]
    )
    for _ in range(10):
        mu = data.points[int(rng.integers(data.n))].copy()
        if others.size:
            dist2 = float(((others - mu) ** 2).sum(axis=1).min())
        else:
            # single component: no other mean exists; preserve data scale
            dist2 = float(((data.points - mu) ** 2).sum(axis=1).mean())
        if dist2 > 0.0:
            return mu, np.eye(d) * (dist2 / (2.0 * d))
    raise DegeneracyError(k, "resampled mean coincides with all other means")


def finalize_model(
    partial: PartialParams,
    degenerate: list[int],
    data: DataSet,
    prev: MixtureModel,
    cfg: SemConfig,
    rng: np.random.Generator,
) -> MixtureModel:
    """Repair all degenerate components, then renormalize weights once.

    The repairs go into a copy of `partial`, which is left as it was given;
    each repair sees the components repaired before it.
    """
    n = data.n
    weights = partial.counts / n
    work = PartialParams(partial.means.copy(), partial.covariances.copy(), partial.counts)
    for k in degenerate:
        work.means[k], work.covariances[k] = repair_component(k, data, prev, work, cfg, rng)
        weights[k] = max(partial.counts[k], 1.0) / n
    weights /= weights.sum()
    return MixtureModel(weights, work.means, work.covariances)


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


def sem_m_step(
    partial: PartialParams,
    data: DataSet,
    prev: MixtureModel,
    cfg: SemConfig,
    rng: np.random.Generator,
) -> MixtureModel:
    """Maximize the complete-data likelihood for a fixed assignment, given
    its hard_params.

    Weights become counts/N and each component takes the Gaussian MLE of its
    own points; components with fewer than zeta points (or with a
    non-factorizable covariance) are repaired before the weights are
    renormalized.  `partial` is left as it was given.
    """
    zeta = cfg.effective_zeta(data.d)
    degenerate = [
        k
        for k, c_k in enumerate(partial.counts)
        if c_k < zeta or (c_k >= 1 and not factorizable(partial.covariances[k]))
    ]
    return finalize_model(partial, degenerate, data, prev, cfg, rng)


def _sample(weights, cfg: SemConfig, t: int) -> Assignment:
    """Round t's assignment, sampled from the rows `weights` on (cfg.rng_seed, t, 0)."""
    return sample_assignment(weights, substream(cfg.rng_seed, t, 0))


def _hard_step(
    assign: Assignment, data: DataSet, model: MixtureModel, cfg: SemConfig, t: int
) -> tuple[PartialParams, MixtureModel]:
    """Round t's hard-assignment M-step from `model`, repairing on
    (cfg.rng_seed, t, 1); returns what sem_step returns."""
    partial = hard_params(assign, data)
    return partial, sem_m_step(partial, data, model, cfg, substream(cfg.rng_seed, t, 1))


def sem_step(
    weights, data: DataSet, model: MixtureModel, cfg: SemConfig, t: int
) -> tuple[PartialParams, MixtureModel]:
    """Round t of the stochastic algorithm on the rows `weights` (any that
    sample_assignment takes): returns the sampled assignment's hard_params,
    unrepaired, and the next model, the hard-assignment M-step from `model`."""
    return _hard_step(_sample(weights, cfg, t), data, model, cfg, t)


def sem_round(
    model: MixtureModel, data: DataSet, cfg: SemConfig, t: int
) -> MixtureModel:
    """Round t of the stochastic algorithm: sem_step on the unnormalized
    posterior rows of `model`."""
    # the two halves of sem_step, so that the rows are freed when _sample
    # returns, before hard_params gathers the points
    return _hard_step(_sample(posterior_weights(model, data), cfg, t), data, model, cfg, t)[1]


def check_rounds(rounds: int) -> None:
    """Reject a negative round count."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")


def fit_rounds(
    round_fn, model0: MixtureModel, data: DataSet, rounds: int, cfg: SemConfig
) -> Iterator[MixtureModel]:
    """The fixed-round loop of every trajectory: when first advanced, check
    the arguments, then yield model = round_fn(model, data, cfg, t) for
    t = 0, ..., rounds - 1, starting from model0.  Stopping is by round
    count only."""
    check_rounds(rounds)
    if data.n < data.d + 1:
        raise DataError(f"need N >= D+1 points, got N={data.n}, D={data.d}")
    if model0.d != data.d:
        raise DataError(f"model dimension {model0.d} != data dimension {data.d}")
    model = model0
    for t in range(rounds):
        model = round_fn(model, data, cfg, t)
        yield model


def sem_fit(
    model0: MixtureModel,
    data: DataSet,
    rounds: int,
    cfg: SemConfig,
) -> list[MixtureModel]:
    """Run the stochastic algorithm for a fixed number of rounds.

    The trajectory is fully determined by (model0, data, rounds,
    cfg.rng_seed): each round draws its sampling and repair streams from
    (rng_seed, round, purpose) so runs are reproducible and independent
    across seeds.
    """
    return list(fit_rounds(sem_round, model0, data, rounds, cfg))
