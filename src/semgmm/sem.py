"""Stochastic EM: indicator sampling, the hard-assignment M-step and the
stochastic round, with repair and the round loop taken from rounds."""
from __future__ import annotations

import numpy as np

from .estep import ResponsibilityMatrix, posterior_weights
from .model import (
    Assignment,
    DataError,
    DataSet,
    MixtureModel,
    PartialParams,
    cholesky_screen,
    column_blocks,
    hard_params,
)
from .rng import substream
from .rounds import SemConfig, finalize_model, fit_rounds


def sample_assignment(weights, rng: np.random.Generator) -> Assignment:
    """Draw one component per row with probability proportional to its entry.

    `weights` is a ResponsibilityMatrix or any N x K array of non-negative
    rows with positive sums, such as estep.posterior_weights: no row needs to
    be normalized.  Weights that are not 2-d, or not of a boolean, integer
    or float dtype, are a DataError.  Inverse CDF per row: the label is the
    first k whose running sum exceeds u * rowsum.  A draw that rounding
    sends to the row total falls on the row's last positive entry.  A row
    whose total is not finite (a NaN or infinite entry) or not positive is
    a DataError naming the row; a negative entry in a row with a positive
    total is a precondition, not checked.  The N uniforms are drawn in one
    call; the running sums are then accumulated over column blocks of the
    K x N transpose (the E-step's own layout), component by component,
    adding in the same order as a row-wise cumulative sum, and each block's
    comparisons are counted into small-integer labels and into the label
    counts, so the Assignment takes no pass of its own.
    """
    q = np.asarray(weights.probs if isinstance(weights, ResponsibilityMatrix) else weights)
    # a cast to float64 would drop an imaginary part or parse text
    if q.ndim != 2 or q.dtype.kind not in "biuf":
        raise DataError(f"weights must be an N x K real array, got {q.ndim}-d {q.dtype}")
    n, k = q.shape
    if not n * k:
        # no points: an empty Assignment; no components: its DataError
        return Assignment(np.empty(0, dtype=np.intp), k)
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


def sem_m_step(
    partial: PartialParams,
    data: DataSet,
    prev: MixtureModel,
    rng: np.random.Generator,
) -> MixtureModel:
    """Maximize the complete-data likelihood for a fixed assignment, given
    its hard_params.

    Weights become counts/N and each component takes the Gaussian MLE of its
    own points; components with fewer than D+1 points (too few for a
    covariance of full rank) or with a covariance that fails the Cholesky
    screen are re-seeded before the weights are renormalized.  `partial` is
    left as it was given.
    """
    fit = partial.counts >= data.d + 1
    fit[np.flatnonzero(fit)[cholesky_screen(partial.covariances[fit])[1]]] = False
    return finalize_model(partial, np.flatnonzero(~fit).tolist(), data, prev, rng)


def _sample(weights, cfg: SemConfig, t: int) -> Assignment:
    """Round t's assignment, sampled from the rows `weights` on (cfg.rng_seed, t, 0)."""
    return sample_assignment(weights, substream(cfg.rng_seed, t, 0))


def _hard_step(
    assign: Assignment, data: DataSet, model: MixtureModel, cfg: SemConfig, t: int
) -> tuple[PartialParams, MixtureModel]:
    """Round t's hard-assignment M-step from `model`, repairing on
    (cfg.rng_seed, t, 1); returns what sem_step returns."""
    partial = hard_params(assign, data)
    return partial, sem_m_step(partial, data, model, substream(cfg.rng_seed, t, 1))


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
