"""What the deterministic and stochastic rounds share: the run
configuration, degeneracy repair, and the fixed-round loop of every
trajectory."""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import (
    DataError, DataSet, DegeneracyError, MixtureModel, PartialParams, cholesky_screen
)
from .rng import check_seed


@dataclass(frozen=True)
class SemConfig:
    """Configuration of a run: the seed its sampling and repair streams
    derive from."""

    rng_seed: int = 0

    def __post_init__(self):
        check_seed(self.rng_seed)


RIDGE_EPS_START = 1e-6
RIDGE_EPS_MAX = 1e-2


def ridge_repair(cov: np.ndarray) -> np.ndarray | None:
    """Make a near-singular covariance factorizable by adding a scaled ridge.

    Adds eps * trace(cov)/D * I, doubling eps from 1e-6 up to 1e-2; returns
    None if the matrix still fails to factorize (escalation to full repair).
    """
    d = cov.shape[0]
    scale = np.trace(cov) / d
    if not np.isfinite(scale) or scale <= 0:
        return None
    eps = RIDGE_EPS_START
    while eps <= RIDGE_EPS_MAX:
        repaired = cov + (eps * scale) * np.eye(d)
        if cholesky_screen(repaired[None])[0] is not None:
            return repaired
        eps *= 2.0
    return None


def seeded_covariance(mu: np.ndarray, others: np.ndarray, data: DataSet) -> np.ndarray | None:
    """The seeding rule of every fresh component: I * dist2 / (2D), where
    dist2 is the squared distance from `mu` to the nearest row of `others`,
    or, with no others, the data's mean squared distance to `mu` (which
    keeps the data's scale).  None when dist2 is 0."""
    d = data.d
    if others.size:
        dist2 = float(((others - mu) ** 2).sum(axis=1).min())
    else:
        dist2 = float(((data.points - mu) ** 2).sum(axis=1).mean())
    if dist2 > 0.0:
        return np.eye(d) * (dist2 / (2.0 * d))
    return None


def repair_component(
    k: int,
    data: DataSet,
    prev: MixtureModel,
    partial: PartialParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-seed a degenerate component: a new mean drawn from the data, with
    the seeded_covariance of the other means."""
    # the other components' means, the previous model's where they have none
    finite = np.isfinite(partial.means).all(axis=1, keepdims=True)
    others = np.delete(np.where(finite, partial.means, prev.means), k, axis=0)
    for _ in range(10):
        mu = data.points[int(rng.integers(data.n))].copy()
        cov = seeded_covariance(mu, others, data)
        if cov is not None:
            return mu, cov
    raise DegeneracyError(k, "resampled mean coincides with all other means")


def finalize_model(
    partial: PartialParams,
    degenerate: list[int],
    data: DataSet,
    prev: MixtureModel,
    rng: np.random.Generator,
) -> MixtureModel:
    """Repair all degenerate components, then renormalize weights once.

    The repairs go into a copy of `partial`, which is left as it was given;
    each repair sees the components repaired before it.
    """
    work = PartialParams(partial.means.copy(), partial.covariances.copy(), partial.counts)
    for k in degenerate:
        work.means[k], work.covariances[k] = repair_component(k, data, prev, work, rng)
    return work.mixture(data.n, degenerate)


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
