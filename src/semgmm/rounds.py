"""What the deterministic and stochastic rounds share: the run
configuration and repair policies, degeneracy repair, and the fixed-round
loop of every trajectory."""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import (
    DataError, DataSet, DegeneracyError, MixtureModel, PartialParams, cholesky_screen
)
from .rng import check_seed

RESAMPLE_POLICY = "resample_mean_fresh_covariance"
BLEND_POLICY = "blend_with_previous"
KEEP_POLICY = "keep_previous_covariance"
POLICIES = (RESAMPLE_POLICY, BLEND_POLICY, KEEP_POLICY)


@dataclass(frozen=True)
class SemConfig:
    """Configuration of a stochastic EM run.

    zeta is the minimum number of points a component needs for its own MLE
    (None means D+1, sufficient for points in general linear position; the
    Cholesky screen remains the final arbiter and triggers repair regardless).
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
    if c_k < 1 or (c_k < 2 and policy == BLEND_POLICY):
        policy = RESAMPLE_POLICY

    if policy == KEEP_POLICY:
        return partial.means[k].copy(), prev.covariances[k].copy()

    if policy == BLEND_POLICY:
        cov = 0.5 * partial.covariances[k] + 0.5 * prev.covariances[k]
        if cholesky_screen(cov[None])[0] is not None:
            return partial.means[k].copy(), cov

    # resample_mean_fresh_covariance, or a blend that did not factor
    d = data.d
    # the other components' means, the previous model's where they have none
    finite = np.isfinite(partial.means).all(axis=1, keepdims=True)
    others = np.delete(np.where(finite, partial.means, prev.means), k, axis=0)
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
    work = PartialParams(partial.means.copy(), partial.covariances.copy(), partial.counts)
    for k in degenerate:
        work.means[k], work.covariances[k] = repair_component(k, data, prev, work, cfg, rng)
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
