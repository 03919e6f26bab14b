"""Synthetic ground-truth mixtures, ancestral sampling, and the random-draw
initialization scheme used by the experiments."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DataError, DataSet, MixtureModel, group_order
from .rng import check_seed
from .rounds import seeded_covariance
from .sem import sample_assignment


class GenerationError(RuntimeError):
    """Rejection sampling failed to place interfusing components."""


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic mixture and its sample.

    overlap is the target separation factor: every mean must be within
    overlap * (sqrt(tr Sigma_i) + sqrt(tr Sigma_j)) of at least one neighbor
    (interfusing, not pairwise well-separated), and no pair may come closer
    than a quarter of that quantity.

    rng_seed is validated but never read: the data are drawn from the
    plan's master_seed (or, for `semgmm gen`, from --seed).  The field is
    kept only because the benchmark's workloads pass it.
    """

    d: int
    k: int
    n: int
    weight_mode: str = "balanced"
    overlap: float = 1.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.k < 1:
            raise ValueError("need d >= 1 and k >= 1")
        if self.n < self.d + 1:
            raise ValueError("need n >= d + 1")
        if self.weight_mode not in ("balanced", "unbalanced"):
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        if not 0 < self.overlap < math.inf:
            raise ValueError("overlap must be positive and finite")
        check_seed(self.rng_seed)


def _random_covariance(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal basis with log-uniform eigenvalues in [0.5, 2]."""
    g = rng.standard_normal((d, d))
    q, rmat = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(rmat))
    eig = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=d))
    cov = (q * eig) @ q.T
    return 0.5 * (cov + cov.T)


def generate_mixture(spec: GenSpec, rng: np.random.Generator) -> MixtureModel:
    """Draw a ground-truth mixture of interfusing Gaussians.

    Means are drawn uniformly in [0, 10 sqrt(D)]^D and redrawn until the
    interfusion predicate of GenSpec holds; covariances get random
    orientations; weights are uniform (balanced) or proportional to 1/rank
    (unbalanced).
    """
    d, k = spec.d, spec.k
    covs = np.stack([_random_covariance(d, rng) for _ in range(k)])
    radii = np.sqrt(np.trace(covs, axis1=1, axis2=2))
    box = 10.0 * np.sqrt(d)
    for _ in range(1000):
        # grow the constellation one component at a time, each placed a
        # fraction of the interfusion limit away from a random existing mean,
        # so neighbors overlap by construction in any dimension
        means = np.empty((k, d))
        means[0] = rng.uniform(0.0, box, size=d)
        for i in range(1, k):
            anchor = int(rng.integers(i))
            direction = rng.standard_normal(d)
            direction /= np.sqrt((direction**2).sum())
            limit = spec.overlap * (radii[i] + radii[anchor])
            means[i] = means[anchor] + direction * limit * rng.uniform(0.4, 0.9)
        if _interfusing(means, radii, spec.overlap):
            break
    else:
        raise GenerationError(
            "could not place interfusing components; try a larger overlap"
        )
    if spec.weight_mode == "balanced":
        weights = np.full(k, 1.0 / k)
    else:
        weights = 1.0 / np.arange(1, k + 1)
        weights /= weights.sum()
    return MixtureModel(weights, means, covs)


def _interfusing(means: np.ndarray, radii: np.ndarray, overlap: float) -> bool:
    k = means.shape[0]
    if k == 1:
        return True
    dist = np.sqrt(((means[:, None, :] - means[None, :, :]) ** 2).sum(axis=2))
    limit = overlap * (radii[:, None] + radii[None, :])
    off = ~np.eye(k, dtype=bool)
    near = (dist <= limit) & off
    too_close = (dist < 0.25 * limit) & off
    return bool(near.any(axis=1).all() and not too_close.any())


def sample_dataset(
    model: MixtureModel, n: int, rng: np.random.Generator
) -> tuple[DataSet, np.ndarray]:
    """Ancestral sampling: pick a component by weight (sample_assignment on
    N copies of the weight row), then draw from it.

    Returns the data set and the true component labels (intp) for
    diagnostics.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    assign = sample_assignment(np.broadcast_to(model.weights, (n, model.k)), rng)
    g = rng.standard_normal((n, model.d))
    # x = mu_k + L_k g with the cached triangular factor: one GEMM per
    # component over its grouped draws (contiguous rows of g), written as
    # coordinate rows; one gather by the inverse order then puts every
    # point back in place in the D x N buffer the data set adopts
    order, offsets = group_order(assign)
    grouped = np.take(g, order, axis=0)
    del g
    y = np.empty((model.d, n))
    for k in range(model.k):
        lo, hi = offsets[k], offsets[k + 1]
        np.matmul(model.chol[k], grouped[lo:hi].T, out=y[:, lo:hi])
        y[:, lo:hi] += model.means[k][:, None]
    del grouped
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    return DataSet(np.take(y, inverse, axis=1).T), assign.labels.astype(np.intp)


def check_k(k: int) -> None:
    """Reject a component count below 1."""
    if k < 1:
        raise ValueError("k must be >= 1")


def initialize(data: DataSet, k: int, rng: np.random.Generator) -> MixtureModel:
    """Initial model: K means drawn uniformly from the data without
    replacement, each with the seeded_covariance of the other means, and
    uniform weights; a draw for which some seeded_covariance is None is
    redrawn."""
    check_k(k)
    if data.n < k:
        raise DataError(f"need at least K={k} points, got {data.n}")
    for _ in range(100):
        idx = rng.choice(data.n, size=k, replace=False)
        means = data.points[idx].copy()
        covs = [seeded_covariance(mu, np.delete(means, j, axis=0), data)
                for j, mu in enumerate(means)]
        if all(cov is not None for cov in covs):
            return MixtureModel(np.full(k, 1.0 / k), means, np.stack(covs))
    # one component fails only when no point lies off its mean
    reason = "every point coincides" if k == 1 else f"fewer than {k} distinct points"
    raise DataError(f"{reason}; cannot initialize")
