"""Synthetic ground-truth mixtures, ancestral sampling, and the random-draw
initialization scheme used by the experiments."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Assignment, DataError, DataSet, MixtureModel, group_order
from .rng import check_seed


class GenerationError(RuntimeError):
    """Rejection sampling failed to place interfusing components."""


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic mixture and its sample.

    overlap is the target separation factor: every mean must be within
    overlap * (sqrt(tr Sigma_i) + sqrt(tr Sigma_j)) of at least one neighbor
    (interfusing, not pairwise well-separated), and no pair may come closer
    than a quarter of that quantity.
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
    """Ancestral sampling: pick a component by weight, then draw from it.

    Returns the data set and the true component labels for diagnostics.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    # clipped at 1.0 so the running sums stay sorted for searchsorted, which
    # counts the entries <= u; no u < 1 reaches an entry at 1.0
    cum = np.minimum(np.cumsum(model.weights), 1.0)
    cum[-1] = 1.0
    labels = np.searchsorted(cum, rng.random(n), side="right")
    g = rng.standard_normal((n, model.d))
    # x = mu_k + L_k g with the cached triangular factor: one GEMM per
    # component over its grouped draws (contiguous rows of g), written as
    # coordinate rows; one gather by the inverse order then puts every
    # point back in place in the D x N buffer the data set adopts
    order, offsets = group_order(Assignment(labels, model.k))
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
    return DataSet(np.take(y, inverse, axis=1).T), labels


def check_k(k: int) -> None:
    """Reject a component count below 1."""
    if k < 1:
        raise ValueError("k must be >= 1")


def initialize(data: DataSet, k: int, rng: np.random.Generator) -> MixtureModel:
    """Initial model: K means drawn uniformly from the data without
    replacement, spherical covariances scaled by half the mean squared
    distance to the nearest other mean per dimension, uniform weights.

    Sigma_k = I * (1/2D) * min_{i != k} ||mu_k - mu_i||^2; for K = 1 the
    minimum over an empty set is replaced by the mean squared distance of the
    data to the chosen mean, preserving scale.
    """
    check_k(k)
    if data.n < k:
        raise DataError(f"need at least K={k} points, got {data.n}")
    d = data.d
    for _ in range(100):
        idx = rng.choice(data.n, size=k, replace=False)
        means = data.points[idx].copy()
        if k == 1:
            scale = float(((data.points - means[0]) ** 2).sum(axis=1).mean())
            if scale > 0:
                covs = np.eye(d)[None] * (scale / (2.0 * d))
                return MixtureModel(np.ones(1), means, covs)
            continue
        dist2 = ((means[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(dist2, np.inf)
        nearest = dist2.min(axis=1)
        if (nearest > 0).all():
            covs = np.eye(d)[None] * (nearest / (2.0 * d))[:, None, None]
            return MixtureModel(np.full(k, 1.0 / k), means, covs)
    raise DataError(f"fewer than {k} distinct points; cannot initialize")
