"""Probabilistic proximity bounds between the deterministic and stochastic
parameter updates, and Monte-Carlo validation of their violation rates.

All quantities are evaluated at fixed responsibilities: tau[k, d] is the
standard deviation of the d-th coordinate of the mean-update deviation under
assignment sampling, rho[k, i, j] the analogue for the (i, j) covariance
entry, and the lambda factors translate those into high-probability bounds at
a chosen failure budget delta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .em import em_m_step, em_means
from .estep import ResponsibilityMatrix
from .model import DataSet, MixtureModel, column_blocks, hard_means, hard_params
from .sem import sample_assignment

E = math.e


@dataclass(frozen=True)
class WeightLambda:
    """Multiplicative weight-bound factor sqrt(3 ln(2/delta) / r_k).

    `applicable` records whether the concentration hypothesis
    2 e^{-r_k/3} <= delta holds; `usable_downstream` additionally requires
    value < 1, which the mean and covariance bounds need.  Each field has
    the shape of r_k: scalars for a scalar r_k, arrays for an array.
    """

    value: float | np.ndarray
    applicable: bool | np.ndarray
    usable_downstream: bool | np.ndarray


# the hypothesis is evaluated with math.exp, which numpy's exp misses by one
# ulp on a few percent of inputs
_exp = np.vectorize(math.exp, otypes=[float])


def lambda_weight(r_k, delta: float) -> WeightLambda:
    r = np.asarray(r_k, dtype=np.float64)
    if (r <= 0).any():
        raise ValueError("r_k must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    value = np.sqrt(3.0 * math.log(2.0 / delta) / r)
    applicable = delta >= 2.0 * _exp(-r / 3.0)
    return WeightLambda(value[()], applicable[()], (applicable & (value < 1.0))[()])


def _deviation_lambda(sd, cap, delta: float):
    """Two-case bound factor for a centered sum with std dev `sd` and
    per-summand cap `cap`, elementwise over their broadcast.

    sd = 0 means the deviation is identically zero (zero variance, bounded
    summands), so the factor degenerates to 0 rather than dividing by zero.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    sd = np.asarray(sd, dtype=np.float64)
    cap = np.asarray(cap, dtype=np.float64)
    if (sd < 0).any() or (cap < 0).any():
        raise ValueError("sd and cap must be nonnegative")
    ln2d = math.log(2.0 / delta)
    wide = math.sqrt(2.0 * E * ln2d)
    # sd = 0 or cap = 0 divides by zero in the branch np.where discards
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(sd / cap >= wide / E, wide, (2.0 * cap / sd) * ln2d)
    return np.where(sd == 0.0, 0.0, lam)[()]


def lambda_mean(tau_ki, spread_i, delta: float):
    """Mean-proximity factor: sqrt(2e ln(2/delta)) when tau/spread is large
    enough, else (2 spread / tau) ln(2/delta); 0 when tau is 0."""
    return _deviation_lambda(tau_ki, spread_i, delta)


def lambda_cov(rho_kij, spread_i, spread_j, delta: float):
    """Covariance-proximity factor; same two-case structure with cap
    spread_i * spread_j; 0 when rho is 0."""
    return _deviation_lambda(rho_kij, spread_i * spread_j, delta)


def _centred_blocks(resp: ResponsibilityMatrix, data: DataSet, centres: np.ndarray):
    """The one blocked centring pass behind tau and rho: per column block of
    the D x N coordinate rows (column_blocks for the wider of the D x B and
    K x B temporaries) and per component k, yields (k, xc, q, spare), with xc
    the block's columns centred on centres[k], q the block's row of
    p_k (1 - p_k) and spare a second D x B array for the caller's products.
    xc and spare are reused buffers: overwrite them, but do not keep them."""
    pt = resp.probs.T
    k_total, n = pt.shape
    d = data.d
    xt = data.points.T
    centres = np.asarray(centres)[:, :, None]
    blocks = column_blocks(n, max(d, k_total))
    q_buf = np.empty(k_total * blocks[0].stop)
    xc_buf = np.empty((2, d * blocks[0].stop))
    for cols in blocks:
        width = cols.stop - cols.start
        q = q_buf[: k_total * width].reshape(k_total, width)
        xc, spare = xc_buf[:, : d * width].reshape(2, d, width)
        p = pt[:, cols]
        np.subtract(1.0, p, out=q)
        q *= p
        x = xt[:, cols]
        for k in range(k_total):
            np.subtract(x, centres[k], out=xc)
            yield k, xc, q[k], spare


def compute_tau(
    resp: ResponsibilityMatrix, data: DataSet, em_means: np.ndarray
) -> np.ndarray:
    """K x D matrix tau[k, d] = sqrt(sum_n p_nk (1-p_nk) (x_n - mu_k)_d^2).

    Summed over the blocks of _centred_blocks: each centred block is
    squared in place and reduced with a matrix-vector product against its
    row of q = p (1-p).
    """
    acc = np.zeros(np.shape(em_means))
    for k, xc, q, _ in _centred_blocks(resp, data, em_means):
        xc *= xc
        acc[k] += xc @ q
    return np.sqrt(acc)


def compute_rho(
    resp: ResponsibilityMatrix,
    data: DataSet,
    em_means: np.ndarray,
    em_covs: np.ndarray,
) -> np.ndarray:
    """K x D x D tensor rho[k, i, j] = sqrt(sum_n p_nk (1-p_nk)
    ((x_n - mu_k)(x_n - mu_k)^T - Sigma_k)_{ij}^2).

    With xc = x - mu_k and q = p (1-p), the sum expands to
    (xc^2)^T (q xc^2) - 2 Sigma_k o xc^T (q xc) + Sigma_k^2 sum q, two
    D x D matrix products and one sum of q per block of _centred_blocks,
    so the N outer products are never formed.  The expansion subtracts;
    rounding below zero is clamped to 0.
    """
    k_total, d = np.shape(em_means)
    fourth = np.zeros((k_total, d, d))
    second = np.zeros((k_total, d, d))
    q_sum = np.zeros(k_total)
    for k, xc, q, qxc in _centred_blocks(resp, data, em_means):
        np.multiply(xc, q, out=qxc)
        second[k] += xc @ qxc.T
        qxc *= xc
        xc *= xc
        fourth[k] += xc @ qxc.T
        q_sum[k] += q.sum()
    acc = fourth - 2.0 * em_covs * second + em_covs * em_covs * q_sum[:, None, None]
    return np.sqrt(np.maximum(acc, 0.0))


@dataclass(frozen=True)
class BoundReport:
    """All evaluated proximity quantities for one responsibility matrix.

    Entries of mean_bound / cov_bound are NaN where the weight bound is
    inapplicable (hypothesis failed or lambda_w >= 1); `applicable` carries
    that flag per component.  Inapplicability is data, not an error: clamping
    would fabricate guarantees.

    `em_means` are the means of the expectation-weighted update at `resp`.
    `em_model`, the whole update with its covariances, and from it `rho` and
    `cov_bound` are computed from the report's own inputs on first access
    and cached, so callers that read only weight and mean bounds never pay
    for the EM covariances or rho.
    """

    delta: float
    resp: ResponsibilityMatrix = field(repr=False, compare=False)
    data: DataSet = field(repr=False, compare=False)
    em_means: np.ndarray            # (K, D)
    lambda_w: np.ndarray            # (K,)
    weight_applicable: np.ndarray   # (K,) bool, concentration hypothesis
    applicable: np.ndarray          # (K,) bool, usable for mean/cov bounds
    tau: np.ndarray                 # (K, D)
    lambda_mu: np.ndarray           # (K, D), NaN where not applicable
    weight_bound: np.ndarray        # (K,)
    mean_bound: np.ndarray          # (K, D)
    mean_bound_euclid: np.ndarray   # (K,)

    @cached_property
    def em_model(self) -> MixtureModel:
        """em_m_step(resp, data); raises DegeneracyError where a covariance
        cannot be repaired."""
        return em_m_step(self.resp, self.data)

    @cached_property
    def rho(self) -> np.ndarray:
        """(K, D, D) covariance deviation scales."""
        return compute_rho(
            self.resp, self.data, self.em_model.means, self.em_model.covariances
        )

    @cached_property
    def cov_bound(self) -> np.ndarray:
        """(K, D, D) covariance bounds, NaN where not applicable."""
        live = self.applicable
        spread = self.data.spread
        rho = self.rho[live]
        tau = self.tau[live]
        lam_mu = self.lambda_mu[live]
        shrink = 1.0 - self.lambda_w[live, None, None]
        r = self.resp.column_sums[live, None, None]
        lam_sig = lambda_cov(rho, spread[:, None], spread, self.delta)
        cov_bound = np.full(self.rho.shape, np.nan)
        cov_bound[live] = (
            lam_sig / shrink * rho / r
            + lam_mu[:, :, None] * lam_mu[:, None, :] / shrink**2
            * tau[:, :, None] * tau[:, None, :] / r**2
        )
        return cov_bound


def assemble_bounds(
    resp: ResponsibilityMatrix,
    data: DataSet,
    delta: float,
) -> BoundReport:
    """Assemble per-parameter proximity bounds at per-check budget `delta`.

    The EM reference is the update's means alone (em.em_means), so a
    component with (near) zero responsibility mass raises DegeneracyError
    before any bound is formed.

    The caller chooses delta; to get a joint guarantee over all K(D+1) weight
    and mean-coordinate checks at level 1/100 via the union bound, pass
    delta = 1/(100 K (D+1)).  Covariance bounds are left to the report's
    first access of `cov_bound`.
    """
    means = em_means(resp, data)
    r = resp.column_sums
    tau = compute_tau(resp, data, means)
    lw = lambda_weight(r, delta)
    applicable = lw.usable_downstream
    lam_mu = np.where(
        applicable[:, None], lambda_mean(tau, data.spread, delta), np.nan
    )
    # rows that are not applicable are NaN throughout, whatever 1 - lambda_w
    mean_bound = lam_mu / (1.0 - lw.value[:, None]) * tau / r[:, None]
    return BoundReport(
        delta=delta,
        resp=resp,
        data=data,
        em_means=means,
        lambda_w=lw.value,
        weight_applicable=lw.applicable,
        applicable=applicable,
        tau=tau,
        lambda_mu=lam_mu,
        weight_bound=lw.value * (r / data.n),
        mean_bound=mean_bound,
        mean_bound_euclid=np.sqrt((mean_bound**2).sum(axis=1)),
    )


@dataclass(frozen=True)
class ViolationReport:
    """Empirical bound-violation fractions from repeated assignment sampling.

    violation_rate entries are NaN where the conditioning event never
    occurred; conditioning_rate reports how often it held (always 1 for the
    unconditional weight bound).
    """

    which: str
    trials: int
    violation_rate: np.ndarray
    conditioning_rate: np.ndarray


def monte_carlo_violation_rate(
    resp: ResponsibilityMatrix,
    data: DataSet,
    delta: float,
    trials: int,
    rng: np.random.Generator,
    which: str,
    batch: int = 256,
) -> ViolationReport:
    """Sample assignments `trials` times from fixed responsibilities and count
    how often each proximity bound of assemble_bounds is violated by the
    stochastic update of the sampled assignment.

    Each trial draws one assignment with sample_assignment and takes only
    the statistics of the stochastic M-step that its target reads: the
    label counts for weights, hard_means for means, hard_params for
    covariances.  Weight violations are counted on every trial; mean
    violations only on trials where the weight event held, for components
    whose bounds are applicable; covariance violations only where, in
    addition, the two relevant coordinate mean bounds held.  `batch` is
    accepted for compatibility and changes neither the results nor the
    memory used.
    """
    if which not in ("weights", "means", "covariances"):
        raise ValueError(f"unknown target {which!r}")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")

    report = assemble_bounds(resp, data, delta)
    w_em = resp.column_sums / data.n
    k_total, d = report.em_means.shape
    shape = {"weights": (k_total,), "means": (k_total, d), "covariances": (k_total, d, d)}
    em_covs = report.em_model.covariances if which == "covariances" else None
    viol = np.zeros(shape[which])
    cond = np.zeros(shape[which])

    for _ in range(trials):
        assign = sample_assignment(resp, rng)
        w_ok = np.abs(assign.counts / data.n - w_em) <= report.weight_bound
        if which == "weights":
            cond += 1.0
            viol += ~w_ok
            continue
        valid = w_ok & report.applicable & (assign.counts > 0)
        if which == "means":
            means = hard_means(assign, data)
            mean_ok = np.abs(means - report.em_means) <= report.mean_bound
            cond += valid[:, None]
            viol += valid[:, None] & ~mean_ok
            continue
        sem = hard_params(assign, data)
        mean_ok = np.abs(sem.means - report.em_means) <= report.mean_bound
        cond_ij = valid[:, None, None] & mean_ok[:, :, None] & mean_ok[:, None, :]
        cond += cond_ij
        viol += cond_ij & (np.abs(sem.covariances - em_covs) > report.cov_bound)

    with np.errstate(invalid="ignore", divide="ignore"):
        rate = np.where(cond > 0, viol / np.maximum(cond, 1.0), np.nan)
    return ViolationReport(
        which=which,
        trials=trials,
        violation_rate=rate,
        conditioning_rate=cond / trials,
    )
