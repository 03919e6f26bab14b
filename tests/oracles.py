"""Independent re-implementations used as test oracles.

The scalar oracles are written with plain Python loops and the math module;
the array oracles keep the direct formulas that the package's kernels replace
with faster, reordered ones.  None of them shares code with the package, so
agreement is meaningful.
"""
import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp


def scalar_em_update(points, probs):
    """EM M-step for scalar (1-D) data, pure Python."""
    n = len(points)
    k_total = len(probs[0])
    out = []
    for k in range(k_total):
        r = sum(probs[i][k] for i in range(n))
        w = r / n
        mu = sum(probs[i][k] * points[i] for i in range(n)) / r
        var = sum(probs[i][k] * (points[i] - mu) ** 2 for i in range(n)) / r
        out.append((w, mu, var))
    return out


def scalar_tau(points, probs, mu_em, k):
    return math.sqrt(
        sum(p[k] * (1 - p[k]) * (x - mu_em) ** 2 for x, p in zip(points, probs))
    )


def scalar_rho(points, probs, mu_em, var_em, k):
    return math.sqrt(
        sum(
            p[k] * (1 - p[k]) * ((x - mu_em) ** 2 - var_em) ** 2
            for x, p in zip(points, probs)
        )
    )


def scalar_lambda_w(r, delta):
    return math.sqrt(3.0 * math.log(2.0 / delta) / r)


def scalar_lambda_dev(sd, cap, delta):
    if sd == 0.0:
        return 0.0
    l = math.log(2.0 / delta)
    if sd / cap >= math.sqrt(2.0 * math.e * l) / math.e:
        return math.sqrt(2.0 * math.e * l)
    return 2.0 * cap / sd * l


def scalar_bound_report(points, probs, delta):
    """Full 1-D bound report: per component (weight_bound, mean_bound,
    cov_bound, applicable)."""
    n = len(points)
    spread = max(points) - min(points)
    em = scalar_em_update(points, probs)
    out = []
    for k, (w, mu, var) in enumerate(em):
        r = w * n
        lw = scalar_lambda_w(r, delta)
        applicable = delta >= 2.0 * math.exp(-r / 3.0) and lw < 1.0
        weight_bound = lw * w
        if not applicable:
            out.append((weight_bound, None, None, False))
            continue
        tau = scalar_tau(points, probs, mu, k)
        rho = scalar_rho(points, probs, mu, var, k)
        lm = scalar_lambda_dev(tau, spread, delta)
        ls = scalar_lambda_dev(rho, spread * spread, delta)
        mean_bound = lm / (1.0 - lw) * tau / r
        cov_bound = ls / (1.0 - lw) * rho / r + lm * lm / (1.0 - lw) ** 2 * tau * tau / r**2
        out.append((weight_bound, mean_bound, cov_bound, True))
    return out


def naive_responsibilities(points, weights, means, variances):
    """Direct density-ratio responsibilities for 1-D data (no log-space)."""
    out = []
    for x in points:
        dens = [
            w * math.exp(-0.5 * (x - m) ** 2 / v) / math.sqrt(2 * math.pi * v)
            for w, m, v in zip(weights, means, variances)
        ]
        total = sum(dens)
        out.append([d / total for d in dens])
    return out


def gaussian_log_density(mean, chol_factor, x):
    """Multivariate normal log-density through a triangular solve with the
    Cholesky factor: -0.5 (D ln(2 pi) + ln det Sigma + (x-mu)^T Sigma^-1 (x-mu)).

    Accepts a single D-vector or an (N, D) matrix of points.
    """
    mean = np.asarray(mean, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xc = np.atleast_2d(x) - mean
    y = solve_triangular(chol_factor, xc.T, lower=True, check_finite=False)
    maha = np.einsum("ij,ij->j", y, y)
    log_det = 2.0 * np.log(np.diagonal(chol_factor)).sum()
    out = -0.5 * (mean.shape[0] * math.log(2.0 * math.pi) + log_det + maha)
    return float(out[0]) if single else out


def elementwise_tau(probs, points, means):
    """K x D tau, summing p(1-p) (x - mu)^2 elementwise per component."""
    q = probs * (1.0 - probs)
    out = np.empty((probs.shape[1], points.shape[1]))
    for k in range(probs.shape[1]):
        xc = points - means[k]
        out[k] = np.sqrt((q[:, k, None] * xc * xc).sum(axis=0))
    return out


def chunked_rho(probs, points, means, covs, chunk=8192):
    """K x D x D rho from explicit outer products, `chunk` points at a time:
    sqrt(sum_n p(1-p) ((x-mu)(x-mu)^T - Sigma)^2), with no expansion."""
    q = probs * (1.0 - probs)
    n, k_total = probs.shape
    d = points.shape[1]
    out = np.empty((k_total, d, d))
    for k in range(k_total):
        acc = np.zeros((d, d))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            xc = points[start:stop] - means[k]
            dev = xc[:, :, None] * xc[:, None, :] - covs[k]
            acc += (q[start:stop, k, None, None] * dev * dev).sum(axis=0)
        out[k] = np.sqrt(acc)
    return out


def logsumexp_posterior(weights, means, chols, points):
    """N x K posteriors and the total log-likelihood from the row-wise
    log-joint ln w_k + ln N(x | mu_k, Sigma_k), normalized with scipy's
    logsumexp and summed with math.fsum."""
    lj = np.column_stack([
        math.log(w) + gaussian_log_density(mu, chol, points)
        for w, mu, chol in zip(weights, means, chols)
    ])
    lse = logsumexp(lj, axis=1)
    return np.exp(lj - lse[:, None]), math.fsum(lse)


def row_cdf_labels(weights, rng):
    """Inverse-CDF draw per row of an N x K array of non-negative rows, from
    the row-wise cumulative sum: the first k whose running sum exceeds
    u * rowsum, or the row's last positive entry when rounding sends the
    draw to the row total."""
    q = np.asarray(weights, dtype=np.float64)
    n, k = q.shape
    cum = np.cumsum(q, axis=1)
    u = rng.random(n) * cum[:, -1]
    labels = np.count_nonzero(cum <= u[:, None], axis=1)
    past = np.flatnonzero(labels == k)
    if past.size:
        labels[past] = k - 1 - np.argmax(q[past, ::-1] > 0, axis=1)
    return labels


def masked_sample(weights, means, chols, n, rng):
    """Ancestral draw with one boolean-mask gather and scatter per
    component: labels by comparing uniforms against the weights' running
    sums, then x = mu_k + L_k g."""
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    labels = (cum <= rng.random(n)[:, None]).sum(axis=1)
    g = rng.standard_normal((n, len(means[0])))
    points = np.empty(g.shape)
    for k in range(len(weights)):
        mask = labels == k
        points[mask] = means[k] + g[mask] @ chols[k].T
    return points, labels


def weighted_mle(probs, points):
    """K x D means and K x D x D covariances of the responsibility-weighted
    M-step from the direct sums, mu_k = sum_n p_nk x_n / r_k and
    Sigma_k = sum_n p_nk (x_n - mu_k)(x_n - mu_k)^T / r_k, with einsum loops
    over the N x D points."""
    probs = np.asarray(probs, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    r = probs.sum(axis=0)
    means = np.einsum("nk,nd->kd", probs, points) / r[:, None]
    covs = np.stack([
        np.einsum("n,ni,nj->ij", probs[:, k], points - means[k], points - means[k]) / r[k]
        for k in range(probs.shape[1])
    ])
    return means, covs


def component_mle(points):
    """Mean and biased sample covariance of one component's points, by the
    operations of the package's hard-assignment statistics (a contiguous copy
    of the D coordinate rows, their means, centring in place, one product,
    symmetrization), so that model.hard_params must agree with it bit for bit."""
    xc = np.array(points.T, order="C")
    mu = xc.mean(axis=1)
    xc -= mu[:, None]
    cov = xc @ xc.T / xc.shape[1]
    return mu, 0.5 * (cov + cov.T)


def masked_mle(points, labels, k_total):
    """K x D means and K x D x D biased covariances of each label's points,
    gathered with a boolean mask and reduced by numpy's mean and cov; NaN
    for labels with no points."""
    points = np.asarray(points, dtype=np.float64)
    d = points.shape[1]
    means = np.full((k_total, d), np.nan)
    covs = np.full((k_total, d, d), np.nan)
    for k in range(k_total):
        mine = points[labels == k]
        if len(mine):
            means[k] = mine.mean(axis=0)
            covs[k] = np.cov(mine, rowvar=False, bias=True).reshape(d, d)
    return means, covs


def full_log_joint(model, data):
    """K x N log-joint ln w_k + ln N(x_n | mu_k, Sigma_k) by the unblocked
    formula: per component, one product of the transposed inverse factor
    with all N coordinate columns, the mean's image subtracted, squared and
    summed over the D rows."""
    xt = np.ascontiguousarray(data.points.T)
    log_w = np.log(model.weights)
    out = np.empty((model.k, data.n))
    for k in range(model.k):
        p = model.prec_chol[k]
        y = p.T @ xt
        y -= (model.means[k] @ p)[:, None]
        y *= y
        const = log_w[k] - 0.5 * (data.d * np.log(2.0 * np.pi) + model.log_det[k])
        out[k] = -0.5 * y.sum(axis=0) + const
    return out


def shifted_exp(log_joint):
    """(q, s, log-likelihood) of a K x N log-joint by the direct passes:
    q = exp(lj - m) with m the column maxima, s the column sums of q, and
    sum_n (m_n + ln s_n)."""
    m = log_joint.max(axis=0)
    q = np.exp(log_joint - m)
    s = q.sum(axis=0)
    return q, s, float((m + np.log(s)).sum())


def full_tau(probs, points, means):
    """K x D tau by the unblocked formula: the squared centred D x N
    coordinate rows times each component's column of p(1-p), one
    matrix-vector product over all N points."""
    q = probs * (1.0 - probs)
    xt = np.ascontiguousarray(np.asarray(points).T)
    out = np.empty((probs.shape[1], xt.shape[0]))
    for k in range(probs.shape[1]):
        xc2 = (xt - means[k][:, None]) ** 2
        out[k] = np.sqrt(xc2 @ q[:, k])
    return out


def per_trial_violation_rates(report, trials, rng, which):
    """Violation and conditioning rates of the Monte-Carlo validator by its
    definition, for the bound report of its responsibilities and data: every
    trial draws labels from the row-wise cumulative sums (row_cdf_labels),
    counts them with bincount and takes every label's mean and covariance
    from a boolean-mask gather (component_mle), whatever the target reads."""
    probs = report.resp.probs
    points = report.data.points
    n = len(points)
    k_total, d = report.em_means.shape
    w_em = report.resp.column_sums / n
    shape = {"weights": (k_total,), "means": (k_total, d), "covariances": (k_total, d, d)}
    viol = np.zeros(shape[which])
    cond = np.zeros(shape[which])
    for _ in range(trials):
        labels = row_cdf_labels(probs, rng)
        counts = np.bincount(labels, minlength=k_total)
        means = np.full((k_total, d), np.nan)
        covs = np.full((k_total, d, d), np.nan)
        for k in np.flatnonzero(counts):
            means[k], covs[k] = component_mle(points[labels == k])
        w_ok = np.abs(counts / n - w_em) <= report.weight_bound
        valid = w_ok & report.applicable & (counts > 0)
        mean_ok = np.abs(means - report.em_means) <= report.mean_bound
        if which == "weights":
            held, broken = np.ones(k_total, dtype=bool), ~w_ok
        elif which == "means":
            held = valid[:, None] & np.ones(d, dtype=bool)
            broken = held & ~mean_ok
        else:
            held = valid[:, None, None] & mean_ok[:, :, None] & mean_ok[:, None, :]
            broken = held & (np.abs(covs - report.em_model.covariances) > report.cov_bound)
        cond += held
        viol += broken
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = np.where(cond > 0, viol / np.maximum(cond, 1.0), np.nan)
    return rate, cond / trials
