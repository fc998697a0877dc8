"""Independent numerical oracles used to pin expected values in the tests.

Everything here is deliberately naive and slow: central finite differences
for derivatives, a dense eigensolver on a product discretization for
tensorization checks, and closed-form moments where they exist.
"""

import math

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.stats import norm, rankdata

from orthant_gibbs import assumptions, models
from orthant_gibbs.errors import (ConfigError, DegenerateChainError,
                                  NumericalError, ShapeError)
from orthant_gibbs.rng import make_rng

FD_STEP = 1e-5


def fd_gradient(fun, x, step=FD_STEP):
    """Central finite-difference gradient."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (fun(x + e) - fun(x - e)) / (2 * step)
    return g


def fd_hessian(grad, x, step=FD_STEP):
    """Finite-difference Jacobian of an analytic gradient, symmetrized."""
    x = np.asarray(x, dtype=float)
    d = x.size
    H = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        H[:, j] = (np.asarray(grad(x + e)) - np.asarray(grad(x - e))) / (2 * step)
    return 0.5 * (H + H.T)


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b)) / scale)


def dense_gap_1d(log_density, a, b, m=2000):
    """1-D reflected-generator spectral gap via a dense symmetric
    eigensolver--independent of the tridiagonal implementation."""
    h = (b - a) / m
    nodes = a + (np.arange(m) + 0.5) * h
    edges = a + np.arange(1, m) * h
    lw_n = np.asarray(log_density(nodes), dtype=float)
    lw_e = np.asarray(log_density(edges), dtype=float)
    shift = lw_n.max()
    w_n, w_e = np.exp(lw_n - shift), np.exp(lw_e - shift)
    L = np.zeros((m, m))
    for i in range(m - 1):
        flux = w_e[i] / h**2
        L[i, i] += flux / w_n[i]
        L[i + 1, i + 1] += flux / w_n[i + 1]
        coupling = flux / np.sqrt(w_n[i] * w_n[i + 1])
        L[i, i + 1] -= coupling
        L[i + 1, i] -= coupling
    evals = np.linalg.eigvalsh(L)
    return float(evals[1])


def gmm_explicit(X, weights, covariances, mu):
    """Average gmm log-likelihood with its gradient and Hessian in the
    stacked means, one observation at a time from the explicit quadratic
    forms (x - mu_j)' P_j (x - mu_j), P_j = inv(Sigma_j)."""
    n, m = X.shape
    k = len(weights)
    P = [np.linalg.inv(c) for c in covariances]
    log_dets = [np.linalg.slogdet(c)[1] for c in covariances]
    val = 0.0
    grad = np.zeros((k, m))
    hess = np.zeros((k, m, k, m))
    for x in X:
        scores = [P[j] @ (x - mu[j]) for j in range(k)]
        logc = np.array([np.log(weights[j]) - 0.5 * (m * np.log(2 * np.pi) + log_dets[j]
                                                     + (x - mu[j]) @ P[j] @ (x - mu[j]))
                         for j in range(k)])
        top = logc.max()
        lse = top + np.log(np.sum(np.exp(logc - top)))
        gamma = np.exp(logc - lse)
        val += lse
        for j in range(k):
            grad[j] += gamma[j] * scores[j]
            hess[j, :, j, :] -= gamma[j] * P[j]
            for jp in range(k):
                coef = gamma[j] * ((j == jp) - gamma[jp])
                hess[j, :, jp, :] += coef * np.outer(scores[j], scores[jp])
    return val / n, grad.ravel() / n, hess.reshape(k * m, k * m) / n


def truncated_exponential_mean(rate, L):
    """Mean of Exp(rate) restricted to [0, L]."""
    return 1.0 / rate - L / np.expm1(rate * L)


def ar1_chain(rho, n, seed):
    """Stationary AR(1) with unit marginal variance."""
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    innov_sd = np.sqrt(1 - rho**2)
    for k in range(1, n):
        x[k] = rho * x[k - 1] + innov_sd * rng.standard_normal()
    return x


def bulk_ess_reference(chains):
    """Rank-normalized split bulk ESS of one column, one chain at a time with
    scalar loops: the estimator as first written, kept as the reference for
    the batched ``diagnostics`` routine. Same truncation, same clip, same
    errors."""
    arr = np.asarray(chains, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ShapeError("chains must be a vector or a (n_chains, n_draws) matrix")
    if arr.shape[1] < 8:
        raise ConfigError("each chain must have at least 8 draws")
    if np.all(arr == arr.flat[0]):
        raise DegenerateChainError("constant chain has no information")

    half = arr.shape[1] // 2
    split = np.vstack([arr[:, :half], arr[:, -half:]])
    ranks = rankdata(split, method="average")
    z = norm.ppf((ranks - 0.375) / (split.size + 0.25)).reshape(split.shape)

    n_chain, n_draw = z.shape
    acov = []
    for c in range(n_chain):
        x = z[c] - z[c].mean()
        m = next_fast_len(2 * n_draw)
        f = rfft(x, m)
        acov.append(irfft(f * np.conj(f), m)[:n_draw] / n_draw)
    acov = np.array(acov)
    chain_mean = z.mean(axis=1)
    mean_var = float(np.mean(acov[:, 0])) * n_draw / (n_draw - 1.0)
    var_plus = mean_var * (n_draw - 1.0) / n_draw
    if n_chain > 1:
        var_plus += float(np.var(chain_mean, ddof=1))
    if var_plus == 0.0:
        raise DegenerateChainError("zero variance after rank normalization")

    rho = np.zeros(n_draw)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - float(np.mean(acov[:, 1]))) / var_plus
    rho[1] = rho_odd
    # initial positive sequence
    t = 1
    while t < n_draw - 2 and (rho_even + rho_odd) >= 0.0:
        rho_even = 1.0 - (mean_var - float(np.mean(acov[:, t + 1]))) / var_plus
        rho_odd = 1.0 - (mean_var - float(np.mean(acov[:, t + 2]))) / var_plus
        rho[t + 1] = rho_even
        if (rho_even + rho_odd) >= 0.0:
            rho[t + 2] = rho_odd
        t += 2
    max_t = t
    # initial monotone sequence
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = (rho[t - 1] + rho[t]) / 2.0
            rho[t + 2] = rho[t + 1]
        t += 2
    tau = -1.0 + 2.0 * float(np.sum(rho[:max_t])) + float(np.sum(rho[max_t + 1:max_t + 2]))
    n_total = n_chain * n_draw
    ess = n_total / tau
    if not np.isfinite(ess) or ess <= 0:
        raise NumericalError("ESS computation produced a non-positive value")
    return min(ess, 1.5 * n_total)


def estimate_constants_reference(model, region, *, poincare_factor=4.0):
    """``assumptions.estimate_constants`` as a per-point scan: both
    eigensolves at every grid point, no Cholesky certificate. Kept as the
    reference the certified scan must match bitwise."""
    rng = make_rng(region.seed, 0xA5)
    pts = assumptions.sample_region(region, rng, region.grid)
    split = region.split
    d0, d1, n = split.d0, split.d1, model.n

    c_s0 = math.inf if d0 > 0 else math.nan
    c_s1 = math.inf if d1 > 0 else math.nan
    s2 = 0.0
    for theta in pts:
        H = models.hess_log_lik(model, theta)
        s2 = max(s2, assumptions.operator_norm(H))
        if d0 > 0:
            block = H[np.ix_(split.S0, split.S0)]
            c_s0 = min(c_s0, float(np.linalg.eigvalsh(-block)[0]))
        if d1 > 0:
            g = models.grad_log_lik(model, theta)
            c_s1 = min(c_s1, float(np.min(-g[split.S1])))

    delta0 = region.r0 * math.sqrt(n / d0) if d0 > 0 else 0.0
    delta1 = region.r1 * n if d1 > 0 else 0.0
    osc = assumptions.osc_bound(s2, delta0, delta1, d0, d1, n)
    prior_osc = model.prior.oscillation(region.r1 if d1 > 0 else 0.0)
    if (d0 > 0 and c_s0 <= 0) or (d1 > 0 and c_s1 <= 0):
        cpi = math.inf
    else:
        cpi = assumptions.poincare_bound(c_s0, c_s1, s2, delta0, delta1, d0, d1, n,
                                         prior_osc=prior_osc, factor=poincare_factor)
    return assumptions.AssumptionReport(c_S0_hat=c_s0, C_S1_hat=c_s1, s2_hat=s2,
                                        osc_bound=osc, C_PI_bound=cpi,
                                        grid=region.grid, seed=region.seed)
