"""Independent numerical oracles used to pin expected values in the tests.

Everything here is deliberately naive and slow: central finite differences
for derivatives, a dense eigensolver on a product discretization for
tensorization checks, and closed-form moments where they exist.
"""

import numpy as np

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
