"""Statistical models: log-likelihoods, derivatives, priors, and simulators.

Three models are supported, all parameterized over the non-negative orthant:

* ``logistic`` -- binary regression, labels Bernoulli(sigmoid(X_i' theta)).
* ``poisson``  -- Poisson counts T*Y_i ~ Poisson(T * A_i' theta) with a
  non-negative sensitivity matrix A and exposure T.
* ``gmm``      -- Gaussian location mixture with known weights and
  covariances; the parameter is the flattened stack of component means.

All log-likelihoods are normalized per observation (averaged over the n
data points). Derivative formulas extend continuously to the orthant
boundary and are evaluated there as one-sided derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .rng import make_rng

KINDS = ("logistic", "poisson", "gmm")

_LOG_2PI = float(np.log(2.0 * np.pi))
# Stirling series of log Gamma(x) for x >= 13: cephes lgam's coefficients
# (highest order first) and log(sqrt(2 pi)), so that log(k!) is bitwise
# equal to scipy.special.gammaln(k + 1)
_STIRLING = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
             7.93650340457716943945E-4, -2.77777777730099687205E-3,
             8.33333333333331927722E-2)
_LOG_SQRT_2PI = 0.91893853320467274178


def _log_factorial(k: float) -> float:
    """log(k!) of a non-negative integer-valued float, as cephes computes
    log Gamma(k + 1): the exact factorial below 13, else Stirling."""
    x = k + 1.0
    if x < 13.0:
        return math.log(math.factorial(int(k)))
    p = 1.0 / (x * x)
    series = 0.0
    for c in _STIRLING:
        series = series * p + c
    return (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI + series / x


def _expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid 1/(1 + exp(-x)); exactly 0 and 1 far in the tails."""
    with np.errstate(over="ignore"):
        s = np.exp(-x)
    s += 1.0
    return np.reciprocal(s, out=s)


def _require_finite(**arrays) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{name} must be finite (found NaN or inf)")


def _as_vector(theta, d: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d,):
        raise ShapeError(f"parameter has shape {theta.shape}, expected ({d},)")
    return theta


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------


def _neg_scaled(rate: float) -> Callable[[np.ndarray], np.ndarray]:
    def log_pdf(t):
        return np.log(rate) - rate * np.asarray(t, dtype=float)

    return log_pdf


def _const_grad(rate: float) -> Callable[[np.ndarray], np.ndarray]:
    def grad(t):
        return np.full_like(np.asarray(t, dtype=float), -rate)

    return grad


@dataclass(frozen=True)
class Prior:
    """Log-concave product prior with i.i.d. coordinates.

    ``log_pdf`` and ``grad_log_pdf`` are applied coordinate-wise; the joint
    log-density is the coordinate sum. ``log_pdf=None`` is the flat
    (improper) prior with log-density identically zero.
    """

    log_pdf: Callable[[np.ndarray], np.ndarray] | None = None
    grad_log_pdf: Callable[[np.ndarray], np.ndarray] | None = None
    lipschitz: float = 0.0
    name: str = "flat"

    @staticmethod
    def flat() -> "Prior":
        return Prior()

    @staticmethod
    def exponential(rate: float = 1.0) -> "Prior":
        if rate <= 0:
            raise ConfigError("exponential prior rate must be positive")
        return Prior(
            log_pdf=_neg_scaled(rate),
            grad_log_pdf=_const_grad(rate),
            lipschitz=rate,
            name=f"exponential({rate})",
        )

    @property
    def is_flat(self) -> bool:
        return self.log_pdf is None

    def check_concavity(self, hi: float = 10.0, n_triples: int = 200, seed: int = 0,
                        tol: float = 1e-9) -> None:
        """Midpoint-concavity check of log_pdf on sampled triples in [0, hi].

        Raises ConfigError on a violation beyond ``tol``.
        """
        if self.is_flat:
            return
        rng = make_rng(seed, 0xC0)
        a = rng.uniform(0.0, hi, n_triples)
        b = rng.uniform(0.0, hi, n_triples)
        mid = 0.5 * (a + b)
        gap = self.log_pdf(mid) - 0.5 * (self.log_pdf(a) + self.log_pdf(b))
        if np.any(gap < -tol):
            raise ConfigError("prior log-density is not midpoint concave on [0, hi]")

    def oscillation(self, r: float, n_grid: int = 512) -> float:
        """Oscillation (sup - inf) of log_pdf on [0, r], by grid evaluation."""
        if self.is_flat or r <= 0:
            return 0.0
        vals = self.log_pdf(np.linspace(0.0, r, n_grid))
        return float(np.max(vals) - np.min(vals))

    def to_json(self) -> dict:
        return {"name": self.name, "lipschitz": self.lipschitz}

    @staticmethod
    def from_json(obj: dict) -> "Prior":
        name = obj.get("name", "flat")
        if name == "flat":
            return Prior.flat()
        if name.startswith("exponential("):
            return Prior.exponential(float(name[len("exponential("):-1]))
        raise ConfigError(f"unknown prior name {name!r}")


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogisticData:
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.asarray(self.Y, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        if X.ndim != 2 or X.shape[0] != Y.shape[0] or X.shape[0] < 1:
            raise ShapeError("X rows and Y entries must match and be >= 1")
        _require_finite(X=X)
        if not np.all(np.isin(Y, (0.0, 1.0))):
            raise ConfigError("logistic labels must lie in {0, 1}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class PoissonData:
    A: np.ndarray
    Y: np.ndarray
    T: float = 1.0

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        Y = np.asarray(self.Y, dtype=float).ravel()
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "T", float(self.T))
        if A.ndim != 2 or A.shape[0] != Y.shape[0] or A.shape[0] < 1:
            raise ShapeError("A rows and Y entries must match and be >= 1")
        _require_finite(A=A, Y=Y, T=self.T)
        if np.any(A < 0):
            raise ConfigError("sensitivity matrix A must be non-negative")
        if self.T <= 0:
            raise ConfigError("exposure T must be positive")
        if np.any(Y < 0):
            raise ConfigError("rates Y must be non-negative")
        counts = self.T * Y
        if np.any(np.abs(counts - np.round(counts)) > 1e-8):
            raise ConfigError("T*Y entries must be non-negative integers")
        if not np.any(Y > 0):
            raise ConfigError("at least one observation must be positive")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @cached_property
    def counts(self) -> np.ndarray:
        return np.round(self.T * self.Y)

    @cached_property
    def log_count_factorials(self) -> np.ndarray:
        """log(counts!), once per dataset and once per distinct count."""
        values, inverse = np.unique(self.counts, return_inverse=True)
        return np.array([_log_factorial(k) for k in values.tolist()])[inverse]


@dataclass(frozen=True)
class GmmData:
    X: np.ndarray
    weights: np.ndarray
    covariances: np.ndarray  # (k, m, m)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        covs = np.asarray(self.covariances, dtype=float)
        if covs.ndim == 2:
            covs = covs[None, :, :]
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "covariances", covs)
        k, m = w.shape[0], X.shape[1]
        if covs.shape != (k, m, m):
            raise ShapeError(f"covariances have shape {covs.shape}, expected ({k},{m},{m})")
        _require_finite(X=X, weights=w, covariances=covs)
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ConfigError("weights must be strictly positive and sum to 1")
        for j in range(k):
            if not np.allclose(covs[j], covs[j].T, atol=1e-12):
                raise ConfigError(f"covariance {j} is not symmetric")
            if np.linalg.eigvalsh(covs[j])[0] <= 0:
                raise ConfigError(f"covariance {j} is not positive definite")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def d(self) -> int:
        return self.k * self.m

    @cached_property
    def precisions(self) -> np.ndarray:
        return np.stack([np.linalg.inv(c) for c in self.covariances])

    @cached_property
    def log_dets(self) -> np.ndarray:
        return np.array([np.linalg.slogdet(c)[1] for c in self.covariances])

    @cached_property
    def prec_chols(self) -> np.ndarray:
        """Lower Cholesky factors W_j of the precisions, W_j W_j' = P_j."""
        return np.linalg.cholesky(self.precisions)

    @cached_property
    def whitened(self) -> np.ndarray:
        """X @ W_j for every component, shape (k, n, m); once per dataset."""
        return self.X @ self.prec_chols


@dataclass(frozen=True)
class ModelInstance:
    """A model kind bundled with its dataset and prior."""

    kind: str
    data: LogisticData | PoissonData | GmmData
    prior: Prior = field(default_factory=Prior.flat)
    theta_star: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.theta_star is not None:
            ts = np.asarray(self.theta_star, dtype=float)
            object.__setattr__(self, "theta_star", ts)
            if ts.shape != (self.d,):
                raise ShapeError("theta_star length does not match model dimension")

    @property
    def d(self) -> int:
        return self.data.d

    @property
    def n(self) -> int:
        return self.data.n


# ---------------------------------------------------------------------------
# log-likelihood and derivatives
# ---------------------------------------------------------------------------


# Each kind has one pass over the data that computes what its value, gradient
# and Hessian share: eta = X theta for logistic, the rates A theta for
# Poisson, the whitened residuals and log-components for the gmm. The value,
# gradient and Hessian kernels start from that pass, so a fused value and
# gradient computes it once.


class _Kernel(NamedTuple):
    shared: Callable  # (data, theta) -> intermediate
    loglik: Callable  # (data, intermediate) -> float
    grad: Callable  # (data, intermediate) -> (d,)
    hess: Callable  # (data, intermediate) -> (d, d)


def _logistic_eta(data: LogisticData, theta: np.ndarray) -> np.ndarray:
    return data.X @ theta


def _logistic_loglik(data: LogisticData, eta: np.ndarray) -> float:
    return float(np.mean(data.Y * eta - np.logaddexp(0.0, eta)))


def _logistic_grad(data: LogisticData, eta: np.ndarray) -> np.ndarray:
    return data.X.T @ (data.Y - _expit(eta)) / data.n


def _weighted_gram(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """-X' diag(w) X / n for weights w >= 0, as one symmetric rank-n product
    a'a (BLAS syrk): half the flops of (X' * w) @ X, exactly symmetric."""
    a = X * np.sqrt(w)[:, None]
    return -(a.T @ a) / X.shape[0]


def _logistic_hess(data: LogisticData, eta: np.ndarray) -> np.ndarray:
    s = _expit(eta)
    return _weighted_gram(data.X, s * (1.0 - s))


def _poisson_rates(data: PoissonData, theta: np.ndarray) -> np.ndarray:
    rates = data.A @ theta
    if np.any(rates[data.Y > 0] <= 0):
        raise DomainError("Poisson rate A_i theta <= 0 at an observation with Y_i > 0")
    return rates


def _poisson_loglik(data: PoissonData, rates: np.ndarray) -> float:
    counts = data.counts
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.where(counts > 0, counts * np.log(np.maximum(data.T * rates, 1e-300)), 0.0)
    per_obs = -data.T * rates + log_term - data.log_count_factorials
    return float(np.mean(per_obs))


def _poisson_grad(data: PoissonData, rates: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(data.Y > 0, data.T * data.Y / rates, 0.0)
    return data.A.T @ (ratio - data.T) / data.n


def _poisson_hess(data: PoissonData, rates: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(data.Y > 0, data.T * data.Y / rates**2, 0.0)
    return _weighted_gram(data.A, w)


def _gmm_residuals(data: GmmData, mu: np.ndarray) -> np.ndarray:
    """Whitened residuals r_ij = (x_i - mu_j) W_j, shape (k, n, m).

    (x - mu_j)' P_j (x - mu_j) = |r_j|^2 and P_j (x - mu_j) = W_j r_j, so with
    X @ W_j cached an evaluation costs O(n m + m^2) per component.
    """
    return data.whitened - mu[:, None, :] @ data.prec_chols


def _gmm_log_components(data: GmmData, resid: np.ndarray) -> np.ndarray:
    """Per-observation log(w_j * N(x_i | mu_j, Sigma_j)), shape (n, k)."""
    quad = np.einsum("knm,knm->kn", resid, resid)  # row dots, no (k, n, m) temporary
    norm = (data.m * _LOG_2PI + data.log_dets)[:, None]
    return (np.log(data.weights)[:, None] - 0.5 * (norm + quad)).T


def _gmm_pass(data: GmmData, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitened residuals and log-components at the stacked means ``theta``."""
    resid = _gmm_residuals(data, theta.reshape(data.k, data.m))
    return resid, _gmm_log_components(data, resid)


def _softmax_rows(logc: np.ndarray) -> np.ndarray:
    shift = logc.max(axis=1, keepdims=True)
    w = np.exp(logc - shift)
    return w / w.sum(axis=1, keepdims=True)


def gmm_responsibilities(data: GmmData, theta: np.ndarray) -> np.ndarray:
    """Posterior component responsibilities gamma_ij, shape (n, k).

    Computed in log space with a max shift, so rows sum to one even when the
    component densities underflow.
    """
    return _softmax_rows(_gmm_pass(data, _as_vector(theta, data.d))[1])


def _gmm_loglik(data: GmmData, shared) -> float:
    logc = shared[1]
    shift = logc.max(axis=1)
    ll = shift + np.log(np.exp(logc - shift[:, None]).sum(axis=1))
    return float(np.mean(ll))


def _gmm_grad(data: GmmData, shared) -> np.ndarray:
    resid, logc = shared
    gamma = _softmax_rows(logc)
    grad = np.empty((data.k, data.m))
    for j in range(data.k):
        grad[j] = (gamma[:, j] @ resid[j]) @ data.prec_chols[j].T / data.n
    return grad.ravel()


def _gmm_hess(data: GmmData, shared) -> np.ndarray:
    resid, logc = shared
    gamma = _softmax_rows(logc)
    k, m, n = data.k, data.m, data.n
    # per-observation scores P_j (x_i - mu_j), shape (k, n, m)
    g = resid @ data.prec_chols.transpose(0, 2, 1)
    H = np.empty((k, k, m, m))
    for j in range(k):
        w_diag = gamma[:, j] * (1.0 - gamma[:, j])
        H[j, j] = (g[j].T * w_diag) @ g[j] / n - gamma[:, j].mean() * data.precisions[j]
        for jp in range(j + 1, k):
            w_mix = gamma[:, j] * gamma[:, jp]
            block = -(g[j].T * w_mix) @ g[jp] / n
            H[j, jp] = block
            H[jp, j] = block.T
    return H.transpose(0, 2, 1, 3).reshape(k * m, k * m)


_KERNELS = {
    "logistic": _Kernel(_logistic_eta, _logistic_loglik, _logistic_grad, _logistic_hess),
    "poisson": _Kernel(_poisson_rates, _poisson_loglik, _poisson_grad, _poisson_hess),
    "gmm": _Kernel(_gmm_pass, _gmm_loglik, _gmm_grad, _gmm_hess),
}


def _shared_pass(model: ModelInstance, theta) -> tuple[_Kernel, object]:
    kernel = _KERNELS[model.kind]
    return kernel, kernel.shared(model.data, _as_vector(theta, model.d))


def log_lik(model: ModelInstance, theta) -> float:
    """Average per-observation log-likelihood at ``theta``."""
    kernel, shared = _shared_pass(model, theta)
    return kernel.loglik(model.data, shared)


def grad_log_lik(model: ModelInstance, theta) -> np.ndarray:
    """Gradient of the average log-likelihood (one-sided at the boundary)."""
    kernel, shared = _shared_pass(model, theta)
    return kernel.grad(model.data, shared)


def hess_log_lik(model: ModelInstance, theta) -> np.ndarray:
    """Hessian of the average log-likelihood, exactly symmetrized."""
    kernel, shared = _shared_pass(model, theta)
    H = kernel.hess(model.data, shared)
    return 0.5 * (H + H.T)


def log_prior(prior: Prior, theta) -> float:
    theta = np.asarray(theta, dtype=float)
    if prior.is_flat:
        return 0.0
    return float(np.sum(prior.log_pdf(theta)))


def grad_log_prior(prior: Prior, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if prior.is_flat:
        return np.zeros_like(theta)
    return np.asarray(prior.grad_log_pdf(theta), dtype=float)


def log_posterior_unnorm(model: ModelInstance, theta) -> float:
    """log pi(theta) + n * l_n(theta), the unnormalized log Gibbs density."""
    return log_prior(model.prior, theta) + model.n * log_lik(model, theta)


def grad_log_posterior_unnorm(model: ModelInstance, theta) -> np.ndarray:
    return grad_log_prior(model.prior, theta) + model.n * grad_log_lik(model, theta)


def log_posterior_and_grad(model: ModelInstance, theta) -> tuple[float, np.ndarray]:
    """``log_posterior_unnorm`` and ``grad_log_posterior_unnorm`` from one
    pass over the data; each is bitwise equal to the separate call."""
    kernel, shared = _shared_pass(model, theta)
    value = log_prior(model.prior, theta) + model.n * kernel.loglik(model.data, shared)
    grad = grad_log_prior(model.prior, theta) + model.n * kernel.grad(model.data, shared)
    return value, grad


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def simulate(kind: str, theta_star, n: int, seed: int, *, prior: Prior | None = None,
             T: float = 1.0, A: np.ndarray | None = None,
             weights=None, covariances=None) -> ModelInstance:
    """Draw a synthetic dataset from ``kind`` at truth ``theta_star``.

    Deterministic for a fixed seed. For ``poisson`` a sensitivity matrix A may
    be supplied; otherwise entries are drawn uniform on [0, 1]. For ``gmm``
    the mixture weights and covariances must be supplied; ``theta_star`` is
    the flattened stack of the k component means.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    _require_finite(theta_star=theta_star)
    if np.any(theta_star < 0):
        raise ConfigError("theta_star must lie in the non-negative orthant")
    if n < 1:
        raise ConfigError("n must be >= 1")
    prior = prior if prior is not None else Prior.flat()
    rng = make_rng(seed)
    d = theta_star.shape[0]

    if kind == "logistic":
        X = rng.standard_normal((n, d))
        Y = (rng.random(n) < _expit(X @ theta_star)).astype(float)
        data = LogisticData(X=X, Y=Y)
    elif kind == "poisson":
        if A is None:
            A = rng.uniform(0.0, 1.0, (n, d))
        else:
            A = np.asarray(A, dtype=float)
            if A.shape != (n, d):
                raise ShapeError(f"A has shape {A.shape}, expected ({n},{d})")
        rates = A @ theta_star
        if np.any(rates <= 0):
            raise ConfigError("A theta_star has a non-positive rate; adjust A or theta_star")
        counts = rng.poisson(T * rates).astype(float)
        if not np.any(counts > 0):
            raise ConfigError("all simulated counts are zero; increase T or the rates")
        data = PoissonData(A=A, Y=counts / T, T=T)
    elif kind == "gmm":
        if weights is None or covariances is None:
            raise ConfigError("gmm simulation requires weights and covariances")
        w = np.asarray(weights, dtype=float)
        k = w.shape[0]
        if d % k != 0:
            raise ShapeError("theta_star length must be k * ambient dimension")
        m = d // k
        mu = theta_star.reshape(k, m)
        covs = np.asarray(covariances, dtype=float)
        if covs.shape != (k, m, m):
            raise ShapeError(f"covariances have shape {covs.shape}, expected ({k},{m},{m})")
        chols = np.stack([np.linalg.cholesky(covs[j]) for j in range(k)])
        labels = rng.choice(k, size=n, p=w)
        Z = rng.standard_normal((n, m))
        X = mu[labels]
        for j in range(k):
            rows = labels == j
            X[rows] += Z[rows] @ chols[j].T
        data = GmmData(X=X, weights=w, covariances=covs)
    else:
        raise ConfigError(f"unknown model kind {kind!r}")

    return ModelInstance(kind=kind, data=data, prior=prior, theta_star=theta_star)


@dataclass(frozen=True)
class ModelTemplate:
    """Everything needed to simulate fresh datasets of one model repeatedly."""

    kind: str
    theta_star: np.ndarray
    n: int
    prior: Prior = field(default_factory=Prior.flat)
    T: float = 1.0
    A: np.ndarray | None = None
    weights: np.ndarray | None = None
    covariances: np.ndarray | None = None

    def simulate(self, seed: int) -> ModelInstance:
        return simulate(self.kind, self.theta_star, self.n, seed, prior=self.prior,
                        T=self.T, A=self.A, weights=self.weights,
                        covariances=self.covariances)
