"""Statistical models: log-likelihoods, derivatives, priors, and simulators.

Three models are supported, all parameterized over the non-negative orthant:

* ``logistic`` -- binary regression, labels Bernoulli(sigmoid(X_i' theta)).
* ``poisson``  -- Poisson counts T*Y_i ~ Poisson(T * A_i' theta) with a
  non-negative sensitivity matrix A and exposure T.
* ``gmm``      -- Gaussian location mixture with known weights and
  covariances; the parameter is the flattened stack of component means.

Each kind has a data class, which carries the kind's name. A
``ModelTemplate`` is a checked model description, and ``simulate`` draws a
dataset from it. A ``ModelInstance`` pairs a dataset with a ``Prior(rate)``
(exponential, or flat at rate 0) and is the sampling target: its ``value``,
``grad`` and ``value_and_grad`` are the unnormalized log Gibbs density
log prior(theta) + n * l_n(theta) and its gradient.

All log-likelihoods are normalized per observation (averaged over the n
data points). Derivative formulas extend continuously to the orthant
boundary and are evaluated there as one-sided derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .rng import make_rng

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
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, locked: a cached array is shared by every call."""
    a.setflags(write=False)
    return a


def _require_finite(**arrays) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{name} must be finite (found NaN or inf)")


def mixture_weights(weights) -> np.ndarray:
    """gmm weights as a float array, checked to be non-empty, 1-D, finite and
    strictly positive: the rules that hold before they are scaled to sum 1."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w) & (w > 0)):
        raise ConfigError("gmm weights must be a non-empty 1-D array, finite and "
                          f"strictly positive; got {w.tolist()}")
    return w


def check_mixture(weights, covariances, m: int) -> tuple[np.ndarray, np.ndarray]:
    """A gmm mixture of components of dimension m, checked and returned as
    float arrays: ``mixture_weights`` summing to 1, and one finite,
    symmetric, positive definite (m, m) covariance per weight."""
    w = mixture_weights(weights)
    if abs(w.sum() - 1.0) > 1e-12:
        raise ConfigError(f"gmm weights must sum to 1; got {w.tolist()}")
    covs = np.asarray(covariances, dtype=float)
    k = w.size
    if covs.shape != (k, m, m):
        raise ShapeError(f"covariances have shape {covs.shape}, expected ({k},{m},{m})")
    _require_finite(covariances=covs)
    symmetric = np.isclose(covs, covs.transpose(0, 2, 1), atol=1e-12).all(axis=(1, 2))
    for j in range(k):
        if not symmetric[j]:
            raise ConfigError(f"covariance {j} is not symmetric")
        try:
            np.linalg.cholesky(covs[j])
        except np.linalg.LinAlgError:
            raise ConfigError(f"covariance {j} is not positive definite") from None
    return w, covs


def _as_vector(theta, d: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d,):
        raise ShapeError(f"parameter has shape {theta.shape}, expected ({d},)")
    return theta


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prior:
    """Product prior with i.i.d. coordinates on the orthant: flat (``rate``
    0, an improper prior with log-density 0) or exponential(rate), with
    log-density sum_j (log(rate) - rate * theta_j). Both are log-concave."""

    rate: float = 0.0

    def __post_init__(self):
        if not (self.rate == 0 or 0 < self.rate < math.inf):
            raise ConfigError(f"prior rate must be 0 (flat) or finite and > 0, "
                              f"got {self.rate}")

    @property
    def is_flat(self) -> bool:
        return self.rate == 0

    def oscillation(self, r: float) -> float:
        """Oscillation (sup - inf) of the log-density on [0, r]: rate * r."""
        return self.rate * max(r, 0.0)

    @staticmethod
    def from_json(obj: dict) -> "Prior":
        """The prior written as its field, ``{"rate": r}``."""
        return Prior(float(obj["rate"]))


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogisticData:
    kind: ClassVar[str] = "logistic"
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
    kind: ClassVar[str] = "poisson"
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

    # the rate check, the gradient and the Hessian read these on every call
    @cached_property
    def positive(self) -> np.ndarray:
        """Y > 0: the observations with a positive count."""
        return _read_only(self.Y > 0)

    @cached_property
    def TY(self) -> np.ndarray:
        """T * Y, unrounded."""
        return _read_only(self.T * self.Y)


@dataclass(frozen=True)
class GmmData:
    """Gaussian location mixture data. The quadratic forms are expanded
    around the data mean xbar: with u = x - xbar, v_j = mu_j - xbar and
    b_j = P_j v_j, (x - mu_j)' P_j (x - mu_j) = c_ij - 2 u_i' b_j + b_j' v_j,
    where the centred data U and c_ij = u_i' P_j u_i are cached once. Without
    the centring, data far from the origin lose digits to cancellation; with
    it the error grows only with the means' distance from xbar: the value's
    relative error was 1e-13 with the means 1e2 apart, 7e-12 at 1e3 apart.
    """

    kind: ClassVar[str] = "gmm"
    X: np.ndarray
    weights: np.ndarray
    covariances: np.ndarray  # (k, m, m)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        w, covs = check_mixture(self.weights, self.covariances, X.shape[1])
        _require_finite(X=X)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "covariances", covs)

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
    def log_norms(self) -> np.ndarray:
        """log w_j - (m log(2 pi) + log det Sigma_j) / 2, shape (k, 1): the
        log-normalising constant of each weighted component."""
        return _read_only((np.log(self.weights)
                           - 0.5 * (self.m * _LOG_2PI + self.log_dets))[:, None])

    @cached_property
    def centre(self) -> np.ndarray:
        """The data mean xbar, shape (m,)."""
        return self.X.mean(axis=0)

    @cached_property
    def centred(self) -> np.ndarray:
        """U = X - xbar, shape (n, m), column-major: B U' and Gamma U then
        read U' as a contiguous (m, n) array, three times faster for B U'."""
        return np.asfortranarray(self.X - self.centre)

    @cached_property
    def centred_quads(self) -> np.ndarray:
        """c_ij = u_i' P_j u_i, shape (k, n), one component at a time."""
        U = self.centred
        return np.stack([np.einsum("nm,nm->n", U, U @ P) for P in self.precisions])


@dataclass(frozen=True)
class ModelInstance:
    """A dataset and its prior: the sampling target, with the unnormalized
    log Gibbs density log prior(theta) + n * l_n(theta) as ``value``, its
    gradient as ``grad`` and both from one pass as ``value_and_grad``."""

    data: LogisticData | PoissonData | GmmData
    prior: Prior = Prior()
    theta_star: np.ndarray | None = None

    def __post_init__(self):
        if self.theta_star is not None:
            ts = np.asarray(self.theta_star, dtype=float)
            object.__setattr__(self, "theta_star", ts)
            if ts.shape != (self.d,):
                raise ShapeError("theta_star length does not match model dimension")

    @property
    def kind(self) -> str:
        return self.data.kind

    @property
    def d(self) -> int:
        return self.data.d

    @property
    def n(self) -> int:
        return self.data.n

    # the module functions are looked up at call time, so that a wrapper
    # installed on them sees every call
    def value(self, theta) -> float:
        return log_posterior_unnorm(self, theta)

    def grad(self, theta) -> np.ndarray:
        return grad_log_posterior_unnorm(self, theta)

    def value_and_grad(self, theta) -> tuple[float, np.ndarray]:
        return log_posterior_and_grad(self, theta)


# ---------------------------------------------------------------------------
# log-likelihood and derivatives
# ---------------------------------------------------------------------------


# Each kind has one pass over the data that computes what its value, gradient
# and Hessian share: eta = X theta for logistic, the rates A theta for
# Poisson, the responsibilities and log-sum-exp parts for the gmm. The value,
# gradient and Hessian kernels start from that pass, so a fused value and
# gradient computes it once. A kernel never writes to the pass's arrays, and
# returns a new array that the caller owns. Temporaries are updated in place,
# in the same operations and order as the plain expressions in the comments,
# so that the results are bitwise theirs.


class _Kernel(NamedTuple):
    shared: Callable  # (data, theta) -> intermediate
    loglik: Callable  # (data, intermediate) -> float
    grad: Callable  # (data, intermediate) -> (d,)
    hess: Callable  # (data, intermediate) -> (d, d)


def _logistic_eta(data: LogisticData, theta: np.ndarray) -> np.ndarray:
    return data.X @ theta


def _logistic_loglik(data: LogisticData, eta: np.ndarray) -> float:
    # mean(Y * eta - logaddexp(0, eta))
    per_obs = data.Y * eta
    per_obs -= np.logaddexp(0.0, eta)
    return float(np.mean(per_obs))


def _logistic_grad(data: LogisticData, eta: np.ndarray) -> np.ndarray:
    # X' (Y - expit(eta)) / n
    residual = _expit(eta)
    np.subtract(data.Y, residual, out=residual)
    grad = data.X.T @ residual
    grad /= data.n
    return grad


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
    if np.any(rates[data.positive] <= 0):
        raise DomainError("Poisson rate A_i theta <= 0 at an observation with Y_i > 0")
    return rates


def _poisson_loglik(data: PoissonData, rates: np.ndarray) -> float:
    counts = data.counts
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.where(counts > 0, counts * np.log(np.maximum(data.T * rates, 1e-300)), 0.0)
    per_obs = -data.T * rates + log_term - data.log_count_factorials
    return float(np.mean(per_obs))


def _poisson_grad(data: PoissonData, rates: np.ndarray) -> np.ndarray:
    # A' (where(Y > 0, T Y / rates, 0) - T) / n
    ratio = np.divide(data.TY, rates, out=np.zeros(data.n), where=data.positive)
    ratio -= data.T
    grad = data.A.T @ ratio
    grad /= data.n
    return grad


def _poisson_hess(data: PoissonData, rates: np.ndarray) -> np.ndarray:
    w = np.divide(data.TY, rates**2, out=np.zeros(data.n), where=data.positive)
    return _weighted_gram(data.A, w)


class _GmmPass(NamedTuple):
    v: np.ndarray  # centred means mu - xbar, (k, m)
    gamma: np.ndarray  # responsibilities, (k, n); each column sums to one
    shift: np.ndarray  # largest log component density of each point, (n,)
    total: np.ndarray  # sum over components of exp(log density - shift), (n,)


def _gmm_pass(data: GmmData, theta: np.ndarray) -> _GmmPass:
    """Centred means, responsibilities and the log-sum-exp parts at the
    stacked means ``theta``, from the expansion of ``GmmData`` (one product
    U b_j per component; its error grows with the means' distance from
    xbar), with max, exp and sum over the components. The per-point
    log-likelihood shift + log(total) is left to the value kernel."""
    v = theta.reshape(data.k, data.m) - data.centre
    b = (v[:, None, :] @ data.precisions)[:, 0]
    # quad = c - 2 (b U') + (b . v), then logc = log_norms - quad / 2
    logc = b @ data.centred.T
    logc *= 2.0
    np.subtract(data.centred_quads, logc, out=logc)
    logc += np.einsum("km,km->k", b, v)[:, None]
    logc *= 0.5
    np.subtract(data.log_norms, logc, out=logc)
    # gamma = exp(logc - shift) / total
    shift = logc.max(axis=0)
    logc -= shift
    gamma = np.exp(logc, out=logc)
    total = gamma.sum(axis=0)
    gamma /= total
    return _GmmPass(v, gamma, shift, total)


def _gmm_loglik(data: GmmData, shared: _GmmPass) -> float:
    per_point = np.log(shared.total)
    per_point += shared.shift
    return float(np.mean(per_point))


def _gmm_grad(data: GmmData, shared: _GmmPass) -> np.ndarray:
    """Rows P_j (sum_i gamma_ij u_i - (sum_i gamma_ij) v_j) / n."""
    v, gamma = shared.v, shared.gamma
    r = gamma @ data.centred
    r -= gamma.sum(axis=1)[:, None] * v
    grad = (r[:, None, :] @ data.precisions)[:, 0]
    grad /= data.n
    return grad.ravel()


def _gmm_hess(data: GmmData, shared: _GmmPass) -> np.ndarray:
    v, gamma = shared.v, shared.gamma
    k, m, n = data.k, data.m, data.n
    # per-observation scores P_j (x_i - mu_j) = P_j (u_i - v_j), shape (k, n, m)
    g = (data.centred - v[:, None, :]) @ data.precisions
    H = np.empty((k, k, m, m))
    for j in range(k):
        w_diag = gamma[j] * (1.0 - gamma[j])
        H[j, j] = (g[j].T * w_diag) @ g[j] / n - gamma[j].mean() * data.precisions[j]
        for jp in range(j + 1, k):
            w_mix = gamma[j] * gamma[jp]
            block = -(g[j].T * w_mix) @ g[jp] / n
            H[j, jp] = block
            H[jp, j] = block.T
    H = H.transpose(0, 2, 1, 3).reshape(k * m, k * m)
    return 0.5 * (H + H.T)


_KERNELS = {
    "logistic": _Kernel(_logistic_eta, _logistic_loglik, _logistic_grad, _logistic_hess),
    "poisson": _Kernel(_poisson_rates, _poisson_loglik, _poisson_grad, _poisson_hess),
    "gmm": _Kernel(_gmm_pass, _gmm_loglik, _gmm_grad, _gmm_hess),
}
KINDS = tuple(_KERNELS)


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
    """Hessian of the average log-likelihood, exactly symmetric."""
    kernel, shared = _shared_pass(model, theta)
    return kernel.hess(model.data, shared)


def log_prior(prior: Prior, theta) -> float:
    theta = np.asarray(theta, dtype=float)
    if prior.is_flat:
        return 0.0
    return float(np.sum(np.log(prior.rate) - prior.rate * theta))


def _posterior_value(model: ModelInstance, theta, kernel: _Kernel, shared) -> float:
    return log_prior(model.prior, theta) + model.n * kernel.loglik(model.data, shared)


def _posterior_grad(model: ModelInstance, kernel: _Kernel, shared) -> np.ndarray:
    """n * grad l_n plus the prior's constant gradient -rate, in place in
    the kernel's new array; a flat prior adds nothing, so a zero component
    keeps its sign where adding a zero vector would make it +0."""
    grad = kernel.grad(model.data, shared)
    grad *= model.n
    if not model.prior.is_flat:
        grad -= model.prior.rate
    return grad


def log_posterior_unnorm(model: ModelInstance, theta) -> float:
    """log pi(theta) + n * l_n(theta), the unnormalized log Gibbs density."""
    kernel, shared = _shared_pass(model, theta)
    return _posterior_value(model, theta, kernel, shared)


def grad_log_posterior_unnorm(model: ModelInstance, theta) -> np.ndarray:
    kernel, shared = _shared_pass(model, theta)
    return _posterior_grad(model, kernel, shared)


def log_posterior_and_grad(model: ModelInstance, theta) -> tuple[float, np.ndarray]:
    """``log_posterior_unnorm`` and ``grad_log_posterior_unnorm`` from one
    pass over the data; each is bitwise equal to the separate call."""
    kernel, shared = _shared_pass(model, theta)
    return (_posterior_value(model, theta, kernel, shared),
            _posterior_grad(model, kernel, shared))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def simulate(template: ModelTemplate, seed: int) -> ModelInstance:
    """Draw a synthetic dataset from the checked ``template``, at its truth.

    Deterministic for a fixed seed. For ``poisson`` the sensitivity matrix A
    is drawn uniform on [0, 1] and the counts at exposure 1. For ``gmm`` the
    truth is the flattened stack of the k component means.
    """
    theta_star, n, d = template.theta_star, template.n, template.theta_star.size
    rng = make_rng(seed)

    if template.kind == "logistic":
        X = rng.standard_normal((n, d))
        Y = (rng.random(n) < _expit(X @ theta_star)).astype(float)
        data = LogisticData(X=X, Y=Y)
    elif template.kind == "poisson":
        A = rng.uniform(0.0, 1.0, (n, d))
        rates = A @ theta_star
        if np.any(rates <= 0):
            raise ConfigError("A theta_star has a non-positive rate; adjust theta_star")
        data = PoissonData(A=A, Y=rng.poisson(rates).astype(float))
    else:
        w, covs = template.weights, template.covariances
        k, m = w.size, d // w.size
        mu = theta_star.reshape(k, m)
        labels = rng.choice(k, size=n, p=w)
        Z = rng.standard_normal((n, m))
        X = mu[labels]
        for j in range(k):
            rows = labels == j
            X[rows] += Z[rows] @ np.linalg.cholesky(covs[j]).T
        data = GmmData(X=X, weights=w, covariances=covs)

    return ModelInstance(data=data, prior=template.prior, theta_star=theta_star)


@dataclass(frozen=True)
class ModelTemplate:
    """Everything needed to simulate fresh datasets of one model repeatedly,
    and the one place where a model's kind, truth, n and mixture are checked;
    ``simulate`` takes it as checked. The arrays are stored as float arrays."""

    kind: str
    theta_star: np.ndarray
    n: int
    prior: Prior = Prior()
    weights: np.ndarray | None = None
    covariances: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        theta_star = np.asarray(self.theta_star, dtype=float)
        if theta_star.ndim != 1 or theta_star.size == 0 or not np.all(
                np.isfinite(theta_star) & (theta_star >= 0)):
            raise ConfigError("theta_star must be a non-empty 1-D array, "
                              "finite and non-negative")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        object.__setattr__(self, "theta_star", theta_star)
        given = [self.weights is not None, self.covariances is not None]
        if given != [self.kind == "gmm"] * 2:
            raise ConfigError("gmm requires weights and covariances, and no other "
                              "kind takes them")
        if self.kind != "gmm":
            return
        d, k = theta_star.size, np.size(self.weights)
        if np.ndim(self.weights) != 1 or k == 0 or d % k:
            raise ConfigError(f"gmm requires d divisible by k, the length of its 1-D "
                              f"weights; got d={d}, weights of shape "
                              f"{np.shape(self.weights)}")
        weights, covariances = check_mixture(self.weights, self.covariances, d // k)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "covariances", covariances)

    def simulate(self, seed: int) -> ModelInstance:
        return simulate(self, seed)
