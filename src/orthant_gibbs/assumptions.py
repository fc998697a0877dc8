"""Numerical checks of the local tractability constants and the bound
formulas built from them.

Constants are estimated by Monte Carlo over a ball-times-box region around
the mode: the smallest eigenvalue of the negated regular-block Hessian
(c_S0), the most negative boundary partial derivative (C_S1), and the
largest Hessian operator norm (s2). The reports are labeled estimates, not
certificates; grid size and seed are recorded for reproducibility.

The grid is walked in order with running extremes. At each point, Cholesky
factorisations certify that the point cannot reach them: t*I + H and
t*I - H positive definite with t just below the running s2, and the negated
regular block minus just above the running c_S0 times I positive definite.
An eigensolver runs only at a point that fails its certificate, so the
estimates are the extremes of the same eigenvalues a full scan computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import ConfigError, DomainError, NumericalError
from .geometry import CoordinateSplit, GoodSet, contains_many, orthant_box
from .rng import make_rng


@dataclass(frozen=True)
class RegionSpec(GoodSet):
    """The good-set region B(center, r0, r1) with the Monte Carlo grid size
    and seed its constants are estimated on."""

    grid: int = 200
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.grid < 1:
            raise ConfigError("grid must be >= 1")
        if self.split.d0 > 0 and self.r0 <= 0:
            raise ConfigError("r0 must be positive when regular coordinates exist")
        if self.split.d1 > 0 and self.r1 <= 0:
            raise ConfigError("r1 must be positive when boundary coordinates exist")


@dataclass(frozen=True)
class AssumptionReport:
    c_S0_hat: float  # min over the grid of lambda_min(-Hess restricted to S0)
    C_S1_hat: float  # min over grid and j in S1 of -d_j loglik
    s2_hat: float    # max over the grid of the Hessian operator norm
    osc_bound: float
    C_PI_bound: float
    grid: int
    seed: int

    def __post_init__(self):
        finite = [self.c_S0_hat, self.C_S1_hat, self.s2_hat, self.osc_bound]
        if not all(math.isfinite(v) for v in finite if not math.isnan(v)):
            raise NumericalError("assumption report contains non-finite estimates")
        # C_PI_bound may be +inf: the vacuous bound reported when a measured
        # curvature/gradient constant is non-positive on the region.
        if math.isnan(self.C_PI_bound) or self.C_PI_bound < 0:
            raise NumericalError("C_PI_bound must be a non-negative number")


def sample_region(region: RegionSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform draws from the ball-times-box region (rejection-free),
    clamped to the orthant.

    The region is defined intersected with the orthant; clamping a ball draw
    coordinate-wise at zero can only shrink its distance to the (orthant)
    center, so clamped points stay inside the region.
    """
    out = np.tile(region.center, (size, 1))
    split = region.split
    if split.d0 > 0:
        z = rng.standard_normal((size, split.d0))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        radii = region.r0 * rng.random(size) ** (1.0 / split.d0)
        out[:, split.S0] += radii[:, None] * z
    if split.d1 > 0:
        lo = np.maximum(region.center[split.S1] - region.r1, 0.0)
        hi = region.center[split.S1] + region.r1
        out[:, split.S1] = rng.uniform(lo, hi, (size, split.d1))
    return np.maximum(out, 0.0)


def operator_norm(H: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix: its largest absolute eigenvalue."""
    return float(np.max(np.abs(np.linalg.eigvalsh(H))))


# Relative gap between a running extreme and the shift a Cholesky certificate
# tests at: about 1e4 times Cholesky's backward error at d = 200, so a point
# that passes cannot hold an eigenvalue at or beyond the extreme
_MARGIN = 1e-9


def _is_pd(A: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _shifted(A: np.ndarray, shift: float) -> np.ndarray:
    """A + shift * I, as a new array."""
    out = A.copy()
    out.flat[::A.shape[0] + 1] += shift
    return out


def estimate_constants(model: models.ModelInstance,
                       region: RegionSpec) -> AssumptionReport:
    """Monte Carlo estimates of (c_S0, C_S1, s2) over ``region`` plus the
    oscillation and Poincare bounds implied by them.

    The radius multipliers are recovered from the region radii via
    delta0 = r0*sqrt(n/d0) and delta1 = r1*n with n the model sample count.
    Eigensolves run only at grid points whose Cholesky certificate fails
    (module docstring); the estimates equal those of a per-point scan.
    """
    rng = make_rng(region.seed, 0xA5)
    pts = sample_region(region, rng, region.grid)
    split = region.split
    d0, d1, n = split.d0, split.d1, model.n

    c_s0 = math.inf if d0 > 0 else math.nan
    c_s1 = math.inf if d1 > 0 else math.nan
    s2 = 0.0
    for theta in pts:
        H = models.hess_log_lik(model, theta)
        t = s2 * (1.0 - _MARGIN)
        if not (_is_pd(_shifted(H, t)) and _is_pd(_shifted(-H, t))):
            s2 = max(s2, operator_norm(H))
        if d0 > 0:
            neg_block = -H[np.ix_(split.S0, split.S0)]
            if c_s0 == math.inf or not _is_pd(_shifted(neg_block, -(c_s0 + _MARGIN * s2))):
                c_s0 = min(c_s0, float(np.linalg.eigvalsh(neg_block)[0]))
        if d1 > 0:
            g = models.grad_log_lik(model, theta)
            c_s1 = min(c_s1, float(np.min(-g[split.S1])))

    delta0 = region.r0 * math.sqrt(n / d0) if d0 > 0 else 0.0
    delta1 = region.r1 * n if d1 > 0 else 0.0
    osc = osc_bound(s2, delta0, delta1, d0, d1, n)
    prior_osc = model.prior.oscillation(region.r1 if d1 > 0 else 0.0)
    if (d0 > 0 and c_s0 <= 0) or (d1 > 0 and c_s1 <= 0):
        # A non-positive measured constant means the curvature/boundary-
        # gradient assumption fails somewhere on the region; the Poincare
        # bound is then vacuous.  Report it as such rather than erroring so
        # callers can inspect the offending estimate.
        cpi = math.inf
    else:
        cpi = poincare_bound(c_s0, c_s1, s2, delta0, delta1, d0, d1, n,
                             prior_osc=prior_osc)
    return AssumptionReport(c_S0_hat=c_s0, C_S1_hat=c_s1, s2_hat=s2,
                            osc_bound=osc, C_PI_bound=cpi,
                            grid=region.grid, seed=region.seed)


def decompose_likelihood(model: models.ModelInstance, theta_hat, split: CoordinateSplit,
                         theta, *, grad_hat: np.ndarray | None = None
                         ) -> tuple[float, float, float]:
    """Split the log-likelihood at ``theta`` into (f, g, B) parts.

    f is the likelihood with the boundary block frozen at the mode, g is the
    linear boundary term sum_j d_j l(theta_hat) * theta_j, and B is the
    remainder, so l = B + f + g holds identically.
    """
    theta = np.asarray(theta, dtype=float)
    theta_hat = np.asarray(theta_hat, dtype=float)
    frozen = theta.copy()
    frozen[split.S1] = theta_hat[split.S1]
    f_part = models.log_lik(model, frozen)
    if split.d1 > 0:
        if grad_hat is None:
            grad_hat = models.grad_log_lik(model, theta_hat)
        g_part = float(grad_hat[split.S1] @ theta[split.S1])
    else:
        g_part = 0.0
    b_part = models.log_lik(model, theta) - f_part - g_part
    return f_part, g_part, b_part


def osc_bound(s2: float, delta0: float, delta1: float, d0: int, d1: int,
              n: int) -> float:
    """Upper bound on the oscillation of the coupling term B:
    2*s2*(delta0*delta1*sqrt(d0*d1)/n^(3/2) + delta1^2*d1/n^2)."""
    if d1 == 0:
        return 0.0
    return 2.0 * s2 * (delta0 * delta1 * math.sqrt(d0 * d1) / n**1.5
                       + delta1**2 * d1 / n**2)


def poincare_bound(c_S0: float, C_S1: float, s2: float, delta0: float,
                   delta1: float, d0: int, d1: int, n: int, *,
                   prior_osc: float = 0.0, factor: float = 4.0) -> float:
    """Poincare-constant bound for the Gibbs measure restricted to the good
    set: max(1/(n*c_S0), factor*exp(prior_osc)/(n^2*C_S1^2)) times
    exp(2*s2*(delta0*delta1*sqrt(d0*d1)/sqrt(n) + delta1^2*d1/n)).

    ``factor`` is 4 for the deterministic statement and 16 for the random
    (empirical-likelihood) variant, where C_S1 plays the role of c_S1.
    Degenerate blocks (d0 = 0 or d1 = 0) drop the corresponding branch.
    """
    if prior_osc < 0:
        raise ConfigError("prior_osc must be non-negative")
    branches = []
    if d0 > 0:
        if c_S0 <= 0:
            raise ConfigError("c_S0 must be positive")
        branches.append(1.0 / (n * c_S0))
    if d1 > 0:
        if C_S1 <= 0:
            raise ConfigError("C_S1 must be positive")
        branches.append(factor * math.exp(prior_osc) / (n**2 * C_S1**2))
    if not branches:
        raise ConfigError("at least one of d0, d1 must be positive")
    expo = 2.0 * s2 * (delta0 * delta1 * math.sqrt(d0 * d1) / math.sqrt(n)
                       + delta1**2 * d1 / n)
    return max(branches) * math.exp(expo)


def concentration_sample_size(d0: int, d1: int, eps: float,
                              cbar4: float = 1.0) -> int:
    """Sample size sufficient for good-set concentration:
    ceil(cbar4 * d0 * d1 * log^2((d0+d1)/eps))."""
    if d0 < 1 or d1 < 1:
        raise ConfigError("d0 and d1 must be >= 1")
    if not 0 < eps < 1:
        raise ConfigError("eps must lie in (0, 1)")
    if cbar4 <= 0:
        raise ConfigError("cbar4 must be positive")
    return math.ceil(cbar4 * d0 * d1 * math.log((d0 + d1) / eps) ** 2)


_OUTSIDE_SAMPLES = 1000


def check_well_separation(model: models.ModelInstance, mode_result, region: RegionSpec,
                          bounds, seed: int = 0) -> float:
    """Heuristic lower-confidence estimate of the separation gap zeta.

    Samples 1000 points (``_OUTSIDE_SAMPLES``) uniformly from the bounding box
    (intersected with the orthant), keeps those outside the region, and
    returns the minimum of loglik(mode) - loglik(theta) over them. A
    non-positive value flags a failed well-separation assumption.
    """
    lo, hi = orthant_box(bounds)
    rng = make_rng(seed, 0x5E)
    theta_hat = np.asarray(mode_result.theta_hat, dtype=float)
    ll_hat = models.log_lik(model, theta_hat)
    # one (N, d) draw is bitwise the N draws of (d,) a loop would take
    thetas = rng.uniform(lo, hi, (_OUTSIDE_SAMPLES,) + lo.shape)
    outside = thetas[~contains_many(region, thetas)]
    if outside.shape[0] == 0:
        raise ConfigError("no samples landed outside the region; enlarge the box")
    zeta = math.inf
    for theta in outside:
        try:
            zeta = min(zeta, ll_hat - models.log_lik(model, theta))
        except DomainError:
            continue  # inadmissible points are infinitely separated
    return zeta
