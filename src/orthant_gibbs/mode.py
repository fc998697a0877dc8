"""Mode finding on the orthant.

``maximize_projected`` is a projected gradient ascent with Armijo
backtracking; ``find_mode_local`` applies it to a model's (normalized) log
posterior. ``find_mode_global`` runs multi-start simulated annealing inside a
bounding box and polishes the best state locally, for multi-modal targets
such as the Gaussian mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import models
from .errors import ConfigError, DomainError, NonFiniteError
from .geometry import project_orthant
from .rng import make_rng

ARMIJO = 1e-4
BACKTRACK = 0.5
MIN_STEP = 1e-20
MAX_ITER = 10_000
# annealing: initial temperature, its factor per step, and the proposal
# scale as a fraction of the box width
TEMPERATURE = 1.0
COOLING = 0.995
PROPOSAL_FRAC = 0.1


@dataclass(frozen=True)
class ModeResult:
    theta_hat: np.ndarray
    objective: float
    grad_norm: float  # norm of the projected-gradient residual
    iterations: int
    converged: bool
    restarts_used: int = 0


def _safe_value(fun: Callable, x: np.ndarray) -> float:
    """Objective value with domain violations mapped to -inf."""
    try:
        v = float(fun(x))
    except DomainError:
        return -math.inf
    return v if math.isfinite(v) else -math.inf


def maximize_projected(fun: Callable, grad: Callable, x0, *,
                       tol: float = 1e-8) -> ModeResult:
    """Maximize ``fun`` over the orthant by projected gradient ascent.

    The step x <- P(x + alpha * grad) is backtracked until the Armijo
    condition f(x+) >= f(x) + c <grad, x+ - x> holds; non-finite objective
    values shrink the step instead of propagating. Convergence is declared on
    the unit-step projected-gradient residual ||x - P(x + grad)|| <= tol,
    which also vanishes at boundary modes where the raw gradient does not;
    ``tol`` must be finite and positive, or no residual could meet it.
    """
    if not 0 < tol < math.inf:
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    x = project_orthant(np.asarray(x0, dtype=float))
    f = _safe_value(fun, x)
    if not math.isfinite(f):
        raise NonFiniteError("objective is non-finite at the (projected) initial point")
    alpha = 1.0
    residual = math.inf
    for it in range(1, MAX_ITER + 1):
        g = np.asarray(grad(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"gradient non-finite at iteration {it}")
        residual = float(np.linalg.norm(x - project_orthant(x + g)))
        if residual <= tol:
            return ModeResult(theta_hat=x, objective=f, grad_norm=residual,
                              iterations=it - 1, converged=True)
        # try growing the last accepted step so the ascent is not stuck small
        alpha = min(alpha / BACKTRACK, 1e8)
        while True:
            x_new = project_orthant(x + alpha * g)
            f_new = _safe_value(fun, x_new)
            if f_new >= f + ARMIJO * float(g @ (x_new - x)):
                break
            alpha *= BACKTRACK
            if alpha < MIN_STEP:
                # no admissible ascent step: treat as converged to tolerance failure
                return ModeResult(theta_hat=x, objective=f, grad_norm=residual,
                                  iterations=it, converged=False)
        x, f = x_new, f_new
    return ModeResult(theta_hat=x, objective=f, grad_norm=residual,
                      iterations=MAX_ITER, converged=residual <= tol)


def _posterior_objective(model: models.ModelInstance):
    n = model.n

    def fun(x):
        return models.log_posterior_unnorm(model, x) / n

    def grad(x):
        return models.grad_log_posterior_unnorm(model, x) / n

    return fun, grad


def find_mode_local(model: models.ModelInstance, init, *,
                    tol: float = 1e-8) -> ModeResult:
    """Projected gradient ascent on the per-observation log posterior."""
    fun, grad = _posterior_objective(model)
    return maximize_projected(fun, grad, init, tol=tol)


def find_mode_global(model: models.ModelInstance, bounds, *, n_restarts: int = 10,
                     n_anneal: int = 2000, seed: int = 0,
                     tol: float = 1e-8) -> ModeResult:
    """Multi-start annealing inside ``bounds`` followed by a local polish.

    ``bounds`` is a (lo, hi) pair of length-d arrays; the search box is
    intersected with the orthant. Deterministic for a fixed seed. Annealing
    hyperparameters are artifact defaults (the method only needs a state in
    the basin of the dominant mode).
    """
    lo = np.maximum(np.asarray(bounds[0], dtype=float), 0.0)
    hi = np.asarray(bounds[1], dtype=float)
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise ConfigError("bounding box is empty")
    width = hi - lo
    fun, grad = _posterior_objective(model)

    best_x, best_f = None, -math.inf
    for r in range(n_restarts):
        rng = make_rng(seed, r)
        x = rng.uniform(lo, hi)
        f = _safe_value(fun, x)
        temp = TEMPERATURE
        for _ in range(n_anneal):
            prop = np.clip(x + PROPOSAL_FRAC * width * rng.standard_normal(x.size), lo, hi)
            f_prop = _safe_value(fun, prop)
            delta = f_prop - f
            if delta > 0 or (math.isfinite(delta) and rng.random() < math.exp(delta / temp)):
                x, f = prop, f_prop
            temp *= COOLING
        if f > best_f:
            best_x, best_f = x, f

    if best_x is None:
        raise ConfigError("annealing found no finite objective value in the box")
    polished = maximize_projected(fun, grad, best_x, tol=tol)
    return ModeResult(theta_hat=polished.theta_hat, objective=polished.objective,
                      grad_norm=polished.grad_norm, iterations=polished.iterations,
                      converged=polished.converged, restarts_used=n_restarts)
