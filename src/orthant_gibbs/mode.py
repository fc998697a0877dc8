"""Mode finding on the orthant.

``maximize_projected`` is a projected gradient ascent with Armijo
backtracking; ``find_mode_local`` applies it to a model's (normalized) log
posterior. ``find_mode_global`` runs that ascent from several uniform starts
in a box and keeps the best result, for multi-modal targets such as the
Gaussian mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import models
from .errors import ConfigError, DomainError, NonFiniteError
from .geometry import GoodSet, orthant_box, project_good_set
from .rng import make_rng

ARMIJO = 1e-4
BACKTRACK = 0.5
MIN_STEP = 1e-20
MAX_ITER = 10_000


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
    ``tol`` must be finite and positive, or no residual could meet it. When
    no step moves x (backtracking fell below ``MIN_STEP``, or the accepted
    step rounds away) the ascent stops with ``converged=False``.
    """
    if not 0 < tol < math.inf:
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    x = np.asarray(x0, dtype=float)
    orthant = GoodSet.orthant(x.size)
    x = project_good_set(orthant, x)
    f = _safe_value(fun, x)
    if not math.isfinite(f):
        raise NonFiniteError("objective is non-finite at the (projected) initial point")
    alpha = 1.0
    residual = math.inf
    for it in range(1, MAX_ITER + 1):
        g = np.asarray(grad(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"gradient non-finite at iteration {it}")
        residual = float(np.linalg.norm(x - project_good_set(orthant, x + g)))
        if residual <= tol:
            return ModeResult(theta_hat=x, objective=f, grad_norm=residual,
                              iterations=it - 1, converged=True)
        # try growing the last accepted step so the ascent is not stuck small
        alpha = min(alpha / BACKTRACK, 1e8)
        while True:
            x_new = project_good_set(orthant, x + alpha * g)
            f_new = _safe_value(fun, x_new)
            if f_new >= f + ARMIJO * float(g @ (x_new - x)):
                break
            alpha *= BACKTRACK
            if alpha < MIN_STEP:
                x_new = x  # no admissible ascent step
                break
        if np.array_equal(x_new, x):
            # stalled above tol: a step that leaves x as it is would pass
            # Armijo trivially at every iteration until MAX_ITER
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


def default_box(theta_star) -> tuple[np.ndarray, np.ndarray]:
    """The global search's default box of starts, [0, max(1, max theta*) + 2]^d."""
    span = max(1.0, float(np.max(theta_star))) + 2.0
    return np.zeros(len(theta_star)), np.full(len(theta_star), span)


def find_mode_global(model: models.ModelInstance, bounds, *, n_restarts: int = 10,
                     seed: int = 0, tol: float = 1e-8) -> ModeResult:
    """Best of ``n_restarts`` projected ascents from uniform starts in ``bounds``.

    ``bounds`` is a (lo, hi) pair of length-d arrays, intersected with the
    orthant; it bounds only the starts (restart r draws its start from
    ``make_rng(seed, r)``), not the ascents. The highest objective wins and a
    tie keeps the earlier restart, so the result is deterministic for a
    fixed seed.
    """
    lo, hi = orthant_box(bounds, model.d)
    if n_restarts < 1:
        raise ConfigError(f"n_restarts must be >= 1, got {n_restarts}")
    fun, grad = _posterior_objective(model)
    best = None
    for r in range(n_restarts):
        result = maximize_projected(fun, grad, make_rng(seed, r).uniform(lo, hi),
                                    tol=tol)
        if best is None or result.objective > best.objective:
            best = result
    return replace(best, restarts_used=n_restarts)
