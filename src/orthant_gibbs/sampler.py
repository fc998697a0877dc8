"""Projected Langevin Monte Carlo.

One step is the unadjusted Euler-Maruyama update followed by the projection
P onto the chain's domain, a ``geometry.GoodSet``:

    x <- P(x + h * grad_log_density(x) + xi),    xi ~ N(0, 2h I).

The domain is the orthant (no ball and the box [0, inf) on every
coordinate, where P is max(x, 0)) or a good set around a mode; one
projection and one membership test serve both.

The target is anything with ``value``, ``grad``, ``value_and_grad`` and
``d``, such as a ``models.ModelInstance``, whose log density is the
unnormalized log posterior log pi(theta) + n * loglik(theta). No
Metropolis correction is applied, so the stationary law carries a
discretization bias, and the projection makes it O(sqrt(h)) at the
boundary, with an atom of mass O(sqrt(h)) exactly on it: on Exp(1) over
[0, inf) the mean is 0.76 at h = 0.1 and 0.92 at h = 0.01 (truth 1), with
28 % and 10 % of the draws at 0. Reflection at the boundary is
approximated by projection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import io
from .errors import ConfigError, NonFiniteError, ShapeError
from .geometry import GoodSet, contains_many, project_good_set
from .rng import make_rng


@dataclass(frozen=True)
class SamplerConfig:
    step_size: float
    n_steps: int
    burn_in: int = 0
    projection: str | GoodSet = "orthant"
    init: np.ndarray | None = None  # explicit start; None = theta_star + N(0, I)
    seed: int = 0
    thin: int = 1

    def __post_init__(self):
        if not 0 < self.step_size < math.inf:
            raise ConfigError(f"step_size must be finite and > 0, got {self.step_size}")
        if not 0 <= self.burn_in < self.n_steps:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < n_steps")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if isinstance(self.projection, str) and self.projection != "orthant":
            raise ConfigError(f"unknown projection {self.projection!r}")
        if self.init is not None:
            object.__setattr__(self, "init", np.asarray(self.init, dtype=float))

    def domain(self, d: int) -> GoodSet:
        """The set the chain lives in: the configured good set, or for
        ``"orthant"`` the orthant of R^d."""
        if isinstance(self.projection, GoodSet):
            return self.projection
        return GoodSet.orthant(d)


@dataclass(frozen=True)
class Chain:
    """Kept (post burn-in, thinned) states of one trajectory."""

    samples: np.ndarray  # (kept_steps, d)
    log_posterior: np.ndarray  # (kept_steps,)
    config: SamplerConfig
    runtime_ms: float = 0.0

    @property
    def d(self) -> int:
        return self.samples.shape[1]

    def _table(self) -> np.ndarray:
        """Columns theta_0..theta_{d-1}, log_post; one row per kept step."""
        return np.column_stack([self.samples, self.log_posterior])

    def _write_meta(self, path) -> None:
        io.write_json(str(path) + ".meta.json",
                      {"config": self.config, "seed": self.config.seed,
                       "runtime_ms": self.runtime_ms})

    def export_csv(self, path) -> None:
        """One row per kept step, columns theta_0..theta_{d-1}, log_post."""
        header = ",".join([f"theta_{j}" for j in range(self.d)] + ["log_post"])
        np.savetxt(path, self._table(), delimiter=",", header=header,
                   comments="", fmt="%.17g")
        self._write_meta(path)

    def export_npy(self, path) -> None:
        """The CSV's table as one float64 array of shape (kept, d+1), no
        header, written with ``np.save`` to ``path`` as given; ``np.load``
        reads it back exactly."""
        with open(path, "wb") as fh:
            np.save(fh, self._table())
        self._write_meta(path)


def plmc_step(x: np.ndarray, drift, h: float, xi: np.ndarray, domain: GoodSet
              ) -> np.ndarray:
    """One projected Langevin step from ``x`` with the drift already taken
    there: the projection of x + h * drift + xi onto ``domain``, with ``xi``
    the step's N(0, 2h I) increment. No argument is written to."""
    drift = np.asarray(drift, dtype=float)
    # a NaN or inf entry makes drift . drift non-finite, and so can finite
    # entries above 1e154; the exact test runs only then
    if not math.isfinite(drift @ drift) and not np.isfinite(drift).all():
        raise NonFiniteError("non-finite drift")
    # looked up in this module at call time, so a wrapper installed here
    # before a chain starts sees every projection
    return project_good_set(domain, x + h * drift + xi)


# Normal draws per block of a chain's noise: 64 KB, 40 steps at d = 200
_NOISE_BLOCK = 8192


def _initial_state(target, config: SamplerConfig, rng: np.random.Generator,
                   domain: GoodSet) -> np.ndarray:
    if config.init is not None:
        start = config.init
    elif getattr(target, "theta_star", None) is not None:
        start = target.theta_star + rng.standard_normal(target.theta_star.size)
    else:
        raise ConfigError("no explicit init and no theta_star available for a warm start")
    if start.shape != (target.d,):
        raise ShapeError(f"init has shape {start.shape}, expected ({target.d},)")
    return project_good_set(domain, start)


def run_chain(target, config: SamplerConfig) -> Chain:
    """Run projected LMC and keep post-burn-in, thinned states.

    A kept state's log density comes from the fused value-and-gradient call
    at the next step's drift; only the last kept state, when it is the final
    state, needs a lone value call. The noise is drawn ``_NOISE_BLOCK``
    numbers at a time and scaled by sqrt(2h) once per block: one (rows, d)
    draw is bitwise the ``rows`` draws of (d,) it stands for, and each step
    takes one row as its increment.
    """
    domain = config.domain(target.d)
    rng = make_rng(config.seed, 0x10)
    x = _initial_state(target, config, rng, domain)

    kept = -(-(config.n_steps - config.burn_in) // config.thin)
    samples = np.empty((kept, target.d))
    log_post = np.empty(kept)
    per_block = max(1, _NOISE_BLOCK // target.d)  # steps per noise block
    h = config.step_size
    row = 0
    x_kept = False  # x is samples[row - 1], and its log density is still owed
    t0 = time.perf_counter()
    for k in range(config.n_steps):
        if k % per_block == 0:
            xi = rng.standard_normal((min(per_block, config.n_steps - k), target.d))
            xi *= math.sqrt(2.0 * h)
        if x_kept:
            log_post[row - 1], drift = target.value_and_grad(x)
        else:
            drift = target.grad(x)
        try:
            x = plmc_step(x, drift, h, xi[k % per_block], domain)
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} at step {k}") from None
        x_kept = k >= config.burn_in and (k - config.burn_in) % config.thin == 0
        if x_kept:
            samples[row] = x
            row += 1
    if x_kept:
        log_post[row - 1] = target.value(x)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return Chain(samples=samples, log_posterior=log_post, config=config,
                 runtime_ms=runtime_ms)


def check_membership(chain: Chain) -> bool:
    """True iff every kept sample lies in the chain's domain."""
    return bool(np.all(contains_many(chain.config.domain(chain.d), chain.samples)))
