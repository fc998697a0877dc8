"""Coordinate splitting, the ball-times-box neighborhood of the mode, and
Euclidean projections onto the orthant and onto that neighborhood."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import io
from .errors import ConfigError, ShapeError
from .models import _read_only


@dataclass(frozen=True)
class CoordinateSplit:
    """Partition of coordinate indices into regular (S0) and boundary (S1)."""

    S0: np.ndarray
    S1: np.ndarray

    def __post_init__(self):
        S0 = np.asarray(self.S0, dtype=int)
        S1 = np.asarray(self.S1, dtype=int)
        object.__setattr__(self, "S0", S0)
        object.__setattr__(self, "S1", S1)
        d = S0.size + S1.size
        combined = np.sort(np.concatenate([S0, S1]))
        if not np.array_equal(combined, np.arange(d)):
            raise ShapeError("S0 and S1 must partition {0,...,d-1}")

    @property
    def d0(self) -> int:
        return self.S0.size

    @property
    def d1(self) -> int:
        return self.S1.size

    @property
    def d(self) -> int:
        return self.d0 + self.d1


def split_coordinates(theta_hat, tau: float) -> tuple[CoordinateSplit, np.ndarray]:
    """Split coordinates at threshold ``tau`` and snap boundary ones to 0.

    Returns the split and the snapped center: j lands in S1 iff
    theta_hat[j] <= tau, so ``tau`` must be finite and positive.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    if not 0 < tau < math.inf:
        raise ConfigError(f"tau must be finite and > 0, got {tau}")
    mask = theta_hat <= tau
    split = CoordinateSplit(S0=np.flatnonzero(~mask), S1=np.flatnonzero(mask))
    center = theta_hat.copy()
    center[mask] = 0.0
    return split, center


def default_deltas(d1: int, eps: float = 0.05) -> tuple[float, float]:
    """Default radius multipliers delta0 = log(1/eps), delta1 = log(d1/eps):
    the paper's rule with its constants cbar0 = cbar1 = 1."""
    if not 0 < eps < 1:
        raise ConfigError("eps must lie in (0, 1)")
    return math.log(1.0 / eps), math.log(max(d1, 1) / eps)


@dataclass(frozen=True)
class GoodSet:
    """Product region B2(center_S0, r0) x Binf(center_S1, r1), intersected
    with the orthant. The projection needs a finite, non-negative center and
    radii; a set read from a file is checked like one built here."""

    center: np.ndarray
    split: CoordinateSplit
    r0: float
    r1: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", center)
        if center.shape != (self.split.d,):
            raise ShapeError("center length does not match the split dimension")
        if not np.all(np.isfinite(center) & (center >= 0)):
            raise ConfigError("good-set center must be finite and non-negative")
        if not (0 <= self.r0 < math.inf and 0 <= self.r1 < math.inf):
            raise ConfigError(f"radii must be finite and >= 0, got r0={self.r0}, r1={self.r1}")

    # computed once per set; the projection and the membership test read
    # both, and the Monte Carlo region reads the box
    @cached_property
    def _ball_center(self) -> np.ndarray:
        return _read_only(self.center[self.split.S0])

    @cached_property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """The box (lo, hi) on S1: [max(c - r1, 0), c + r1] per coordinate."""
        c1 = self.center[self.split.S1]
        return _read_only(np.maximum(c1 - self.r1, 0.0)), _read_only(c1 + self.r1)

    @staticmethod
    def from_json(obj: dict) -> "GoodSet":
        """The set :meth:`save` wrote."""
        return GoodSet(center=obj["center"], split=CoordinateSplit(**obj["split"]),
                       r0=float(obj["r0"]), r1=float(obj["r1"]))

    def save(self, path) -> None:
        io.write_json(path, self)


def build_good_set(theta_hat, split: CoordinateSplit, delta0: float | None,
                   delta1: float, n: int, *, warn=None) -> GoodSet:
    """Construct the good set with radii r0 = delta0*sqrt(d0/n), r1 = delta1/n.

    With no regular coordinates (d0 = 0) the set is the box alone; supplying
    delta0 in that case is a configuration error. ``warn`` is an optional
    callable receiving a message when r0 reaches the smallest regular
    coordinate of the center (the construction is then suspect).
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    if n < 1:
        raise ConfigError("n must be >= 1")
    if split.d0 == 0:
        if delta0 is not None:
            raise ConfigError("delta0 given but there are no regular coordinates")
        r0 = 0.0
    else:
        if delta0 is None or delta0 <= 0:
            raise ConfigError("delta0 must be positive")
        r0 = delta0 * math.sqrt(split.d0 / n)
    if split.d1 == 0:
        r1 = 0.0
    else:
        if delta1 <= 0:
            raise ConfigError("delta1 must be positive")
        r1 = delta1 / n

    center = theta_hat.copy()
    center[split.S1] = 0.0
    if split.d0 > 0 and warn is not None:
        min_s0 = float(np.min(center[split.S0]))
        if r0 >= min_s0:
            warn(f"ball radius r0={r0:.3g} reaches the smallest regular "
                 f"coordinate {min_s0:.3g}")
    return GoodSet(center=center, split=split, r0=float(r0), r1=float(r1))


def _l2(diff):
    # the one ball distance for membership tests and the projection, so a
    # projected point can never fail membership by an ulp. It takes a single
    # 1-D vector: BLAS nrm2 and a batched np.sum(axis=1) accumulate in other
    # orders and can land an ulp away from this pairwise 1-D sum
    diff = np.asarray(diff, dtype=float)
    return np.sqrt(np.sum(diff * diff))


def contains_many(gs: GoodSet, thetas) -> np.ndarray:
    """Closed-set membership of each row of a (rows x d) sample matrix, with
    exact comparisons against the set's ball and box, the ones the projection
    maps onto; a row holding NaN is outside."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != gs.center.shape[0]:
        raise ShapeError("sample dimension does not match the good set")
    ok = np.all(thetas >= 0, axis=1)
    if gs.split.d0 > 0:
        diff = thetas[:, gs.split.S0] - gs._ball_center
        ok &= np.array([_l2(row) for row in diff]) <= gs.r0
    if gs.split.d1 > 0:
        lo, hi = gs.box
        block = thetas[:, gs.split.S1]
        ok &= np.all((lo <= block) & (block <= hi), axis=1)
    return ok


def project_orthant(theta) -> np.ndarray:
    """Coordinate-wise max(theta, 0), as a new array."""
    return np.maximum(np.asarray(theta, dtype=float), 0.0)


def orthant_box(bounds, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A search box ``(lo, hi)`` clipped to the orthant. Points are drawn from it
    uniformly, so a NaN bound, an infinite ``hi`` or an empty box is refused."""
    lo = project_orthant(bounds[0])
    hi = np.asarray(bounds[1], dtype=float)
    if lo.shape != (d,) or hi.shape != (d,):
        raise ShapeError(f"the bounding box must be two arrays of d={d} coordinates; "
                         f"got shapes {lo.shape} and {hi.shape}")
    if not np.all((lo < hi) & np.isfinite(hi)):
        raise ConfigError("bounding box must be finite and non-empty")
    return lo, hi


def project_good_set(gs: GoodSet, theta) -> np.ndarray:
    """Exact Euclidean projection onto the good set, as a new array.

    The set is a product over the (S0, S1) blocks, so the joint projection is
    the product of blockwise projections: radial scaling onto the ball for
    S0, clamping to [max(c - r1, 0), c + r1] for each S1 coordinate. The
    blocks cover every coordinate.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != gs.center.shape:
        raise ShapeError("theta dimension does not match the good set")
    out = np.empty_like(theta)
    if gs.split.d0 > 0:
        c0 = gs._ball_center
        v = theta[gs.split.S0] - c0
        norm = _l2(v)
        if norm > gs.r0:
            scale = gs.r0 / norm
            # rounding can leave the stored point an ulp outside the closed
            # ball that contains_many tests exactly; step the factor down until
            # membership holds for the representation actually stored
            cand = np.maximum(c0 + v * scale, 0.0)
            while _l2(cand - c0) > gs.r0:
                scale = np.nextafter(scale, 0.0)
                cand = np.maximum(c0 + v * scale, 0.0)
            out[gs.split.S0] = cand
        else:
            out[gs.split.S0] = np.maximum(c0 + v, 0.0)
    if gs.split.d1 > 0:
        lo, hi = gs.box
        out[gs.split.S1] = np.minimum(np.maximum(theta[gs.split.S1], lo), hi)
    return out
