"""Coordinate splitting, the ball-times-box domain of a chain (the good set
around the mode, or the whole orthant), its one projection and its one
membership test."""

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
    with the orthant: a closed ball on the regular coordinates, and a box on
    every coordinate, [0, inf) on S0 and [max(c - r1, 0), c + r1] on S1.
    The orthant itself is the set with no ball and r1 = inf (:meth:`orthant`).
    The projection needs a finite, non-negative center, a finite r0 and
    r1 >= 0; a set read from a file is checked like one built here, and its
    r1 must be finite too."""

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
        if not (0 <= self.r0 < math.inf and 0 <= self.r1 <= math.inf):
            raise ConfigError(f"radii must be >= 0 and r0 finite, got r0={self.r0}, r1={self.r1}")

    @staticmethod
    def orthant(d: int) -> "GoodSet":
        """The orthant [0, inf)^d: every coordinate a boundary one, no ball,
        and a box radius of inf."""
        return GoodSet(center=np.zeros(d), split=CoordinateSplit(S0=[], S1=np.arange(d)),
                       r0=0.0, r1=math.inf)

    # computed once per set; the projection and the membership test read
    # both, and the Monte Carlo region reads the box
    @cached_property
    def _ball_center(self) -> np.ndarray:
        return _read_only(self.center[self.split.S0])

    @cached_property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """The box (lo, hi) as two length-d arrays: [0, inf) on S0, and
        [max(c - r1, 0), c + r1] on S1, so the orthant's is [0, inf)^d."""
        lo, hi = np.zeros(self.split.d), np.full(self.split.d, math.inf)
        c1 = self.center[self.split.S1]
        lo[self.split.S1] = np.maximum(c1 - self.r1, 0.0)
        hi[self.split.S1] = c1 + self.r1
        return _read_only(lo), _read_only(hi)

    @staticmethod
    def from_json(obj: dict) -> "GoodSet":
        """The set :meth:`save` wrote. Its radii are finite, as
        :func:`build_good_set` makes them, and JSON has no infinity."""
        r1 = float(obj["r1"])
        if not math.isfinite(r1):
            raise ConfigError(f"a saved good set has a finite r1, got r1={r1}")
        return GoodSet(center=obj["center"], split=CoordinateSplit(**obj["split"]),
                       r0=float(obj["r0"]), r1=r1)

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
    exact comparisons against the set's box and ball, the ones the projection
    maps onto; a row holding NaN is outside."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != gs.center.shape[0]:
        raise ShapeError("sample dimension does not match the good set")
    lo, hi = gs.box
    ok = np.all((lo <= thetas) & (thetas <= hi), axis=1)
    if gs.split.d0 > 0:
        diff = thetas[:, gs.split.S0] - gs._ball_center
        ok &= np.array([_l2(row) for row in diff]) <= gs.r0
    return ok


def orthant_box(bounds, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A search box ``(lo, hi)`` clipped to the orthant. Points are drawn from it
    uniformly, so a NaN bound, an infinite ``hi`` or an empty box is refused."""
    lo, hi = np.asarray(bounds[0], dtype=float), np.asarray(bounds[1], dtype=float)
    if lo.shape != (d,) or hi.shape != (d,):
        raise ShapeError(f"the bounding box must be two arrays of d={d} coordinates; "
                         f"got shapes {lo.shape} and {hi.shape}")
    lo = project_good_set(GoodSet.orthant(d), lo)
    if not np.all((lo < hi) & np.isfinite(hi)):
        raise ConfigError("bounding box must be finite and non-empty")
    return lo, hi


def project_good_set(gs: GoodSet, theta) -> np.ndarray:
    """A point of the set, as a new array: the S0 block scaled radially onto
    the ball when it lies outside, then every coordinate clamped to the box.
    On the orthant this is max(theta, 0).

    The result always passes :func:`contains_many`. It is the Euclidean
    projection when the ball lies in the orthant (r0 <= min center_S0): the
    set is then a product of the ball and the box, and each rule is that
    block's nearest point. Otherwise the clamp at 0 can bind after the
    scaling, and a point of the set may lie nearer: with center (1, 0.1) on
    S0 and r0 = 1, (3, -10) maps to (1.194, 0), while (1.994, 0) is nearer.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != gs.center.shape:
        raise ShapeError("theta dimension does not match the good set")
    if gs.split.d0 > 0:
        c0 = gs._ball_center
        v = theta[gs.split.S0] - c0
        norm = _l2(v)
        if norm > gs.r0:
            scale = gs.r0 / norm
            # rounding can leave the stored point an ulp outside the closed
            # ball that contains_many tests exactly; step the factor down until
            # the point the clamp at 0 (S0's box) then stores lies in it
            while _l2(np.maximum(c0 + v * scale, 0.0) - c0) > gs.r0:
                scale = np.nextafter(scale, 0.0)
            v = v * scale
        theta = theta.copy()
        theta[gs.split.S0] = c0 + v
    lo, hi = gs.box
    out = np.maximum(theta, lo)
    return np.minimum(out, hi, out=out)
