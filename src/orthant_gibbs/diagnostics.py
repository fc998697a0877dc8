"""Chain diagnostics: rank-normalized bulk ESS, credible intervals and
coverage, bounded-expectation estimates, good-set mass, and a 1-D
finite-difference spectral-gap oracle for reflected Langevin generators."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigError, DegenerateChainError, NumericalError,
                     RangeError, ShapeError)
from .geometry import GoodSet, contains_many

ESS_CLIP_FACTOR = 1.5  # standard safeguard for antithetic chains
RANK_OFFSET_NUM = 0.375  # rank r maps to the normal quantile of (r - 3/8)/(N + 1/4)
RANK_OFFSET_DEN = 0.25


# ---------------------------------------------------------------------------
# effective sample size
# ---------------------------------------------------------------------------


# The block rule. Columns go through in blocks of at least _ESS_BLOCK_COLUMNS
# columns and, above that, of as many as fit in _ESS_BLOCK_ELEMENTS draws
# (chains x draws x columns): 16 columns of one 1000-draw chain. One block of
# all 201 columns of a 1000-draw d=200 report raised the peak RSS of a study
# by about 15 MB, and blocks of 16 left it unchanged; so a chain of 1000
# draws or more keeps blocks of 16, while the 201 columns of a 60-draw chain
# take one pass. Each column's ESS is bitwise the same in any block.
_ESS_BLOCK_COLUMNS = 16
_ESS_BLOCK_ELEMENTS = 16 * 1000


def _ess_columns(arr: np.ndarray) -> np.ndarray:
    """Bulk ESS of every column of a (n_chains, n_draws, n_columns) array.

    Columns go through in blocks by the block rule above. The first failing
    column, in column order, raises.
    """
    if arr.ndim != 3:
        raise ShapeError("draws must be a (n_chains, n_draws, n_columns) array")
    if arr.shape[1] < 8:
        raise ConfigError("each chain must have at least 8 draws")
    width = max(_ESS_BLOCK_COLUMNS, _ESS_BLOCK_ELEMENTS // (arr.shape[0] * arr.shape[1]))
    out = np.empty(arr.shape[2])
    for j in range(0, arr.shape[2], width):
        out[j:j + width] = _ess_block(arr[:, :, j:j + width])
    return out


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks along each row of a 2-D array, tied values taking the
    mean of their positions, as ``scipy.stats.rankdata(a, axis=1)`` gives;
    a row that contains NaN ranks as all NaN.

    Tied values get one rank whatever their order, so the sort need not be
    stable; NumPy's default sort is several times faster on float rows.
    """
    order = np.argsort(a, axis=1)
    s = np.take_along_axis(a, order, axis=1)
    first = np.ones(a.shape, dtype=bool)  # s[i, j] starts a run of ties
    np.not_equal(s[:, 1:], s[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=a.size)
    mean_pos = (starts % a.shape[1] + 1) + (counts - 1) / 2.0
    ranks = np.empty(a.shape)
    np.put_along_axis(ranks, order, np.repeat(mean_pos, counts).reshape(a.shape),
                      axis=1)
    ranks[np.isnan(a).any(axis=1)] = np.nan
    return ranks


@lru_cache(maxsize=8)
def _normal_scores(size: int) -> np.ndarray:
    """Normal quantiles of (r - 3/8)/(size + 1/4) for every average rank r
    of ``size`` values: r = 1, 1.5, ..., size sits at index 2r - 2.

    Read-only, as the cache hands the same array to every caller.
    """
    inv_cdf = statistics.NormalDist().inv_cdf
    scores = np.array([inv_cdf((0.5 * i + 1.0 - RANK_OFFSET_NUM) / (size + RANK_OFFSET_DEN))
                       for i in range(2 * size - 1)])
    scores.setflags(write=False)
    return scores


def _rank_normal_scores(ranks: np.ndarray, size: int) -> np.ndarray:
    """``_normal_scores`` of each average rank; NaN ranks stay NaN."""
    nan = np.isnan(ranks)
    z = _normal_scores(size)[np.where(nan, 0, 2.0 * ranks - 2.0).astype(np.intp)]
    z[nan] = np.nan
    return z


def _fast_len(target: int) -> int:
    """Smallest 11-smooth integer >= target: a length whose FFT factors
    into radices 2, 3, 5, 7 and 11."""
    m = target
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _ess_block(block: np.ndarray) -> np.ndarray:
    """Bulk ESS of each column of a (n_chains, n_draws, n_columns) block."""
    cols = np.moveaxis(block, 2, 0)  # (column, chain, draw)
    n_cols = cols.shape[0]
    constant = np.all(cols == cols[:, :1, :1], axis=(1, 2))

    # split each chain in half, then rank-normalize the pooled draws
    n = cols.shape[2] // 2
    split = np.concatenate([cols[:, :, :n], cols[:, :, -n:]], axis=1)
    size = split.shape[1] * n
    ranks = _average_ranks(split.reshape(n_cols, size))
    z = _rank_normal_scores(ranks, size).reshape(split.shape)

    # per-chain autocovariance by FFT, averaged over chains
    chain_mean = z.mean(axis=2)
    m = _fast_len(2 * n)
    f = np.fft.rfft(z - chain_mean[:, :, None], m, axis=2)
    acov = np.fft.irfft(f * np.conj(f), m, axis=2)[:, :, :n] / n
    mean_acov = acov.mean(axis=1)  # (column, lag)
    mean_var = mean_acov[:, 0] * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n + np.var(chain_mean, axis=1, ddof=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 1.0 - (mean_var[:, None] - mean_acov) / var_plus[:, None]
        rho[:, 0] = 1.0
        # Geyer's scan over lag pairs (2i, 2i+1), i = 0..K, K = (n - 2) // 2
        K = (n - 2) // 2
        even, odd = rho[:, 0:2 * K + 2:2], rho[:, 1:2 * K + 2:2]
        pair = even + odd
        # initial positive sequence: it ends at pair `last`, the first pair
        # before K whose sum is negative (or NaN), else at K; that pair keeps
        # its even lag and drops its odd lag if the sum is negative
        stop = ~(pair[:, :K] >= 0.0)
        last = np.where(stop.any(axis=1), stop.argmax(axis=1), K)
        at = np.arange(n_cols), last
        odd[at] = np.where(pair[at] >= 0.0, odd[at], 0.0)
        pair[at] = even[at] + odd[at]
        # initial monotone sequence: a pair whose sum exceeds the smallest
        # sum before it takes half that sum in each lag (pairs after `last`
        # change too, but tau does not read them)
        floor = np.minimum.accumulate(pair, axis=1)[:, :-1]
        lower = pair[:, 1:] > floor
        even[:, 1:][lower] = floor[lower] / 2.0
        odd[:, 1:][lower] = floor[lower] / 2.0
        # tau sums the lags below max_t = 2*last + 1
        summed = np.arange(n) < 2 * last[:, None] + 1
        tau = -1.0 + 2.0 * np.where(summed, rho, 0.0).sum(axis=1)
        ess = size / tau

    # a NaN draw makes var_plus NaN; without this check the scan would stop
    # at lag 0 and report ESS = size
    failed = (constant | (var_plus == 0.0) | ~np.isfinite(var_plus)
              | ~(np.isfinite(ess) & (ess > 0.0)))
    if failed.any():
        j = int(failed.argmax())
        if constant[j]:
            raise DegenerateChainError("constant chain has no information")
        if var_plus[j] == 0.0:
            raise DegenerateChainError("zero variance after rank normalization")
        raise NumericalError("ESS computation produced a non-finite or non-positive value")
    return np.minimum(ess, ESS_CLIP_FACTOR * size)


def bulk_ess(chains) -> float:
    """Rank-normalized bulk effective sample size of one or more chains.

    Pooled ranks are mapped to standard-normal quantiles via
    (r - 3/8)/(N + 1/4), each chain is split in half, and the multi-chain
    autocorrelation sum uses Geyer's initial monotone positive sequence.
    The result is clipped above at 1.5x the total draw count.

    The truncation differs from Vehtari et al. (2021) and ArviZ. The
    positive-sequence scan stops at the first lag pair with a negative sum
    but keeps that pair's even lag, and sets max_t = t where ArviZ sets
    max_t = t - 2. So tau = -1 + 2 * sum(rho[:max_t]) counts that even lag
    twice, whatever its sign, where ArviZ adds it once and only when it is
    positive; the monotone sequence also runs over that pair, with its odd
    lag taken as 0. (Lag max_t + 1 is never set, so the trailing term of
    tau is zero.)
    """
    arr = np.asarray(chains, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ShapeError("chains must be a vector or a (n_chains, n_draws) matrix")
    return float(_ess_columns(arr[:, :, None])[0])


@dataclass(frozen=True)
class EssReport:
    per_coordinate: np.ndarray
    llr_ess: float
    n_kept: int
    n_chains: int


def ess_report(samples_by_chain: Sequence[np.ndarray],
               log_post_by_chain: Sequence[np.ndarray]) -> EssReport:
    """Per-coordinate bulk ESS plus the ESS of the log-posterior trace,
    all columns in one batched pass.

    The log-posterior trace stands in for the log-likelihood ratio: the two
    differ by an additive constant, which rank normalization ignores.
    """
    stacked = np.stack([np.asarray(s, dtype=float) for s in samples_by_chain])
    trace = np.stack([np.asarray(t, dtype=float) for t in log_post_by_chain])
    if stacked.ndim != 3 or trace.shape != stacked.shape[:2]:
        raise ShapeError("samples must be (n_kept, d) and traces (n_kept,) per chain")
    n_chains, n_kept, _ = stacked.shape
    ess = _ess_columns(np.concatenate([stacked, trace[:, :, None]], axis=2))
    return EssReport(per_coordinate=ess[:-1], llr_ess=float(ess[-1]),
                     n_kept=n_kept, n_chains=n_chains)


# ---------------------------------------------------------------------------
# credible intervals and coverage
# ---------------------------------------------------------------------------


def _interval_ends(samples: np.ndarray, level: float) -> np.ndarray:
    """The ends of ``credible_interval`` along axis 0 of ``samples``."""
    if not 0 < level < 1:
        raise ConfigError("level must lie in (0, 1)")
    if samples.shape[0] < 2:
        raise ConfigError("need at least 2 samples")
    return np.quantile(samples, [(1 - level) / 2, (1 + level) / 2], axis=0)


def credible_interval(samples, level: float) -> tuple[float, float]:
    """Equal-tailed interval with linearly interpolated empirical quantiles
    (index p*(n-1), zero-based)."""
    lo, hi = _interval_ends(np.asarray(samples, dtype=float).ravel(), level)
    return float(lo), float(hi)


def interval_hits(samples, theta_star, level: float) -> np.ndarray:
    """Whether each coordinate's ``credible_interval`` holds the truth, all
    coordinates in one quantile call: one trial's row of a coverage study."""
    theta_star = np.asarray(theta_star, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != theta_star.size:
        raise ShapeError("trial sample matrix does not match theta_star")
    lo, hi = _interval_ends(samples, level)
    return (lo <= theta_star) & (theta_star <= hi)


# ---------------------------------------------------------------------------
# expectations and good-set mass
# ---------------------------------------------------------------------------


def _chain_samples(chain) -> np.ndarray:
    samples = getattr(chain, "samples", chain)
    return np.atleast_2d(np.asarray(samples, dtype=float))


def estimate_expectation(chain, f: Callable[[np.ndarray], float]
                         ) -> tuple[float, float]:
    """Sample mean of a [0,1]-valued function with an ESS-adjusted
    Monte Carlo standard error."""
    samples = _chain_samples(chain)
    if samples.shape[0] == 0:
        raise ConfigError("chain is empty")
    vals = np.array([float(f(row)) for row in samples])
    if np.any(vals < 0) or np.any(vals > 1):
        raise RangeError("f must map into [0, 1]")
    est = float(np.mean(vals))
    if np.all(vals == vals[0]):
        return est, 0.0
    ess = bulk_ess(vals)
    return est, float(math.sqrt(np.var(vals) / ess))


def good_set_mass(chain, gs: GoodSet) -> float:
    """Monte Carlo estimate of the good-set posterior mass from an
    orthant-projected chain."""
    samples = _chain_samples(chain)
    return float(np.mean(contains_many(gs, samples)))


# ---------------------------------------------------------------------------
# 1-D spectral-gap oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralGapResult:
    gap: float
    grid_points: int
    domain: tuple[float, float]

    @property
    def implied_C_PI(self) -> float:
        return 1.0 / self.gap


def spectral_gap_1d(log_density: Callable[[np.ndarray], np.ndarray],
                    a: float, b: float, grid_points: int = 10_000
                    ) -> SpectralGapResult:
    """Smallest nonzero eigenvalue of the reflected Langevin generator
    -(f'' + (log mu)' f') on [a, b], weighted by mu.

    Cell-centered finite volumes with density weights at cell edges and
    zero-flux (Neumann) outer boundaries; a similarity transform makes the
    matrix symmetric tridiagonal so a standard eigensolver applies.
    """
    # the only SciPy import of the package, kept here so that importing it
    # does not load SciPy
    from scipy.linalg import eigh_tridiagonal

    if grid_points < 100:
        raise ConfigError("grid_points must be >= 100")
    if not b > a:
        raise ConfigError("domain must satisfy b > a")
    m = int(grid_points)
    h = (b - a) / m
    nodes = a + (np.arange(m) + 0.5) * h
    edges = a + np.arange(1, m) * h
    log_w_nodes = np.asarray(log_density(nodes), dtype=float)
    log_w_edges = np.asarray(log_density(edges), dtype=float)
    if not (np.all(np.isfinite(log_w_nodes)) and np.all(np.isfinite(log_w_edges))):
        raise ConfigError("log density must be finite on [a, b]")
    shift = log_w_nodes.max()
    w_nodes = np.exp(log_w_nodes - shift)
    w_edges = np.exp(log_w_edges - shift)

    diag = np.zeros(m)
    diag[:-1] += w_edges / w_nodes[:-1]
    diag[1:] += w_edges / w_nodes[1:]
    off = -w_edges / np.sqrt(w_nodes[:-1] * w_nodes[1:])
    try:
        evals = eigh_tridiagonal(diag / h**2, off / h**2, select="i",
                                 select_range=(0, 1), eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"tridiagonal eigensolve failed: {exc}") from exc
    gap = float(evals[1])
    if not math.isfinite(gap) or gap <= 0:
        raise NumericalError("spectral gap is non-positive; grid too coarse?")
    return SpectralGapResult(gap=gap, grid_points=m, domain=(float(a), float(b)))
