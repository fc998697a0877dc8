import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.fft import next_fast_len
from scipy.special import ndtri
from scipy.stats import rankdata

from orthant_gibbs import diagnostics, geometry, io
from orthant_gibbs.errors import ConfigError, DegenerateChainError, NumericalError, ShapeError

from oracles import (ar1_chain, bulk_ess_reference, dense_gap_1d,
                     truncated_exponential_mean)


def test_bulk_ess_iid_near_n():
    rng = np.random.default_rng(0)
    n = 20_000
    ess = diagnostics.bulk_ess(rng.standard_normal(n))
    assert 0.8 * n <= ess <= 1.5 * n


def test_bulk_ess_ar1_matches_theory():
    rho, n = 0.9, 100_000
    x = ar1_chain(rho, n, seed=4)
    expected = n * (1 - rho) / (1 + rho)
    ess = diagnostics.bulk_ess(x)
    assert abs(ess - expected) / expected <= 0.25


def test_bulk_ess_multichain_and_heavy_tails():
    rng = np.random.default_rng(1)
    chains = rng.standard_cauchy((4, 5000))  # rank normalization handles tails
    ess = diagnostics.bulk_ess(chains)
    assert 0.5 * 20_000 <= ess <= 1.5 * 20_000


def test_bulk_ess_constant_chain_raises():
    with pytest.raises(DegenerateChainError):
        diagnostics.bulk_ess(np.ones(1000))


def test_bulk_ess_clipped_at_1_5_n():
    # strongly antithetic chain: raw estimate overshoots and must be clipped
    n = 10_000
    x = np.arange(n) % 2 + 0.001 * np.random.default_rng(2).standard_normal(n)
    assert diagnostics.bulk_ess(x) <= 1.5 * n


def test_ess_report_shapes():
    rng = np.random.default_rng(3)
    samples = [rng.standard_normal((500, 3)) for _ in range(2)]
    logp = [rng.standard_normal(500) for _ in range(2)]
    report = diagnostics.ess_report(samples, logp)
    assert report.per_coordinate.shape == (3,)
    assert report.n_chains == 2 and report.n_kept == 500
    assert report.llr_ess > 0
    assert "per_coordinate" in io.to_jsonable(report)


def _ar1_columns(seed, n_chains, n_draws, rhos, n_tied):
    """(n_chains, n_draws, d) AR(1) draws, one coefficient per column; the
    first ``n_tied`` columns are clipped at 0, an atom of ties like a
    boundary coordinate's."""
    rng = np.random.default_rng(seed)
    draws = np.empty((n_chains, n_draws, len(rhos)))
    for j, rho in enumerate(rhos):
        for c in range(n_chains):
            draws[c, :, j] = ar1_chain(rho, n_draws, int(rng.integers(2**31)))
    draws[:, :, :n_tied] = np.maximum(draws[:, :, :n_tied], 0.0)
    return draws


@given(seed=st.integers(0, 2**31 - 1), n_chains=st.integers(1, 4),
       n_draws=st.integers(8, 301),
       rhos=st.lists(st.floats(-0.9, 0.99), min_size=1, max_size=20),
       n_tied=st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_batched_ess_matches_scalar_reference(seed, n_chains, n_draws, rhos, n_tied):
    draws = _ar1_columns(seed, n_chains, n_draws, rhos, n_tied)
    trace = np.random.default_rng(seed + 1).standard_normal((n_chains, n_draws))
    columns = [draws[:, :, j] for j in range(len(rhos))] + [trace]
    try:
        expected = [bulk_ess_reference(col) for col in columns]
    except Exception as exc:  # the batched pass must raise the same type
        with pytest.raises(type(exc)):
            diagnostics.ess_report(list(draws), list(trace))
        return
    report = diagnostics.ess_report(list(draws), list(trace))
    got = np.append(report.per_coordinate, report.llr_ess)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    assert diagnostics.bulk_ess(columns[0]) == pytest.approx(expected[0], rel=1e-12, abs=0)


@pytest.mark.parametrize("n_draws, d", [(60, 200), (1000, 40)])
def test_ess_report_is_bitwise_the_per_column_bulk_ess(n_draws, d):
    # positively correlated columns: at 60 draws an independent column can
    # give a non-positive estimate, which raises
    draws = _ar1_columns(11, 1, n_draws, np.linspace(0.0, 0.95, d), d // 2)
    trace = ar1_chain(0.5, n_draws, 12)[None, :]
    report = diagnostics.ess_report(list(draws), list(trace))
    columns = [draws[:, :, j] for j in range(d)] + [trace]
    expected = np.array([diagnostics.bulk_ess(col) for col in columns])
    assert np.append(report.per_coordinate, report.llr_ess).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_chains, n_draws, widths", [
    (1, 60, [201]),  # a 60-draw study chain: one pass
    (1, 1000, [16] * 12 + [9]),  # 1000 draws or more: blocks of 16
    (1, 4000, [16] * 12 + [9]),
    (2, 200, [40] * 5 + [1]),  # 16 columns of a 1000-draw chain hold 16000 draws
])
def test_ess_blocks_are_sized_by_element_count(n_chains, n_draws, widths, monkeypatch):
    seen = []
    block = diagnostics._ess_block

    def counting(arr):
        seen.append(arr.shape[2])
        return block(arr)

    monkeypatch.setattr(diagnostics, "_ess_block", counting)
    # random walks, whose ESS estimates are positive at any of these lengths
    walks = np.cumsum(np.random.default_rng(5).standard_normal((n_chains, n_draws, 201)),
                      axis=1)
    diagnostics.ess_report(list(walks[:, :, :200]), list(walks[:, :, 200]))
    assert seen == widths


def test_ess_report_constant_column_raises():
    draws = _ar1_columns(8, 1, 400, [0.5] * 200, 100)
    draws[:, :, 137] = 0.0  # a coordinate stuck at the boundary
    with pytest.raises(DegenerateChainError, match="constant chain"):
        diagnostics.ess_report(list(draws), [np.arange(400.0)])


# few distinct values, so that rows carry ties, plus NaN
@given(hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 40)),
                  elements=st.sampled_from([0.0, -0.0, 1.5, -2.0, 3.25, np.nan])
                  | st.floats(-1e3, 1e3)))
@settings(max_examples=200, deadline=None)
def test_average_ranks_match_rankdata(a):
    got = diagnostics._average_ranks(a)
    expected = rankdata(a, axis=1)
    nan_rows = np.isnan(expected).all(axis=1)
    assert np.array_equal(np.isnan(got).all(axis=1), nan_rows)
    assert got[~nan_rows].tobytes() == expected[~nan_rows].tobytes()


@pytest.mark.parametrize("size", [8, 9, 60, 1000, 4001])
def test_rank_normal_scores_match_ndtri(size):
    # every average rank of `size` values: 1, 1.5, ..., size
    grid = np.arange(1.0, size + 0.25, 0.5)
    rng = np.random.default_rng(size)
    ties = diagnostics._average_ranks(rng.integers(0, 5, (3, size)).astype(float))
    for ranks in (grid[None, :], ties):
        got = diagnostics._rank_normal_scores(ranks, size)
        want = ndtri((ranks - 0.375) / (size + 0.25))
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))
    with_nan = np.vstack([rng.standard_normal(size), rng.standard_normal(size)])
    with_nan[0, size // 2] = np.nan
    z = diagnostics._rank_normal_scores(diagnostics._average_ranks(with_nan), size)
    assert np.all(np.isnan(z[0])) and np.all(np.isfinite(z[1]))


def test_fast_len_matches_scipy():
    assert [diagnostics._fast_len(t) for t in range(1, 10_001)] == \
        [next_fast_len(t) for t in range(1, 10_001)]


def test_ess_report_nan_column_raises():
    draws = _ar1_columns(8, 1, 400, [0.5] * 20, 10)
    draws[:, 50, 7] = np.nan
    with pytest.raises(NumericalError):
        diagnostics.ess_report(list(draws), [np.arange(400.0)])


def test_credible_interval_gaussian_quantiles():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(200_000)
    lo, hi = diagnostics.credible_interval(x, 0.95)
    assert lo == pytest.approx(-1.96, abs=0.02)
    assert hi == pytest.approx(1.96, abs=0.02)
    with pytest.raises(ConfigError):
        diagnostics.credible_interval(x, 1.5)
    with pytest.raises(ConfigError):
        diagnostics.credible_interval(np.array([1.0]), 0.95)


def test_interval_hits_counts_hits():
    theta_star = np.array([0.0, 1.0])
    rng = np.random.default_rng(6)
    # trials where the posterior is centered at the truth: high coverage
    hits = [diagnostics.interval_hits(theta_star + 0.1 * rng.standard_normal((400, 2)),
                                      theta_star, 0.95)
            for _ in range(10)]
    assert hits[0].shape == (2,) and hits[0].dtype == bool
    assert np.all(np.mean(hits, axis=0) >= 0.8)
    # trials centered away from the truth: zero coverage
    off = 5.0 + 0.01 * rng.standard_normal((400, 2))
    assert not diagnostics.interval_hits(off, theta_star, 0.95).any()


def test_interval_hits_matches_per_column_intervals():
    rng = np.random.default_rng(9)
    theta_star = np.array([0.0, 0.3, 1.0, 2.0])
    # each trial's posterior sits off the truth by a random shift, so some
    # intervals miss; clipping at 0 puts interval ends exactly on the truth
    trials = [np.maximum(theta_star + 0.4 * rng.standard_normal(4)
                         + 0.2 * rng.standard_normal((101, 4)), 0.0)
              for _ in range(25)]
    hits = np.zeros(4)
    for samples in trials:
        for j in range(4):
            lo, hi = diagnostics.credible_interval(samples[:, j], 0.9)
            hits[j] += lo <= theta_star[j] <= hi
    rows = [diagnostics.interval_hits(samples, theta_star, 0.9) for samples in trials]
    np.testing.assert_array_equal(np.sum(rows, axis=0), hits)
    assert 0 < hits.min() and hits.max() < len(trials)


@pytest.mark.parametrize("samples,level,error", [
    (np.ones((10, 3)), 0.95, ShapeError),
    (np.ones(10), 0.95, ShapeError),
    (np.ones((1, 2)), 0.95, ConfigError),
    (np.ones((10, 2)), 1.0, ConfigError),
    (np.ones((10, 2)), float("nan"), ConfigError),
])
def test_interval_hits_rejects_bad_input(samples, level, error):
    with pytest.raises(error):
        diagnostics.interval_hits(samples, np.zeros(2), level)


def test_good_set_mass_on_synthetic_samples():
    theta_hat = np.array([1.0, 0.0])
    split, center = geometry.split_coordinates(theta_hat, 1e-6)
    gs = geometry.build_good_set(center, split, 2.0, 5.0, 100)
    inside = np.tile(center, (50, 1))
    outside = np.tile(center + np.array([10.0, 0.0]), (50, 1))
    mass = diagnostics.good_set_mass(np.vstack([inside, outside]), gs)
    assert mass == pytest.approx(0.5)


# 1-D spectral-gap oracle ----------------------------------------------------


def test_gap_uniform_is_pi_squared():
    result = diagnostics.spectral_gap_1d(lambda x: np.zeros_like(x), 0.0, 1.0)
    assert result.gap == pytest.approx(np.pi**2, rel=0.01)


def test_gap_truncated_gaussian_is_one():
    result = diagnostics.spectral_gap_1d(lambda x: -0.5 * x**2, -8.0, 8.0)
    assert result.gap == pytest.approx(1.0, rel=0.01)


def test_gap_restricted_exponential_implies_C_PI_at_most_4():
    L = 20.0
    result = diagnostics.spectral_gap_1d(lambda x: -x, 0.0, L)
    analytic = 0.25 + (np.pi / L) ** 2
    assert result.gap == pytest.approx(analytic, rel=0.01)
    assert result.gap >= 0.25
    assert result.implied_C_PI <= 4.0


def test_gap_matches_independent_dense_oracle():
    log_density = lambda x: -0.3 * x**2 - 0.1 * x
    tri = diagnostics.spectral_gap_1d(log_density, 0.0, 5.0, grid_points=2000)
    dense = dense_gap_1d(log_density, 0.0, 5.0, m=2000)
    assert tri.gap == pytest.approx(dense, rel=1e-8)


def test_gap_input_validation():
    with pytest.raises(ConfigError):
        diagnostics.spectral_gap_1d(lambda x: -x, 1.0, 0.0)
    with pytest.raises(ConfigError):
        diagnostics.spectral_gap_1d(lambda x: -x, 0.0, 1.0, grid_points=10)
    with pytest.raises(ConfigError):
        diagnostics.spectral_gap_1d(
            lambda x: np.where(x < 0.5, -np.inf, 0.0), 0.0, 1.0)
