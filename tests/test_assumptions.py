import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthant_gibbs import assumptions, geometry, io, models
from orthant_gibbs.errors import ConfigError, NumericalError
from orthant_gibbs.mode import find_mode_local
from orthant_gibbs.rng import make_rng

from oracles import estimate_constants_reference


def region_for(model, theta_hat, tau=1e-6, grid=100, seed=0):
    split, center = geometry.split_coordinates(theta_hat, tau)
    delta0, delta1 = geometry.default_deltas(max(split.d1, 1))
    gs = geometry.build_good_set(center, split,
                                 delta0 if split.d0 > 0 else None,
                                 delta1, model.n)
    return assumptions.RegionSpec(center=center, split=split,
                                  r0=max(gs.r0, 1e-12), r1=max(gs.r1, 1e-12),
                                  grid=grid, seed=seed)


def test_sample_region_respects_radii():
    split, center = geometry.split_coordinates(np.array([1.0, 2.0, 0.0]), 1e-6)
    region = assumptions.RegionSpec(center=center, split=split, r0=0.3,
                                    r1=0.01, grid=500, seed=1)
    from orthant_gibbs.rng import make_rng
    pts = assumptions.sample_region(region, make_rng(0, 1), 500)
    assert pts.shape == (500, 3)
    d_ball = np.linalg.norm(pts[:, split.S0] - center[split.S0], axis=1)
    d_box = np.abs(pts[:, split.S1] - center[split.S1]).max(axis=1)
    assert np.all(d_ball <= 0.3 + 1e-12)
    assert np.all(d_box <= 0.01 + 1e-12)


def test_operator_norm_matches_dense_eigensolver():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((20, 20))
    H = 0.5 * (A + A.T)
    dense = float(np.max(np.abs(np.linalg.eigvalsh(H))))
    assert assumptions.operator_norm(H) == pytest.approx(dense, rel=1e-6)


def test_operator_norm_is_exact_above_d200():
    # the top eigenvalues of this Gram Hessian are close together, so 50
    # power iterations stop at 2.36964 short of the true 2.37625
    X = np.random.default_rng(1).standard_normal((800, 250))
    H = -X.T @ X / 800
    dense = float(np.max(np.abs(np.linalg.eigvalsh(H))))
    assert assumptions.operator_norm(H) == pytest.approx(dense, rel=1e-12)


def test_estimate_constants_quadratic_exact(logistic_model):
    # synthetic data whose Hessian is exactly -I: X = sqrt(n) * I rows won't
    # do it for logistic, so check the invariant on the real model instead
    result = find_mode_local(logistic_model, np.ones(3), tol=1e-8)
    region = region_for(logistic_model, result.theta_hat)
    report = assumptions.estimate_constants(logistic_model, region)
    if region.split.d0 > 0:
        assert report.s2_hat >= report.c_S0_hat > 0
    assert np.isfinite(report.osc_bound) and np.isfinite(report.C_PI_bound)


def test_estimate_constants_reports_vacuous_bound_when_violated():
    # At theta*_3 = 0 the boundary score is O(1/sqrt(n)) while the region is
    # wide enough for the partial derivative to change sign, so the measured
    # C_S1 goes negative; the checker should report an infinite Poincare
    # bound instead of raising.
    model = models.ModelTemplate("poisson", np.array([1.0, 0.5, 0.0]), 400).simulate(3)
    result = find_mode_local(model, np.array([1.1, 0.6, 0.1]), tol=1e-9)
    region = region_for(model, result.theta_hat, tau=1e-5)
    report = assumptions.estimate_constants(model, region)
    assert report.C_S1_hat <= 0
    assert report.C_PI_bound == math.inf
    assert np.isfinite(report.osc_bound)


def test_estimate_constants_power_iteration_agrees_with_dense(poisson_model):
    result = find_mode_local(poisson_model, np.ones(3), tol=1e-8)
    region = region_for(poisson_model, result.theta_hat, grid=30)
    from orthant_gibbs.rng import make_rng
    pts = assumptions.sample_region(region, make_rng(region.seed, 0xA5), 30)
    for theta in pts[:5]:
        H = models.hess_log_lik(poisson_model, theta)
        dense = float(np.max(np.abs(np.linalg.eigvalsh(H))))
        assert assumptions.operator_norm(H) == pytest.approx(dense, abs=1e-6)


def _bits(report):
    return tuple(None if v is None else float(v).hex() for v in
                 (report.c_S0_hat, report.C_S1_hat, report.s2_hat,
                  report.osc_bound, report.C_PI_bound))


def _constants_case(case, request):
    """(model, region) of one estimate_constants case."""
    if case == "poisson_vacuous":
        # the fixture of test_estimate_constants_reports_vacuous_bound_when_violated
        model = models.ModelTemplate("poisson", np.array([1.0, 0.5, 0.0]),
                                     400).simulate(3)
        result = find_mode_local(model, np.array([1.1, 0.6, 0.1]), tol=1e-9)
        return model, region_for(model, result.theta_hat, tau=1e-5, grid=200)
    if case == "gmm":
        # a ball wide enough to reach where the mixture Hessian is indefinite
        model = request.getfixturevalue("gmm_corr_model")
        split, center = geometry.split_coordinates(model.theta_star, 1e-6)
        return model, assumptions.RegionSpec(center=center, split=split, r0=1.5,
                                             r1=0.5, grid=200, seed=1)
    if case == "d0_zero":
        model = request.getfixturevalue("logistic_model")
        split = geometry.CoordinateSplit(S0=np.array([], dtype=int), S1=np.arange(3))
        return model, assumptions.RegionSpec(center=np.zeros(3), split=split, r0=0.0,
                                             r1=0.3, grid=200, seed=2)
    model = request.getfixturevalue(f"{case.split('_')[0]}_model")
    result = find_mode_local(model, np.ones(3), tol=1e-9)
    if case == "logistic_d1_zero":
        split = geometry.CoordinateSplit(S0=np.arange(3), S1=np.array([], dtype=int))
        center = np.maximum(result.theta_hat, 0.05)
        return model, assumptions.RegionSpec(center=center, split=split, r0=0.2,
                                             r1=0.0, grid=200, seed=3)
    return model, region_for(model, result.theta_hat, grid=200)


@pytest.mark.parametrize("case", ["logistic", "poisson", "poisson_vacuous", "gmm",
                                  "d0_zero", "logistic_d1_zero"])
def test_estimate_constants_is_bitwise_the_per_point_scan(case, request):
    model, region = _constants_case(case, request)
    report = assumptions.estimate_constants(model, region)
    assert _bits(report) == _bits(estimate_constants_reference(model, region))
    if case == "poisson_vacuous":
        assert report.C_S1_hat <= 0 and report.C_PI_bound == math.inf
    if case == "gmm":
        assert report.c_S0_hat < 0  # the scan crossed indefinite Hessians
    if case == "d0_zero":  # an empty block has no constant
        assert report.c_S0_hat is None
    if case == "logistic_d1_zero":
        assert report.C_S1_hat is None and math.isfinite(report.C_PI_bound)


def _synthetic_hessians(monkeypatch, region, hessians):
    """Make hess_log_lik return hessians[i] at the region's i-th grid point."""
    pts = assumptions.sample_region(region, make_rng(region.seed, 0xA5), region.grid)
    index = {p.tobytes(): i for i, p in enumerate(pts)}
    monkeypatch.setattr(models, "hess_log_lik",
                        lambda model, theta: hessians[index[theta.tobytes()]])


def _synthetic_region(d=12, grid=200):
    split = geometry.CoordinateSplit(S0=np.arange(d - 2), S1=np.arange(d - 2, d))
    center = np.r_[np.ones(d - 2), 0.0, 0.0]
    return assumptions.RegionSpec(center=center, split=split, r0=0.3, r1=0.1,
                                  grid=grid, seed=0)


@pytest.mark.parametrize("sequence", ["indefinite", "positive_definite",
                                      "isospectral", "curvature_shrinks_by_ulps"])
def test_certificate_matches_scan_on_adversarial_hessians(sequence, monkeypatch):
    # Indefinite and positive definite Hessians put the extreme eigenvalue on
    # the side a GLM never reaches, so the certificate must test both
    # t*I + H and t*I - H. Isospectral Hessians tie the running s2 up to
    # rounding, and scaling one matrix down by an ulp per point moves c_S0
    # past the running value by less than Cholesky's backward error: only
    # the margin sends those points to the eigensolver. (Whether a scan
    # without the margin trips on them depends on the BLAS's rounding; with
    # OpenBLAS 0.3.31 it does.)
    region = _synthetic_region()
    d, grid = region.center.size, region.grid
    rng = np.random.default_rng(6)
    scales = rng.uniform(0.5, 2.0, (grid, 1, 1))
    if sequence == "indefinite":
        mats = rng.standard_normal((grid, d, d)) * scales
        hessians = 0.5 * (mats + mats.transpose(0, 2, 1))
    elif sequence == "positive_definite":
        mats = rng.standard_normal((grid, d, d))
        hessians = mats @ mats.transpose(0, 2, 1) / d * scales
    elif sequence == "isospectral":
        spectrum = -np.sort(rng.uniform(0.1, 1.0, d))
        spectrum[0] = -1.0
        rotations = np.linalg.qr(rng.standard_normal((grid, d, d)))[0]
        hessians = (rotations * spectrum) @ rotations.transpose(0, 2, 1)
    else:
        a = rng.standard_normal((d, d))
        base = -(a @ a.T) / d
        hessians = [base * (1.0 - k * 2.0**-52) for k in range(grid)]
    model = models.ModelTemplate("logistic", region.center, 50).simulate(0)
    _synthetic_hessians(monkeypatch, region, hessians)
    report = assumptions.estimate_constants(model, region)
    assert _bits(report) == _bits(estimate_constants_reference(model, region))


def test_certificate_skips_most_eigensolves_at_d200(monkeypatch):
    truth = np.r_[np.ones(4), np.zeros(196)]
    model = models.ModelTemplate("logistic", truth, 800).simulate(0)
    result = find_mode_local(model, truth + 0.1, tol=1e-8)
    region = region_for(model, result.theta_hat, tau=1e-7, grid=200)
    assert region.split.d0 > 50
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    assumptions.estimate_constants(model, region)
    # a per-point scan makes 400 calls (two per point)
    assert 2 <= len(calls) <= 40


def test_decomposition_identity(logistic_model):
    result = find_mode_local(logistic_model, np.ones(3), tol=1e-9)
    split, center = geometry.split_coordinates(result.theta_hat, 1e-6)
    rng = np.random.default_rng(0)
    for _ in range(100):
        theta = np.abs(center + 0.05 * rng.standard_normal(3))
        f, g, B = assumptions.decompose_likelihood(logistic_model, center,
                                                   split, theta)
        total = models.log_lik(logistic_model, theta)
        assert abs(total - (B + f + g)) <= 1e-12


def test_decomposition_at_mode_and_interior_moves(logistic_model):
    result = find_mode_local(logistic_model, np.ones(3), tol=1e-9)
    split, center = geometry.split_coordinates(result.theta_hat, 1e-6)
    f, g, B = assumptions.decompose_likelihood(logistic_model, center, split,
                                               center)
    assert f == pytest.approx(models.log_lik(logistic_model, center))
    assert g == pytest.approx(0.0, abs=1e-15)
    assert B == pytest.approx(0.0, abs=1e-12)
    if split.d0 > 0:
        theta = center.copy()
        theta[split.S0[0]] += 0.01
        f2, g2, B2 = assumptions.decompose_likelihood(logistic_model, center,
                                                      split, theta)
        assert g2 == pytest.approx(0.0, abs=1e-15)
        assert B2 == pytest.approx(0.0, abs=1e-12)


def test_osc_bound_pinned_values():
    assert assumptions.osc_bound(1.0, 1.0, 1.0, 1, 1, 1) == pytest.approx(4.0)
    assert assumptions.osc_bound(0.0, 2.0, 3.0, 4, 1, 100) == 0.0
    assert assumptions.osc_bound(1.0, 2.0, 3.0, 4, 1, 100) == pytest.approx(
        2.0 * (2 * 3 * 2 / 1000 + 9 / 10_000))
    assert assumptions.osc_bound(5.0, 2.0, 3.0, 4, 0, 100) == 0.0


def test_poincare_bound_pinned_values():
    # interior branch dominates
    val = assumptions.poincare_bound(2.0, 10.0, 0.0, 1.0, 1.0, 2, 1, 100)
    assert val == pytest.approx(max(1 / 200, 4 / (100**2 * 100)))
    # boundary branch dominates
    val = assumptions.poincare_bound(100.0, 0.01, 0.0, 1.0, 1.0, 2, 1, 10)
    assert val == pytest.approx(4.0 / (100 * 1e-4))
    # exponential inflation factor
    val = assumptions.poincare_bound(1.0, 1.0, 1.0, 1.0, 1.0, 1, 1, 1)
    assert val == pytest.approx(4.0 * math.exp(2.0 * (1.0 + 1.0)))


def test_poincare_bound_past_the_double_range_is_inf_with_a_finite_log10():
    # exponent 2 * s2 * delta1^2 * d1 / n = 2000, past exp's range
    args = (1.0, 0.5, 100.0, 0.0, 10.0, 0, 1, 10)
    assert assumptions.poincare_bound(*args) == math.inf
    log10 = assumptions.log10_poincare_bound(*args)
    assert log10 == pytest.approx(math.log10(4.0 / (100 * 0.25)) + 2000.0 / math.log(10.0))
    # exp(720) alone overflows, but the branch 4e-6 brings the product back
    # into range: it is taken in log space
    small = (1.0, 1.0, 3600.0, 0.0, 10.0, 0, 1, 1000)
    expected = 10.0 ** assumptions.log10_poincare_bound(*small)
    assert math.isfinite(expected)
    assert assumptions.poincare_bound(*small) == pytest.approx(expected, rel=1e-12)
    # in range, the bound is the product as before, and its log10 agrees
    mid = (1.0, 0.5, 1.0, 1.0, 1.0, 2, 1, 10)
    assert assumptions.log10_poincare_bound(*mid) == pytest.approx(
        math.log10(assumptions.poincare_bound(*mid)), rel=1e-12)


def test_poincare_bound_random_variant_factor():
    a = assumptions.poincare_bound(100.0, 0.5, 0.0, 1.0, 1.0, 1, 1, 10)
    b = assumptions.poincare_bound(100.0, 0.5, 0.0, 1.0, 1.0, 1, 1, 10,
                                   factor=16.0)
    assert b == pytest.approx(4.0 * a)


def test_poincare_bound_prior_oscillation_inflates():
    base = assumptions.poincare_bound(100.0, 0.5, 0.0, 1.0, 1.0, 1, 1, 10)
    inflated = assumptions.poincare_bound(100.0, 0.5, 0.0, 1.0, 1.0, 1, 1, 10,
                                          prior_osc=0.7)
    assert inflated == pytest.approx(base * math.exp(0.7))


@given(c=st.floats(0.01, 10), C=st.floats(0.01, 10), s2=st.floats(0, 5),
       n=st.integers(1, 10_000))
@settings(max_examples=200, deadline=None)
def test_poincare_bound_monotonicity(c, C, s2, n):
    args = dict(delta0=1.0, delta1=1.0, d0=2, d1=2, n=n)
    base = assumptions.poincare_bound(c, C, s2, **args)
    assert base > 0
    # better constants never worsen the bound
    assert assumptions.poincare_bound(2 * c, C, s2, **args) <= base + 1e-15
    assert assumptions.poincare_bound(c, 2 * C, s2, **args) <= base + 1e-15
    # larger curvature bound never improves it
    assert assumptions.poincare_bound(c, C, 2 * s2 + 0.1, **args) >= base


def test_concentration_sample_size():
    d0, d1, eps = 4, 3, 0.05
    expected = math.ceil(4 * 3 * math.log(7 / 0.05) ** 2)
    assert assumptions.concentration_sample_size(d0, d1, eps) == expected
    assert assumptions.concentration_sample_size(d0, d1, eps, cbar4=2.0) == \
        math.ceil(2 * 4 * 3 * math.log(7 / 0.05) ** 2)
    with pytest.raises(ConfigError):
        assumptions.concentration_sample_size(0, 1, 0.05)
    with pytest.raises(ConfigError):
        assumptions.concentration_sample_size(1, 1, 1.5)


def test_check_well_separation_positive_gap(logistic_model, monkeypatch):
    monkeypatch.setattr(assumptions, "_OUTSIDE_SAMPLES", 500)
    result = find_mode_local(logistic_model, np.ones(3), tol=1e-9)
    region = region_for(logistic_model, result.theta_hat)
    zeta = assumptions.check_well_separation(
        logistic_model, result, region,
        (np.zeros(3), np.full(3, 4.0)), seed=0)
    assert zeta > 0


def test_check_well_separation_gap_is_pinned(logistic_model, monkeypatch):
    # membership goes through geometry.contains_many; the gap is bitwise the one
    # the former region-specific membership test gave on this fixture, with
    # 500 candidate points
    monkeypatch.setattr(assumptions, "_OUTSIDE_SAMPLES", 500)
    result = find_mode_local(logistic_model, np.ones(3), tol=1e-9)
    region = region_for(logistic_model, result.theta_hat)
    zeta = assumptions.check_well_separation(
        logistic_model, result, region,
        (np.zeros(3), np.full(3, 4.0)), seed=0)
    assert zeta == float.fromhex("0x1.ea34195dfdc00p-8")


@pytest.mark.parametrize("lo,hi", [(0.0, float("nan")), (float("nan"), 1.0),
                                   (0.0, float("inf")), (float("inf"), 1.0),
                                   (0.0, -float("inf")), (2.0, 1.0), (1.0, 1.0)])
def test_check_well_separation_rejects_a_box_with_no_uniform_law(logistic_model,
                                                                 lo, hi):
    # the same check as the global mode search's box: NumPy would raise
    # OverflowError for a NaN or infinite bound, which is no OrthantGibbsError
    result = find_mode_local(logistic_model, np.ones(3), tol=1e-9)
    region = region_for(logistic_model, result.theta_hat)
    with pytest.raises(ConfigError, match="bounding box"):
        assumptions.check_well_separation(logistic_model, result, region,
                                          (np.full(3, lo), np.full(3, hi)))


def test_batched_uniform_draw_is_bitwise_the_per_row_draws():
    # check_well_separation draws its (N, d) candidates at once; the
    # Generator gives the same numbers as N draws of (d,)
    lo, hi = np.array([0.0, 0.5, 1.0]), np.array([4.0, 2.0, 3.0])
    batched = make_rng(0, 0x5E).uniform(lo, hi, (500, 3))
    rng = make_rng(0, 0x5E)
    rows = np.array([rng.uniform(lo, hi) for _ in range(500)])
    assert np.array_equal(batched, rows)


@pytest.mark.parametrize("field", ["c_S0_hat", "C_S1_hat", "s2_hat", "osc_bound",
                                   "C_PI_bound", "log10_C_PI_bound"])
def test_assumption_report_rejects_nan(field):
    # an empty block's constant is None; a NaN would be written as the
    # non-standard JSON literal NaN
    values = dict(c_S0_hat=0.5, C_S1_hat=None, s2_hat=2.0, osc_bound=0.0,
                  C_PI_bound=1.0, log10_C_PI_bound=0.0, grid=20, seed=0)
    assumptions.AssumptionReport(**values)
    with pytest.raises(NumericalError):
        assumptions.AssumptionReport(**{**values, field: math.nan})


def test_assumption_report_roundtrip(tmp_path, logistic_model):
    result = find_mode_local(logistic_model, np.ones(3), tol=1e-8)
    region = region_for(logistic_model, result.theta_hat, grid=20)
    report = assumptions.estimate_constants(logistic_model, region)
    path = tmp_path / "report.json"
    io.write_json(path, report)
    import json
    doc = json.loads(path.read_text())
    assert doc["grid"] == 20 and "C_PI_bound" in doc
