"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Each test computes its verdict, prints it, then asserts, so the line is
visible in the captured output of failing tests too. Criteria 5 and 6 state
targets this implementation does not reach; see the test docstrings for the
measured values and the analysis of why.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from orthant_gibbs import (assumptions, diagnostics, experiments, geometry,
                           io, models, sampler)
from orthant_gibbs.mode import default_box, find_mode_global, find_mode_local

from oracles import ar1_chain, fd_gradient, fd_hessian, rel_err


def report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, detail


def acceptance_models():
    make = models.simulate
    return {
        "logistic": make("logistic", np.array([1.0, 0.5, 0.0]), 400, seed=2),
        # seed chosen so the Poisson mode also lands on the boundary,
        # making the osc(B) check in criterion 2 non-vacuous
        "poisson": make("poisson", np.array([1.0, 0.5, 0.0]), 400, seed=3),
        "gmm": make("gmm", np.array([1.0, 1.0, 4.0, 0.0]), 400, seed=2,
                    weights=np.array([0.6, 0.4]),
                    covariances=np.stack([np.eye(2), np.eye(2)])),
    }


def test_criterion_1_derivative_correctness():
    """Analytic vs central-difference derivatives, 100 points per model."""
    t0 = time.perf_counter()
    worst_grad, worst_hess = 0.0, 0.0
    for name, model in acceptance_models().items():
        rng = np.random.default_rng(10)
        base = np.abs(model.theta_star) + 0.5
        for i in range(100):
            theta = base + 0.3 * rng.uniform(-1, 1, model.d)
            g_err = rel_err(models.grad_log_lik(model, theta),
                            fd_gradient(lambda t: models.log_lik(model, t),
                                        theta))
            worst_grad = max(worst_grad, g_err)
            if i < 20:  # Hessian FD is d times costlier; 20 points suffice
                h_err = rel_err(
                    models.hess_log_lik(model, theta),
                    fd_hessian(lambda t: models.grad_log_lik(model, t), theta))
                worst_hess = max(worst_hess, h_err)
    elapsed = time.perf_counter() - t0
    ok = worst_grad <= 1e-4 and worst_hess <= 1e-3 and elapsed < 30
    report(1, ok, f"max grad rel err {worst_grad:.2e} (<=1e-4), "
                  f"max hess rel err {worst_hess:.2e} (<=1e-3), {elapsed:.1f}s")


def _mode_and_region(model, grid=200):
    if model.kind == "gmm":
        result = find_mode_global(model, default_box(model.theta_star),
                                  seed=0, n_restarts=4, tol=1e-8)
    else:
        result = find_mode_local(model, np.abs(model.theta_star) + 0.1,
                                 tol=1e-9)
    split, center = geometry.split_coordinates(result.theta_hat, 1e-5)
    delta0, delta1 = geometry.default_deltas(max(split.d1, 1))
    gs = geometry.build_good_set(center, split,
                                 delta0 if split.d0 > 0 else None,
                                 delta1, model.n)
    region = assumptions.RegionSpec(center=center, split=split,
                                    r0=max(gs.r0, 1e-12), r1=max(gs.r1, 1e-12),
                                    grid=grid, seed=0)
    return result, split, center, region


def test_criterion_2_decomposition_identity_and_osc_bound():
    """l = B + f + g to 1e-12 on 1000 good-set points; osc(B) <= bound."""
    t0 = time.perf_counter()
    from orthant_gibbs.rng import make_rng
    worst_identity = 0.0
    osc_ok = True
    details = []
    for name, model in acceptance_models().items():
        _, split, center, region = _mode_and_region(model)
        pts = assumptions.sample_region(region, make_rng(1, 2), 1000)
        grad_hat = models.grad_log_lik(model, center)
        b_vals = []
        for theta in pts:
            f, g, B = assumptions.decompose_likelihood(
                model, center, split, theta, grad_hat=grad_hat)
            worst_identity = max(
                worst_identity,
                abs(models.log_lik(model, theta) - (B + f + g)))
            b_vals.append(B)
        osc_b = max(b_vals) - min(b_vals)
        constants = assumptions.estimate_constants(model, region)
        delta0 = region.r0 * math.sqrt(model.n / split.d0) if split.d0 else 0.0
        delta1 = region.r1 * model.n
        bound = assumptions.osc_bound(constants.s2_hat, delta0, delta1,
                                      split.d0, split.d1, model.n)
        if osc_b > bound:
            osc_ok = False
        details.append(f"{name}: osc(B)={osc_b:.3e} bound={bound:.3e}")
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-12 and osc_ok and elapsed < 60
    report(2, ok, f"max identity error {worst_identity:.2e} (<=1e-12); "
                  + "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_3_spectral_gap_oracle():
    """Uniform pi^2 +-1%, Gaussian 1 +-1%, exponential C_PI <= 4."""
    t0 = time.perf_counter()
    uniform = diagnostics.spectral_gap_1d(lambda x: np.zeros_like(x), 0.0, 1.0)
    gaussian = diagnostics.spectral_gap_1d(lambda x: -0.5 * x**2, -8.0, 8.0)
    expo = diagnostics.spectral_gap_1d(lambda x: -x, 0.0, 20.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(uniform.gap - np.pi**2) <= 0.01 * np.pi**2
          and abs(gaussian.gap - 1.0) <= 0.01
          and expo.gap >= 0.25 and expo.implied_C_PI <= 4.0
          and elapsed < 60)
    report(3, ok, f"uniform {uniform.gap:.4f} (pi^2={np.pi**2:.4f}), "
                  f"gaussian {gaussian.gap:.4f}, exponential C_PI "
                  f"{expo.implied_C_PI:.3f} (<=4); {elapsed:.1f}s")


def _tridiag_1d(log_density, a, b, m):
    h = (b - a) / m
    nodes = a + (np.arange(m) + 0.5) * h
    edges = a + np.arange(1, m) * h
    lw_n = np.asarray(log_density(nodes), dtype=float)
    lw_e = np.asarray(log_density(edges), dtype=float)
    shift = lw_n.max()
    w_n, w_e = np.exp(lw_n - shift), np.exp(lw_e - shift)
    diag = np.zeros(m)
    diag[:-1] += w_e / w_n[:-1]
    diag[1:] += w_e / w_n[1:]
    off = -w_e / np.sqrt(w_n[:-1] * w_n[1:])
    return sp.diags([off / h**2, diag / h**2, off / h**2], [-1, 0, 1])


def test_criterion_4_tensorization_and_holley_stroock():
    """Product min-gap within 2%; perturbed C_PI <= e^osc * base C_PI."""
    t0 = time.perf_counter()
    # tensorization: 2-D product generator built independently via Kronecker
    # sums; its gap must match the min of the factor gaps
    densities = [(lambda x: -x, 0.0, 10.0),
                 (lambda x: -0.5 * 3.0 * x**2, -4.0, 4.0)]
    m = 300
    gaps_1d = [diagnostics.spectral_gap_1d(f, a, b, grid_points=m).gap
               for f, a, b in densities]
    L1 = _tridiag_1d(*densities[0], m)
    L2 = _tridiag_1d(*densities[1], m)
    eye = sp.identity(m)
    L2d = sp.kron(L1, eye) + sp.kron(eye, L2)
    evals = eigsh(L2d.tocsc(), k=2, sigma=-1e-9, return_eigenvectors=False)
    gap_2d = float(np.sort(evals)[1])
    tensor_err = abs(gap_2d - min(gaps_1d)) / min(gaps_1d)

    # Holley-Stroock: bounded perturbations inflate C_PI by at most e^osc
    rng = np.random.default_rng(11)
    hs_ok = True
    worst_ratio = 0.0
    for _ in range(20):
        amp = rng.uniform(0.1, 1.0)
        freq = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0, 2 * np.pi)
        base = lambda x: -0.5 * x**2
        psi = lambda x: amp * np.sin(freq * x + phase)
        pert = lambda x: base(x) + psi(x)
        grid = np.linspace(-6, 6, 4001)
        osc = float(np.max(psi(grid)) - np.min(psi(grid)))
        gap_base = diagnostics.spectral_gap_1d(base, -6.0, 6.0,
                                               grid_points=2000).gap
        gap_pert = diagnostics.spectral_gap_1d(pert, -6.0, 6.0,
                                               grid_points=2000).gap
        ratio = (1.0 / gap_pert) / (math.exp(osc) / gap_base)
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0 + 1e-9:
            hs_ok = False
    elapsed = time.perf_counter() - t0
    ok = tensor_err <= 0.02 and hs_ok and elapsed < 120
    report(4, ok, f"tensorization rel err {tensor_err:.3e} (<=0.02), "
                  f"worst Holley-Stroock ratio {worst_ratio:.3f} (<=1); "
                  f"{elapsed:.1f}s")


TRUTH_5D = np.array([1.0, 1.0, 1.0, 1.0, 0.0])


def test_criterion_5_nonregular_mle_recovery():
    """Stated target: theta_hat_4 <= 1e-4 in >= 18/20 trials.

    This implementation does not reach 18/20 and we believe no faithful one
    can: with theta*_4 = 0 the population score for coordinate 4 vanishes at
    the truth, so the finite-sample score is symmetric around zero and the
    constrained MLE lands on the boundary in only about half of the trials
    (the classic half-normal picture). Measured: 8/20 with these seeds.
    """
    t0 = time.perf_counter()
    at_zero = 0
    for seed in range(20):
        model = models.simulate("logistic", TRUTH_5D, 5000, seed=seed)
        result = find_mode_local(model, np.full(5, 0.5), tol=1e-9)
        if result.theta_hat[4] <= 1e-4:
            at_zero += 1
    elapsed = time.perf_counter() - t0
    ok = at_zero >= 18 and elapsed < 120
    report(5, ok, f"boundary recovery in {at_zero}/20 trials (>=18 required); "
                  f"{elapsed:.1f}s")


def test_criterion_6_good_set_concentration():
    """Stated target: good-set mass >= 0.9 from a 1e5-step orthant chain.

    The default good set cannot carry that much mass at this scale: its
    boundary box has half-width delta1/n ~ 7e-4 while the posterior's
    boundary coordinate fluctuates at scale ~1/sqrt(n) ~ 0.014 (half-normal),
    and the S0 ball radius delta0*sqrt(d0/n) ~ 0.085 covers only part of the
    ~chi(4)/sqrt(n) spread. Measured mass is on the order of 0.01-0.05.
    """
    t0 = time.perf_counter()
    model = models.simulate("logistic", TRUTH_5D, 5000, seed=0)
    result = find_mode_local(model, np.full(5, 0.5), tol=1e-9)
    split, center = geometry.split_coordinates(result.theta_hat, 1e-5)
    delta0, delta1 = geometry.default_deltas(max(split.d1, 1))
    gs = geometry.build_good_set(center, split,
                                 delta0 if split.d0 > 0 else None,
                                 delta1, model.n)
    config = sampler.SamplerConfig(step_size=0.1 / model.n, n_steps=100_000,
                                   burn_in=10_000, init=center.copy(), seed=0)
    chain = sampler.run_chain(model, config)
    mass = diagnostics.good_set_mass(chain, gs)
    elapsed = time.perf_counter() - t0
    ok = mass >= 0.9 and elapsed < 120
    report(6, ok, f"good-set mass {mass:.4f} (>=0.9 required); {elapsed:.1f}s")


def test_criterion_7_ess_calibration():
    """i.i.d. ESS within 20% of N; AR(1) rho=0.9 within 25% of theory."""
    t0 = time.perf_counter()
    n = 50_000
    iid = np.random.default_rng(12).standard_normal(n)
    ess_iid = diagnostics.bulk_ess(iid)
    iid_err = abs(ess_iid - n) / n

    rho = 0.9
    x = ar1_chain(rho, 100_000, seed=13)
    expected = 100_000 * (1 - rho) / (1 + rho)
    ess_ar = diagnostics.bulk_ess(x)
    ar_err = abs(ess_ar - expected) / expected
    elapsed = time.perf_counter() - t0
    ok = iid_err <= 0.20 and ar_err <= 0.25 and elapsed < 30
    report(7, ok, f"iid ESS {ess_iid:.0f}/{n} (err {iid_err:.2%} <=20%), "
                  f"AR(1) ESS {ess_ar:.0f} vs {expected:.0f} "
                  f"(err {ar_err:.2%} <=25%); {elapsed:.1f}s")


def _study_table(out, name):
    """A study's CSV table as a float array, header dropped, with the
    manifest's failures."""
    failures = io.read_json(out / "manifest.json")["failures"]
    return np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2), failures


def test_criterion_8_pre_asymptotic_mixing(tmp_path):
    """Logistic preset (d=200, n=800): median coordinate ESS >= 100 in
    >= 16/20 trials, read from the study's table (ESS to 6 decimals)."""
    t0 = time.perf_counter()
    config = experiments.preset_config("pre_asymptotic", "logistic",
                                       out_dir=str(tmp_path))
    table, failures = _study_table(experiments.run_ess_study(config),
                                   "ess_per_coordinate.csv")
    assert failures == []
    medians = [float(np.median(table[table[:, 0] == trial, 2]))
               for trial in range(config.n_trials)]
    good_trials = sum(med >= 100 for med in medians)
    elapsed = time.perf_counter() - t0
    ok = good_trials >= 16 and elapsed < 1800
    report(8, ok, f"median coordinate ESS >= 100 in {good_trials}/20 trials "
                  f"(median of medians {np.median(medians):.0f}); "
                  f"{elapsed:.0f}s")


def test_criterion_9_asymptotic_coverage(tmp_path):
    """d=10, n=1000, 20 trials: regular-coordinate coverage in [0.80, 1.00];
    boundary coordinate flagged."""
    t0 = time.perf_counter()
    details = []
    all_ok = True
    for kind in ("logistic", "poisson"):
        config = experiments.preset_config("asymptotic", kind, out_dir=str(tmp_path))
        table, failures = _study_table(experiments.run_coverage_study(config),
                                       "coverage.csv")
        assert failures == []
        flags = table[:, 2] == 1
        regular, boundary = table[~flags, 1], table[flags, 1]
        in_band = bool(np.all((regular >= 0.80) & (regular <= 1.00)))
        flagged = int(np.sum(flags)) == 1
        all_ok = all_ok and in_band and flagged
        details.append(f"{kind}: regular [{regular.min():.2f},"
                       f"{regular.max():.2f}], boundary {boundary[0]:.2f} "
                       f"(flagged)")
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 1200
    report(9, ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_10_poincare_bound_evaluator():
    """3 pinned tuples plus monotonicity on 1000 random tuples."""
    t0 = time.perf_counter()
    # pinned tuple 1: s2=0, flat prior, n=100, c_S0=C_S1=1
    v1 = assumptions.poincare_bound(1.0, 1.0, 0.0, 1.0, 1.0, 1, 1, 100)
    pin1 = v1 == pytest.approx(0.01)
    # pinned tuple 2: huge C_S1 selects the regular branch
    v2 = assumptions.poincare_bound(2.0, 1e12, 1.0, 1.0, 1.0, 2, 1, 50)
    expo = 2.0 * 1.0 * (math.sqrt(2.0) / math.sqrt(50) + 1.0 / 50)
    pin2 = v2 == pytest.approx((1.0 / (50 * 2.0)) * math.exp(expo))
    # pinned tuple 3: boundary-only bound upper-bounds the numeric C_PI of
    # the restricted exponential with rate n*C
    n, C = 50, 0.2
    v3 = assumptions.poincare_bound(1.0, C, 0.0, 0.0, 1.0, 0, 1, n)
    rate = n * C
    numeric = diagnostics.spectral_gap_1d(lambda x: -rate * x, 0.0, 30.0 / rate,
                                          grid_points=10_000)
    pin3 = 0.95 * v3 <= numeric.implied_C_PI <= v3

    rng = np.random.default_rng(14)
    mono_ok = True
    for _ in range(1000):
        c = rng.uniform(0.01, 10)
        C = rng.uniform(0.01, 10)
        s2 = rng.uniform(0, 5)
        n = int(rng.integers(1, 10_000))
        osc = rng.uniform(0, 2)
        args = dict(delta0=1.0, delta1=1.0, d0=2, d1=2)
        base = assumptions.poincare_bound(c, C, s2, n=n, prior_osc=osc, **args)
        mono_ok &= assumptions.poincare_bound(2 * c, C, s2, n=n,
                                              prior_osc=osc, **args) <= base + 1e-15
        mono_ok &= assumptions.poincare_bound(c, 2 * C, s2, n=n,
                                              prior_osc=osc, **args) <= base + 1e-15
        mono_ok &= assumptions.poincare_bound(c, C, s2 + 0.5, n=n,
                                              prior_osc=osc, **args) >= base
        mono_ok &= assumptions.poincare_bound(c, C, s2, n=2 * n,
                                              prior_osc=osc, **args) <= base + 1e-15
        mono_ok &= assumptions.poincare_bound(c, C, s2, n=n,
                                              prior_osc=osc + 0.5, **args) >= base
    elapsed = time.perf_counter() - t0
    ok = pin1 and pin2 and pin3 and bool(mono_ok) and elapsed < 5
    report(10, ok, f"pinned values {pin1}/{pin2}/{pin3}, monotonicity "
                   f"{bool(mono_ok)} on 1000 tuples; {elapsed:.1f}s")
