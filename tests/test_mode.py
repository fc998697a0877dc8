import numpy as np
import pytest

from orthant_gibbs import experiments, io, models
from orthant_gibbs.errors import ConfigError
from orthant_gibbs.mode import (ModeResult, find_mode_global, find_mode_local,
                                maximize_projected)
from orthant_gibbs.rng import make_rng


def quadratic(a):
    a = np.asarray(a, dtype=float)
    return (lambda x: -np.sum((x - a) ** 2),
            lambda x: -2.0 * (x - a))


def test_interior_quadratic_mode():
    fun, grad = quadratic([1.0, 2.0])
    result = maximize_projected(fun, grad, np.array([5.0, 5.0]), tol=1e-10)
    assert result.converged
    np.testing.assert_allclose(result.theta_hat, [1.0, 2.0], atol=1e-8)
    assert result.grad_norm <= 1e-10


def test_boundary_quadratic_mode_clamps():
    fun, grad = quadratic([-1.0, 2.0])
    result = maximize_projected(fun, grad, np.array([3.0, 3.0]), tol=1e-10)
    assert result.converged
    np.testing.assert_allclose(result.theta_hat, [0.0, 2.0], atol=1e-8)
    # raw gradient does not vanish at the clamped coordinate
    assert abs(grad(result.theta_hat)[0]) > 1.0


def test_logistic_all_zero_labels_boundary_mode():
    # all y=0 with positive covariates: loglik strictly decreasing on the orthant
    rng = np.random.default_rng(0)
    data = models.LogisticData(X=np.abs(rng.standard_normal((50, 1))),
                               Y=np.zeros(50))
    model = models.ModelInstance(data=data)
    result = find_mode_local(model, np.array([1.0]), tol=1e-10)
    assert result.theta_hat[0] <= 1e-10


def test_mode_result_invariants(logistic_model):
    result = find_mode_local(logistic_model, np.ones(3), tol=1e-8)
    assert result.converged and result.grad_norm <= 1e-8
    assert np.all(result.theta_hat >= 0)


def test_concave_models_agree_across_starts(logistic_model, poisson_model):
    for model in (logistic_model, poisson_model):
        a = find_mode_local(model, np.full(3, 0.2), tol=1e-10)
        b = find_mode_local(model, np.full(3, 3.0), tol=1e-10)
        assert abs(a.objective - b.objective) <= 1e-4


def test_poisson_line_search_survives_domain_violations(poisson_model):
    # a long first step would cross into rates <= 0; backtracking must recover
    result = find_mode_local(poisson_model, np.array([5.0, 5.0, 5.0]), tol=1e-8)
    assert result.converged


def test_global_matches_local_on_unimodal(logistic_model):
    local = find_mode_local(logistic_model, np.ones(3), tol=1e-10)
    bounds = (np.zeros(3), np.full(3, 4.0))
    swept = find_mode_global(logistic_model, bounds, seed=1, n_restarts=3,
                             tol=1e-10)
    assert abs(swept.objective - local.objective) <= 1e-6


def test_global_gmm_recovers_means():
    hits = 0
    for seed in range(20):
        truth = np.array([0.5, 4.0])  # k=2, m=1 means
        model = models.ModelTemplate("gmm", truth, 400, weights=np.array([0.5, 0.5]),
                                     covariances=np.stack([np.eye(1), np.eye(1)])
                                     ).simulate(seed)
        result = find_mode_global(model, (np.zeros(2), np.full(2, 6.0)),
                                  seed=seed, n_restarts=6, tol=1e-6)
        est = np.sort(result.theta_hat)
        if np.all(np.abs(est - truth) < 0.3):
            hits += 1
    assert hits >= 18


def test_global_is_deterministic(gmm_model):
    bounds = (np.zeros(4), np.full(4, 6.0))
    a = find_mode_global(gmm_model, bounds, seed=5, n_restarts=3)
    b = find_mode_global(gmm_model, bounds, seed=5, n_restarts=3)
    np.testing.assert_array_equal(a.theta_hat, b.theta_hat)
    assert a.objective == b.objective


def test_global_rejects_empty_box(gmm_model):
    with pytest.raises(ConfigError):
        find_mode_global(gmm_model, (np.ones(4), np.zeros(4)))


@pytest.mark.parametrize("lo,hi", [(0.0, float("nan")), (float("nan"), 1.0),
                                   (0.0, float("inf"))])
def test_global_rejects_a_box_with_no_uniform_law(gmm_model, lo, hi):
    # uniform(lo, hi) would raise OverflowError, which is no OrthantGibbsError:
    # the CLI would exit 1 ("check failed") with a traceback, not 2
    with pytest.raises(ConfigError, match="bounding box"):
        find_mode_global(gmm_model, (np.full(4, lo), np.full(4, hi)))


def test_global_needs_a_restart(gmm_model):
    with pytest.raises(ConfigError, match="n_restarts"):
        find_mode_global(gmm_model, (np.zeros(4), np.ones(4)), n_restarts=0)


@pytest.mark.parametrize("seed", range(5))
def test_gmm_warm_start_reaches_the_ascent_from_the_truth(seed):
    # the asymptotic study's gmm warm start; at seed 2 a worse local mode
    # (objective -7.9728) lies beside the one the truth ascends to (-7.6950)
    config = experiments.preset_config("asymptotic", "gmm")
    model = experiments.build_template(config).simulate(seed)
    theta = experiments.find_mode(model, seed=seed).theta_hat
    local = find_mode_local(model, model.theta_star, tol=1e-6)
    assert models.log_posterior_unnorm(model, theta) / model.n >= local.objective - 1e-9


def test_ascent_stops_when_no_step_moves_x():
    # near this mode the residual stays just above tol (1.07e-8) and the
    # accepted steps round to no change; such a step passes Armijo trivially,
    # so without the stall exit the ascent would run to MAX_ITER
    truth = np.array([1.0, 1.0, 1.0, 4.0, 4.0, 0.0])
    model = models.ModelTemplate("gmm", truth, 800,
                                 **experiments.gmm_mixture(2, 6)).simulate(1)
    stalled = find_mode_local(model, make_rng(1, 1).uniform(np.zeros(6),
                                                             np.full(6, 6.0)))
    assert stalled.iterations < 100
    assert not stalled.converged or stalled.grad_norm <= 1e-8
    assert abs(stalled.objective - find_mode_local(model, truth).objective) <= 1e-9


def test_global_rejects_bad_tol_before_any_evaluation(gmm_model, monkeypatch):
    calls = []
    value = models.log_posterior_unnorm

    def counted(model, theta):
        calls.append(1)
        return value(model, theta)

    monkeypatch.setattr(models, "log_posterior_unnorm", counted)
    with pytest.raises(ConfigError, match="tol"):
        find_mode_global(gmm_model, (np.zeros(4), np.full(4, 6.0)),
                         tol=float("nan"))
    assert not calls


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-8, float("inf")])
def test_tolerance_must_be_finite_and_positive(tol):
    # a NaN or non-positive tol is never met: the ascent would spend every
    # iteration and report converged=False
    fun, grad = quadratic([1.0, 0.0])
    with pytest.raises(ConfigError, match="tol"):
        maximize_projected(fun, grad, np.ones(2), tol=tol)


def test_nonregular_coordinate_recovery():
    # logistic d=5, theta* = (1,1,1,1,0): at n=5000 the boundary coordinate's
    # MLE should sit at zero in most trials
    truth = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    at_zero = 0
    for seed in range(10):
        model = models.ModelTemplate("logistic", truth, 5000).simulate(seed)
        result = find_mode_local(model, np.full(5, 0.5), tol=1e-9)
        if result.theta_hat[4] <= 1e-4:
            at_zero += 1
    # the population score of the boundary coordinate is symmetric here, so
    # theta_hat_4 = 0 only about half the time; see the acceptance suite
    assert at_zero >= 2


def test_mode_result_json():
    result = ModeResult(theta_hat=np.array([1.0]), objective=-1.0,
                        grad_norm=1e-9, iterations=3, converged=True)
    doc = io.to_jsonable(result)
    assert doc["theta_hat"] == [1.0] and doc["converged"] is True
