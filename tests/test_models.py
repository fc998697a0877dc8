import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, gammaln

from orthant_gibbs import models
from orthant_gibbs.errors import ConfigError, DomainError, ShapeError

from oracles import fd_gradient, fd_hessian, gmm_explicit, rel_err

ALL_MODELS = ["logistic_model", "poisson_model", "gmm_model", "gmm_corr_model"]


def _interior_points(model, n_points, seed):
    rng = np.random.default_rng(seed)
    base = np.abs(model.theta_star) + 0.5
    return base + 0.3 * rng.uniform(-1, 1, size=(n_points, model.d))


@pytest.mark.parametrize("fixture", ALL_MODELS)
def test_gradient_matches_finite_differences(fixture, request):
    model = request.getfixturevalue(fixture)
    for theta in _interior_points(model, 10, seed=0):
        analytic = models.grad_log_lik(model, theta)
        numeric = fd_gradient(lambda t: models.log_lik(model, t), theta)
        assert rel_err(analytic, numeric) <= 1e-6


@pytest.mark.parametrize("fixture", ALL_MODELS)
def test_hessian_matches_finite_differences(fixture, request):
    model = request.getfixturevalue(fixture)
    for theta in _interior_points(model, 5, seed=1):
        analytic = models.hess_log_lik(model, theta)
        numeric = fd_hessian(lambda t: models.grad_log_lik(model, t), theta)
        assert rel_err(analytic, numeric) <= 1e-5
        assert np.allclose(analytic, analytic.T)


def test_logistic_loglik_closed_form():
    # single observation, eta = 0: l = y*0 - log(1 + e^0) = -log 2
    data = models.LogisticData(X=np.zeros((1, 2)), Y=np.array([1.0]))
    model = models.ModelInstance(kind="logistic", data=data)
    assert models.log_lik(model, np.array([3.0, 4.0])) == pytest.approx(-np.log(2))


def test_logistic_loglik_is_stable_at_extreme_eta():
    data = models.LogisticData(X=np.array([[100.0]]), Y=np.array([0.0]))
    model = models.ModelInstance(kind="logistic", data=data)
    val = models.log_lik(model, np.array([10.0]))
    assert np.isfinite(val) and val == pytest.approx(-1000.0)


def test_poisson_domain_error_on_zero_rate():
    data = models.PoissonData(A=np.array([[1.0, 0.0], [0.0, 1.0]]),
                              Y=np.array([2.0, 3.0]))
    model = models.ModelInstance(kind="poisson", data=data)
    with pytest.raises(DomainError):
        models.log_lik(model, np.array([0.0, 1.0]))


def test_poisson_loglik_closed_form():
    # one observation, rate 2, count 3: -2 + 3 log 2 - log 3!
    data = models.PoissonData(A=np.array([[1.0]]), Y=np.array([3.0]))
    model = models.ModelInstance(kind="poisson", data=data)
    expected = -2.0 + 3.0 * np.log(2.0) - np.log(6.0)
    assert models.log_lik(model, np.array([2.0])) == pytest.approx(expected)


@pytest.mark.parametrize("T", [1.0, 2.5])
def test_poisson_cached_counts_keep_loglik_bitwise(T):
    model = models.simulate("poisson", np.array([1.0, 0.5, 0.0]), 200, seed=11, T=T)
    data = model.data
    assert data.counts is data.counts  # rounded once per dataset
    for theta in _interior_points(model, 5, seed=3):
        # the per-call form: re-round T*Y and recompute log(counts!)
        rates = data.A @ theta
        counts = np.round(data.T * data.Y)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_term = np.where(counts > 0,
                                counts * np.log(np.maximum(data.T * rates, 1e-300)), 0.0)
        expected = float(np.mean(-data.T * rates + log_term - gammaln(counts + 1.0)))
        assert models.log_lik(model, theta) == expected


def test_log_count_factorials_are_bitwise_gammaln():
    counts = np.arange(100_001, dtype=float)
    # shuffled, with repeats, so each entry must come back to its own count
    Y = np.concatenate([np.random.default_rng(5).permutation(counts), counts[::7]])
    data = models.PoissonData(A=np.ones((Y.size, 1)), Y=Y)
    np.testing.assert_array_equal(data.log_count_factorials, gammaln(Y + 1.0))


def test_expit_matches_scipy():
    x = np.linspace(-40.0, 40.0, 1_000_000)
    got, want = models._expit(x), expit(x)
    # NumPy's exp may differ from libm's by one ulp; after 1 + exp(-x) and the
    # reciprocal round on each side, the results differ by at most 3 eps
    # relative (measured: 2.2 eps, where exp(-x) > 2**53)
    assert np.all(np.abs(got - want) <= 3 * np.finfo(float).eps * want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tails = models._expit(np.array([-800.0, 800.0, np.nan]))
    assert tails[0] == 0.0 and tails[1] == 1.0 and np.isnan(tails[2])


@pytest.mark.parametrize("fixture", ALL_MODELS)
@pytest.mark.parametrize("prior", [models.Prior.flat(), models.Prior.exponential(1.5)])
def test_log_posterior_and_grad_is_bitwise_the_separate_calls(fixture, prior, request):
    from dataclasses import replace
    model = replace(request.getfixturevalue(fixture), prior=prior)
    for theta in _interior_points(model, 3, seed=4):
        value, grad = models.log_posterior_and_grad(model, theta)
        assert value == models.log_posterior_unnorm(model, theta)
        np.testing.assert_array_equal(grad, models.grad_log_posterior_unnorm(model, theta))


@pytest.mark.parametrize("fixture", ["gmm_model", "gmm_corr_model"])
def test_gmm_matches_explicit_quadratic_form(fixture, request):
    model = request.getfixturevalue(fixture)
    data = model.data
    for theta in _interior_points(model, 3, seed=2):
        val, grad, hess = gmm_explicit(data.X, data.weights, data.covariances,
                                       theta.reshape(data.k, data.m))
        assert rel_err(models.log_lik(model, theta), val) <= 1e-12
        assert rel_err(models.grad_log_lik(model, theta), grad) <= 1e-12
        assert rel_err(models.hess_log_lik(model, theta), hess) <= 1e-12


def test_gmm_responsibilities_rows_sum_to_one(gmm_model):
    gamma = models.gmm_responsibilities(gmm_model.data, gmm_model.theta_star)
    assert gamma.shape == (gmm_model.n, gmm_model.data.k)
    assert np.all(gamma >= 0)
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


def test_gmm_responsibilities_underflow_safe(gmm_model):
    # means pushed very far apart: naive density evaluation underflows
    theta = np.array([0.0, 0.0, 500.0, 500.0])
    gamma = models.gmm_responsibilities(gmm_model.data, theta)
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


def test_simulate_is_deterministic():
    a = models.simulate("logistic", np.array([1.0, 0.0]), 50, seed=11)
    b = models.simulate("logistic", np.array([1.0, 0.0]), 50, seed=11)
    np.testing.assert_array_equal(a.data.X, b.data.X)
    np.testing.assert_array_equal(a.data.Y, b.data.Y)
    c = models.simulate("logistic", np.array([1.0, 0.0]), 50, seed=12)
    assert not np.array_equal(a.data.X, c.data.X)


def test_simulate_shapes_and_kinds():
    log = models.simulate("logistic", np.ones(3), 40, seed=0)
    assert log.data.X.shape == (40, 3) and set(log.data.Y) <= {0.0, 1.0}
    poi = models.simulate("poisson", np.ones(3), 40, seed=0)
    assert poi.data.A.shape == (40, 3) and np.all(poi.data.Y >= 0)
    gmm = models.simulate("gmm", np.array([0.0, 0.0, 5.0, 5.0]), 40, seed=0,
                          weights=np.array([0.5, 0.5]),
                          covariances=np.stack([np.eye(2)] * 2))
    assert gmm.data.X.shape == (40, 2)


def test_simulate_rejects_bad_input():
    with pytest.raises(ConfigError):
        models.simulate("unknown", np.ones(2), 10, seed=0)
    with pytest.raises(ConfigError):
        # all-boundary Poisson truth gives zero rates
        models.simulate("poisson", np.zeros(3), 10, seed=0)


def test_simulate_gmm_rejects_covariances_of_the_wrong_shape():
    theta_star = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    with pytest.raises(ShapeError, match="covariances"):  # k=3 weights, 2 covariances
        models.simulate("gmm", theta_star, 50, seed=0,
                        weights=np.array([0.5, 0.3, 0.2]),
                        covariances=np.stack([np.eye(2)] * 2))


def _valid_data(kind):
    """Small valid fields of one data class."""
    rng = np.random.default_rng(0)
    if kind == "logistic":
        return models.LogisticData, {"X": rng.standard_normal((5, 3)),
                                     "Y": np.array([0.0, 1.0, 1.0, 0.0, 1.0])}
    if kind == "poisson":
        return models.PoissonData, {"A": rng.uniform(0.1, 1.0, (5, 3)),
                                    "Y": np.array([1.0, 2.0, 0.0, 3.0, 1.0]),
                                    "T": 1.0}
    return models.GmmData, {"X": rng.standard_normal((6, 2)),
                            "weights": np.array([0.6, 0.4]),
                            "covariances": np.stack([np.eye(2)] * 2)}


@given(kind=st.sampled_from(models.KINDS), choice=st.integers(0, 2),
       position=st.integers(0, 100), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=150, deadline=None)
def test_data_classes_reject_non_finite_input(kind, choice, position, bad):
    cls, fields = _valid_data(kind)
    cls(**fields)  # valid as built
    name = sorted(fields)[choice % len(fields)]
    value = np.array(fields[name], dtype=float)
    value.flat[position % value.size] = bad
    with pytest.raises(ConfigError):
        cls(**{**fields, name: value})


def test_simulate_rejects_non_finite_theta_star():
    with pytest.raises(ConfigError, match="finite"):
        models.simulate("logistic", np.array([np.nan, 1.0, 0.0]), 10, seed=0)


@pytest.mark.parametrize("fixture", ["logistic_model", "poisson_model"])
def test_glm_hessian_is_one_exactly_symmetric_product(fixture, request):
    model = request.getfixturevalue(fixture)
    data = model.data
    X = data.X if model.kind == "logistic" else data.A
    for theta in _interior_points(model, 5, seed=2):
        eta = X @ theta
        if model.kind == "logistic":
            s = models._expit(eta)
            w = s * (1.0 - s)
        else:
            w = np.where(data.Y > 0, data.T * data.Y / eta**2, 0.0)
        H = models._KERNELS[model.kind].hess(data, eta)
        assert np.array_equal(H, H.T)
        # the two-product form the kernels used before
        assert rel_err(H, -(X.T * w) @ X / data.n) <= 1e-13
        assert np.array_equal(models.hess_log_lik(model, theta), H)


def test_model_instance_validates_theta_star_shape():
    data = models.LogisticData(X=np.zeros((3, 2)), Y=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ShapeError):
        models.ModelInstance(kind="logistic", data=data, theta_star=np.ones(5))


def test_flat_prior_contributes_nothing(logistic_model):
    theta = np.array([0.5, 0.2, 0.1])
    assert models.log_prior(models.Prior.flat(), theta) == 0.0
    np.testing.assert_array_equal(
        models.grad_log_prior(models.Prior.flat(), theta), np.zeros(3))
    assert models.log_posterior_unnorm(logistic_model, theta) == pytest.approx(
        logistic_model.n * models.log_lik(logistic_model, theta))


def test_exponential_prior_log_density_and_grad():
    prior = models.Prior.exponential(rate=2.0)
    theta = np.array([1.0, 3.0])
    expected = 2 * np.log(2.0) - 2.0 * 4.0
    assert models.log_prior(prior, theta) == pytest.approx(expected)
    np.testing.assert_allclose(models.grad_log_prior(prior, theta), [-2.0, -2.0])
    prior.check_concavity()  # linear log-density: concave


@given(rate=st.floats(0.1, 5.0), r=st.floats(0.01, 10.0))
@settings(max_examples=50, deadline=None)
def test_exponential_prior_oscillation(rate, r):
    # log-density is linear with slope -rate, so osc on [0, r] is rate*r
    prior = models.Prior.exponential(rate)
    assert prior.oscillation(r) == pytest.approx(rate * r, rel=1e-9)


def test_prior_json_roundtrip():
    for prior in (models.Prior.flat(), models.Prior.exponential(0.5)):
        again = models.Prior.from_json(prior.to_json())
        assert again.name == prior.name
        assert again.lipschitz == prior.lipschitz


def test_posterior_grad_includes_prior(poisson_model):
    from dataclasses import replace
    model = replace(poisson_model, prior=models.Prior.exponential(1.5))
    theta = np.abs(model.theta_star) + 0.5
    expected = (model.n * models.grad_log_lik(model, theta)
                + models.grad_log_prior(model.prior, theta))
    np.testing.assert_allclose(
        models.grad_log_posterior_unnorm(model, theta), expected)


@given(seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_logistic_loglik_concave_along_segments(seed):
    model = models.simulate("logistic", np.array([1.0, 0.5]), 60, seed=3)
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0, 2, 2), rng.uniform(0, 2, 2)
    mid = 0.5 * (a + b)
    assert models.log_lik(model, mid) >= (
        0.5 * (models.log_lik(model, a) + models.log_lik(model, b)) - 1e-12)
