import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, gammaln

from orthant_gibbs import cli, io, models
from orthant_gibbs.errors import ConfigError, DomainError, ShapeError

from oracles import (fd_gradient, fd_hessian, gmm_explicit, posterior_reference,
                     rel_err)

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
        assert np.array_equal(analytic, analytic.T)


def test_logistic_loglik_closed_form():
    # single observation, eta = 0: l = y*0 - log(1 + e^0) = -log 2
    data = models.LogisticData(X=np.zeros((1, 2)), Y=np.array([1.0]))
    model = models.ModelInstance(data=data)
    assert models.log_lik(model, np.array([3.0, 4.0])) == pytest.approx(-np.log(2))


def test_logistic_loglik_is_stable_at_extreme_eta():
    data = models.LogisticData(X=np.array([[100.0]]), Y=np.array([0.0]))
    model = models.ModelInstance(data=data)
    val = models.log_lik(model, np.array([10.0]))
    assert np.isfinite(val) and val == pytest.approx(-1000.0)


def test_poisson_domain_error_on_zero_rate():
    data = models.PoissonData(A=np.array([[1.0, 0.0], [0.0, 1.0]]),
                              Y=np.array([2.0, 3.0]))
    model = models.ModelInstance(data=data)
    with pytest.raises(DomainError):
        models.log_lik(model, np.array([0.0, 1.0]))


def test_poisson_zero_rate_at_a_zero_count_is_in_the_domain():
    # on the boundary an observation with Y = 0 can have rate 0; its terms
    # of the value, gradient and Hessian are 0, as in the reference formulas
    data = models.PoissonData(A=np.array([[1.0, 0.0], [0.0, 1.0]]),
                              Y=np.array([2.0, 0.0]))
    model = models.ModelInstance(data=data)
    theta = np.array([1.5, 0.0])
    value, grad = posterior_reference(model, theta)
    assert model.value(theta) == value and np.isfinite(value)
    assert np.array_equal(model.grad(theta), grad) and np.all(np.isfinite(grad))
    assert np.all(np.isfinite(models.hess_log_lik(model, theta)))


def test_poisson_loglik_closed_form():
    # one observation, rate 2, count 3: -2 + 3 log 2 - log 3!
    data = models.PoissonData(A=np.array([[1.0]]), Y=np.array([3.0]))
    model = models.ModelInstance(data=data)
    expected = -2.0 + 3.0 * np.log(2.0) - np.log(6.0)
    assert models.log_lik(model, np.array([2.0])) == pytest.approx(expected)


@pytest.mark.parametrize("T", [1.0, 2.5])
def test_poisson_cached_counts_keep_loglik_bitwise(T):
    # simulated counts, as rates Y at exposure T
    simulated = models.ModelTemplate("poisson", np.array([1.0, 0.5, 0.0]),
                                     200).simulate(11)
    data = models.PoissonData(A=simulated.data.A, Y=simulated.data.Y / T, T=T)
    model = models.ModelInstance(data, theta_star=simulated.theta_star)
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
@pytest.mark.parametrize("prior", [models.Prior(), models.Prior(1.5)])
def test_log_posterior_and_grad_is_bitwise_the_separate_calls(fixture, prior, request):
    from dataclasses import replace
    model = replace(request.getfixturevalue(fixture), prior=prior)
    for theta in _interior_points(model, 3, seed=4):
        value, grad = models.log_posterior_and_grad(model, theta)
        assert value == models.log_posterior_unnorm(model, theta)
        np.testing.assert_array_equal(grad, models.grad_log_posterior_unnorm(model, theta))


@pytest.mark.parametrize("fixture", ["gmm_model", "gmm_corr_model", "gmm_far_model",
                                     "gmm_workload_model"])
def test_gmm_matches_explicit_quadratic_form(fixture, request):
    model = request.getfixturevalue(fixture)
    data = model.data
    for theta in _interior_points(model, 3, seed=2):
        val, grad, hess = gmm_explicit(data.X, data.weights, data.covariances,
                                       theta.reshape(data.k, data.m))
        assert rel_err(models.log_lik(model, theta), val) <= 1e-12
        assert rel_err(models.grad_log_lik(model, theta), grad) <= 1e-12
        assert rel_err(models.hess_log_lik(model, theta), hess) <= 1e-12


@pytest.mark.parametrize("rate", [0.0, 1.5])
@pytest.mark.parametrize("fixture", ["logistic_model", "poisson_model", "gmm_model",
                                     "gmm_corr_model", "gmm_workload_model"])
def test_kernels_are_bitwise_the_reference_formulas(fixture, rate, request):
    # the in-place kernels, with cached constants, against each kind's
    # formulas as first written; the points include the orthant's boundary
    from dataclasses import replace
    model = replace(request.getfixturevalue(fixture), prior=models.Prior(rate))
    points = list(_interior_points(model, 3, seed=4))
    points.append(np.where(np.arange(model.d) % 2 == 0, 0.0, points[0]))
    for theta in points:
        value, grad = posterior_reference(model, theta)
        fused = model.value_and_grad(theta)
        assert model.value(theta) == value and fused[0] == value
        # equal values: adding the flat prior's zero vector, as the reference
        # does, would only turn a -0.0 component into +0.0
        assert np.array_equal(model.grad(theta), grad)
        assert np.array_equal(fused[1], grad)


def _responsibilities(model, theta):
    """The (n, k) responsibilities of the gmm's shared pass."""
    return models._shared_pass(model, theta)[1].gamma.T


def test_gmm_responsibilities_rows_sum_to_one(gmm_model):
    gamma = _responsibilities(gmm_model, gmm_model.theta_star)
    assert gamma.shape == (gmm_model.n, gmm_model.data.k)
    assert np.all(gamma >= 0)
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


def test_gmm_responsibilities_underflow_safe(gmm_model):
    # means pushed very far apart: naive density evaluation underflows
    theta = np.array([0.0, 0.0, 500.0, 500.0])
    gamma = _responsibilities(gmm_model, theta)
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


def test_simulate_is_deterministic():
    template = models.ModelTemplate("logistic", np.array([1.0, 0.0]), 50)
    a, b = template.simulate(11), template.simulate(11)
    np.testing.assert_array_equal(a.data.X, b.data.X)
    np.testing.assert_array_equal(a.data.Y, b.data.Y)
    c = template.simulate(12)
    assert not np.array_equal(a.data.X, c.data.X)


def test_simulate_shapes_and_kinds():
    log = models.ModelTemplate("logistic", np.ones(3), 40).simulate(0)
    assert log.data.X.shape == (40, 3) and set(log.data.Y) <= {0.0, 1.0}
    poi = models.ModelTemplate("poisson", np.ones(3), 40).simulate(0)
    assert poi.data.A.shape == (40, 3) and np.all(poi.data.Y >= 0)
    gmm = models.ModelTemplate("gmm", np.array([0.0, 0.0, 5.0, 5.0]), 40,
                               weights=np.array([0.5, 0.5]),
                               covariances=np.stack([np.eye(2)] * 2)).simulate(0)
    assert gmm.data.X.shape == (40, 2)


def test_a_gmm_simulation_checks_its_mixture_once(monkeypatch):
    template = models.ModelTemplate("gmm", np.array([1.0, 1.0, 4.0, 0.0]), 50,
                                    weights=np.array([0.7, 0.3]),
                                    covariances=np.stack([np.eye(2)] * 2))
    calls = []
    check = models.check_mixture

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(models, "check_mixture", counted)
    template.simulate(0)
    # by GmmData, which is also built from files; the template was checked
    assert len(calls) == 1


def test_simulate_rejects_bad_input():
    with pytest.raises(ConfigError):
        models.ModelTemplate("unknown", np.ones(2), 10).simulate(0)
    with pytest.raises(ConfigError):
        # all-boundary Poisson truth gives zero rates
        models.ModelTemplate("poisson", np.zeros(3), 10).simulate(0)


_GOOD_MODELS = {
    "logistic": {"kind": "logistic", "theta_star": [1.0, 0.0], "n": 20},
    "gmm": {"kind": "gmm", "theta_star": [1.0, 1.0, 4.0, 0.0], "n": 20,
            "weights": [0.7, 0.3], "covariances": [np.eye(2).tolist()] * 2},
}
# name: (good model, change, error, message, a simulate or ess call giving
# the same model, if the flags can express it)
_BAD_MODELS = {
    "nan_truth": ("logistic", {"theta_star": [1.0, float("nan")]}, ConfigError,
                  "finite and non-negative", ["simulate", "--theta-star", "[1, NaN]"]),
    "inf_truth": ("logistic", {"theta_star": [float("inf"), 0.0]}, ConfigError,
                  "finite and non-negative", ["simulate", "--theta-star", "[Infinity, 0]"]),
    "negative_truth": ("logistic", {"theta_star": [1.0, -0.5]}, ConfigError,
                       "finite and non-negative", ["simulate", "--theta-star", "[1, -0.5]"]),
    "n_0": ("logistic", {"n": 0}, ConfigError, "n must be >= 1",
            ["simulate", "--n", "0"]),
    "unknown_kind": ("logistic", {"kind": "probit"}, ConfigError,
                     "unknown model kind 'probit'", ["ess", {"model": "probit"}]),
    "gmm_without_mixture": ("gmm", {"weights": None, "covariances": None}, ConfigError,
                            "gmm requires weights and covariances", None),
    "d_not_divisible_by_k": ("gmm", {"theta_star": [1.0, 1.0, 4.0]}, ConfigError,
                             "gmm requires d divisible by k",
                             ["simulate", "--model", "gmm", "--theta-star", "[1, 1, 4]"]),
    # simulate builds one covariance per --k component, so its flags cannot
    # give this model: --weights of another length is refused by name
    # (test_cli.py::test_simulate_names_a_k_and_weights_disagreement)
    "covariance_shape": ("gmm", {"covariances": [np.eye(3).tolist()] * 2}, ShapeError,
                         "covariances have shape", None),
    # simulate checks its --weights before it scales them to sum to 1
    "negative_weight": ("gmm", {"weights": [2.0, -1.0]}, ConfigError,
                        "weights must be a non-empty 1-D array, finite and strictly positive",
                        ["simulate", "--model", "gmm", "--theta-star", "[1, 1, 4, 0]",
                         "--weights", "[2, -1]"]),
    "weights_summing_to_0": ("gmm", {"weights": [1.0, -1.0]}, ConfigError,
                             "weights must be a non-empty 1-D array, finite and strictly positive",
                             ["simulate", "--model", "gmm", "--theta-star", "[1, 1, 4, 0]",
                              "--weights", "[1, -1]"]),
    "covariance_not_positive_definite": (
        "gmm", {"covariances": [[[1.0, 2.0], [2.0, 1.0]], np.eye(2).tolist()]},
        ConfigError, "covariance 0 is not positive definite", None),
}


def _cli_exits_2(argv, message, capsys):
    assert cli.main([str(a) for a in argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path", ["template", "simulate", "load_model_config", "cli"])
@pytest.mark.parametrize("case", list(_BAD_MODELS))
def test_a_bad_model_is_refused_the_same_way_everywhere(tmp_path, capsys, case, path):
    good, change, error, message, argv = _BAD_MODELS[case]
    fields = {**_GOOD_MODELS[good], **change}
    config = tmp_path / "model.json"  # json writes NaN and Infinity as literals
    config.write_text(json.dumps({**fields, "prior": {"rate": 0.0}, "seed": 0}))
    if path == "template":
        with pytest.raises(error, match=message):
            models.ModelTemplate(**fields)
    elif path == "simulate":
        # simulate takes only a template, and one derived from a good
        # template is checked again, so no bad model reaches it
        good_template = models.ModelTemplate(**_GOOD_MODELS[good])
        with pytest.raises(error, match=message):
            models.simulate(dataclasses.replace(good_template, **change), 0)
    elif path == "load_model_config":
        with pytest.raises(error, match=message):
            io.load_model_config(config)
    else:
        out = tmp_path / "out"
        # mode reads the model before the dataset, so none is needed
        _cli_exits_2(["mode", "--model-config", config, "--out", out], message, capsys)
        if argv and argv[0] == "simulate":
            flags = {"--model": "logistic", "--n": 20, "--theta-star": "[1, 0]",
                     **dict(zip(argv[1::2], argv[2::2]))}
            _cli_exits_2(["simulate", *(a for pair in flags.items() for a in pair),
                          "--out", out], message, capsys)
        elif argv:
            study = tmp_path / "study.json"
            study.write_text(json.dumps(argv[1]))
            _cli_exits_2(["ess", "--config", study, "--out", out], message, capsys)
        assert not out.exists()


def test_simulate_gmm_rejects_covariances_of_the_wrong_shape():
    theta_star = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    with pytest.raises(ShapeError, match="covariances"):  # k=3 weights, 2 covariances
        models.ModelTemplate("gmm", theta_star, 50, weights=np.array([0.5, 0.3, 0.2]),
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
        models.ModelTemplate("logistic", np.array([np.nan, 1.0, 0.0]), 10).simulate(0)


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
        models.ModelInstance(data=data, theta_star=np.ones(5))


def test_flat_prior_contributes_nothing(logistic_model):
    theta = np.array([0.5, 0.2, 0.1])
    assert models.Prior().is_flat and logistic_model.prior.is_flat
    assert models.log_prior(models.Prior(), theta) == 0.0
    np.testing.assert_array_equal(
        models.grad_log_posterior_unnorm(logistic_model, theta),
        logistic_model.n * models.grad_log_lik(logistic_model, theta))
    assert models.log_posterior_unnorm(logistic_model, theta) == pytest.approx(
        logistic_model.n * models.log_lik(logistic_model, theta))


def test_exponential_prior_log_density_and_grad(logistic_model):
    from dataclasses import replace
    prior = models.Prior(rate=2.0)
    theta = np.array([1.0, 3.0, 0.5])
    expected = 3 * np.log(2.0) - 2.0 * 4.5
    assert models.log_prior(prior, theta) == pytest.approx(expected)
    # the prior's gradient is -rate in every coordinate
    model = replace(logistic_model, prior=prior)
    np.testing.assert_allclose(
        models.grad_log_posterior_unnorm(model, theta),
        model.n * models.grad_log_lik(model, theta) - 2.0, rtol=1e-14)


@given(rate=st.floats(0.1, 5.0), r=st.floats(0.01, 10.0))
@settings(max_examples=50, deadline=None)
def test_exponential_prior_oscillation(rate, r):
    # log-density is linear with slope -rate, so osc on [0, r] is rate*r
    prior = models.Prior(rate)
    assert prior.oscillation(r) == pytest.approx(rate * r, rel=1e-9)


def test_prior_json_roundtrip():
    for prior, doc in ((models.Prior(), {"rate": 0.0}),
                       (models.Prior(0.5), {"rate": 0.5})):
        assert io.to_jsonable(prior) == doc  # the prior's bytes in model.json
        assert models.Prior.from_json(doc) == prior


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, -1.0])
def test_exponential_prior_rejects_a_rate_that_is_not_finite_and_positive(rate):
    # rate 0 is the flat prior, so it is not among these
    with pytest.raises(ConfigError, match="rate"):
        models.Prior(rate=rate)
    with pytest.raises(ConfigError, match="rate"):
        models.Prior.from_json({"rate": rate})


def test_model_kind_comes_from_its_data(logistic_model, poisson_model, gmm_model):
    for model in (logistic_model, poisson_model, gmm_model):
        assert models.ModelInstance(data=model.data).kind == model.data.kind
    assert [m.kind for m in (logistic_model, poisson_model, gmm_model)] == list(models.KINDS)
    with pytest.raises(TypeError):
        models.ModelInstance(kind="poisson", data=logistic_model.data)


def test_posterior_grad_includes_prior(poisson_model):
    from dataclasses import replace
    model = replace(poisson_model, prior=models.Prior(1.5))
    theta = np.abs(model.theta_star) + 0.5
    np.testing.assert_allclose(
        models.grad_log_posterior_unnorm(model, theta),
        posterior_reference(model, theta)[1])


@given(seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_logistic_loglik_concave_along_segments(seed):
    model = models.ModelTemplate("logistic", np.array([1.0, 0.5]), 60).simulate(3)
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0, 2, 2), rng.uniform(0, 2, 2)
    mid = 0.5 * (a + b)
    assert models.log_lik(model, mid) >= (
        0.5 * (models.log_lik(model, a) + models.log_lik(model, b)) - 1e-12)
