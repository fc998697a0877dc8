import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from orthant_gibbs import diagnostics, experiments, geometry, io, models, sampler
from orthant_gibbs.errors import ConfigError, NonFiniteError
from orthant_gibbs.rng import make_rng

from oracles import (pre_asymptotic_product_target, run_chain_reference,
                     truncated_exponential_mean)


@dataclass(frozen=True)
class Target:
    """Unnormalized log-density on R^d with its gradient: the surface
    ``run_chain`` needs from a ``models.ModelInstance``, built from two
    functions."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    d: int

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self.value(x), self.grad(x)


def gaussian_target(mean):
    mean = np.asarray(mean, dtype=float)
    return Target(value=lambda x: -0.5 * float(np.sum((x - mean) ** 2)),
                  grad=lambda x: mean - x,
                  d=mean.size)


def test_config_validation():
    for step in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ConfigError):
            sampler.SamplerConfig(step_size=step, n_steps=10)
    with pytest.raises(ConfigError):
        sampler.SamplerConfig(step_size=0.1, n_steps=10, burn_in=10)
    with pytest.raises(ConfigError):
        sampler.SamplerConfig(step_size=0.1, n_steps=10, thin=0)
    with pytest.raises(ConfigError):
        sampler.SamplerConfig(step_size=0.1, n_steps=10, projection="cube")


def test_plmc_step_deterministic_limb():
    target = gaussian_target([2.0, 2.0])
    x = np.array([1.0, 1.0])
    orthant = geometry.GoodSet.orthant(2)
    out = sampler.plmc_step(x, target.grad(x), 0.25, np.zeros(2), orthant)
    np.testing.assert_allclose(out, x + 0.25 * (np.array([2.0, 2.0]) - x))
    # zero drift at the mode: the step is the identity for interior points
    mode = np.array([2.0, 2.0])
    out = sampler.plmc_step(mode, target.grad(mode), 0.25, np.zeros(2), orthant)
    np.testing.assert_allclose(out, [2.0, 2.0])


def test_plmc_step_projects():
    target = gaussian_target([-5.0, 2.0])
    x = np.array([0.1, 2.0])
    out = sampler.plmc_step(x, target.grad(x), 1.0, np.zeros(2), geometry.GoodSet.orthant(2))
    assert out[0] == 0.0  # clamped by the orthant projection


def test_plmc_step_rejects_nonfinite_drift():
    bad = Target(value=lambda x: 0.0,
                 grad=lambda x: np.array([np.nan]), d=1)
    with pytest.raises(NonFiniteError):
        sampler.plmc_step(np.array([1.0]), bad.grad(np.array([1.0])), 0.1,
                          np.zeros(1), geometry.GoodSet.orthant(1))


def test_run_chain_is_a_loop_of_plmc_step():
    target = gaussian_target([1.0, 0.0, 2.0])
    config = sampler.SamplerConfig(step_size=0.05, n_steps=40, burn_in=10,
                                   init=np.array([0.5, 0.5, 0.5]), seed=4,
                                   thin=3)
    chain = sampler.run_chain(target, config)
    rng = make_rng(config.seed, 0x10)
    x = np.array([0.5, 0.5, 0.5])
    h = config.step_size
    kept = []
    for k in range(config.n_steps):
        x = sampler.plmc_step(x, target.grad(x), h,
                              math.sqrt(2 * h) * rng.standard_normal(3),
                              geometry.GoodSet.orthant(3))
        if k >= config.burn_in and (k - config.burn_in) % config.thin == 0:
            kept.append(x)
    assert np.array_equal(chain.samples, np.array(kept))
    assert np.array_equal(chain.log_posterior, [target.value(x) for x in kept])


def test_a_step_and_the_projections_write_to_no_argument():
    gs = geometry.GoodSet(center=[1.0, 0.0],
                          split=geometry.CoordinateSplit(S0=[0], S1=[1]),
                          r0=0.5, r1=0.1)
    orthant = sampler.SamplerConfig(step_size=0.1, n_steps=1).domain(2)
    x, drift, xi = np.array([0.2, 0.3]), np.array([-4.0, 2.0]), np.array([-0.5, -0.1])
    args = (x, drift, xi, gs.center, *gs.box, *orthant.box)
    before = [a.copy() for a in args]
    step = x + 0.1 * drift + xi  # [-0.7, 0.4]: both projections bind
    results = [
        (sampler.plmc_step(x, drift, 0.1, xi, orthant), [0.0, 0.4]),
        (sampler.plmc_step(x, drift, 0.1, xi, gs), [0.5, 0.1]),
        (geometry.project_good_set(orthant, step), [0.0, 0.4]),
        (geometry.project_good_set(gs, step), [0.5, 0.1]),
    ]
    for result, expected in results:
        np.testing.assert_allclose(result, expected)
        assert not any(np.shares_memory(result, a) for a in (*args, step))
    for a, b in zip(args, before):
        assert np.array_equal(a, b)
    assert np.array_equal(step, [-0.7, 0.4])


def test_a_target_may_keep_every_array_it_is_called_with():
    base = gaussian_target([1.0, 0.0, 2.0])
    seen = {"value": [], "grad": []}  # each array passed, and a copy taken then

    def keeping(name, f):
        def call(x):
            seen[name].append((x, x.copy()))
            return f(x)
        return call

    target = Target(value=keeping("value", base.value),
                    grad=keeping("grad", base.grad), d=3)
    config = sampler.SamplerConfig(step_size=0.05, n_steps=30,
                                   init=np.array([0.5, 0.5, 0.5]), seed=4)
    chain = sampler.run_chain(target, config)
    for kept, copy in seen["value"] + seen["grad"]:
        assert np.array_equal(kept, copy)
    # every state is kept: the drift is taken at the start and at each state
    # but the last, and the log density at each state
    grads = np.array([x for x, _ in seen["grad"]])
    assert np.array_equal(grads[0], [0.5, 0.5, 0.5])
    assert np.array_equal(grads[1:], chain.samples[:-1])
    assert np.array_equal(np.array([x for x, _ in seen["value"]]), chain.samples)


def _good_set(model):
    split, center = geometry.split_coordinates(model.theta_star, 1e-7)
    delta0, delta1 = geometry.default_deltas(split.d1)
    return geometry.build_good_set(center, split, delta0 if split.d0 else None,
                                   delta1, model.n)


@pytest.mark.parametrize("thin", [1, 3])
@pytest.mark.parametrize("good_set", [False, True])
@pytest.mark.parametrize("fixture", ["logistic_model", "poisson_model", "gmm_model"])
def test_run_chain_is_bitwise_the_reference_loop(fixture, good_set, thin, request,
                                                 monkeypatch):
    # noise blocks of 4 steps: 23 steps take five full blocks and 3 rows of a
    # sixth; at thin 1 the last state is kept, at thin 3 it is not
    model = request.getfixturevalue(fixture)
    monkeypatch.setattr(sampler, "_NOISE_BLOCK", 4 * model.d)
    config = sampler.SamplerConfig(
        step_size=1e-4, n_steps=23, burn_in=5, seed=3, thin=thin,
        projection=_good_set(model) if good_set else "orthant")
    chain = sampler.run_chain(model, config)
    samples, log_post = run_chain_reference(model, config)
    assert chain.samples.tobytes() == samples.tobytes()
    assert chain.log_posterior.tobytes() == log_post.tobytes()


def test_run_chain_crosses_a_noise_block_bitwise_at_the_study_shape(gmm_workload_model):
    # d = 200 gives blocks of 40 steps, so 45 steps draw one full block and
    # part of a second
    model = gmm_workload_model
    assert sampler._NOISE_BLOCK // model.d == 40
    config = sampler.SamplerConfig(step_size=0.1 / model.n, n_steps=45, burn_in=30,
                                   seed=1)
    chain = sampler.run_chain(model, config)
    samples, log_post = run_chain_reference(model, config)
    assert chain.samples.tobytes() == samples.tobytes()
    assert chain.log_posterior.tobytes() == log_post.tobytes()


def test_run_chain_names_the_step_of_a_nonfinite_drift():
    calls = []

    def grad(x):  # one call per step; the sixth drift is NaN
        calls.append(x)
        return np.array([np.nan if len(calls) == 6 else 0.0])

    bad = Target(value=lambda x: 0.0, grad=grad, d=1)
    config = sampler.SamplerConfig(step_size=0.1, n_steps=20,
                                   init=np.array([1.0]), seed=0)
    with pytest.raises(NonFiniteError, match=r"at step 5$"):
        sampler.run_chain(bad, config)


def test_run_chain_takes_a_model_instance_as_its_target(logistic_model):
    # the model's methods are the module functions, so a chain on the model
    # is bitwise a chain on a Target built from them
    theta = np.array([0.5, 0.2, 0.1])
    assert logistic_model.value(theta) == models.log_posterior_unnorm(logistic_model, theta)
    np.testing.assert_array_equal(logistic_model.grad(theta),
                                  models.grad_log_posterior_unnorm(logistic_model, theta))
    target = Target(
        value=lambda x: models.log_posterior_unnorm(logistic_model, x),
        grad=lambda x: models.grad_log_posterior_unnorm(logistic_model, x),
        d=logistic_model.d)
    config = sampler.SamplerConfig(step_size=1e-3, n_steps=30, burn_in=5,
                                   init=np.array([1.0, 0.5, 0.1]), seed=2)
    a, b = sampler.run_chain(logistic_model, config), sampler.run_chain(target, config)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.log_posterior.tobytes() == b.log_posterior.tobytes()


def test_run_chain_bookkeeping():
    target = gaussian_target([1.0])
    config = sampler.SamplerConfig(step_size=0.01, n_steps=100, burn_in=50,
                                   init=np.array([1.0]), seed=0)
    chain = sampler.run_chain(target, config)
    assert chain.samples.shape == (50, 1)
    assert chain.log_posterior.shape == (50,)
    thinned = sampler.run_chain(
        target, sampler.SamplerConfig(step_size=0.01, n_steps=100, burn_in=50,
                                      init=np.array([1.0]), seed=0, thin=7))
    assert thinned.samples.shape == (8, 1)  # ceil(50/7)


@pytest.mark.parametrize("fixture", ["logistic_model", "poisson_model", "gmm_model"])
def test_run_chain_log_posterior_is_bitwise_the_model_value(fixture, request):
    model = request.getfixturevalue(fixture)
    for n_steps in (30, 31):  # the last step kept, and not kept
        config = sampler.SamplerConfig(step_size=1e-3, n_steps=n_steps, burn_in=0,
                                       thin=3, seed=5)
        chain = sampler.run_chain(model, config)
        assert chain.samples.shape[0] == -(-n_steps // 3)
        for x, log_post in zip(chain.samples, chain.log_posterior):
            assert log_post == models.log_posterior_unnorm(model, x)


def test_target_value_and_grad_defaults_to_value_then_grad():
    calls = []

    def value(x):
        calls.append("value")
        return 1.5

    def grad(x):
        calls.append("grad")
        return -x

    target = Target(value=value, grad=grad, d=2)
    fused_value, fused_grad = target.value_and_grad(np.array([1.0, 2.0]))
    assert fused_value == 1.5 and calls == ["value", "grad"]
    np.testing.assert_array_equal(fused_grad, [-1.0, -2.0])


def test_run_chain_deterministic():
    target = gaussian_target([1.0, 2.0])
    config = sampler.SamplerConfig(step_size=0.01, n_steps=200, burn_in=0,
                                   init=np.array([1.0, 1.0]), seed=42)
    a = sampler.run_chain(target, config)
    b = sampler.run_chain(target, config)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = sampler.run_chain(target, sampler.SamplerConfig(
        step_size=0.01, n_steps=200, burn_in=0, init=np.array([1.0, 1.0]),
        seed=43))
    assert not np.array_equal(a.samples, c.samples)


def test_run_chain_interior_gaussian_mean():
    # mode deep in the interior: ULA bias is O(h), so the sample mean should
    # land within 0.05 of the target mean per coordinate
    # step chosen so the chain decorrelates fast enough for the Monte Carlo
    # error, not just the O(h) bias, to fit the tolerance
    mean = np.array([5.0, 6.0])
    config = sampler.SamplerConfig(step_size=5e-2, n_steps=100_000,
                                   burn_in=10_000, init=mean.copy(), seed=7)
    chain = sampler.run_chain(gaussian_target(mean), config)
    np.testing.assert_allclose(chain.samples.mean(axis=0), mean, atol=0.05)


def test_run_chain_truncated_exponential_mean():
    rate, L = 1.0, 2.0
    target = Target(value=lambda x: -rate * float(x[0]),
                    grad=lambda x: np.array([-rate]), d=1)
    config = sampler.SamplerConfig(step_size=5e-4, n_steps=200_000,
                                   burn_in=20_000, init=np.array([0.5]), seed=3)
    chain = sampler.run_chain(target, config)
    # conditioning the stationary orthant chain on [0, L] gives the
    # truncated exponential
    kept = chain.samples[chain.samples[:, 0] <= L, 0]
    truth = truncated_exponential_mean(rate, L)
    assert abs(kept.mean() - truth) / truth < 0.1


def test_the_default_chain_on_the_product_target_at_the_study_step():
    # the logistic study's step 0.5/n on the pre_asymptotic product law: the
    # Gaussian block's means are right to Monte Carlo error (the Euler chain
    # keeps a Gaussian's mean), and the exponential block's bias is printed
    target = pre_asymptotic_product_target()
    exact = target.means()
    config = sampler.SamplerConfig(step_size=0.5 / target.n, n_steps=100_000,
                                   burn_in=1000, init=exact, seed=0, thin=20)
    chain = sampler.run_chain(target, config)
    gauss, expo = chain.samples[:, :target.d0], chain.samples[:, target.d0:]
    ess = diagnostics.ess_report([gauss], [chain.log_posterior]).per_coordinate
    mcse = gauss.std(axis=0) / np.sqrt(ess)
    z = (gauss.mean(axis=0) - exact[:target.d0]) / mcse
    ratio = expo.mean(axis=0) / exact[target.d0:]
    print(f"product target at h = 0.5/n: Gaussian block max |z| {np.abs(z).max():.2f}; "
          f"exponential block mean / exact {ratio.min():.3f} to {ratio.max():.3f}, "
          f"median {np.median(ratio):.3f}, max |bias| {np.abs(ratio - 1).max():.3f}, "
          f"{np.mean(expo == 0):.0%} of draws at 0")
    assert np.all(np.abs(z) <= 4.0)
    # the projected chain's atom at 0 pulls every boundary mean down
    assert np.all(ratio < 1.0) and np.median(ratio) < 0.6


def test_run_chain_good_set_projection_membership():
    theta_hat = np.array([1.0, 1.5, 0.0])
    split, center = geometry.split_coordinates(theta_hat, 1e-6)
    gs = geometry.build_good_set(center, split, 2.0, 5.0, 100)
    target = gaussian_target(center)
    config = sampler.SamplerConfig(step_size=1e-3, n_steps=2000, burn_in=0,
                                   projection=gs, init=center.copy(), seed=0)
    chain = sampler.run_chain(target, config)
    assert sampler.check_membership(chain)
    # empirical mean distance to the center never exceeds the radii
    d_ball = np.linalg.norm(chain.samples[:, split.S0] - center[split.S0],
                            axis=1)
    assert d_ball.mean() <= gs.r0
    assert np.abs(chain.samples[:, split.S1]).mean() <= gs.r1


def test_a_chain_on_the_box_face_is_in_the_good_set():
    # a drift far past the box puts every draw on its upper face c + r1,
    # 0.30000000000000004 here, which lies an ulp more than r1 from c
    gs = geometry.GoodSet(center=[0.1], split=geometry.CoordinateSplit(S0=[], S1=[0]),
                          r0=0.0, r1=0.2)
    config = sampler.SamplerConfig(step_size=0.1, n_steps=50, projection=gs,
                                   init=np.array([0.1]), seed=0)
    chain = sampler.run_chain(gaussian_target([50.0]), config)
    assert np.all(chain.samples == 0.1 + 0.2)
    assert sampler.check_membership(chain)
    assert diagnostics.good_set_mass(chain, gs) == 1.0


def test_warm_start_distance_scales_like_sqrt_d():
    d = 200
    theta_star = np.full(d, 5.0)  # deep interior so projection rarely binds
    model = models.ModelTemplate("logistic", theta_star, 10).simulate(0)
    dists = []
    for seed in range(20):
        config = sampler.SamplerConfig(step_size=1e-3, n_steps=1, seed=seed)
        rng = make_rng(config.seed, 0x10)
        x0 = sampler._initial_state(model, config, rng, config.domain(d))
        dists.append(np.linalg.norm(x0 - theta_star))
    mean = np.mean(dists)
    assert 0.8 * np.sqrt(d) <= mean <= 1.2 * np.sqrt(d)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_run_trials_reduces_and_aggregates(monkeypatch, tmp_path):
    template = models.ModelTemplate(kind="logistic",
                                    theta_star=np.array([1.0, 0.5, 0.0, 0.0, 0.0]),
                                    n=50)

    def config(n_trials, out_dir="out"):
        return experiments.ExperimentConfig(
            preset="asymptotic", model="logistic", d=5, n=50, n_trials=n_trials,
            n_steps=200, burn_in=100, sampler_step=1e-3,
            seed=9, out_dir=str(out_dir))

    def trials(n_trials, name):
        out = tmp_path / name
        (out / "chains").mkdir(parents=True)
        rows, failures, processes = experiments._run_all_trials(
            config(n_trials), template, out, experiments._ess_summary)
        draws = {t: np.load(out / "chains" / f"{t}.npy") for t in rows}
        return rows, draws, failures, processes

    _cpus(monkeypatch, 2)
    rows, draws, failures, processes = trials(20, "twenty")
    assert len(rows) == 20 and not failures and processes == 2
    # a worker sends back its row, the ESS of 5 coordinates and of the
    # log-posterior, and keeps its chain: it wrote it itself
    assert all(type(row) is np.ndarray and row.shape == (6,) for row in rows.values())
    assert all(np.all(chain[:, :-1] >= 0) for chain in draws.values())
    # trial 0 depends only on its trial-derived seeds, not on the trial count
    # or on the process it ran in
    one, one_draws, _, processes = trials(1, "one")
    assert processes == 1
    np.testing.assert_array_equal(one[0], rows[0])
    np.testing.assert_array_equal(one_draws[0], draws[0])
    # with another thread running, fork could copy a lock that thread holds,
    # so the trials run in this process
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        two, two_draws, _, processes = trials(2, "two")
    finally:
        release.set()
        other.join(timeout=10)
    assert processes == 1 and not other.is_alive()
    np.testing.assert_array_equal(two[1], rows[1])
    np.testing.assert_array_equal(two_draws[1], draws[1])

    # the worker count changes no output byte of either study
    names = ("ess_per_coordinate.csv", "llr_ess.csv", "coverage.csv")
    written = {}
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        outs = [experiments.run_ess_study(config(3, tmp_path / f"{cpus}" / "ess")),
                experiments.run_coverage_study(config(3, tmp_path / f"{cpus}" / "cov"))]
        files = {}
        for out in outs:
            manifest = io.read_json(out / "manifest.json")
            assert manifest["processes"] == cpus
            files[out.parent.name, "failures"] = manifest["failures"]
            for path in [*sorted((out / "chains").glob("*.npy")),
                         *(out / name for name in names if (out / name).exists())]:
                files[out.parent.name, path.relative_to(out).as_posix()] = path.read_bytes()
        written[cpus] = files
    assert len(written[2]) == 2 * 3 + 3 + 2  # six chains, three tables, two failure lists
    assert written[2] == written[1]


def test_chain_export_csv(tmp_path):
    target = gaussian_target([1.0, 2.0])
    config = sampler.SamplerConfig(step_size=0.01, n_steps=20, burn_in=10,
                                   init=np.array([1.0, 1.0]), seed=0)
    chain = sampler.run_chain(target, config)
    path = tmp_path / "chain.csv"
    chain.export_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "theta_0,theta_1,log_post"
    body = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(body[:, :2], chain.samples)
    assert (tmp_path / "chain.csv.meta.json").exists()


def test_chain_export_npy_roundtrips_bitwise(tmp_path):
    target = gaussian_target([1.0, 2.0])
    config = sampler.SamplerConfig(step_size=0.01, n_steps=20, burn_in=10,
                                   init=np.array([1.0, 1.0]), seed=0)
    chain = sampler.run_chain(target, config)
    chain.export_npy(tmp_path / "chain.npy")
    table = np.load(tmp_path / "chain.npy")
    assert table.dtype == np.float64 and table.shape == (10, 3)
    assert table[:, :2].tobytes() == chain.samples.tobytes()
    assert table[:, 2].tobytes() == chain.log_posterior.tobytes()
    # both formats write the same sidecar
    chain.export_csv(tmp_path / "chain.csv")
    assert ((tmp_path / "chain.npy.meta.json").read_text()
            == (tmp_path / "chain.csv.meta.json").read_text())
