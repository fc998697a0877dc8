import json
import math

import numpy as np
import pytest

from orthant_gibbs import geometry, io, models, sampler
from orthant_gibbs.assumptions import AssumptionReport
from orthant_gibbs.errors import ConfigError
from orthant_gibbs.mode import ModeResult

from oracles import write_csv_reference


def test_logistic_dataset_roundtrip(tmp_path, logistic_model):
    path = tmp_path / "data.csv"
    io.save_dataset(logistic_model, path)
    header = path.read_text().splitlines()[0]
    assert header == "x_0,x_1,x_2,y"
    again = io.load_dataset("logistic", path)
    np.testing.assert_array_equal(again.data.X, logistic_model.data.X)
    np.testing.assert_array_equal(again.data.Y, logistic_model.data.Y)


def test_poisson_dataset_roundtrip(tmp_path, poisson_model):
    path = tmp_path / "data.csv"
    io.save_dataset(poisson_model, path)
    again = io.load_dataset("poisson", path, T=poisson_model.data.T)
    np.testing.assert_array_equal(again.data.A, poisson_model.data.A)
    np.testing.assert_array_equal(again.data.Y, poisson_model.data.Y)


def test_gmm_dataset_roundtrip_with_sidecar(tmp_path, gmm_model):
    path = tmp_path / "data.csv"
    io.save_dataset(gmm_model, path)
    sidecar = path.with_suffix(path.suffix + ".mixture.json")
    assert sidecar.exists()
    doc = json.loads(sidecar.read_text())
    assert set(doc) == {"weights", "covariances"}
    again = io.load_dataset("gmm", path)
    np.testing.assert_array_equal(again.data.X, gmm_model.data.X)
    np.testing.assert_array_equal(again.data.weights, gmm_model.data.weights)
    np.testing.assert_array_equal(again.data.covariances,
                                  gmm_model.data.covariances)


@pytest.mark.parametrize("fixture", ["logistic_model", "poisson_model", "gmm_model"])
def test_dataset_csv_bytes_match_the_csv_module_writer(tmp_path, fixture, request):
    model = request.getfixturevalue(fixture)
    data = model.data
    if model.kind == "gmm":
        rows = data.X
        header = [f"x_{j}" for j in range(data.m)]
    else:
        rows = np.column_stack([data.X if model.kind == "logistic" else data.A, data.Y])
        header = [f"x_{j}" for j in range(rows.shape[1] - 1)] + ["y"]
    io.save_dataset(model, tmp_path / "data.csv")
    write_csv_reference(tmp_path / "reference.csv", header, rows)
    written = (tmp_path / "data.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\r\n") == rows.shape[0] + 1


def test_model_config_roundtrip(tmp_path):
    template = models.ModelTemplate(kind="poisson",
                                    theta_star=np.array([1.0, 0.5, 0.0]),
                                    n=80, prior=models.Prior.exponential(2.0))
    path = tmp_path / "model.json"
    io.save_model_config(template, 17, path)
    doc = json.loads(path.read_text())
    assert {"kind", "d", "n", "seed", "theta_star", "prior"} <= set(doc)
    again, seed = io.load_model_config(path)
    assert seed == 17 and again.kind == "poisson" and again.n == 80
    np.testing.assert_array_equal(again.theta_star, template.theta_star)
    assert again.prior.name == "exponential(2.0)"
    # regenerates the identical dataset
    np.testing.assert_array_equal(template.simulate(17).data.A,
                                  again.simulate(17).data.A)


@pytest.mark.parametrize("name", ["exponential(nan)", "exponential(inf)",
                                  "exponential(0)", "exponential(-1.0)"])
def test_model_config_rejects_a_bad_prior_rate(tmp_path, name):
    template = models.ModelTemplate(kind="logistic", theta_star=np.array([1.0, 0.0]), n=20)
    path = tmp_path / "model.json"
    io.save_model_config(template, 0, path)
    doc = json.loads(path.read_text())
    doc["prior"]["name"] = name
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="prior rate"):
        io.load_model_config(path)


def test_model_config_missing_field(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "logistic", "d": 2}))
    with pytest.raises(ConfigError):
        io.load_model_config(path)


def test_load_dataset_rejects_bad_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ConfigError):
        io.load_dataset("logistic", path)


@pytest.mark.parametrize("fixture", ["logistic_model", "poisson_model", "gmm_model"])
def test_load_dataset_rejects_non_finite_values(tmp_path, fixture, request):
    model = request.getfixturevalue(fixture)
    path = tmp_path / "dataset.csv"
    io.save_dataset(model, path)
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[0] = "nan"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="finite"):
        io.load_dataset(model.kind, path)


def _chain(config):
    return sampler.Chain(samples=np.array([[1.0, 0.5], [0.75, 0.0]]),
                         log_posterior=np.array([-1.0, -2.5]), config=config,
                         runtime_ms=1.5)


@pytest.mark.parametrize("export", ["export_npy", "export_csv"])
def test_chain_sidecar_takes_a_numpy_seed(tmp_path, export):
    # a seed taken from np.arange is an np.int64, which json cannot encode
    config = sampler.SamplerConfig(step_size=0.1, n_steps=2, seed=np.int64(3))
    path = tmp_path / "chain"
    getattr(_chain(config), export)(path)
    with open(str(path) + ".meta.json") as fh:
        meta = json.load(fh)
    assert meta["seed"] == 3 and meta["config"]["seed"] == 3


def test_write_json_leaves_no_file_for_an_object_json_cannot_hold(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        io.write_json(path, object())
    assert not path.exists()


def test_write_json_bytes_match_the_explicit_documents(tmp_path):
    split = geometry.CoordinateSplit(S0=[0], S1=[1])
    gs = geometry.build_good_set(np.array([1.5, 0.25]), split, 2.0, 3.0, 100)
    config = sampler.SamplerConfig(step_size=1e-3, n_steps=4, burn_in=1,
                                   init=np.array([1.0, 0.5]), seed=9, thin=2)
    cases = [
        (ModeResult(theta_hat=np.array([1.5, 0.0]), objective=-0.25,
                    grad_norm=1e-9, iterations=7, converged=True),
         {"theta_hat": [1.5, 0.0], "objective": -0.25, "grad_norm": 1e-9,
          "iterations": 7, "converged": True, "restarts_used": 0}),
        (AssumptionReport(c_S0_hat=0.5, C_S1_hat=math.nan, s2_hat=2.0,
                          osc_bound=0.125, C_PI_bound=math.inf, grid=20, seed=4),
         {"c_S0_hat": 0.5, "C_S1_hat": math.nan, "s2_hat": 2.0,
          "osc_bound": 0.125, "C_PI_bound": math.inf, "grid": 20, "seed": 4}),
        (gs,
         {"center": [1.5, 0.0], "S0": [0], "S1": [1], "delta0": 2.0,
          "delta1": 3.0, "n": 100, "r0": gs.r0, "r1": gs.r1}),
    ]
    for obj, doc in cases:
        io.write_json(tmp_path / "doc.json", obj)
        assert (tmp_path / "doc.json").read_text() == json.dumps(doc, indent=2)

    _chain(config).export_npy(tmp_path / "chain.npy")
    sidecar = {"config": {"step_size": 1e-3, "n_steps": 4, "burn_in": 1,
                          "projection": "orthant", "init": [1.0, 0.5],
                          "seed": 9, "thin": 2},
               "seed": 9, "runtime_ms": 1.5}
    written = (tmp_path / "chain.npy.meta.json").read_text()
    assert written == json.dumps(sidecar, indent=2)


def test_good_set_chain_sidecar_holds_the_good_set_document(tmp_path):
    gs = geometry.build_good_set(np.array([1.5, 0.0]),
                                 geometry.CoordinateSplit(S0=[0], S1=[1]),
                                 2.0, 3.0, 100)
    config = sampler.SamplerConfig(step_size=0.1, n_steps=2, projection=gs)
    _chain(config).export_npy(tmp_path / "chain.npy")
    meta = io.read_json(tmp_path / "chain.npy.meta.json")
    assert meta["config"]["projection"] == gs.to_json()
    again = geometry.GoodSet.from_json(meta["config"]["projection"])
    assert (again.r0, again.r1, again.n) == (gs.r0, gs.r1, gs.n)
