import dataclasses
import json
import math

import numpy as np
import pytest

from orthant_gibbs import geometry, io, models, sampler
from orthant_gibbs.assumptions import AssumptionReport
from orthant_gibbs.errors import ConfigError
from orthant_gibbs.mode import ModeResult


def _fields(data) -> dict:
    return {f.name: np.array(getattr(data, f.name)) for f in dataclasses.fields(data)}


def _assert_bitwise_round_trip(tmp_path, model):
    path = tmp_path / "dataset.npz"
    io.save_dataset(model, path)
    again = io.load_dataset(path)
    assert type(again) is type(model.data)
    stored, expected = _fields(again), _fields(model.data)
    assert list(stored) == list(expected)
    for name, value in expected.items():
        assert stored[name].dtype == value.dtype and stored[name].shape == value.shape
        assert stored[name].tobytes() == value.tobytes(), name


def test_logistic_dataset_roundtrip(tmp_path, logistic_model):
    _assert_bitwise_round_trip(tmp_path, logistic_model)


def test_poisson_dataset_roundtrip(tmp_path, poisson_model):
    # the exposure is stored too: a file of T = 2.5 does not read back T = 1
    data = poisson_model.data
    model = models.ModelInstance(models.PoissonData(A=data.A, Y=data.Y / 2.5, T=2.5))
    _assert_bitwise_round_trip(tmp_path, model)
    assert io.load_dataset(tmp_path / "dataset.npz").T == 2.5


@pytest.mark.parametrize("fixture", ["gmm_model", "gmm_corr_model"])
def test_gmm_dataset_roundtrip(tmp_path, fixture, request):
    # the weights and covariances travel in the same file, with no sidecar
    _assert_bitwise_round_trip(tmp_path, request.getfixturevalue(fixture))
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.npz"]


@pytest.mark.parametrize("template", [
    models.ModelTemplate(kind="poisson", theta_star=np.array([1.0, 0.5, 0.0]), n=80,
                         prior=models.Prior(2.0)),
    models.ModelTemplate(kind="gmm", theta_star=np.array([1.0, 1.0, 0.1, 4.0, 0.0, 4.0]),
                         n=60, weights=np.array([0.7, 0.3]),
                         covariances=np.stack([[[1.0, 0.3, 0.0], [0.3, 2.0, 0.1],
                                                [0.0, 0.1, 0.7]], np.eye(3)])),
], ids=["poisson_exponential_prior", "gmm"])
def test_model_config_roundtrip(tmp_path, template):
    path = tmp_path / "model.json"
    io.save_model_config(template, 17, path)
    # model.json is the template's fields and the data seed, no more
    assert json.loads(path.read_text()) == {**io.to_jsonable(template), "seed": 17}
    again, seed = io.load_model_config(path)
    assert seed == 17
    for field in dataclasses.fields(models.ModelTemplate):
        value, stored = getattr(template, field.name), getattr(again, field.name)
        if isinstance(value, np.ndarray):
            assert stored.dtype == value.dtype and stored.shape == value.shape
            assert stored.tobytes() == value.tobytes(), field.name
        else:
            assert stored == value, field.name
    # regenerates the identical dataset
    data, data_again = _fields(template.simulate(17).data), _fields(again.simulate(17).data)
    assert data.keys() == data_again.keys()
    for name, value in data.items():
        assert data_again[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -1.0],
                         ids=lambda rate: f"exponential({rate})")
def test_model_config_rejects_a_bad_prior_rate(tmp_path, rate):
    template = models.ModelTemplate(kind="logistic", theta_star=np.array([1.0, 0.0]), n=20)
    path = tmp_path / "model.json"
    io.save_model_config(template, 0, path)
    doc = json.loads(path.read_text())
    doc["prior"] = {"rate": rate}
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="prior rate"):
        io.load_model_config(path)


@pytest.mark.parametrize("change,message", [
    ({"theta_star": [1.0, math.nan]}, "finite and non-negative"),
    ({"theta_star": [math.inf, 0.0]}, "finite and non-negative"),
    ({"theta_star": [1.0, -0.5]}, "finite and non-negative"),
    ({"n": 0}, "n must be >= 1"),
    ({"d": 2}, "keyword argument 'd'"),  # the layout of earlier versions
])
def test_model_config_rejects_a_bad_truth_or_size(tmp_path, change, message):
    template = models.ModelTemplate(kind="logistic", theta_star=np.array([1.0, 0.0]), n=20)
    path = tmp_path / "model.json"
    io.save_model_config(template, 0, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    with pytest.raises(ConfigError, match=message):
        io.load_model_config(path)


def test_model_config_missing_field(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "logistic", "d": 2}))
    with pytest.raises(ConfigError):
        io.load_model_config(path)


@pytest.mark.parametrize("fixture", ["logistic_model", "poisson_model", "gmm_model"])
def test_load_dataset_rejects_non_finite_values(tmp_path, fixture, request):
    data = request.getfixturevalue(fixture).data
    path = tmp_path / "dataset.npz"
    for bad in (np.nan, np.inf, -np.inf):
        fields = _fields(data)
        next(iter(fields.values()))[0, 0] = bad  # X or A
        np.savez(path, kind=data.kind, **fields)
        with pytest.raises(ConfigError, match="finite"):
            io.load_dataset(path)


@pytest.mark.parametrize("change,message", [
    ({"kind": "probit"}, "unknown model kind 'probit'"),
    ({"kind": None}, "unknown model kind None"),
    ({"Y": None}, r"missing \['Y'\]"),
])
def test_load_dataset_rejects_an_unknown_kind_or_a_missing_field(
        tmp_path, logistic_model, change, message):
    doc = {"kind": "logistic", **_fields(logistic_model.data), **change}
    path = tmp_path / "dataset.npz"
    np.savez(path, **{key: value for key, value in doc.items() if value is not None})
    with pytest.raises(ConfigError, match=message):
        io.load_dataset(path)


def test_load_dataset_refuses_pickled_objects(tmp_path, logistic_model):
    # an object array is stored as a pickle, and unpickling can run code
    path = tmp_path / "dataset.npz"
    fields = _fields(logistic_model.data)
    np.savez(path, kind="logistic", X=fields["X"].astype(object), Y=fields["Y"])
    with pytest.raises(ValueError, match="allow_pickle"):
        io.load_dataset(path)


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
        (AssumptionReport(c_S0_hat=0.5, C_S1_hat=None, s2_hat=2.0,
                          osc_bound=0.125, C_PI_bound=math.inf,
                          log10_C_PI_bound=2831.5, grid=20, seed=4),
         {"c_S0_hat": 0.5, "C_S1_hat": None, "s2_hat": 2.0,
          "osc_bound": 0.125, "C_PI_bound": math.inf, "log10_C_PI_bound": 2831.5,
          "grid": 20, "seed": 4}),
        (gs,
         {"center": [1.5, 0.0], "split": {"S0": [0], "S1": [1]},
          "r0": gs.r0, "r1": gs.r1}),
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
    assert meta["config"]["projection"] == {
        "center": [1.5, 0.0], "split": {"S0": [0], "S1": [1]}, "r0": gs.r0, "r1": gs.r1}
    again = geometry.GoodSet.from_json(meta["config"]["projection"])
    assert (again.r0, again.r1) == (gs.r0, gs.r1)
