import json

import numpy as np
import pytest

from orthant_gibbs import io, models
from orthant_gibbs.errors import ConfigError

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
