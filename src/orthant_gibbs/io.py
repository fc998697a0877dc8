"""Dataset and model-config serialization, and the one JSON writer and
reader of the package.

Logistic/Poisson datasets round-trip through a single CSV with header
``x_0,...,x_{d-1},y``. GMM datasets store the observation matrix as CSV plus
a JSON sidecar holding the known mixture weights and covariances. A model
config is a small JSON document {kind, d, n, seed, theta_star, prior} from
which the dataset can be regenerated deterministically. Every JSON document
the package writes goes through :func:`write_json`, and every one it reads
through :func:`read_json`.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError
from .models import (GmmData, LogisticData, ModelInstance, ModelTemplate,
                     PoissonData, Prior)

_FMT = "%.17g"


def to_jsonable(obj):
    """Plain JSON data for ``obj``.

    An object with a ``to_json`` method (``Prior``, ``GoodSet``) gives that
    document; any other dataclass gives its fields in declaration order.
    Arrays and NumPy scalars become lists and Python numbers, tuples become
    lists, and dicts and lists are converted item by item. Anything else is
    returned as is, for ``json`` to accept or reject.
    """
    if hasattr(obj, "to_json"):
        return to_jsonable(obj.to_json())
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(value) for value in obj]
    return obj


def write_json(path, obj) -> None:
    """Write ``to_jsonable(obj)`` with a two-space indent. The text is built
    before the file is opened, so an object JSON cannot hold leaves no file."""
    Path(path).write_text(json.dumps(to_jsonable(obj), indent=2))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_csv(path, header: list[str], rows: np.ndarray) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != len(header):
        raise ShapeError("row width does not match header")
    # CRLF line ends, as the csv module writes them
    np.savetxt(path, rows, fmt=_FMT, delimiter=",", header=",".join(header),
               comments="", newline="\r\n")


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, body


def save_dataset(model: ModelInstance, path) -> None:
    """Write the model's dataset; GMM adds ``<path>.mixture.json``."""
    path = Path(path)
    data = model.data
    if isinstance(data, GmmData):
        _write_csv(path, [f"x_{j}" for j in range(data.m)], data.X)
        write_json(path.with_suffix(path.suffix + ".mixture.json"),
                   {"weights": data.weights, "covariances": data.covariances})
        return
    X = data.A if isinstance(data, PoissonData) else data.X
    header = [f"x_{j}" for j in range(X.shape[1])] + ["y"]
    _write_csv(path, header, np.column_stack([X, data.Y]))


def load_dataset(kind: str, path, *, T: float = 1.0,
                 prior: Prior = Prior()) -> ModelInstance:
    """Inverse of :func:`save_dataset` (theta_star is not stored: None)."""
    path = Path(path)
    header, body = _read_csv(path)
    if kind == "gmm":
        sidecar = read_json(path.with_suffix(path.suffix + ".mixture.json"))
        data = GmmData(X=body, weights=np.asarray(sidecar["weights"]),
                       covariances=np.asarray(sidecar["covariances"]))
    elif kind == "logistic":
        if header[-1] != "y":
            raise ConfigError("logistic CSV must end with a 'y' column")
        data = LogisticData(X=body[:, :-1], Y=body[:, -1])
    elif kind == "poisson":
        if header[-1] != "y":
            raise ConfigError("poisson CSV must end with a 'y' column")
        data = PoissonData(A=body[:, :-1], Y=body[:, -1], T=T)
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    return ModelInstance(data=data, prior=prior)


def save_model_config(template: ModelTemplate, seed: int, path) -> None:
    doc = {"kind": template.kind,
           "d": int(np.asarray(template.theta_star).size),
           "n": template.n,
           "seed": int(seed),
           "theta_star": np.asarray(template.theta_star, dtype=float),
           "prior": template.prior}
    if template.weights is not None:
        doc["weights"] = np.asarray(template.weights)
    if template.covariances is not None:
        doc["covariances"] = np.asarray(template.covariances)
    write_json(path, doc)


def load_model_config(path) -> tuple[ModelTemplate, int]:
    doc = read_json(path)
    for key in ("kind", "d", "n", "seed", "theta_star", "prior"):
        if key not in doc:
            raise ConfigError(f"model config missing field {key!r}")
    theta_star = np.asarray(doc["theta_star"], dtype=float)
    if theta_star.size != doc["d"]:
        raise ShapeError("theta_star length does not match d")
    kwargs = {}
    if doc.get("weights") is not None:
        kwargs["weights"] = np.asarray(doc["weights"], dtype=float)
    if doc.get("covariances") is not None:
        kwargs["covariances"] = np.asarray(doc["covariances"], dtype=float)
    template = ModelTemplate(kind=doc["kind"], theta_star=theta_star,
                             n=int(doc["n"]), prior=Prior.from_json(doc["prior"]),
                             **kwargs)
    return template, int(doc["seed"])
