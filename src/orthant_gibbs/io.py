"""Dataset and model-config serialization.

Logistic/Poisson datasets round-trip through a single CSV with header
``x_0,...,x_{d-1},y``. GMM datasets store the observation matrix as CSV plus
a JSON sidecar holding the known mixture weights and covariances. A model
config is a small JSON document {kind, d, n, seed, theta_star, prior} from
which the dataset can be regenerated deterministically.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError
from .models import (GmmData, LogisticData, ModelInstance, ModelTemplate,
                     PoissonData, Prior)

_FMT = "%.17g"


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
        sidecar = {"weights": data.weights.tolist(),
                   "covariances": data.covariances.tolist()}
        with open(path.with_suffix(path.suffix + ".mixture.json"), "w") as fh:
            json.dump(sidecar, fh, indent=2)
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
        sidecar_path = path.with_suffix(path.suffix + ".mixture.json")
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
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
           "theta_star": np.asarray(template.theta_star, dtype=float).tolist(),
           "prior": template.prior.to_json()}
    if template.weights is not None:
        doc["weights"] = np.asarray(template.weights).tolist()
    if template.covariances is not None:
        doc["covariances"] = np.asarray(template.covariances).tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def load_model_config(path) -> tuple[ModelTemplate, int]:
    with open(path) as fh:
        doc = json.load(fh)
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
