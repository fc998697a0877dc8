"""Dataset and model-config serialization, and the one JSON writer and
reader of the package.

A dataset is one ``.npz`` file (``np.savez``, no pickled objects): a
string array ``kind`` (``logistic``, ``poisson`` or ``gmm``) and one array
per field of that kind's data class, under the field's name:

* ``logistic``: ``X`` (n, d) and labels ``Y`` (n,);
* ``poisson``: sensitivity matrix ``A`` (n, d), rates ``Y`` (n,) and the
  0-d exposure ``T``;
* ``gmm``: observations ``X`` (n, m), ``weights`` (k,) and
  ``covariances`` (k, m, m).

The values are stored exactly. A model config is a small JSON document
{kind, d, n, seed, theta_star, prior}, plus the mixture for gmm; its seed is
the one the dataset was simulated with, and its prior is ``{"rate": r}``.
Every JSON document the package writes goes through :func:`write_json` and
is its object's dataclass fields; every one it reads goes through
:func:`read_json`.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .models import (GmmData, LogisticData, ModelInstance, ModelTemplate,
                     PoissonData, Prior)

_DATA_CLASSES = {cls.kind: cls for cls in (LogisticData, PoissonData, GmmData)}


def to_jsonable(obj):
    """Plain JSON data for ``obj``.

    A dataclass gives its fields in declaration order, each converted in
    turn. Arrays and NumPy scalars become lists and Python numbers, tuples
    become lists, and dicts and lists are converted item by item. Anything
    else is returned as is, for ``json`` to accept or reject.
    """
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


def save_dataset(model: ModelInstance, path) -> None:
    """Write the model's dataset to ``path`` as the ``.npz`` file described
    above (the name is used as given)."""
    data = model.data
    fields = {f.name: getattr(data, f.name) for f in dataclasses.fields(data)}
    with open(path, "wb") as fh:
        np.savez(fh, kind=data.kind, **fields)


def load_dataset(path) -> LogisticData | PoissonData | GmmData:
    """The data object stored by :func:`save_dataset`. Its class's own checks
    reject non-finite values, bad labels and bad shapes."""
    with np.load(path, allow_pickle=False) as stored:
        kind = str(stored["kind"]) if "kind" in stored.files else None
        if kind not in _DATA_CLASSES:
            raise ConfigError(f"dataset {path} has unknown model kind {kind!r}")
        cls = _DATA_CLASSES[kind]
        names = [f.name for f in dataclasses.fields(cls)]
        missing = [name for name in names if name not in stored.files]
        if missing:
            raise ConfigError(f"{kind} dataset {path} is missing {missing}")
        return cls(**{name: stored[name] for name in names})


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
    if theta_star.shape != (doc["d"],):
        raise ConfigError(f"theta_star has shape {theta_star.shape}, but d is {doc['d']}")
    if not np.all(np.isfinite(theta_star) & (theta_star >= 0)):
        raise ConfigError("theta_star must be finite and non-negative")
    if int(doc["n"]) < 1:
        raise ConfigError(f"n must be >= 1, got {doc['n']}")
    kwargs = {}
    if doc.get("weights") is not None:
        kwargs["weights"] = np.asarray(doc["weights"], dtype=float)
    if doc.get("covariances") is not None:
        kwargs["covariances"] = np.asarray(doc["covariances"], dtype=float)
    template = ModelTemplate(kind=doc["kind"], theta_star=theta_star,
                             n=int(doc["n"]), prior=Prior.from_json(doc["prior"]),
                             **kwargs)
    return template, int(doc["seed"])
