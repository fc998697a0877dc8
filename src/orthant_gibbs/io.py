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

The values are stored exactly. A model config, ``model.json``, is the
fields of its ``ModelTemplate`` and the seed the dataset was simulated with:
{kind, theta_star, n, prior, weights, covariances, seed}, the prior as
``{"rate": r}`` and the mixture ``null`` unless the kind is gmm.

Every JSON document the package writes goes through :func:`write_json`, and
every one it reads through :func:`read_json`. A document that describes one
object is that dataclass's fields, as :func:`to_jsonable` gives them, with
model.json's seed the one key added; the study manifest and the ``gap``
output are plain dicts of such values.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
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
    reject non-finite values, bad labels and bad shapes; an empty, cut or
    corrupted file is a ConfigError that names it."""
    try:
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
    except (EOFError, zipfile.BadZipFile) as exc:  # the member reads raise it too
        raise ConfigError(f"dataset {path} cannot be read: {exc}") from exc


def save_model_config(template: ModelTemplate, seed: int, path) -> None:
    """Write ``model.json``: the template's fields and the data seed."""
    write_json(path, {**to_jsonable(template), "seed": seed})


def load_model_config(path) -> tuple[ModelTemplate, int]:
    """The template and data seed :func:`save_model_config` wrote; the
    template checks its own fields. A missing or unexpected key, such as the
    ``d`` of earlier versions, is a ConfigError that names it."""
    doc = read_json(path)
    try:
        fields = {**doc, "prior": Prior.from_json(doc["prior"])}
        seed = int(fields.pop("seed"))
        return ModelTemplate(**fields), seed
    except KeyError as exc:
        raise ConfigError(f"model config {path} is missing key {exc}") from exc
    except TypeError as exc:  # a key ModelTemplate has no field for, or lacks
        raise ConfigError(f"model config {path}: {exc}") from exc
