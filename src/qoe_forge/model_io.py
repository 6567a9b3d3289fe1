"""The model registry and versioned JSON model documents.

``MODELS`` maps every model kind to its fit function, its model class and,
for the networks, its config dataclass. Training, param checking, saving and
loading all dispatch through it, so adding a kind is adding one row.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, NamedTuple

import numpy as np

from . import classical
from .deep.networks import (
    AttentionMlpNet,
    MlpConfig,
    MlpNet,
    TabNetConfig,
    TabNetLite,
    train_attention_mlp,
    train_mlp,
    train_tabnet_lite,
)
from .errors import InvalidArgumentError, QoeForgeError
from .params import check_params, convert, decode_array, field_types, finite_array, keyword_types
from .preprocessing import FittedPreprocessor

SCHEMA_VERSION = 2


def _read_v1_array(name: str, entry) -> np.ndarray:
    """A version-1 array: a JSON list of numbers or of such lists, or a
    network parameter's ``{"shape", "data"}`` with its values in one flat
    list."""
    if isinstance(entry, dict):
        return finite_array(name, entry["data"]).reshape(entry["shape"])
    return finite_array(name, entry)


# Each readable document version's reader of an array entry: version 1 wrote
# arrays as JSON numbers, version 2 writes ``params.encode_array`` entries.
ARRAY_READERS = {1: _read_v1_array, 2: decode_array}


class ModelKind(NamedTuple):
    """A classical kind is fit as ``fit(X, y, **params)`` and saved with the
    model's ``to_doc``; a network (``config`` set) is fit as
    ``fit(X, y, config(**params), seed)`` and saved as config plus weights."""

    fit: Callable
    model: type
    config: type | None = None


MODELS: dict[str, ModelKind] = {
    "linear_regression": ModelKind(classical.fit_linear, classical.LinearModel),
    "decision_tree": ModelKind(classical.fit_tree, classical.TreeModel),
    "random_forest": ModelKind(classical.fit_forest, classical.ForestModel),
    "gradient_boosting": ModelKind(classical.fit_boosted, classical.BoostedModel),
    "knn": ModelKind(classical.fit_knn, classical.KnnModel),
    "mlp": ModelKind(train_mlp, MlpNet, MlpConfig),
    "attention_mlp": ModelKind(train_attention_mlp, AttentionMlpNet, MlpConfig),
    "tabnet": ModelKind(train_tabnet_lite, TabNetLite, TabNetConfig),
}
ALL_KINDS = tuple(MODELS)

# kind -> {param name: declared annotation}: the fit function's keyword
# arguments for classical kinds, the config dataclass fields for networks.
PARAM_TYPES = {
    kind: field_types(spec.config) if spec.config else keyword_types(spec.fit)
    for kind, spec in MODELS.items()
}


def _spec(kind) -> ModelKind:
    if kind not in MODELS:
        raise InvalidArgumentError(f"unknown model kind {kind!r}")
    return MODELS[kind]


def model_params(kind: str, raw: dict | None) -> dict:
    """Check ``raw`` against the params ``kind`` declares and convert each value
    to its declared type; a bad name or value names ``models.<kind>.<param>``.

    The values are then range-checked by the rules the fit applies: a
    network's config dataclass, or the classical fit param rules. A value
    out of range names ``models.<kind>``."""
    if kind not in PARAM_TYPES:
        raise InvalidArgumentError(
            f"models.{kind}: unknown model kind; known: {', '.join(ALL_KINDS)}"
        )
    params = check_params(f"models.{kind}", PARAM_TYPES[kind], raw or {})
    config = MODELS[kind].config
    try:
        if config is not None:
            config(**params)
        else:
            classical.check_fit_params(**params)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"models.{kind}: {exc}") from None
    return params


def train_model(kind: str, X, y, params: dict | None = None, seed: int = 0):
    """Fit a model of the given kind; ``params`` override the defaults.

    A classical fit that takes a ``seed`` gets ``seed`` unless params set it.
    """
    spec = _spec(kind)
    params = model_params(kind, params)
    if spec.config is not None:
        return spec.fit(X, y, spec.config(**params), seed)
    if "seed" in PARAM_TYPES[kind]:
        params.setdefault("seed", seed)
    return spec.fit(X, y, **params)


def model_to_doc(kind: str, model, preprocessor: FittedPreprocessor | None = None) -> dict:
    spec = _spec(kind)
    doc: dict = {"schema_version": SCHEMA_VERSION, "kind": kind}
    if spec.config is None:
        doc["state"] = model.to_doc()
    else:
        doc["config"] = dataclasses.asdict(model.cfg)
        doc["n_features"] = model.n_features
        doc["state"] = model.state()
    if preprocessor is not None:
        doc["preprocessor"] = preprocessor.to_doc()
    return doc


def model_from_doc(doc) -> tuple:
    """Returns (kind, model, preprocessor or None)."""
    if not isinstance(doc, dict):
        raise InvalidArgumentError("model document is not a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version not in ARRAY_READERS:
        raise InvalidArgumentError(f"unsupported model document version {version!r}")
    read_array = ARRAY_READERS[version]
    kind = doc.get("kind")
    spec = _spec(kind)
    try:
        if spec.config is None:
            model = spec.model.from_doc(doc["state"], read_array)
        else:
            cfg = spec.config(**model_params(kind, doc["config"]))
            rng = np.random.default_rng(0)  # init is overwritten below
            model = spec.model(convert("n_features", "int", doc["n_features"]), cfg, rng)
            model.load_state(doc["state"], read_array)
        pre = None
        if "preprocessor" in doc:
            pre = FittedPreprocessor.from_doc(doc["preprocessor"])
            width = len(pre.feature_columns)
            if not model.accepts_width(width):
                raise InvalidArgumentError(f"{kind} model does not read {width} feature columns")
    except QoeForgeError:
        raise
    except KeyError as exc:
        raise InvalidArgumentError(f"{kind} model document has no field {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise InvalidArgumentError(f"malformed {kind} model document: {exc}") from None
    except RecursionError:
        raise InvalidArgumentError(f"{kind} model document is nested too deeply") from None
    return kind, model, pre


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def save_model(path, kind: str, model, preprocessor=None) -> None:
    """Write the model document; a tree too deep to encode, or a model with a
    value JSON cannot hold (NaN, an infinity), writes nothing."""
    try:
        text = json.dumps(
            model_to_doc(kind, model, preprocessor), sort_keys=True, allow_nan=False
        )
    except RecursionError:
        raise QoeForgeError(f"{kind} model is too deep to save as a JSON document") from None
    except ValueError as exc:
        raise QoeForgeError(f"{kind} model cannot be saved as a JSON document: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:  # not strict JSON, or not UTF-8
            raise InvalidArgumentError(f"{path}: not a JSON model document: {exc}") from None
        except RecursionError:
            raise InvalidArgumentError(f"{path}: model document is nested too deeply") from None
    return model_from_doc(doc)
