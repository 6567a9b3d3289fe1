"""Typed checking of named parameters from config files and model documents.

A parameter's type is the annotation it is declared with: a dataclass field
or a keyword argument of a function. ``check_params`` accepts only declared
names and converts each value to its declared type, so a misspelled key or a
value of the wrong type is an ``InvalidArgumentError`` naming the key rather
than an exception deep inside a fit.
"""

from __future__ import annotations

import base64
import dataclasses
import inspect
import math
import operator

import numpy as np

from .errors import InvalidArgumentError


def _int(value) -> int:
    if isinstance(value, bool):
        raise TypeError("bool is not an int")
    return operator.index(value)


def _float(value) -> float:
    if isinstance(value, (bool, str)):
        raise TypeError("not a number")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError("not finite")
    return out


def number(name: str, value) -> float:
    """``value`` as a float, which must be a number, not a string or a bool.
    The error names ``name``."""
    if isinstance(value, (bool, str)):
        raise InvalidArgumentError(f"{name} must be a number, got {value!r}")
    return float(value)


def finite_float(name: str, value) -> float:
    """``value`` as a float, which must be a finite number, not a string or a
    bool: a document's ``1e400`` decodes as an infinity. The error names
    ``name``."""
    out = number(name, value)
    if not math.isfinite(out):
        raise InvalidArgumentError(f"{name} must be finite, got {out!r}")
    return out


def finite_array(name: str, values) -> np.ndarray:
    """``values``, a document's list of numbers (or of such lists), as a
    float64 array whose every entry must be a finite number, not a string or
    a bool, as for ``finite_float``. The error names ``name`` and the entry."""
    cells = np.asarray(values, dtype=object)
    for i, value in enumerate(cells.ravel().tolist()):
        if type(value) not in (int, float):
            where = ", ".join(map(str, np.unravel_index(i, cells.shape)))
            raise InvalidArgumentError(f"{name}[{where}] must be a number, got {value!r}")
    out = cells.astype(np.float64)
    if not np.isfinite(out).all():
        raise InvalidArgumentError(f"{name} holds a value that is not finite")
    return out


def encode_array(values: np.ndarray) -> dict:
    """A float64 array as a document entry: its shape and the base64 of its
    little-endian float64 bytes, which hold every value exactly. A value that
    is not finite raises ValueError, as ``json.dumps`` does for a float."""
    out = np.asarray(values, dtype="<f8")
    if not np.isfinite(out).all():
        raise ValueError("an array holds a value that is not finite")
    return {"shape": list(out.shape), "base64": base64.b64encode(out.tobytes()).decode("ascii")}


def decode_array(name: str, entry) -> np.ndarray:
    """An ``encode_array`` entry as an owned, writable float64 array. The
    entry's base64 must be valid, its shape a list of ints >= 0 (not bools),
    its byte count 8 times the shape's product and every value finite. The
    error names ``name``."""
    if not (isinstance(entry, dict) and entry.keys() == {"shape", "base64"}):
        raise InvalidArgumentError(
            f"{name} must be an object of 'shape' and 'base64', got {type(entry).__name__}")
    shape, text = entry["shape"], entry["base64"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise InvalidArgumentError(f"{name} shape must be a list of ints >= 0, got {shape!r}")
    try:
        if not isinstance(text, str):
            raise ValueError(f"got {type(text).__name__}")
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error is a ValueError
        raise InvalidArgumentError(f"{name} base64 is not valid: {exc}") from None
    if len(raw) != 8 * math.prod(shape):
        raise InvalidArgumentError(
            f"{name} holds {len(raw)} bytes, expected 8 per value of shape {tuple(shape)}")
    out = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(out).all():
        raise InvalidArgumentError(f"{name} holds a value that is not finite")
    return out


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("not true or false")
    return value


def _int_tuple(value) -> tuple[int, ...]:
    """``"64,32"``, a bare ``16`` or a sequence of ints."""
    if isinstance(value, str):
        out = tuple(int(part) for part in value.split(","))
    elif isinstance(value, (tuple, list)):
        out = tuple(_int(v) for v in value)
    else:
        out = (_int(value),)
    if not out:
        raise ValueError("empty")
    return out


# Declared annotation (as written in the source) -> converter. A ``T | None``
# annotation also accepts None, written ``none`` in a config file.
_CONVERTERS = {
    "int": _int,
    "float": _float,
    "bool": _bool,
    "str": str,
    "tuple[int, ...]": _int_tuple,
}


def convert(key: str, annotation: str, value):
    """``value`` as the declared type; an ``InvalidArgumentError`` names ``key``."""
    base = annotation.removesuffix(" | None")
    if base != annotation and (
        value is None or (isinstance(value, str) and value.lower() == "none")
    ):
        return None
    try:
        return _CONVERTERS[base](value)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(
            f"{key}: expected {annotation}, got {value!r} ({exc})"
        ) from None


def check_params(prefix: str, declared: dict[str, str], raw: dict) -> dict:
    """Check every ``raw`` name against ``declared`` (name -> annotation) and
    convert its value; errors name the key as ``<prefix>.<name>``."""
    out = {}
    for name, value in raw.items():
        key = f"{prefix}.{name}"
        if name not in declared:
            raise InvalidArgumentError(
                f"{key}: unknown parameter; declared: {', '.join(declared)}"
            )
        out[name] = convert(key, declared[name], value)
    return out


def field_types(cls) -> dict[str, str]:
    """Annotation of every field of a dataclass."""
    return {f.name: f.type for f in dataclasses.fields(cls)}


def keyword_types(fn) -> dict[str, str]:
    """Annotation of every keyword argument (one with a default) of ``fn``."""
    return {
        p.name: p.annotation
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty
    }
