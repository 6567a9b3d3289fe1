"""Typed checking of named parameters from config files and model documents.

A parameter's type is the annotation it is declared with: a dataclass field
or a keyword argument of a function. ``check_params`` accepts only declared
names and converts each value to its declared type, so a misspelled key or a
value of the wrong type is an ``InvalidArgumentError`` naming the key rather
than an exception deep inside a fit.
"""

from __future__ import annotations

import dataclasses
import inspect
import operator

from .errors import InvalidArgumentError


def _int(value) -> int:
    if isinstance(value, bool):
        raise TypeError("bool is not an int")
    return operator.index(value)


def _float(value) -> float:
    if isinstance(value, (bool, str)):
        raise TypeError("not a number")
    return float(value)


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
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{key}: expected {annotation}, got {value!r}") from None


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
    """Annotation of every keyword argument of ``fn`` whose type has a converter.

    Arguments of other types (a tree's ``rng``) cannot be set by name.
    """
    return {
        p.name: p.annotation
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty
        and isinstance(p.annotation, str)
        and p.annotation.removesuffix(" | None") in _CONVERTERS
    }
