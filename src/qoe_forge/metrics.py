"""Regression metrics (RMSE, MAE, R2, PLCC, SRCC) and per-demographic correlations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset
from .demographics import PROFILE_IDS
from .errors import InvalidArgumentError, SchemaMismatchError, UndefinedMetricError


@dataclass(frozen=True)
class MetricBlock:
    """None marks an undefined metric: a constant target or prediction."""

    rmse: float
    mae: float
    r2: float | None
    plcc: float | None
    srcc: float | None
    n: int

    def to_doc(self) -> dict:
        return {
            "rmse": self.rmse,
            "mae": self.mae,
            "r2": self.r2,
            "plcc": self.plcc,
            "srcc": self.srcc,
            "n": self.n,
        }


def _check_pair(y, y_hat):
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape or y.ndim != 1:
        raise InvalidArgumentError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise InvalidArgumentError("empty input")
    if not (np.isfinite(y).all() and np.isfinite(y_hat).all()):
        raise InvalidArgumentError("non-finite values in input")
    return y, y_hat


def rmse(y, y_hat) -> float:
    y, y_hat = _check_pair(y, y_hat)
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def mae(y, y_hat) -> float:
    y, y_hat = _check_pair(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def r2(y, y_hat) -> float:
    y, y_hat = _check_pair(y, y_hat)
    denom = float(np.sum((y - np.mean(y)) ** 2))
    # np.mean of equal values can miss them by an ulp, so test constancy exactly.
    if denom == 0.0 or np.ptp(y) == 0.0:
        raise UndefinedMetricError("r2 undefined for constant y")
    return float(1.0 - np.sum((y - y_hat) ** 2) / denom)


def _centered(x: np.ndarray) -> np.ndarray:
    """``x`` minus its mean. A near-constant ``x`` on a large offset can keep
    a residual mean as large as its spread (the mean rounds); a second pass
    removes it. Ordinary input never takes that pass, so it is unchanged."""
    d = x - np.mean(x)
    residual = abs(float(np.mean(d)))
    if residual > 1e-6 * float(np.sqrt(np.mean(d * d))):
        d = d - np.mean(d)
    return d


def plcc(a, b) -> float:
    a, b = _check_pair(a, b)
    if a.size < 2:
        raise InvalidArgumentError("plcc needs at least 2 points")
    da = _centered(a)
    db = _centered(b)
    denom = float(np.sqrt(np.sum(da**2) * np.sum(db**2)))
    if denom == 0.0 or np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        raise UndefinedMetricError("plcc undefined for constant input")
    return float(np.sum(da * db) / denom)


def _average_ranks(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """1-based ranks with ties given the average of their rank range, and
    whether ``x`` has a tie: one stable sort, split into runs of equal values."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    last = np.append(first[1:], len(x)) - 1
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks, len(first) < len(x)


def srcc(a, b) -> float:
    """Spearman rank correlation; ties handled with average ranks.

    Without ties this equals the closed form 1 - 6*sum(d^2)/(N(N^2-1)).
    """
    a, b = _check_pair(a, b)
    if a.size < 2:
        raise InvalidArgumentError("srcc needs at least 2 points")
    ra, a_ties = _average_ranks(a)
    rb, b_ties = _average_ranks(b)
    if not (a_ties or b_ties):
        d = ra - rb
        n = a.size
        return float(1.0 - 6.0 * np.sum(d**2) / (n * (n**2 - 1)))
    return plcc(ra, rb)


def _unless_undefined(metric, y, y_hat) -> float | None:
    try:
        return metric(y, y_hat)
    except UndefinedMetricError:
        return None


def metric_block(y, y_hat) -> MetricBlock:
    y_arr = np.asarray(y, dtype=np.float64)
    return MetricBlock(
        rmse=rmse(y, y_hat),
        mae=mae(y, y_hat),
        r2=_unless_undefined(r2, y, y_hat),
        plcc=_unless_undefined(plcc, y, y_hat),
        srcc=_unless_undefined(srcc, y, y_hat),
        n=int(y_arr.size),
    )


def correlation_by_demographic(dataset: Dataset, feature: str) -> dict[str, float | None]:
    """Per-profile PLCC between a numeric feature column and MOS; None where
    it is undefined (the feature or MOS is constant within the profile)."""
    if not dataset.has_column("demographic"):
        raise SchemaMismatchError("dataset has no demographic column")
    if not dataset.has_column(feature):
        raise SchemaMismatchError(f"dataset has no column {feature!r}")
    if dataset.column(feature).dtype == object:
        raise SchemaMismatchError(f"column {feature!r} is not numeric")
    values = dataset.column(feature).astype(np.float64)
    mos = dataset.column("mos").astype(np.float64)
    labels = dataset.column("demographic")
    out: dict[str, float | None] = {}
    for profile in PROFILE_IDS:
        mask = labels == profile
        if not mask.any():
            continue
        out[profile] = _unless_undefined(plcc, values[mask], mos[mask])
    return out
