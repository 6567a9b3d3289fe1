"""Median and quartile helpers shared by the runner, the suite and the tests.

Quartiles use ``statistics.quantiles(values, n=4)`` (the "exclusive" method),
which is how run-to-run spread is judged for this benchmark.
"""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); with fewer than two values all three are that value."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def summary(values) -> dict:
    """n, median, quartiles and spread: inter-quartile distance over |median|."""
    q1, q2, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(q2) if q2 else 0.0,
    }
