"""Slow, transparent reference implementations used only by the tests.

The brute-force tree oracle evaluates every (feature, midpoint threshold)
candidate directly, with per-candidate SSE recomputed from plain sums, and
applies the documented tie-break: lowest cost, then lowest feature index,
then lowest threshold.
"""

import math
from dataclasses import dataclass

import numpy as np


def _sse(values: np.ndarray) -> float:
    k = len(values)
    s = float(np.sum(values))
    sq = float(np.sum(values * values))
    return sq - s * s / k


def brute_force_best_split(X, y, min_samples_leaf=1, feature_indices=None):
    """Exhaustive scan over all (feature, midpoint) splits; None if no candidate."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if feature_indices is None:
        feature_indices = range(d)
    best = None
    best_cost = np.inf
    for j in feature_indices:
        distinct = np.unique(X[:, j])
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            t = 0.5 * (lo + hi)
            mask = X[:, j] <= t
            n_left = int(mask.sum())
            if n_left < min_samples_leaf or n - n_left < min_samples_leaf:
                continue
            cost = _sse(y[mask]) + _sse(y[~mask])
            # Features ascend and thresholds ascend; strict < keeps the
            # earliest (lowest feature, lowest threshold) incumbent on ties.
            if cost < best_cost:
                best_cost = cost
                best = (j, float(t))
    return best


@dataclass
class OracleNode:
    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: "OracleNode | None" = None
    right: "OracleNode | None" = None

    def predict_row(self, x) -> float:
        node = self
        while node.left is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value


def brute_force_tree(X, y, max_depth=None, min_samples_leaf=1, depth=0) -> OracleNode:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if (
        (max_depth is not None and depth >= max_depth)
        or len(y) < 2 * min_samples_leaf
        or np.all(y == y[0])
    ):
        return OracleNode(value=float(np.mean(y)))
    found = brute_force_best_split(X, y, min_samples_leaf)
    if found is None:
        return OracleNode(value=float(np.mean(y)))
    j, t = found
    mask = X[:, j] <= t
    return OracleNode(
        feature=j,
        threshold=t,
        left=brute_force_tree(X[mask], y[mask], max_depth, min_samples_leaf, depth + 1),
        right=brute_force_tree(X[~mask], y[~mask], max_depth, min_samples_leaf, depth + 1),
    )


def brute_force_tree_predict(root: OracleNode, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return np.array([root.predict_row(row) for row in X])


def bisection_simplex_projection(z: np.ndarray, iters: int = 100) -> np.ndarray:
    """Simplex projection via bisection on the threshold tau.

    p_i = max(z_i - tau, 0) with sum(p) = 1; sum is monotone decreasing in
    tau, so bisection on [min(z) - 1, max(z)] converges to machine precision.
    """
    z = np.asarray(z, dtype=np.float64)
    lo, hi = z.min() - 1.0, z.max()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(z - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(z - 0.5 * (lo + hi), 0.0)


def loop_average_ranks(x) -> np.ndarray:
    """1-based ranks, ties given the average of their rank range, by walking
    each run of equal values in stable sorted order."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


CSV_INT_COLUMNS = {"session_id", "stall_count", "base_session_id"}
CSV_CATEGORICAL_COLUMNS = {"content_type", "device", "encoding_profile", "demographic"}


def first_csv_fault(header, records):
    """The first fault of a row-at-a-time CSV reader, or None.

    Rows are 1-based data rows. A record with the wrong cell count is
    ``("SchemaMismatchError", row, None, cell count)``; otherwise the first
    cell that is not an int in int64 range (int columns), not a finite float
    (other numeric columns) is ``("CsvParseError", row, column, cell)``.
    Categorical cells are always accepted.
    """
    for row, record in enumerate(records, start=1):
        if len(record) != len(header):
            return ("SchemaMismatchError", row, None, len(record))
        for column, cell in zip(header, record):
            if column in CSV_CATEGORICAL_COLUMNS:
                continue
            try:
                if column in CSV_INT_COLUMNS:
                    ok = -(2**63) <= int(cell) < 2**63
                else:
                    ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                return ("CsvParseError", row, column, cell)
    return None
