"""Slow, transparent reference implementations used only by the tests.

The brute-force tree oracle evaluates every (feature, midpoint threshold)
candidate directly, with per-candidate SSE recomputed from plain sums, and
applies the documented tie-break: lowest cost, then lowest feature index,
then lowest threshold.
"""

import csv
import io
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


def row_loop_csv_text(dataset) -> str:
    """The canonical CSV text of ``dataset``, written one row at a time.

    Every cell is formatted on its own: ``str`` for an int64 column, ``repr``
    for a float64 column and the label itself for a categorical, and each
    record goes through ``csv.writer``. A lone ``"\r"`` in a cell must be
    quoted as a ``"\n"`` is, so records are written with ``"\r\n"`` ends that
    are then cut to ``"\n"``.
    """
    names = dataset.column_names()
    columns = [dataset.column(name) for name in names]
    formats = [
        {"int64": str, "float64": repr}.get(col.dtype.name, lambda label: label)
        for col in columns
    ]
    values = [col.tolist() for col in columns]
    records = [names] + [
        [fmt(vals[i]) for fmt, vals in zip(formats, values)] for i in range(len(dataset))
    ]
    text = []
    for record in records:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(record)
        text.append(buf.getvalue()[:-2] + "\n")
    return "".join(text)


def loop_ghost_batch_norm(x, g, gamma, beta, running_mean, running_var,
                          virtual_batch, momentum=0.1, eps=1e-5):
    """Training-mode ghost batch norm, one virtual batch at a time, and its
    VJPs for the upstream gradient ``g``.

    A trailing chunk of fewer than 2 rows is merged into its predecessor.
    Returns (out, running_mean, running_var, dx, dgamma, dbeta).
    """
    n = x.shape[0]
    chunks = [slice(s, min(s + virtual_batch, n)) for s in range(0, n, virtual_batch)]
    if len(chunks) > 1 and chunks[-1].stop - chunks[-1].start < 2:
        chunks = chunks[:-2] + [slice(chunks[-2].start, n)]
    out = np.empty_like(x)
    stats = []
    for sl in chunks:
        xc = x[sl]
        mu = xc.mean(axis=0)
        var = xc.var(axis=0)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (xc - mu) * inv
        out[sl] = xhat * gamma + beta
        stats.append((sl, xhat, inv))
        running_mean = (1.0 - momentum) * running_mean + momentum * mu
        running_var = (1.0 - momentum) * running_var + momentum * var
    dx = np.empty_like(g)
    dgamma = np.zeros_like(gamma)
    dbeta = np.zeros_like(beta)
    for sl, xhat, inv in stats:
        gc = g[sl]
        m = gc.shape[0]
        dxhat = gc * gamma
        dx[sl] = inv / m * (m * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        dgamma += (gc * xhat).sum(axis=0)
        dbeta += gc.sum(axis=0)
    return out, running_mean, running_var, dx, dgamma, dbeta
