"""Slow, transparent reference implementations used only by the tests.

The brute-force tree oracle evaluates every (feature, midpoint threshold)
candidate directly, with per-candidate SSE recomputed from plain sums, and
applies the documented tie-break: lowest cost, then lowest feature index,
then lowest threshold.
"""

import csv
import io
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from qoe_forge.classical import BoostedModel, ForestModel, TreeModel, TreeNode
from qoe_forge.model_io import model_to_doc


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


# The per-node tree grower: one split search, and one partition, per node.
# ``classical`` grows trees in blocks of nodes and must give byte-equal
# model documents.


def _best_split(X, y, min_samples_leaf, feature_indices):
    """Exact scan over midpoint thresholds of all candidate features at once.

    Returns (feature, threshold) or None. One stable column-wise sort and two
    column-wise prefix sums give the left/right SSE of every boundary k (left
    size) of every feature. Boundaries between equal values, or leaving a
    side smaller than ``min_samples_leaf``, are excluded. Ties are broken by
    lower feature index, then lower threshold: the first minimum of the cost
    matrix in feature-major order.
    """
    n = len(y)
    lo, hi = min_samples_leaf, n - min_samples_leaf  # allowed left sizes
    Xc = X[:, feature_indices]
    order = Xc.argsort(axis=0, kind="stable")
    xs = Xc[order, np.arange(Xc.shape[1])]
    ys = y[order]
    cs = ys.cumsum(axis=0)
    csq = np.multiply(ys, ys, out=ys).cumsum(axis=0)

    k = np.arange(lo, hi + 1, dtype=np.float64)[:, None]
    sum_l = cs[lo - 1 : hi]
    sq_l = csq[lo - 1 : hi]
    # cost = (sq_l - sum_l**2 / k) + (sq_r - sum_r**2 / (n - k)), in place.
    sum_r = np.subtract(cs[-1], sum_l)
    sse_r = np.subtract(csq[-1], sq_l)
    np.square(sum_r, out=sum_r)
    np.divide(sum_r, n - k, out=sum_r)
    np.subtract(sse_r, sum_r, out=sse_r)
    cost = np.square(sum_l)
    np.divide(cost, k, out=cost)
    np.subtract(sq_l, cost, out=cost)
    np.add(cost, sse_r, out=cost)
    cost[~(xs[lo : hi + 1] > xs[lo - 1 : hi])] = np.inf

    flat = int(cost.T.argmin())
    f, i = divmod(flat, cost.shape[0])
    if not cost[i, f] < np.inf:
        return None
    ki = lo + i
    return int(feature_indices[f]), float(0.5 * (xs[ki - 1, f] + xs[ki, f]))


def _grow_tree(X, y, max_depth, min_samples_leaf, n_feature_subset=None, rng=None) -> TreeModel:
    """Grow a tree on checked training data, depth-first from an explicit
    stack of (node, row indices, depth).

    Each split searches every feature, or a subset of ``n_feature_subset``
    drawn from ``rng`` when that is below the feature count. Left children
    are popped before right ones, so nodes are split (and the subsets drawn)
    in preorder.
    """
    d = X.shape[1]
    root = TreeNode()
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        yn = y[rows]
        if (
            (max_depth is not None and depth >= max_depth)
            or len(rows) < 2 * min_samples_leaf
            or (yn == yn[0]).all()
        ):
            node.value = float(yn.mean())
            continue

        if n_feature_subset is not None and n_feature_subset < d:
            candidates = np.sort(rng.choice(d, size=n_feature_subset, replace=False))
        else:
            candidates = np.arange(d)

        found = _best_split(X[rows], yn, min_samples_leaf, candidates)
        if found is None:
            node.value = float(yn.mean())
            continue
        node.feature, node.threshold = found
        node.left, node.right = TreeNode(), TreeNode()
        mask = X[rows, node.feature] <= node.threshold
        stack.append((node.right, rows[~mask], depth + 1))
        stack.append((node.left, rows[mask], depth + 1))
    return TreeModel(root=root, max_depth=max_depth, min_samples_leaf=min_samples_leaf)


def loop_fit_forest(X, y, n_trees=100, n_feature_subset=None, seed=0, max_depth=12,
                    min_samples_leaf=2, bootstrap=True) -> ForestModel:
    """``fit_forest`` one tree after another, each on its own copy of its
    bootstrap rows."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if n_feature_subset is None:
        n_feature_subset = max(1, d // 3)
    trees = []
    for child_seq in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child_seq)
        if bootstrap:
            idx = rng.integers(0, n, size=n)
            Xb, yb = X[idx], y[idx]
        else:
            Xb, yb = X, y
        trees.append(_grow_tree(Xb, yb, max_depth, min_samples_leaf, n_feature_subset, rng))
    return ForestModel(trees=trees, n_feature_subset=n_feature_subset)


def loop_fit_boosted(X, y, n_stages=200, learning_rate=0.1, max_depth=3,
                     min_samples_leaf=1) -> BoostedModel:
    """``fit_boosted`` with each stage's fit read back by ``stage.predict``."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    initial = float(np.mean(y))
    pred = np.full(len(y), initial)
    stages, curve = [], []
    for _ in range(n_stages):
        stage = _grow_tree(X, y - pred, max_depth, min_samples_leaf)
        pred = pred + learning_rate * stage.predict(X)
        stages.append(stage)
        curve.append(float(np.mean((y - pred) ** 2)))
    return BoostedModel(initial=initial, stages=stages, learning_rate=learning_rate,
                        train_mse_curve=curve)


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


def row_loop_csv_read(text: str):
    """What a ``csv.reader`` over ``text`` makes of a CSV file, with the
    records checked one at a time, in file order.

    The outcome is comparable as a whole:

    - the ``first_csv_fault`` tuple of the first record that has one, its row
      counted from the first record of the file;
    - otherwise ``("csv.Error", line)`` when the csv module rejects the text,
      with the reader's line count at that point;
    - otherwise ``("ok", columns)``: each column's cells through ``int``
      (int columns), ``float`` as its 64-bit pattern (other numeric columns),
      or as they are (categoricals).

    The header row must be one of the schemas'.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header, records, error_line = next(reader), [], None
    try:
        for record in reader:
            records.append(record)
    except csv.Error:
        error_line = reader.line_num
    fault = first_csv_fault(header, records)
    if fault is not None:
        return fault
    if error_line is not None:
        return ("csv.Error", error_line)
    columns = {}
    for i, name in enumerate(header):
        cells = [record[i] for record in records]
        if name in CSV_INT_COLUMNS:
            columns[name] = [int(cell) for cell in cells]
        elif name in CSV_CATEGORICAL_COLUMNS:
            columns[name] = cells
        else:
            columns[name] = [struct.unpack("<q", struct.pack("<d", float(cell)))[0]
                             for cell in cells]
    return ("ok", columns)


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


def v1_model_doc(kind, model, preprocessor=None) -> dict:
    """The document schema version 1 wrote: every array as JSON numbers read
    from the model itself, a linear ``coef`` and knn's ``X_train`` and
    ``y_train`` as nested lists, each network parameter as its ``shape`` and
    its values in one flat ``data`` list, and a norm layer's running
    statistics as lists. Every other field is as version 2 writes it."""
    doc = model_to_doc(kind, model, preprocessor)
    doc["schema_version"] = 1
    state = doc["state"]
    for name in ("coef", "X_train", "y_train"):
        if name in state:
            state[name] = getattr(model, name).tolist()
    if "params" in state:
        state["params"] = {
            name: {"shape": list(p.data.shape), "data": p.data.reshape(-1).tolist()}
            for name, p in model.param_entries()
        }
        state["norm"] = {
            name: {"running_mean": bn.running_mean.tolist(),
                   "running_var": bn.running_var.tolist()}
            for name, bn in model.norm_layers()
        }
    return doc


def v1_document_bytes(kind, model, preprocessor=None) -> bytes:
    """``v1_model_doc`` as version 1's ``save_model`` wrote it to a file."""
    doc = v1_model_doc(kind, model, preprocessor)
    return (json.dumps(doc, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")
