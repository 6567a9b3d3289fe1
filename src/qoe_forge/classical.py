"""From-scratch classical regressors: linear, tree, forest, boosting, KNN.

Split search uses midpoint thresholds with deterministic tie-breaking
(lower feature index, then lower threshold) so trees are reproducible and
oracle-comparable. All fits are pure functions of (data, hyperparameters,
seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericalError


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidArgumentError(f"X must be 2-D, got shape {X.shape}")
    return X


def _as_vector(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise InvalidArgumentError(f"y must be 1-D, got shape {y.shape}")
    return y


# ---------------------------------------------------------------------------
# Linear regression (normal equations)
# ---------------------------------------------------------------------------


@dataclass
class LinearModel:
    coef: np.ndarray
    intercept: float

    def predict(self, X) -> np.ndarray:
        return _as_matrix(X) @ self.coef + self.intercept

    def to_doc(self) -> dict:
        return {"coef": self.coef.tolist(), "intercept": self.intercept}

    @classmethod
    def from_doc(cls, doc: dict) -> "LinearModel":
        return cls(np.asarray(doc["coef"], dtype=np.float64), float(doc["intercept"]))


def fit_linear(X, y, ridge_jitter: float = 1e-8) -> LinearModel:
    """Least squares via normal equations with a ridge jitter on the Gram diagonal."""
    X, y = _as_matrix(X), _as_vector(y)
    if X.shape[0] != y.shape[0]:
        raise InvalidArgumentError("X and y row counts differ")
    n, d = X.shape
    A = np.column_stack([X, np.ones(n)])
    gram = A.T @ A + ridge_jitter * np.eye(d + 1)
    try:
        beta = np.linalg.solve(gram, A.T @ y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal equations singular: {exc}") from exc
    return LinearModel(coef=beta[:d], intercept=float(beta[d]))


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    value: float | None = None       # leaf prediction
    feature: int | None = None       # split feature index
    threshold: float | None = None   # goes left when x[feature] <= threshold
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_doc(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_doc(),
            "right": self.right.to_doc(),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TreeNode":
        if "value" in doc:
            return cls(value=float(doc["value"]))
        return cls(
            feature=int(doc["feature"]),
            threshold=float(doc["threshold"]),
            left=cls.from_doc(doc["left"]),
            right=cls.from_doc(doc["right"]),
        )


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


def _grow_tree(X, y, max_depth, min_samples_leaf, n_feature_subset, rng) -> TreeNode:
    """Grow depth-first from an explicit stack of (node, row indices, depth).

    Left children are popped before right ones, so nodes are split (and the
    per-split feature subsets drawn from ``rng``) in preorder.
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
    return root


@dataclass
class TreeModel:
    root: TreeNode
    max_depth: int | None
    min_samples_leaf: int

    def predict(self, X) -> np.ndarray:
        """Route all rows at once: each split partitions its row indices."""
        X = _as_matrix(X)
        out = np.empty(X.shape[0])
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = node.value
                continue
            mask = X[rows, node.feature] <= node.threshold
            for child, sub in ((node.left, rows[mask]), (node.right, rows[~mask])):
                if sub.size:
                    stack.append((child, sub))
        return out

    def to_doc(self) -> dict:
        return {
            "root": self.root.to_doc(),
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TreeModel":
        return cls(
            root=TreeNode.from_doc(doc["root"]),
            max_depth=doc["max_depth"],
            min_samples_leaf=int(doc["min_samples_leaf"]),
        )


def fit_tree(
    X,
    y,
    max_depth: int | None = 12,
    min_samples_leaf: int = 2,
    n_feature_subset: int | None = None,
    rng: np.random.Generator | None = None,
) -> TreeModel:
    X, y = _as_matrix(X), _as_vector(y)
    if X.shape[0] != y.shape[0]:
        raise InvalidArgumentError("X and y row counts differ")
    if min_samples_leaf < 1:
        raise InvalidArgumentError("min_samples_leaf must be >= 1")
    if X.shape[0] < 2 * min_samples_leaf:
        raise InvalidArgumentError(
            f"need at least {2 * min_samples_leaf} rows, got {X.shape[0]}"
        )
    root = _grow_tree(X, y, max_depth, min_samples_leaf, n_feature_subset, rng)
    return TreeModel(root=root, max_depth=max_depth, min_samples_leaf=min_samples_leaf)


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------


@dataclass
class ForestModel:
    trees: list[TreeModel]
    n_feature_subset: int

    def predict(self, X) -> np.ndarray:
        X = _as_matrix(X)
        return np.mean([t.predict(X) for t in self.trees], axis=0)

    def to_doc(self) -> dict:
        return {
            "trees": [t.to_doc() for t in self.trees],
            "n_feature_subset": self.n_feature_subset,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ForestModel":
        return cls(
            trees=[TreeModel.from_doc(t) for t in doc["trees"]],
            n_feature_subset=int(doc["n_feature_subset"]),
        )


def fit_forest(
    X,
    y,
    n_trees: int = 100,
    n_feature_subset: int | None = None,
    seed: int = 0,
    max_depth: int | None = 12,
    min_samples_leaf: int = 2,
    bootstrap: bool = True,
) -> ForestModel:
    """Bagged trees with a re-drawn random feature subset at every split."""
    X, y = _as_matrix(X), _as_vector(y)
    if n_trees < 1:
        raise InvalidArgumentError("n_trees must be >= 1")
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
        trees.append(
            fit_tree(
                Xb,
                yb,
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
                n_feature_subset=n_feature_subset,
                rng=rng,
            )
        )
    return ForestModel(trees=trees, n_feature_subset=n_feature_subset)


# ---------------------------------------------------------------------------
# Gradient boosting
# ---------------------------------------------------------------------------


@dataclass
class BoostedModel:
    initial: float
    stages: list[TreeModel]
    learning_rate: float
    train_mse_curve: list[float] = field(default_factory=list)

    def predict(self, X) -> np.ndarray:
        X = _as_matrix(X)
        pred = np.full(X.shape[0], self.initial)
        for stage in self.stages:
            pred += self.learning_rate * stage.predict(X)
        return pred

    def to_doc(self) -> dict:
        return {
            "initial": self.initial,
            "stages": [s.to_doc() for s in self.stages],
            "learning_rate": self.learning_rate,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "BoostedModel":
        return cls(
            initial=float(doc["initial"]),
            stages=[TreeModel.from_doc(s) for s in doc["stages"]],
            learning_rate=float(doc["learning_rate"]),
        )


def fit_boosted(
    X,
    y,
    n_stages: int = 200,
    learning_rate: float = 0.1,
    max_depth: int | None = 3,
    min_samples_leaf: int = 1,
) -> BoostedModel:
    """Stagewise residual fitting: F_m = F_{m-1} + eta * h_m."""
    X, y = _as_matrix(X), _as_vector(y)
    if n_stages < 1:
        raise InvalidArgumentError("n_stages must be >= 1")
    if not 0.0 < learning_rate <= 1.0:
        raise InvalidArgumentError("learning_rate must be in (0,1]")
    initial = float(np.mean(y))
    pred = np.full(len(y), initial)
    stages = []
    curve = []
    for _ in range(n_stages):
        residuals = y - pred
        stage = fit_tree(
            X, residuals, max_depth=max_depth, min_samples_leaf=min_samples_leaf
        )
        pred = pred + learning_rate * stage.predict(X)
        stages.append(stage)
        curve.append(float(np.mean((y - pred) ** 2)))
    return BoostedModel(
        initial=initial, stages=stages, learning_rate=learning_rate,
        train_mse_curve=curve,
    )


# ---------------------------------------------------------------------------
# K-nearest neighbors
# ---------------------------------------------------------------------------


KNN_CHUNK_ROWS = 256  # query rows per distance block in KnnModel.predict


@dataclass
class KnnModel:
    X_train: np.ndarray
    y_train: np.ndarray
    k: int

    def predict(self, X) -> np.ndarray:
        """Score queries in blocks of ``KNN_CHUNK_ROWS`` rows, so the distance
        matrix held at once is at most KNN_CHUNK_ROWS x n_train."""
        X = _as_matrix(X)
        train_sq = np.sum(self.X_train**2, axis=1)[None, :]
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], KNN_CHUNK_ROWS):
            Xq = X[start : start + KNN_CHUNK_ROWS]
            # Euclidean distances; ties go to the lower training-row index.
            d2 = np.sum(Xq**2, axis=1)[:, None] - 2.0 * Xq @ self.X_train.T + train_sq
            nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            out[start : start + len(Xq)] = np.mean(self.y_train[nearest], axis=1)
        return out

    def to_doc(self) -> dict:
        return {
            "X_train": self.X_train.tolist(),
            "y_train": self.y_train.tolist(),
            "k": self.k,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "KnnModel":
        return cls(
            X_train=np.asarray(doc["X_train"], dtype=np.float64),
            y_train=np.asarray(doc["y_train"], dtype=np.float64),
            k=int(doc["k"]),
        )


def fit_knn(X, y, k: int = 5) -> KnnModel:
    X, y = _as_matrix(X), _as_vector(y)
    if not 1 <= k <= X.shape[0]:
        raise InvalidArgumentError(f"k must be in [1, {X.shape[0]}], got {k}")
    return KnnModel(X_train=X.copy(), y_train=y.copy(), k=k)
