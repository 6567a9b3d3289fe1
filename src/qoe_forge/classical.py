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
from .params import finite_array, finite_float


# The range rule of each scalar fit param, by name: (test, what a value must
# be). Every fit checks its own params against this table, and
# ``model_io.model_params`` checks a config's params against it before any fit.
_FIT_PARAM_RULES = {
    "max_depth": (lambda v: v is None or v >= 0, "None or >= 0"),
    "min_samples_leaf": (lambda v: v >= 1, ">= 1"),
    "n_feature_subset": (lambda v: v is None or v >= 1, ">= 1"),
    "k": (lambda v: v >= 1, ">= 1"),
    "n_trees": (lambda v: v >= 1, ">= 1"),
    "seed": (lambda v: v >= 0, ">= 0"),
    "n_stages": (lambda v: v >= 1, ">= 1"),
    "learning_rate": (lambda v: 0.0 < v <= 1.0, "in (0,1]"),
}


def check_fit_params(**params) -> None:
    """Raise ``InvalidArgumentError`` for the first param outside its range;
    a param without a rule is not checked."""
    for name, value in params.items():
        if name in _FIT_PARAM_RULES:
            ok, bound = _FIT_PARAM_RULES[name]
            if not ok(value):
                raise InvalidArgumentError(f"{name} must be {bound}")


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidArgumentError(f"X must be 2-D, got shape {X.shape}")
    return X


def _training_data(X, y, **params) -> tuple[np.ndarray, np.ndarray]:
    """A fit's ``X`` and ``y`` as float arrays, checked with its ``params``:
    ``X`` is 2-D, ``y`` is 1-D with one value per row, every value of both is
    finite, and a tree fit (one with a ``min_samples_leaf``) has rows enough
    for a leaf on either side."""
    X, y = _as_matrix(X), np.asarray(y, dtype=np.float64)
    if y.shape != X.shape[:1]:
        raise InvalidArgumentError(
            f"y must be 1-D with one value per row of X, got shapes {X.shape} and {y.shape}"
        )
    for name, values in (("X", X), ("y", y)):
        if not np.isfinite(values).all():
            raise InvalidArgumentError(f"{name} holds a value that is not finite")
    check_fit_params(**params)
    leaf = params.get("min_samples_leaf")
    if leaf is not None and X.shape[0] < 2 * leaf:
        raise InvalidArgumentError(f"need at least {2 * leaf} rows, got {X.shape[0]}")
    return X, y


# ---------------------------------------------------------------------------
# Linear regression (normal equations)
# ---------------------------------------------------------------------------


@dataclass
class LinearModel:
    coef: np.ndarray
    intercept: float

    def predict(self, X) -> np.ndarray:
        return _as_matrix(X) @ self.coef + self.intercept

    def accepts_width(self, width: int) -> bool:
        return self.coef.shape == (width,)

    def to_doc(self) -> dict:
        return {"coef": self.coef.tolist(), "intercept": self.intercept}

    @classmethod
    def from_doc(cls, doc: dict) -> "LinearModel":
        return cls(finite_array("coef", doc["coef"]), finite_float("intercept", doc["intercept"]))


def fit_linear(X, y, ridge_jitter: float = 1e-8) -> LinearModel:
    """Least squares via normal equations with a ridge jitter on the Gram diagonal."""
    X, y = _training_data(X, y)
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
            return cls(value=finite_float("leaf value", doc["value"]))
        return cls(
            feature=int(doc["feature"]),
            threshold=finite_float("threshold", doc["threshold"]),
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

    def accepts_width(self, width: int) -> bool:
        """Every split reads a column below ``width``."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                if not 0 <= node.feature < width:
                    return False
                stack += (node.left, node.right)
        return True

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


def fit_tree(X, y, max_depth: int | None = 12, min_samples_leaf: int = 2) -> TreeModel:
    """One tree whose every split searches every feature."""
    X, y = _training_data(X, y, max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    return _grow_tree(X, y, max_depth, min_samples_leaf)


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

    def accepts_width(self, width: int) -> bool:
        return all(t.accepts_width(width) for t in self.trees)

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
    X, y = _training_data(
        X, y, n_trees=n_trees, n_feature_subset=n_feature_subset, seed=seed,
        max_depth=max_depth, min_samples_leaf=min_samples_leaf,
    )
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

    def accepts_width(self, width: int) -> bool:
        return all(s.accepts_width(width) for s in self.stages)

    def to_doc(self) -> dict:
        return {
            "initial": self.initial,
            "stages": [s.to_doc() for s in self.stages],
            "learning_rate": self.learning_rate,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "BoostedModel":
        learning_rate = finite_float("learning_rate", doc["learning_rate"])
        check_fit_params(learning_rate=learning_rate)
        return cls(
            initial=finite_float("initial", doc["initial"]),
            stages=[TreeModel.from_doc(s) for s in doc["stages"]],
            learning_rate=learning_rate,
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
    X, y = _training_data(
        X, y, n_stages=n_stages, learning_rate=learning_rate,
        max_depth=max_depth, min_samples_leaf=min_samples_leaf,
    )
    initial = float(np.mean(y))
    pred = np.full(len(y), initial)
    stages = []
    curve = []
    for _ in range(n_stages):
        stage = _grow_tree(X, y - pred, max_depth, min_samples_leaf)
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

    def __post_init__(self):
        if self.X_train.ndim != 2 or self.y_train.shape != self.X_train.shape[:1]:
            raise InvalidArgumentError(
                f"knn needs a 2-D X_train and one y_train value per row, "
                f"got shapes {self.X_train.shape} and {self.y_train.shape}"
            )
        for name in ("X_train", "y_train"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidArgumentError(f"{name} holds a value that is not finite")
        n = len(self.X_train)
        if isinstance(self.k, bool) or not isinstance(self.k, int) or not 1 <= self.k <= n:
            raise InvalidArgumentError(f"k must be an int in [1, {n}], got {self.k!r}")

    def predict(self, X) -> np.ndarray:
        """Score queries in blocks of ``KNN_CHUNK_ROWS`` rows, so the distance
        matrix held at once is at most KNN_CHUNK_ROWS x n_train."""
        X = _as_matrix(X)
        k = self.k
        train_sq = np.sum(self.X_train**2, axis=1)[None, :]
        out = np.full(X.shape[0], np.nan)
        for start in range(0, X.shape[0], KNN_CHUNK_ROWS):
            Xq = X[start : start + KNN_CHUNK_ROWS]
            # Euclidean distances; ties go to the lower training-row index.
            d2 = np.sum(Xq**2, axis=1)[:, None] - 2.0 * Xq @ self.X_train.T + train_sq
            # The candidates are the rows at or below the k-th smallest
            # distance, which `nonzero` lists in index order; a stable sort by
            # (query row, distance) puts each query row's k nearest first. A
            # row with fewer than k distances that are not NaN has no
            # candidates and scores NaN.
            rows, cols = np.nonzero(d2 <= np.partition(d2, k - 1, axis=1)[:, k - 1 : k])
            order = np.lexsort((d2[rows, cols], rows))
            counts = np.bincount(rows, minlength=len(Xq))
            scored = np.flatnonzero(counts)
            nearest = cols[order][(np.cumsum(counts) - counts)[scored, None] + np.arange(k)]
            out[start + scored] = np.mean(self.y_train[nearest], axis=1)
        return out

    def accepts_width(self, width: int) -> bool:
        return self.X_train.shape[1:] == (width,)

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
            k=doc["k"],
        )


def fit_knn(X, y, k: int = 5) -> KnnModel:
    return KnnModel(
        X_train=np.array(X, dtype=np.float64), y_train=np.array(y, dtype=np.float64), k=k
    )
