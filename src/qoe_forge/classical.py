"""From-scratch classical regressors: linear, tree, forest, boosting, KNN.

Split search uses midpoint thresholds with deterministic tie-breaking
(lower feature index, then lower threshold) so trees are reproducible and
oracle-comparable. All fits are pure functions of (data, hyperparameters,
seed).

The three tree fits share one grower, which searches many nodes in one
block (``_best_splits``): a node holds only its row ids, each block sorts
every (node, candidate feature) lane by (value rank, position) keys from
the fit's one ``_cells`` table, pads each node to the block's length, and
takes the same cost ops, in the same order, as a search of each node alone,
so a tree is the one a node-by-node grower gives, byte for byte. A decision
tree, each boosting stage, and a forest whose subset is every feature grow
a level at a time. A forest that draws its subsets grows its trees in
lockstep: each step splits the next node, in preorder, of every tree, which
draws its feature subset from its own rng, as a tree grown alone does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericalError
from .params import convert, decode_array, encode_array, finite_float


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
        return {"coef": encode_array(self.coef), "intercept": self.intercept}

    @classmethod
    def from_doc(cls, doc: dict, read_array=decode_array) -> "LinearModel":
        """``read_array(name, entry)`` reads ``coef``, which must be 1-D."""
        coef = read_array("coef", doc["coef"])
        if coef.ndim != 1:
            raise InvalidArgumentError(f"coef must be 1-D, got shape {coef.shape}")
        return cls(coef, finite_float("intercept", doc["intercept"]))


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
        feature = convert("feature", "int", doc["feature"])
        if feature < 0:
            raise InvalidArgumentError(f"feature must be >= 0, got {feature}")
        return cls(
            feature=feature,
            threshold=finite_float("threshold", doc["threshold"]),
            left=cls.from_doc(doc["left"]),
            right=cls.from_doc(doc["right"]),
        )


# A split search holds at most ``_BLOCK_CELLS`` (node, feature, row) cells at
# once, of which at most ``_PAD_CELLS`` pad nodes to the block's length; a
# forest grows ``_GROUP_TREES`` trees at once. These bound a fit's transient
# memory whatever its size or tree count.
_BLOCK_CELLS = 1 << 16
_PAD_CELLS = 1 << 13
_GROUP_TREES = 32
_LARGEST = np.finfo(np.float64).max


def _best_splits(xs, ys, sizes, min_samples_leaf):
    """Exact scan over midpoint thresholds, for a block of nodes at once.

    ``xs`` and ``ys`` are (node, lane, row) arrays: each lane holds one
    candidate feature's values (or anything that orders as they do) of a
    node's rows in stable sorted order, and their targets. A node of
    ``sizes[b]`` rows is padded to the block's length with values above all
    others and 0 targets, which add 0. Two prefix sums per lane give the
    left/right SSE of every boundary k (left size) between two different
    values that leaves ``min_samples_leaf`` rows or more on either side, by
    the ops of a search over the node alone. Ties are broken by lower
    feature lane, then lower threshold: each node takes the first minimum
    of its costs in feature-major order.

    Returns (lane, at) arrays, one entry per node: lane is -1 where a node
    has no split, else the chosen boundary lies between the flat cells
    ``at`` and ``at + 1``. ``ys`` is overwritten.
    """
    count, width, length = ys.shape
    lo = min_samples_leaf
    cs = ys.cumsum(axis=2)
    csq = np.multiply(ys, ys, out=ys).cumsum(axis=2)

    # A boundary is named by the position q = k - 1 of its last left row.
    q = np.arange(length - 1)
    open_ = xs[:, :, 1:] > xs[:, :, :-1]
    open_ &= (q >= lo - 1) & (q < (sizes - lo)[:, None, None])
    lane_id, q = np.divmod(np.flatnonzero(open_), length - 1)
    node = lane_id // width
    at = lane_id * length + q
    k = q + 1.0
    n = sizes.astype(np.float64).take(node)
    sum_l = cs.take(at)
    sq_l = csq.take(at)
    # cost = (sq_l - sum_l**2 / k) + (sq_r - sum_r**2 / (n - k)), in place.
    sum_r = np.subtract(cs[:, :, -1].take(lane_id), sum_l)
    sse_r = np.subtract(csq[:, :, -1].take(lane_id), sq_l)
    np.square(sum_r, out=sum_r)
    np.divide(sum_r, np.subtract(n, k, out=n), out=sum_r)
    np.subtract(sse_r, sum_r, out=sse_r)
    cost = np.square(sum_l)
    np.divide(cost, k, out=cost)
    np.subtract(sq_l, cost, out=cost)
    np.add(cost, sse_r, out=cost)

    # Each node's first minimum. A NaN minimum, like a NaN first minimum of
    # one node's cost matrix, finds no split.
    lane = np.full(count, -1)
    found = np.zeros(count, dtype=np.int64)
    counts = np.bincount(node, minlength=count)
    searched = counts > 0
    starts = (np.cumsum(counts) - counts)[searched]
    if len(starts):
        least = np.minimum.reduceat(cost, starts)
        first = np.where(cost == np.repeat(least, counts[searched]), np.arange(len(cost)), len(cost))
        chosen = np.minimum.reduceat(first, starts)[least < np.inf]
        lane[node[chosen]] = lane_id[chosen] % width
        found[node[chosen]] = at[chosen]
    return lane, found


def _cells(X):
    """The tables a split search reads, for checked training data: feature f
    of row r is cell ``f * (n + 1) + r``, and row n pads a lane. ``values``
    holds each cell's value, +inf on the pad row; ``ranks`` holds the rank of
    the value among its feature's values, the pad row last, in the high half
    of an int64. A fit builds them once."""
    n, d = X.shape
    values = np.vstack([X, np.full(d, np.inf)]).T.ravel()
    ranks = np.full((d, n + 1), n, dtype=np.int64)
    for f in range(d):
        ranks[f, :n] = np.unique(X[:, f], return_inverse=True)[1]
    return values, (ranks << 32).ravel()


def _grow_trees(cells, y, roots, max_depth, min_samples_leaf, draws=None):
    """Grow a tree from each of ``roots``, arrays of training row ids (repeats
    are bootstrap copies), on the ``_cells`` of checked training data; return
    them as ``TreeModel``s.

    A node holds only its row ids. A split search sorts each candidate
    feature's lane of a node by (value rank, position) keys, which orders it
    as a stable argsort of the node's values does, and a split partitions
    the rows stably, left first, so a child's rows are in its parent's
    order. A new node that is a leaf (at ``max_depth``, too small to split,
    or of one target value) is settled at once; the others wait on their
    tree's stack.

    ``draws`` selects the candidates and the step order. Without it every
    split searches every feature, and each step searches all waiting nodes,
    one level of every tree. With ``draws = (n_feature_subset, rngs)`` each
    split searches a subset of features drawn from its tree's rng, and each
    step pops one node from every tree's stack, left child before right, so
    every tree splits, and draws, in preorder.

    Either way one step's nodes are searched, and partitioned, together in
    blocks by size.
    """
    values, ranks = cells
    n = len(y)
    stride = n + 1
    d = len(values) // stride
    yp = np.append(y, 0.0)
    if draws is None:
        width = d
    else:
        width, rngs = draws
    depth_limit = np.inf if max_depth is None else max_depth
    trees = [TreeNode() for _ in roots]
    stacks = [[] for _ in roots]

    def admit(entries, cat, bounds):
        """Settle or push each of ``entries``, (stack, node, rows, depth,
        may_split) with rows ``cat[s:e]`` for its (s, e) of ``bounds``. A node
        that may split is pushed unless its targets are all equal; the last
        entry is pushed first."""
        yv = y[cat]
        starts = [s for s, _ in bounds]
        constant = (np.minimum.reduceat(yv, starts) == np.maximum.reduceat(yv, starts)).tolist()
        for (stack, node, rows, depth, may_split), (s, e), same in zip(
            reversed(entries), reversed(bounds), reversed(constant)
        ):
            if may_split and not same:
                stack.append((node, rows, depth))
            else:
                node.value = float(np.add.reduce(yv[s:e])) / (e - s)  # yv[s:e].mean()

    def split_block(block):
        """Search a block of (stack, node, rows, depth, rng), largest first,
        and admit the children of every node that splits, or the node itself
        as a leaf."""
        sizes = np.array([len(item[2]) for item in block])
        count, length = len(block), sizes[0]
        real = np.arange(length) < sizes[:, None]
        rows = np.full((count, length), n)
        rows[real] = np.concatenate([item[2] for item in block])
        if draws is None:
            candidates = np.broadcast_to(np.arange(d), (count, d))
        else:
            candidates = np.sort(np.array([item[4].choice(d, size=width, replace=False)
                                           for item in block]), axis=1)
        keys = ranks.take(rows[:, None, :] + candidates[:, :, None] * stride)
        # The low half of a key is its cell's row slot in ``rows``.
        keys |= np.arange(rows.size).reshape(count, 1, length)
        keys.sort(axis=2)
        order = rows.ravel().take(keys & 0xFFFFFFFF)  # the sorted lanes' row ids
        keys >>= 32
        lane, at = _best_splits(keys, yp.take(order), sizes, min_samples_leaf)
        feature = candidates[np.arange(count), lane]
        columns = feature * stride
        order = order.ravel()
        thresholds = 0.5 * (values.take(columns + order.take(at))
                            + values.take(columns + order.take(at + 1)))

        # A node without a split keeps all its rows on the left: every finite
        # value is at or below the largest float, and the +inf pads are not.
        cut = np.where(lane >= 0, thresholds, _LARGEST)
        left = values.take(rows + columns[:, None]) <= cut[:, None]
        n_left = np.count_nonzero(left, axis=1)
        moves = np.argsort(~left, axis=1, kind="stable")
        moves += (np.arange(count) * length)[:, None]
        rows = rows.ravel().take(moves)

        entries, bounds, offset = [], [], 0
        for b, ((stack, node, _, depth, _), f, threshold, size, k) in enumerate(zip(
            block, feature.tolist(), thresholds.tolist(), sizes.tolist(), n_left.tolist(),
        )):
            if k == size:  # no split
                entries.append((stack, node, None, depth, False))
                bounds.append((offset, offset + size))
            else:
                node.feature, node.threshold = f, threshold
                node.left, node.right = TreeNode(), TreeNode()
                deeper = depth + 1 < depth_limit
                entries += [
                    (stack, node.left, rows[b, :k], depth + 1, deeper and k >= split_size),
                    # A right child may wait while its left subtree grows: it
                    # keeps a copy of its rows, not a view of the block.
                    (stack, node.right, rows[b, k:size].copy(), depth + 1,
                     deeper and size - k >= split_size),
                ]
                bounds += [(offset, offset + k), (offset + k, offset + size)]
            offset += size
        admit(entries, rows[real], bounds)

    split_size = 2 * min_samples_leaf  # the fewest rows a split can leave
    sizes = [len(rows) for rows in roots]
    ends = np.cumsum(sizes).tolist()
    admit(
        [(stack, node, rows, 0, 0 < depth_limit and size >= split_size)
         for stack, node, rows, size in zip(stacks, trees, roots, sizes)],
        np.concatenate(roots),
        [(e - size, e) for e, size in zip(ends, sizes)],
    )
    while True:
        if draws is None:
            step = [(stack, *entry, None) for stack in stacks for entry in stack]
            for stack in stacks:
                stack.clear()
        else:
            step = [(stack, *stack.pop(), rng) for stack, rng in zip(stacks, rngs) if stack]
        if not step:
            return [TreeModel(root, max_depth, min_samples_leaf) for root in trees]
        step.sort(key=lambda item: -len(item[2]))
        sizes = [len(item[2]) for item in step]
        start = 0
        while start < len(step):
            stop, padding = start + 1, 0
            while stop < len(step):
                padding += (sizes[start] - sizes[stop]) * width
                if (stop + 1 - start) * width * sizes[start] > _BLOCK_CELLS or padding > _PAD_CELLS:
                    break
                stop += 1
            split_block(step[start:stop])
            start = stop


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
    def from_doc(cls, doc: dict, read_array=None) -> "TreeModel":
        # The tree kinds hold no arrays: ``read_array`` goes unused.
        max_depth = convert("max_depth", "int | None", doc["max_depth"])
        min_samples_leaf = convert("min_samples_leaf", "int", doc["min_samples_leaf"])
        check_fit_params(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        return cls(
            root=TreeNode.from_doc(doc["root"]),
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
        )


def fit_tree(X, y, max_depth: int | None = 12, min_samples_leaf: int = 2) -> TreeModel:
    """One tree whose every split searches every feature."""
    X, y = _training_data(X, y, max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    [tree] = _grow_trees(_cells(X), y, [np.arange(len(y))], max_depth, min_samples_leaf)
    return tree


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
    def from_doc(cls, doc: dict, read_array=None) -> "ForestModel":
        n_feature_subset = convert("n_feature_subset", "int", doc["n_feature_subset"])
        check_fit_params(n_feature_subset=n_feature_subset)
        return cls(
            trees=[TreeModel.from_doc(t) for t in doc["trees"]],
            n_feature_subset=n_feature_subset,
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
    cells = _cells(X)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_trees)]
    trees = []
    for start in range(0, n_trees, _GROUP_TREES):
        group = rngs[start : start + _GROUP_TREES]
        # A tree's rows are global row ids, in bootstrap order, so ties sort
        # as they would on the tree's own copy of its rows.
        roots = [rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in group]
        # A subset of d or more features draws nothing: it searches them all.
        draws = (n_feature_subset, group) if n_feature_subset < d else None
        trees += _grow_trees(cells, y, roots, max_depth, min_samples_leaf, draws)
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
    def from_doc(cls, doc: dict, read_array=None) -> "BoostedModel":
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
    cells, rows = _cells(X), np.arange(len(y))
    for _ in range(n_stages):
        [stage] = _grow_trees(cells, y - pred, [rows], max_depth, min_samples_leaf)
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
            "X_train": encode_array(self.X_train),
            "y_train": encode_array(self.y_train),
            "k": self.k,
        }

    @classmethod
    def from_doc(cls, doc: dict, read_array=decode_array) -> "KnnModel":
        return cls(
            X_train=read_array("X_train", doc["X_train"]),
            y_train=read_array("y_train", doc["y_train"]),
            k=doc["k"],
        )


def fit_knn(X, y, k: int = 5) -> KnnModel:
    return KnnModel(
        X_train=np.array(X, dtype=np.float64), y_train=np.array(y, dtype=np.float64), k=k
    )
