"""Classical regressors: exact oracles, degenerations, and serialization."""

import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest

from qoe_forge.classical import (
    KNN_CHUNK_ROWS,
    BoostedModel,
    ForestModel,
    KnnModel,
    LinearModel,
    TreeModel,
    fit_boosted,
    fit_forest,
    fit_knn,
    fit_linear,
    fit_tree,
)
from qoe_forge.errors import InvalidArgumentError
from qoe_forge.preprocessing import SplitSpec, fit_transform, split, transform

from qoe_forge import classical
from oracles import (
    _grow_tree,
    brute_force_best_split,
    brute_force_tree,
    brute_force_tree_predict,
    loop_fit_boosted,
    loop_fit_forest,
)


def integer_problem(rng, n_max=50, d_max=5):
    """Small random problem with integer-valued features and targets.

    Integer values keep SSE sums exactly representable, so the oracle and
    implementation agree on ties bit-for-bit.
    """
    n = int(rng.integers(4, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    X = rng.integers(0, 8, size=(n, d)).astype(np.float64)
    y = rng.integers(0, 16, size=n).astype(np.float64)
    return X, y


def doc_bytes(model) -> bytes:
    return json.dumps(model.to_doc(), sort_keys=True).encode()


class TestLinear:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        w = np.array([3.0, -1.5, 0.25, 4.0])
        y = X @ w + 2.5
        model = fit_linear(X, y)
        np.testing.assert_allclose(model.coef, w, atol=1e-8)
        assert model.intercept == pytest.approx(2.5, abs=1e-8)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-8)

    def test_collinear_columns_survive_jitter(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        X = np.column_stack([x, 2.0 * x])  # rank deficient
        y = 3.0 * x + 1.0
        model = fit_linear(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-3)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = fit_linear(X, y)
        restored = LinearModel.from_doc(model.to_doc())
        np.testing.assert_array_equal(model.predict(X), restored.predict(X))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            fit_linear(np.zeros((3, 2)), np.zeros(4))


class TestTree:
    def test_root_split_matches_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            X, y = integer_problem(rng)
            expected = brute_force_best_split(X, y, min_samples_leaf=1)
            model = fit_tree(X, y, max_depth=1, min_samples_leaf=1)
            root = model.root
            if expected is None:
                assert root.is_leaf
            else:
                assert (root.feature, root.threshold) == expected

    def test_full_tree_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            X, y = integer_problem(rng, n_max=30, d_max=4)
            oracle = brute_force_tree(X, y, max_depth=5, min_samples_leaf=2)
            model = fit_tree(X, y, max_depth=5, min_samples_leaf=2)
            np.testing.assert_array_equal(
                model.predict(X), brute_force_tree_predict(oracle, X)
            )

    def test_tie_break_lower_feature(self):
        # Identical columns: both give the same cost; feature 0 must win.
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        root = fit_tree(X, y, max_depth=1, min_samples_leaf=1).root
        assert root.feature == 0
        assert root.threshold == 1.5

    def test_tie_break_lower_threshold(self):
        # Thresholds 0.5 and 1.5 both isolate the same y partition cost.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([5.0, 5.0, 5.0, 5.0])
        root = fit_tree(X, y, max_depth=1, min_samples_leaf=1).root
        assert root.is_leaf  # constant target: no split at all
        y = np.array([1.0, 2.0, 2.0, 3.0])
        root = fit_tree(X, y, max_depth=1, min_samples_leaf=1).root
        expected = brute_force_best_split(X, y)
        assert (root.feature, root.threshold) == expected

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(12)
        X, y = integer_problem(rng, n_max=40)
        model = fit_tree(X, y, min_samples_leaf=5)

        def check(node, Xn):
            if node.is_leaf:
                assert len(Xn) >= 5
                return
            mask = Xn[:, node.feature] <= node.threshold
            check(node.left, Xn[mask])
            check(node.right, Xn[~mask])

        check(model.root, X)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        model = fit_tree(X, y, max_depth=2, min_samples_leaf=1)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(model.root) <= 2

    def test_round_trip(self):
        rng = np.random.default_rng(14)
        X, y = integer_problem(rng)
        model = fit_tree(X, y)
        restored = TreeModel.from_doc(model.to_doc())
        np.testing.assert_array_equal(model.predict(X), restored.predict(X))

    def test_predict_matches_oracle_on_duplicates_without_depth_limit(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            # Few distinct feature values: many duplicate x, tied thresholds.
            X = rng.integers(0, 4, size=(60, 3)).astype(np.float64)
            y = rng.integers(0, 16, size=60).astype(np.float64)
            oracle = brute_force_tree(X, y, max_depth=None, min_samples_leaf=1)
            model = fit_tree(X, y, max_depth=None, min_samples_leaf=1)
            Xq = rng.integers(-1, 5, size=(40, 3)).astype(np.float64)
            for Z in (X, Xq):
                np.testing.assert_array_equal(
                    model.predict(Z), brute_force_tree_predict(oracle, Z)
                )

    def test_deep_chain_needs_no_recursion(self):
        # Splits peel off the largest remaining target: a chain ~200 levels deep.
        X = np.arange(400.0)[:, None]
        y = 2.0 ** (np.arange(400) - 350)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            model = fit_tree(X, y, max_depth=None, min_samples_leaf=1)
            pred = model.predict(X)
        finally:
            sys.setrecursionlimit(limit)
        np.testing.assert_array_equal(pred, y)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            fit_tree(np.zeros((3, 1)), np.zeros(3), min_samples_leaf=2)
        with pytest.raises(InvalidArgumentError):
            fit_tree(np.zeros((4, 1)), np.zeros(4), min_samples_leaf=0)
        with pytest.raises(InvalidArgumentError, match="max_depth"):
            fit_tree(np.zeros((4, 1)), np.zeros(4), max_depth=-1)


# sha256 of json.dumps(model.to_doc(), sort_keys=True) for trees fit on the
# augmented training split of the paper corpus. The split search, growth
# order and random draws must keep these documents byte for byte.
MODEL_DOC_DIGESTS = {
    "tree": "c2aa3fb9e689ac0ddf2d918f2582865831d29c48692ad80f9a3f22206e125d8f",
    "forest": "ae0c8ce66b758f45b2864805e103f648bace449da8a0500a92a829532ad1d6f2",
    "boosted": "1fb06ebbe46168dbd1929395cc7629e1da6bafd629d1e7f2837a4630c633d84c",
}


def test_tree_model_docs_are_pinned(aug2700):
    train, _ = split(aug2700, SplitSpec())
    X, y, _ = fit_transform(train)
    models = {
        "tree": fit_tree(X, y),
        "forest": fit_forest(X, y, n_trees=10, seed=7),
        "boosted": fit_boosted(X, y, n_stages=20),
    }
    digests = {
        name: hashlib.sha256(
            json.dumps(model.to_doc(), sort_keys=True).encode()
        ).hexdigest()
        for name, model in models.items()
    }
    assert digests == MODEL_DOC_DIGESTS


# The same for fits of the default sizes on that split. The 100-tree forest
# grows more than one lockstep group of trees and searches blocks at the
# cell bound, which the 10-tree pin never reaches.
DEFAULT_SIZE_DOC_DIGESTS = {
    "forest": "a3049dd731b66541d7897fa85164269fb88ab4983d418945a91773b9ba28b6b6",
    "boosted": "8010069e5f0b56ef1e3391f47bbbf6529e6e58dfada026aba6d660526fabcd12",
}


def test_default_size_docs_are_pinned(aug2700):
    train, _ = split(aug2700, SplitSpec())
    X, y, _ = fit_transform(train)
    models = {
        "forest": fit_forest(X, y, n_trees=100, seed=7),
        "boosted": fit_boosted(X, y, n_stages=200),
    }
    digests = {
        name: hashlib.sha256(doc_bytes(model)).hexdigest() for name, model in models.items()
    }
    assert digests == DEFAULT_SIZE_DOC_DIGESTS


def test_forest_transient_memory_is_bounded(aug2700):
    # The largest split searches are the first ones, of every root. They are
    # cut to blocks of _BLOCK_CELLS cells, and trees grow _GROUP_TREES at a
    # time: the transient peak (the peak less what the fit keeps) is about
    # 5.5 MB here. One block for all 100 roots at once peaked near 48 MB.
    train, _ = split(aug2700, SplitSpec())
    X, y, _ = fit_transform(train)
    tracemalloc.start()
    try:
        fit_forest(X, y, n_trees=100, seed=7, max_depth=2)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < 16e6, (peak, retained)


# Settings of the batched grower's block constants: the defaults, one node
# per block, blocks small enough that most steps cut and pad, and blocks of
# equal-size nodes only. Each puts node sizes on both sides of an edge.
BLOCK_EDGES = {
    "default": {},
    "one_node_per_block": {"_BLOCK_CELLS": 1},
    "small_blocks": {"_BLOCK_CELLS": 256, "_PAD_CELLS": 24, "_GROUP_TREES": 3},
    "no_padding": {"_PAD_CELLS": 0},
}


def growth_problem(kind, n, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        return rng.normal(size=(n, d)), rng.normal(size=n)
    # Integer values: many tied feature values and tied targets.
    X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    if kind == "ties":
        return X, rng.integers(0, 6, size=n).astype(np.float64)
    if kind == "constant_subtrees":
        return X, np.where(X[:, 0] < 2, 3.0, rng.normal(size=n))
    return X, np.full(n, 2.5)  # one target value: every tree is a leaf


GROWTH_PROBLEMS = ["continuous", "ties", "constant_subtrees", "constant"]


class TestBatchedGrowthMatchesPerNodeGrowth:
    """Every fit's document is byte for byte the one the per-node grower of
    ``oracles`` gives, one split search and one partition per node."""

    @pytest.fixture(params=list(BLOCK_EDGES))
    def edges(self, request, monkeypatch):
        for name, value in BLOCK_EDGES[request.param].items():
            monkeypatch.setattr(classical, name, value)

    @pytest.mark.parametrize("kind", GROWTH_PROBLEMS)
    def test_tree(self, edges, kind):
        X, y = growth_problem(kind, 70, 4, seed=40)
        for min_samples_leaf in (1, 2, 3):
            for max_depth in (None, 0, 1, 4):
                assert doc_bytes(fit_tree(X, y, max_depth, min_samples_leaf)) == doc_bytes(
                    _grow_tree(X, y, max_depth, min_samples_leaf)
                ), (min_samples_leaf, max_depth)

    @pytest.mark.parametrize("kind", GROWTH_PROBLEMS)
    def test_forest(self, edges, kind):
        X, y = growth_problem(kind, 50, 4, seed=41)
        # (n_feature_subset, bootstrap, min_samples_leaf, max_depth); a
        # subset of d or more searches every feature.
        for subset, bootstrap, leaf, depth in [
            (1, True, 1, None), (2, True, 2, 3), (3, False, 3, None), (4, True, 1, 2),
            (6, False, 2, None), (2, True, 1, 0), (1, False, 2, 1),
        ]:
            params = dict(n_trees=7, n_feature_subset=subset, seed=3, max_depth=depth,
                          min_samples_leaf=leaf, bootstrap=bootstrap)
            assert doc_bytes(fit_forest(X, y, **params)) == doc_bytes(
                loop_fit_forest(X, y, **params)
            ), params

    @pytest.mark.parametrize("kind", GROWTH_PROBLEMS)
    def test_boosting(self, edges, kind):
        X, y = growth_problem(kind, 60, 3, seed=42)
        for leaf, depth in [(1, 3), (2, None), (3, 1), (1, 0)]:
            params = dict(n_stages=4, learning_rate=0.5, max_depth=depth, min_samples_leaf=leaf)
            assert doc_bytes(fit_boosted(X, y, **params)) == doc_bytes(
                loop_fit_boosted(X, y, **params)
            ), params

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_more_trees_than_the_lockstep_group(self, bootstrap):
        # A subset of every feature grows each group's roots a level at a
        # time, in one call.
        X, y = growth_problem("ties", 40, 5, seed=43)
        for subset in (None, 5):
            params = dict(n_trees=classical._GROUP_TREES + 5, n_feature_subset=subset, seed=9,
                          bootstrap=bootstrap)
            assert doc_bytes(fit_forest(X, y, **params)) == doc_bytes(
                loop_fit_forest(X, y, **params)
            ), params


@pytest.mark.parametrize("fit", [
    lambda X, y: fit_tree(X, y),
    lambda X, y: fit_boosted(X, y, n_stages=5),
    lambda X, y: fit_forest(X, y, n_trees=classical._GROUP_TREES + 5),
    lambda X, y: fit_forest(X, y, n_trees=classical._GROUP_TREES + 5, n_feature_subset=5),
], ids=["tree", "boosting", "forest", "forest_every_feature"])
def test_a_fit_builds_its_cell_tables_once(monkeypatch, fit):
    # Boosting built its padded value table every stage, and a forest every
    # group of trees.
    X, y = growth_problem("ties", 40, 5, seed=44)
    calls = []
    cells = classical._cells
    monkeypatch.setattr(classical, "_cells", lambda X: calls.append(X.shape) or cells(X))
    fit(X, y)
    assert calls == [X.shape]


class TestForest:
    def test_single_tree_no_bootstrap_equals_tree(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(80, 4))
        y = rng.normal(size=80)
        forest = fit_forest(X, y, n_trees=1, bootstrap=False, n_feature_subset=4)
        tree = fit_tree(X, y)
        np.testing.assert_array_equal(forest.predict(X), tree.predict(X))

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        a = fit_forest(X, y, n_trees=10, seed=5)
        b = fit_forest(X, y, n_trees=10, seed=5)
        c = fit_forest(X, y, n_trees=10, seed=6)
        Xq = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(a.predict(Xq), b.predict(Xq))
        assert not np.array_equal(a.predict(Xq), c.predict(Xq))

    def test_prediction_is_tree_mean(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        forest = fit_forest(X, y, n_trees=7, seed=0)
        Xq = rng.normal(size=(10, 3))
        expected = np.mean([t.predict(Xq) for t in forest.trees], axis=0)
        np.testing.assert_allclose(forest.predict(Xq), expected, atol=1e-12)

    @pytest.mark.parametrize("n_y", [5, 20])
    def test_y_of_another_length_than_X_is_a_domain_error(self, n_y):
        # 5 values once raised IndexError from a bootstrap draw; 20 were cut
        # to the first 10 without a word.
        with pytest.raises(InvalidArgumentError, match="one value per row"):
            fit_forest(np.zeros((10, 2)), np.arange(n_y, dtype=float), n_trees=2)

    def test_default_feature_subset(self):
        X = np.zeros((10, 9))
        y = np.arange(10.0)
        forest = fit_forest(X, y, n_trees=1)
        assert forest.n_feature_subset == 3  # d // 3

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        forest = fit_forest(X, y, n_trees=5, seed=1)
        restored = ForestModel.from_doc(forest.to_doc())
        np.testing.assert_array_equal(forest.predict(X), restored.predict(X))


class TestBoosting:
    def test_single_full_stage_interpolates(self):
        # One stage, eta = 1, unlimited depth: residuals hit zero on
        # distinct-row data.
        rng = np.random.default_rng(30)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        model = fit_boosted(X, y, n_stages=1, learning_rate=1.0,
                            max_depth=None, min_samples_leaf=1)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-10)

    def test_training_curve_monotone(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(100, 4))
        y = X[:, 0] * 2 + np.sin(X[:, 1]) + rng.normal(scale=0.1, size=100)
        model = fit_boosted(X, y, n_stages=50)
        curve = np.asarray(model.train_mse_curve)
        assert len(curve) == 50
        assert np.all(np.diff(curve) <= 1e-12)

    def test_initial_is_mean(self):
        y = np.array([1.0, 3.0, 5.0])
        model = fit_boosted(np.zeros((3, 1)), y, n_stages=1)
        assert model.initial == pytest.approx(3.0)

    def test_round_trip(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        model = fit_boosted(X, y, n_stages=10)
        restored = BoostedModel.from_doc(model.to_doc())
        np.testing.assert_array_equal(model.predict(X), restored.predict(X))

    @pytest.mark.parametrize("source", ["paper", "deep"])
    def test_curve_is_rebuilt_from_each_stage_predict(self, source, request):
        # A training row that a stage's predict routes meets the tests it met
        # while the stage grew, on the same float64 values, so it lands in
        # the leaf whose mean it helped form: the curve is equal bit for bit.
        if source == "paper":
            train, _ = split(request.getfixturevalue("aug2700"), SplitSpec())
            X, y, _ = fit_transform(train)
            params = dict(n_stages=20)
        else:
            X, y = growth_problem("ties", 120, 4, seed=34)
            params = dict(n_stages=20, max_depth=None, min_samples_leaf=1)
        model = fit_boosted(X, y, **params)
        pred = np.full(len(y), model.initial)
        curve = []
        for stage in model.stages:
            pred = pred + model.learning_rate * stage.predict(X)
            curve.append(float(np.mean((y - pred) ** 2)))
        assert model.train_mse_curve == curve

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            fit_boosted(np.zeros((4, 1)), np.zeros(4), learning_rate=0.0)
        with pytest.raises(InvalidArgumentError):
            fit_boosted(np.zeros((4, 1)), np.zeros(4), n_stages=0)


class TestKnn:
    def test_k1_memorizes(self):
        rng = np.random.default_rng(40)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = fit_knn(X, y, k=1)
        np.testing.assert_array_equal(model.predict(X), y)

    def test_kn_is_global_mean(self):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        model = fit_knn(X, y, k=25)
        np.testing.assert_allclose(model.predict(X), np.full(25, y.mean()), atol=1e-12)

    def test_distance_tie_goes_to_lower_index(self):
        X = np.array([[0.0], [2.0], [2.0]])
        y = np.array([0.0, 10.0, 20.0])
        model = fit_knn(X, y, k=2)
        # Query at 2.0: rows 1 and 2 tie at distance 0; stable order keeps
        # them ahead of row 0 and in index order.
        assert model.predict(np.array([[2.0]]))[0] == pytest.approx(15.0)
        # Query at 1.0: all three rows are at distance 1 or 1; rows 0,1 win.
        assert model.predict(np.array([[1.0]]))[0] == pytest.approx(5.0)

    def test_small_case_oracle(self):
        X = np.array([[0.0], [1.0], [4.0], [5.0]])
        y = np.array([0.0, 2.0, 8.0, 10.0])
        model = fit_knn(X, y, k=2)
        np.testing.assert_allclose(
            model.predict(np.array([[0.4], [4.6]])), [1.0, 9.0]
        )

    @staticmethod
    def grid_problem():
        rng = np.random.default_rng(43)
        # Repeated training rows on an integer grid: many exactly tied
        # distances, which must still go to the lower training-row index.
        X = np.repeat(rng.integers(0, 3, size=(40, 2)).astype(np.float64), 3, axis=0)
        y = rng.normal(size=len(X))
        Xq = rng.integers(0, 3, size=(2 * KNN_CHUNK_ROWS + 5, 2)).astype(np.float64)
        # The grid centre has a tie across the k-th place for k < n_train.
        return X, y, np.vstack([Xq, [[1.0, 1.0]]])

    @staticmethod
    def paper_problem(aug2700):
        # The augmented default split: the six demographic copies of each
        # session differ only in their profile, so distances tie.
        train, test = split(aug2700, SplitSpec())
        X, y, fitted = fit_transform(train)
        return X, y, transform(test, fitted)[0]

    @pytest.mark.parametrize("source, k", [
        pytest.param("grid", 1, id="1"),
        pytest.param("grid", 7, id="7"),
        pytest.param("grid", 120, id="120"),
        pytest.param("aug2700", 5, id="aug2700"),
    ])
    def test_chunked_matches_per_row_reference_on_ties(self, source, k, request):
        if source == "grid":
            X, y, Xq = self.grid_problem()
        else:
            X, y, Xq = self.paper_problem(request.getfixturevalue("aug2700"))
        # A NaN feature makes every distance of its row NaN: no k nearest.
        nan_row = np.full((1, X.shape[1]), 1.0)
        nan_row[0, 0] = np.nan
        Xq = np.vstack([Xq, nan_row])
        model = fit_knn(X, y, k=k)
        d2 = (
            np.sum(Xq**2, axis=1)[:, None]
            - 2.0 * Xq @ X.T
            + np.sum(X**2, axis=1)[None, :]
        )
        if k < len(X):
            ranked = np.sort(d2[:-1], axis=1)
            assert np.any(ranked[:, k - 1] == ranked[:, k])
        expected = np.array(
            [np.mean(y[np.argsort(row, kind="stable")[:k]]) for row in d2[:-1]] + [np.nan]
        )
        np.testing.assert_array_equal(model.predict(Xq), expected)

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        model = fit_knn(X, y, k=3)
        restored = KnnModel.from_doc(model.to_doc())
        np.testing.assert_array_equal(model.predict(X), restored.predict(X))

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            fit_knn(np.zeros((5, 1)), np.zeros(5), k=0)
        with pytest.raises(InvalidArgumentError):
            fit_knn(np.zeros((5, 1)), np.zeros(5), k=6)


@pytest.mark.parametrize("fit", [fit_linear, fit_tree, fit_forest, fit_boosted, fit_knn])
@pytest.mark.parametrize("where, value", [
    ("X", np.nan), ("X", np.inf), ("y", np.nan), ("y", -np.inf),
])
def test_fit_rejects_values_that_are_not_finite(fit, where, value):
    # One NaN in X once made fit_linear return a model that predicted NaN
    # for every row, without an error.
    rng = np.random.default_rng(0)
    data = {"X": rng.normal(size=(20, 3)), "y": rng.normal(size=20)}
    data[where].reshape(-1)[7] = value
    with pytest.raises(InvalidArgumentError, match=f"{where}(_train)? holds a value that is not finite"):
        fit(data["X"], data["y"])
