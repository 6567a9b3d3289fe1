"""The model registry, param checking, and versioned model documents."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qoe_forge import classical
from qoe_forge.errors import InvalidArgumentError, QoeForgeError
from qoe_forge.model_io import (
    ALL_KINDS,
    MODELS,
    PARAM_TYPES,
    SCHEMA_VERSION,
    load_model,
    model_from_doc,
    model_params,
    model_to_doc,
    save_model,
    train_model,
)
from qoe_forge.preprocessing import SplitSpec, fit_transform, split

FAST_PARAMS = {
    "random_forest": {"n_trees": 5},
    "gradient_boosting": {"n_stages": 10},
    "mlp": {"hidden": (8,), "dropout": 0.0, "batch_size": 32, "epochs": 3},
    "attention_mlp": {
        "hidden": (8,),
        "attention_hidden": 8,
        "dropout": 0.0,
        "batch_size": 32,
        "epochs": 3,
    },
    "tabnet": {"step_dim": 8, "batch_size": 32, "virtual_batch": 16, "max_epochs": 3},
}


def small_problem():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(64, 4))
    y = 50.0 + 8.0 * X[:, 0] + rng.normal(scale=0.5, size=64)
    return X, y


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_round_trip_predictions(kind, tmp_path):
    X, y = small_problem()
    model = train_model(kind, X, y, FAST_PARAMS.get(kind), seed=7)
    path = tmp_path / f"{kind}.json"
    save_model(path, kind, model)
    loaded_kind, loaded, pre = load_model(path)
    assert loaded_kind == kind
    assert pre is None
    np.testing.assert_array_equal(model.predict(X), loaded.predict(X))


def test_document_is_json_with_version(tmp_path):
    X, y = small_problem()
    model = train_model("decision_tree", X, y, None, seed=0)
    path = tmp_path / "m.json"
    save_model(path, "decision_tree", model)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["kind"] == "decision_tree"


def test_embedded_preprocessor_round_trip(base450, tmp_path):
    X, y, fitted = fit_transform(base450)
    model = train_model("linear_regression", X, y, None, seed=0)
    path = tmp_path / "m.json"
    save_model(path, "linear_regression", model, fitted)
    _, loaded, pre = load_model(path)
    assert pre is not None
    assert pre.feature_columns == fitted.feature_columns
    np.testing.assert_array_equal(model.predict(X), loaded.predict(X))


def test_unknown_kind_rejected():
    X, y = small_problem()
    with pytest.raises(InvalidArgumentError):
        train_model("svm", X, y, None, seed=0)
    with pytest.raises(InvalidArgumentError):
        model_from_doc({"schema_version": SCHEMA_VERSION, "kind": "svm", "state": {}})


def test_training_deterministic_in_seed():
    X, y = small_problem()
    for kind in ("random_forest", "mlp", "tabnet"):
        a = train_model(kind, X, y, FAST_PARAMS.get(kind), seed=3)
        b = train_model(kind, X, y, FAST_PARAMS.get(kind), seed=3)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))


def test_doc_round_trip_without_files():
    X, y = small_problem()
    model = train_model("knn", X, y, {"k": 3}, seed=0)
    doc = model_to_doc("knn", model)
    _, restored, _ = model_from_doc(doc)
    np.testing.assert_array_equal(model.predict(X), restored.predict(X))


# Documents saved by an earlier release (schema version 1), one small model
# per kind; the classical ones were fit on 12 features. Each must load and
# save back to the same bytes.
V1_DOCS = Path(__file__).parent / "data" / "model_docs_v1.json"


def test_schema_v1_documents_reload_byte_identical():
    docs = json.loads(V1_DOCS.read_text())
    assert tuple(docs) == tuple(sorted(ALL_KINDS))
    for kind, doc in docs.items():
        loaded_kind, model, pre = model_from_doc(doc)
        assert loaded_kind == kind
        assert isinstance(model, MODELS[kind].model)
        again = model_to_doc(kind, model, pre)
        assert json.dumps(again, sort_keys=True) == json.dumps(doc, sort_keys=True), kind
        X = np.zeros((2, doc.get("n_features", 12)))
        assert np.isfinite(model.predict(X)).all()


# sha256 of the save_model bytes of each network fit on small_problem() with
# these params. Dropout is on, and tabnet stops early (5 of 40 epochs), so its
# document holds the weights restored from its best epoch. Training
# arithmetic and the state format must keep these documents byte for byte.
NET_PIN_PARAMS = {
    "mlp": {"hidden": (8,), "batch_size": 32, "epochs": 3},
    "attention_mlp": {"hidden": (8,), "attention_hidden": 8, "batch_size": 32, "epochs": 3},
    "tabnet": {"step_dim": 8, "batch_size": 32, "virtual_batch": 16, "max_epochs": 40,
               "patience": 2, "learning_rate": 0.2},
}
NET_DOC_DIGESTS = {
    "mlp": "abeffb65a60a7810c87a78740895dcb0f1b95b82e20f4872e0b209dd9cf3a7f9",
    "attention_mlp": "128ea06f6a8250bd9b4ed72bbfee339a3d4e773a1318b6c2306811e0dbb0bd70",
    "tabnet": "a43c93d32e6c859668e6c2e6033056f1c14c8234543006d90c86e84778e4df86",
}


def test_network_documents_are_pinned(tmp_path):
    X, y = small_problem()
    digests = {}
    for kind, params in NET_PIN_PARAMS.items():
        model = train_model(kind, X, y, params, seed=7)
        path = tmp_path / f"{kind}.json"
        save_model(path, kind, model)
        digests[kind] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert model.epochs_run < NET_PIN_PARAMS["tabnet"]["max_epochs"]
    assert digests == NET_DOC_DIGESTS


# sha256 of the save_model bytes of a linear model with its embedded
# preprocessor, fit on the augmented training split of the paper corpus. The
# preprocessor document layout must stay byte for byte.
PREPROCESSOR_DOC_DIGEST = "9cbf0895846dbae091177b0a43f54af5786ba575a3d3149298c6ddfeae1c1521"


def test_preprocessor_document_is_pinned(aug2700, tmp_path):
    train, _ = split(aug2700, SplitSpec())
    X, y, fitted = fit_transform(train)
    model = train_model("linear_regression", X, y, None, seed=0)
    path = tmp_path / "m.json"
    save_model(path, "linear_regression", model, fitted)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PREPROCESSOR_DOC_DIGEST


def plan_doc(width: int) -> dict:
    """A preprocessor document of ``width`` standardized features."""
    names = [f"x{j}" for j in range(width)]
    return {"feature_columns": names, "encoders": {},
            "scaler": {"columns": names, "mean": dict.fromkeys(names, 0.0),
                       "std": dict.fromkeys(names, 1.0)},
            "target_column": "mos"}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_model_and_preprocessor_widths_must_agree(kind):
    # y follows the last of four features, so every tree kind splits on it.
    X, _ = small_problem()
    y = 50.0 + 8.0 * X[:, 3]
    doc = model_to_doc(kind, train_model(kind, X, y, FAST_PARAMS.get(kind), seed=7))
    model_from_doc({**doc, "preprocessor": plan_doc(4)})
    with pytest.raises(InvalidArgumentError, match=f"{kind} model does not read 3 feature"):
        model_from_doc({**doc, "preprocessor": plan_doc(3)})


def test_tree_split_on_a_negative_feature_is_rejected():
    root = {"feature": -1, "threshold": 0.0, "left": {"value": 0.0}, "right": {"value": 1.0}}
    doc = {"schema_version": SCHEMA_VERSION, "kind": "decision_tree",
           "state": {"root": root, "max_depth": None, "min_samples_leaf": 1},
           "preprocessor": plan_doc(2)}
    with pytest.raises(InvalidArgumentError, match="does not read 2 feature"):
        model_from_doc(doc)


class TestRegistry:
    def test_kinds_are_the_table_rows(self):
        assert ALL_KINDS == tuple(MODELS) == tuple(PARAM_TYPES)
        assert len(ALL_KINDS) == 8

    def test_declared_params(self):
        mlp = {"hidden": "tuple[int, ...]", "attention_hidden": "int", "dropout": "float",
               "learning_rate": "float", "batch_size": "int", "epochs": "int"}
        tree = {"max_depth": "int | None", "min_samples_leaf": "int"}
        assert PARAM_TYPES == {
            "linear_regression": {"ridge_jitter": "float"},
            # a tree's rng argument is not settable by name
            "decision_tree": {**tree, "n_feature_subset": "int | None"},
            "random_forest": {"n_trees": "int", "n_feature_subset": "int | None",
                              "seed": "int", **tree, "bootstrap": "bool"},
            "gradient_boosting": {"n_stages": "int", "learning_rate": "float", **tree},
            "knn": {"k": "int"},
            "mlp": mlp,
            "attention_mlp": mlp,
            "tabnet": {"n_steps": "int", "relaxation": "float", "sparsity": "float",
                       "step_dim": "int", "batch_size": "int", "virtual_batch": "int",
                       "max_epochs": "int", "patience": "int", "learning_rate": "float",
                       "validation_fraction": "float"},
        }

    def test_forest_seed_defaults_to_the_run_seed(self):
        X, y = small_problem()
        a = train_model("random_forest", X, y, {"n_trees": 3}, seed=11)
        b = classical.fit_forest(X, y, n_trees=3, seed=11)
        assert a.to_doc() == b.to_doc()
        c = train_model("random_forest", X, y, {"n_trees": 3, "seed": 11}, seed=0)
        assert c.to_doc() == b.to_doc()


class TestModelParams:
    @pytest.mark.parametrize("kind, raw, expected", [
        ("mlp", {"hidden": "64,32"}, {"hidden": (64, 32)}),
        ("mlp", {"hidden": 16}, {"hidden": (16,)}),
        ("mlp", {"hidden": [8, 4]}, {"hidden": (8, 4)}),
        ("decision_tree", {"max_depth": "none"}, {"max_depth": None}),
        ("decision_tree", {"max_depth": "None"}, {"max_depth": None}),
        ("decision_tree", {"max_depth": None}, {"max_depth": None}),
        ("decision_tree", {"max_depth": np.int64(4)}, {"max_depth": 4}),
        ("random_forest", {"bootstrap": False, "n_trees": 3}, {"bootstrap": False, "n_trees": 3}),
        ("gradient_boosting", {"learning_rate": 1}, {"learning_rate": 1.0}),
        ("knn", None, {}),
    ])
    def test_converts_to_the_declared_type(self, kind, raw, expected):
        got = model_params(kind, raw)
        assert got == expected
        assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]

    @pytest.mark.parametrize("kind, raw, key", [
        ("knn", {"kk": 3}, "models.knn.kk"),
        ("knn", {"k": "abc"}, "models.knn.k"),
        ("knn", {"k": True}, "models.knn.k"),
        ("random_forest", {"n_trees": 2.5}, "models.random_forest.n_trees"),
        ("random_forest", {"bootstrap": "no"}, "models.random_forest.bootstrap"),
        ("mlp", {"hidden": "a,b"}, "models.mlp.hidden"),
        ("mlp", {"hidden": ""}, "models.mlp.hidden"),
        ("mlp", {"hidden": ()}, "models.mlp.hidden"),
        ("gradient_boosting", {"learning_rate": "fast"}, "models.gradient_boosting.learning_rate"),
        ("decision_tree", {"rng": None}, "models.decision_tree.rng"),
        ("svm", {"k": 3}, "models.svm"),
    ])
    def test_bad_name_or_value_names_the_key(self, kind, raw, key):
        with pytest.raises(InvalidArgumentError, match=f"^{key}[:;]"):
            model_params(kind, raw)
        X, y = small_problem()
        with pytest.raises(InvalidArgumentError):
            train_model(kind, X, y, raw, seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan/inf probes
    def test_out_of_range_values_are_domain_errors(self):
        X, y = small_problem()
        base = {**FAST_PARAMS, "random_forest": {"n_trees": 2},
                "gradient_boosting": {"n_stages": 2}}
        probes = {"int": [-1, 0], "int | None": [-1, 0], "bool": [False],
                  "float": [-1.0, 0.0, float("nan"), float("inf")],
                  "tuple[int, ...]": [(0,), (-1,)]}
        for kind, declared in PARAM_TYPES.items():
            for name, annotation in declared.items():
                for value in probes[annotation]:
                    params = {**base.get(kind, {}), name: value}
                    try:
                        train_model(kind, X, y, params, seed=1).predict(X)
                    except QoeForgeError:
                        pass

    def test_feature_subset_of_a_single_tree_needs_an_rng(self):
        X, y = small_problem()
        with pytest.raises(InvalidArgumentError, match="rng"):
            train_model("decision_tree", X, y, {"n_feature_subset": 2}, seed=0)
        train_model("decision_tree", X, y, {"n_feature_subset": 4}, seed=0)


@pytest.mark.parametrize("text, message", [
    ("not json\n", "not a JSON model document"),
    ("[1, 2]\n", "not a JSON object"),
    ('{"schema_version": 1, "state": {}}\n', "unknown model kind None"),
    ('{"schema_version": 1, "kind": "knn"}\n', "no field 'state'"),
    ('{"schema_version": 1, "kind": "mlp", "config": {}, "n_features": 2}\n',
     "no field 'state'"),
    ('{"schema_version": 1, "kind": "knn", "state": []}\n', "malformed knn"),
    ('{"schema_version": 1, "kind": "mlp", "config": {"hidden": "x"}, '
     '"n_features": 2, "state": {}}\n', "models.mlp.hidden"),
    ('{"schema_version": 2, "kind": "knn", "state": {}}\n', "version 2"),
])
def test_bad_model_documents_are_domain_errors(tmp_path, text, message):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(InvalidArgumentError, match=message):
        load_model(path)


def test_non_utf8_model_file_is_a_domain_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(InvalidArgumentError, match="not a JSON model document"):
        load_model(path)


@pytest.mark.parametrize("entry, value", [
    (("norm", "attentive0", "running_mean"), [0.0, 0.0]),
    (("params", "head.W", "shape"), [1, 8]),
])
def test_network_state_of_the_wrong_shape_is_a_domain_error(entry, value):
    X, y = small_problem()
    doc = model_to_doc("tabnet", train_model("tabnet", X, y, FAST_PARAMS["tabnet"], seed=0))
    *path, key = entry
    target = doc["state"]
    for part in path:
        target = target[part]
    target[key] = value
    with pytest.raises(InvalidArgumentError, match="has shape"):
        model_from_doc(doc)


def test_deeply_nested_model_file_is_a_domain_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[" * 100000 + "]" * 100000 + "\n")
    with pytest.raises(InvalidArgumentError, match="nested too deeply"):
        load_model(path)


def test_deeply_nested_model_document_is_a_domain_error():
    # Built bottom-up: a chain of 5000 splits, deeper than the decoder recurses.
    root = {"value": 0.0}
    for _ in range(5000):
        root = {"feature": 0, "threshold": 0.5, "left": root, "right": {"value": 1.0}}
    doc = {"schema_version": SCHEMA_VERSION, "kind": "decision_tree",
           "state": {"root": root, "max_depth": None, "min_samples_leaf": 1}}
    with pytest.raises(InvalidArgumentError, match="nested too deeply"):
        model_from_doc(doc)


def test_tree_too_deep_to_save_is_a_domain_error_and_writes_nothing(tmp_path):
    # Doubling targets make every split peel off one row: a 2700-deep chain.
    X = np.arange(3000.0)[:, None]
    y = 2.0 ** (np.arange(3000) - 2950)
    model = classical.fit_tree(X, y, max_depth=None, min_samples_leaf=1)
    path = tmp_path / "m.json"
    with pytest.raises(QoeForgeError, match="too deep to save"):
        save_model(path, "decision_tree", model)
    assert not path.exists()
