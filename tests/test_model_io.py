"""The model registry, param checking, and versioned model documents."""

import base64
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from oracles import v1_document_bytes, v1_model_doc

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
from qoe_forge.params import decode_array, encode_array
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
# write back to the same bytes through the version-1 writer, and a version-2
# copy must predict bit for bit as the version-1 document does.
V1_DOCS = Path(__file__).parent / "data" / "model_docs_v1.json"


def test_schema_v1_documents_reload_byte_identical():
    docs = json.loads(V1_DOCS.read_text())
    assert tuple(docs) == tuple(sorted(ALL_KINDS))
    X = np.random.default_rng(0).normal(size=(50, 12))
    for kind, doc in docs.items():
        loaded_kind, model, pre = model_from_doc(doc)
        assert loaded_kind == kind
        assert isinstance(model, MODELS[kind].model)
        again = v1_model_doc(kind, model, pre)
        assert json.dumps(again, sort_keys=True) == json.dumps(doc, sort_keys=True), kind
        Xk = X[:, :doc.get("n_features", 12)]
        assert np.isfinite(model.predict(Xk)).all()
        v2 = json.loads(json.dumps(model_to_doc(kind, model, pre)))
        assert v2["schema_version"] == 2
        _, upgraded, _ = model_from_doc(v2)
        assert model.predict(Xk).tobytes() == upgraded.predict(Xk).tobytes(), kind


# sha256 of the document bytes of each network fit on small_problem() with
# these params: as version 1 wrote them (``oracles.v1_document_bytes``) and as
# save_model writes them. Dropout is on, and tabnet stops early (5 of 40
# epochs), so its document holds the weights restored from its best epoch.
# Training arithmetic must keep the version-1 documents byte for byte, and the
# state format the version-2 ones.
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
NET_DOC_V2_DIGESTS = {
    "mlp": "a410078929e5855315b8e74478751aaf0b22abd93c8737b94b691dda220fcb60",
    "attention_mlp": "160d142d655db8446de024b4c9ba794e822c053c948b04260ba9a446cb67d0ea",
    "tabnet": "3c6e127ffdd1e7c52bf1e4f691ac8f19105707fca59f1fea9ad5d756bc9a69b4",
}


def test_network_documents_are_pinned(tmp_path):
    X, y = small_problem()
    digests, v2_digests = {}, {}
    for kind, params in NET_PIN_PARAMS.items():
        model = train_model(kind, X, y, params, seed=7)
        digests[kind] = hashlib.sha256(v1_document_bytes(kind, model)).hexdigest()
        path = tmp_path / f"{kind}.json"
        save_model(path, kind, model)
        v2_digests[kind] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert model.epochs_run < NET_PIN_PARAMS["tabnet"]["max_epochs"]
    assert digests == NET_DOC_DIGESTS
    assert v2_digests == NET_DOC_V2_DIGESTS


# sha256 of the document bytes of a linear model with its embedded
# preprocessor, fit on the augmented training split of the paper corpus, as
# version 1 wrote them and as save_model writes them. The preprocessor
# document layout must stay byte for byte.
PREPROCESSOR_DOC_DIGEST = "9cbf0895846dbae091177b0a43f54af5786ba575a3d3149298c6ddfeae1c1521"
PREPROCESSOR_DOC_V2_DIGEST = "9d57fb341c2506189498dcd8d5e9f69bb7f2c4c2a3ebf74cf7fb25790f12de1e"


def test_preprocessor_document_is_pinned(aug2700, tmp_path):
    train, _ = split(aug2700, SplitSpec())
    X, y, fitted = fit_transform(train)
    model = train_model("linear_regression", X, y, None, seed=0)
    v1_bytes = v1_document_bytes("linear_regression", model, fitted)
    assert hashlib.sha256(v1_bytes).hexdigest() == PREPROCESSOR_DOC_DIGEST
    path = tmp_path / "m.json"
    save_model(path, "linear_regression", model, fitted)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PREPROCESSOR_DOC_V2_DIGEST


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
    # Without a preprocessor to check the width against, -1 read the last
    # column; the split itself is rejected now, with or without one.
    root = {"feature": -1, "threshold": 0.0, "left": {"value": 0.0}, "right": {"value": 1.0}}
    doc = {"schema_version": SCHEMA_VERSION, "kind": "decision_tree",
           "state": {"root": root, "max_depth": None, "min_samples_leaf": 1}}
    for extra in ({}, {"preprocessor": plan_doc(2)}):
        with pytest.raises(InvalidArgumentError, match="feature must be >= 0, got -1"):
            model_from_doc({**doc, **extra})


def coded_plan_doc() -> dict:
    """A preprocessor document of four features, the first label-coded."""
    doc = plan_doc(4)
    doc["encoders"] = {"x0": {"a": 0, "b": 1}}
    for part in ("mean", "std"):
        del doc["scaler"][part]["x0"]
    return doc


# Each of these loaded before: ``int()`` and ``float()`` took a float, a
# bool or a numeric string, and a split on feature ``true`` read column 1.
# Every value is in range, so no later check caught it. The cases run on
# version-1 documents, whose arrays are JSON numbers.
@pytest.mark.parametrize("kind, path, value, message", [
    ("decision_tree", ("state", "root", "feature"), 2.5, r"feature: expected int, got 2\.5"),
    ("decision_tree", ("state", "root", "feature"), True, r"feature: expected int, got True"),
    ("decision_tree", ("state", "root", "feature"), "2", r"feature: expected int, got '2'"),
    ("decision_tree", ("state", "root", "threshold"), "0.5",
     r"threshold must be a number, got '0\.5'"),
    ("decision_tree", ("state", "root", "threshold"), True,
     r"threshold must be a number, got True"),
    ("decision_tree", ("preprocessor", "encoders", "x0", "b"), 1.5,
     r"column 'x0' label code: expected int, got 1\.5"),
    ("decision_tree", ("preprocessor", "encoders", "x0", "b"), True,
     r"column 'x0' label code: expected int, got True"),
    ("decision_tree", ("preprocessor", "scaler", "mean", "x1"), "0.5",
     r"column 'x1' mean must be a number, got '0\.5'"),
    ("decision_tree", ("preprocessor", "scaler", "std", "x2"), True,
     r"column 'x2' std must be a number, got True"),
    ("mlp", ("n_features",), 4.5, r"n_features: expected int, got 4\.5"),
    # Arrays went through ``np.asarray(..., dtype=np.float64)`` and the
    # target scaler through ``float()``.
    ("linear_regression", ("state", "coef", 0), "1.5", r"coef\[0\] must be a number, got '1\.5'"),
    ("linear_regression", ("state", "coef", 2), True, r"coef\[2\] must be a number, got True"),
    ("knn", ("state", "X_train", 5, 1), "7", r"X_train\[5, 1\] must be a number, got '7'"),
    ("knn", ("state", "X_train", 0, 3), False, r"X_train\[0, 3\] must be a number, got False"),
    ("knn", ("state", "y_train", 9), True, r"y_train\[9\] must be a number, got True"),
    ("mlp", ("state", "target_scaler", "mean"), "50.0",
     r"target_scaler\.mean must be a number, got '50\.0'"),
    ("mlp", ("state", "target_scaler", "std"), True,
     r"target_scaler\.std must be a number, got True"),
    ("mlp", ("state", "params", "hidden0.W", "data", 3), "0.5",
     r"state entry hidden0\.W\[3\] must be a number, got '0\.5'"),
    ("tabnet", ("state", "norm", "attentive0", "running_mean", 0), True,
     r"state entry attentive0\.running_mean\[0\] must be a number, got True"),
], ids=["feature-float", "feature-true", "feature-string", "threshold-string", "threshold-true",
        "code-float", "code-true", "mean-string", "std-true", "n_features-float",
        "coef-string", "coef-true", "knn-x-string", "knn-x-false", "knn-y-true",
        "scaler-mean-string", "scaler-std-true", "weight-string", "running-mean-true"])
def test_document_numbers_are_read_strictly(kind, path, value, message):
    X, y = small_problem()
    params = {**FAST_PARAMS, "decision_tree": {"max_depth": 1}}.get(kind)
    doc = v1_model_doc(kind, train_model(kind, X, y, params, seed=0))
    doc["preprocessor"] = coded_plan_doc()
    model_from_doc(doc)
    target = doc
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    with pytest.raises(InvalidArgumentError, match=message):
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
            "decision_tree": tree,
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

    @pytest.mark.parametrize("kind, raw, message", [
        # Each of these trained without error and left the model at its
        # random init, learning the inverse, or predicting a constant.
        ("tabnet", {"max_epochs": 0}, "max_epochs must be >= 1"),
        ("tabnet", {"learning_rate": 0.0}, "learning_rate must be > 0"),
        ("tabnet", {"virtual_batch": 1}, r"virtual batch must be in \[2, batch size\]"),
        ("mlp", {"learning_rate": 0.0}, "learning_rate must be > 0"),
        ("mlp", {"learning_rate": -0.01}, "learning_rate must be > 0"),
        ("attention_mlp", {"learning_rate": 0.0}, "learning_rate must be > 0"),
        ("decision_tree", {"max_depth": -1}, "max_depth must be None or >= 0"),
        ("random_forest", {"max_depth": -1}, "max_depth must be None or >= 0"),
        ("gradient_boosting", {"max_depth": -1}, "max_depth must be None or >= 0"),
    ], ids=["tabnet-max_epochs0", "tabnet-lr0", "tabnet-virtual_batch1", "mlp-lr0",
            "mlp-lr-0.01", "attention_mlp-lr0", "decision_tree-max_depth-1",
            "random_forest-max_depth-1", "gradient_boosting-max_depth-1"])
    def test_params_that_leave_a_model_untrained_are_domain_errors(self, kind, raw, message):
        X, y = small_problem()
        with pytest.raises(InvalidArgumentError, match=message):
            train_model(kind, X, y, {**FAST_PARAMS.get(kind, {}), **raw}, seed=0)

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
    ('{"schema_version": 3, "kind": "knn", "state": {}}\n', "version 3"),
    # Python's json reads these non-standard literals as floats: a NaN
    # threshold sent every row right, an infinite one every row left.
    *(
        ('{"schema_version": 1, "kind": "decision_tree", "state": {"root": '
         f'{{"feature": 0, "threshold": {literal}, "left": {{"value": 0.0}}, '
         '"right": {"value": 1.0}}, "max_depth": 1, "min_samples_leaf": 1}}\n',
         f"not a JSON model document: {literal} is not a JSON number")
        for literal in ("NaN", "Infinity", "-Infinity")
    ),
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


# Version-1 documents; test_encoded_array_faults_name_the_entry holds the
# version-2 case.
@pytest.mark.parametrize("entry, value", [
    (("norm", "attentive0", "running_mean"), [0.0, 0.0]),
    (("params", "head.W", "shape"), [1, 8]),
])
def test_network_state_of_the_wrong_shape_is_a_domain_error(entry, value):
    X, y = small_problem()
    doc = v1_model_doc("tabnet", train_model("tabnet", X, y, FAST_PARAMS["tabnet"], seed=0))
    *path, key = entry
    target = doc["state"]
    for part in path:
        target = target[part]
    target[key] = value
    with pytest.raises(InvalidArgumentError, match="has shape"):
        model_from_doc(doc)


# The cases run on version-1 documents, whose arrays are JSON numbers.
@pytest.mark.parametrize("kind, path, literal, message", [
    # A negative std scored with plcc -0.906 and a zero one scored a
    # constant; both exited 0.
    ("mlp", ("target_scaler", "std"), "-3.0",
     r"target_scaler\.std must be finite and > 0, got -3\.0"),
    ("mlp", ("target_scaler", "std"), "0.0",
     r"target_scaler\.std must be finite and > 0, got 0\.0"),
    # 1e400 decodes as an infinity, which was blamed on the input CSV.
    ("mlp", ("target_scaler", "std"), "1e400",
     r"target_scaler\.std must be finite and > 0, got inf"),
    ("mlp", ("target_scaler", "mean"), "1e400", r"target_scaler\.mean must be finite, got inf"),
    ("mlp", ("params", "hidden0.W", "data", 0), "1e400",
     r"state entry hidden0\.W holds a value that is not finite"),
    # A negative running variance warned and then blamed the input CSV.
    ("tabnet", ("norm", "attentive0", "running_var", 0), "-1.0",
     r"state entry attentive0\.running_var holds a value below 0"),
    ("tabnet", ("norm", "attentive0", "running_var", 0), "1e400",
     r"state entry attentive0\.running_var holds a value that is not finite"),
    ("tabnet", ("norm", "transform10", "running_mean", 0), "1e400",
     r"state entry transform10\.running_mean holds a value that is not finite"),
    ("linear_regression", ("intercept",), "1e400", r"intercept must be finite, got inf"),
    ("linear_regression", ("coef", 0), "-1e400", r"coef holds a value that is not finite"),
    # An infinite root threshold scored and exited 0.
    ("decision_tree", ("root", "threshold"), "1e400", r"threshold must be finite, got inf"),
    ("decision_tree", ("root", "left", "value"), "1e400", r"leaf value must be finite, got inf"),
    # An infinite int field was an OverflowError traceback.
    ("decision_tree", ("root", "feature"), "1e400", r"feature: expected int, got inf"),
    ("gradient_boosting", ("initial",), "1e400", r"initial must be finite, got inf"),
    ("gradient_boosting", ("learning_rate",), "1e400", r"learning_rate must be finite, got inf"),
    ("knn", ("X_train", 0, 0), "1e400", r"X_train holds a value that is not finite"),
    ("knn", ("y_train", 0), "1e400", r"y_train holds a value that is not finite"),
], ids=["mlp-std-neg", "mlp-std-zero", "mlp-std-inf", "mlp-mean-inf", "mlp-weight-inf",
        "tabnet-var-neg", "tabnet-var-inf", "tabnet-mean-inf", "linear-intercept-inf",
        "linear-coef-inf", "tree-threshold-inf", "tree-leaf-inf", "tree-feature-inf",
        "boosting-initial-inf", "boosting-rate-inf", "knn-x-inf", "knn-y-inf"])
def test_document_values_out_of_range_are_domain_errors(tmp_path, kind, path, literal, message):
    X, y = small_problem()
    params = {**FAST_PARAMS, "decision_tree": {"max_depth": 1}}.get(kind)
    doc = v1_model_doc(kind, train_model(kind, X, y, params, seed=0))
    target = doc["state"]
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = "LITERAL"
    model_file = tmp_path / "m.json"
    model_file.write_text(json.dumps(doc).replace('"LITERAL"', literal))
    with pytest.raises(InvalidArgumentError, match=message):
        load_model(model_file)


def _encoded(values, shape=None) -> dict:
    data = np.asarray(values, dtype="<f8")
    return {"shape": list(data.shape) if shape is None else shape,
            "base64": base64.b64encode(data.tobytes()).decode("ascii")}


def _bits(*words) -> list[float]:
    """Float64 values from their 64-bit patterns."""
    return np.array(words, dtype="<u8").view("<f8").tolist()


# Each fault of an encoded array in a version-2 document, with its entry.
@pytest.mark.parametrize("kind, path, entry, message", [
    ("mlp", ("params", "head.b"), {"shape": [1], "base64": "AAAA!AAAAAA="},
     r"state entry head\.b base64 is not valid"),
    ("mlp", ("params", "head.b"), {"shape": [1], "base64": "AAAAAAAAAA"},
     r"state entry head\.b base64 is not valid"),
    ("mlp", ("params", "head.b"), {"shape": [1], "base64": 0},
     r"state entry head\.b base64 is not valid"),
    ("knn", ("y_train",), _encoded(np.zeros(64), [63]),
     r"y_train holds 512 bytes, expected 8 per value of shape \(63,\)"),
    ("knn", ("X_train",), _encoded(np.zeros((64, 4)), [64, True]),
     r"X_train shape must be a list of ints >= 0, got \[64, True\]"),
    ("linear_regression", ("coef",), _encoded(np.zeros(4), [-4]),
     r"coef shape must be a list of ints >= 0, got \[-4\]"),
    ("linear_regression", ("coef",), _encoded(np.zeros(4), [4.0]),
     r"coef shape must be a list of ints >= 0, got \[4\.0\]"),
    ("linear_regression", ("coef",), [0.0, 0.0, 0.0, 0.0],
     r"coef must be an object of 'shape' and 'base64', got list"),
    # A quiet NaN, +inf and -inf by their bit patterns.
    ("mlp", ("params", "hidden0.W"), _encoded(_bits(0x7FF8000000000000) * 32, [4, 8]),
     r"state entry hidden0\.W holds a value that is not finite"),
    ("knn", ("X_train",), _encoded(_bits(0x7FF0000000000000) * 256, [64, 4]),
     r"X_train holds a value that is not finite"),
    ("tabnet", ("norm", "attentive0", "running_mean"),
     _encoded(_bits(0xFFF0000000000000) * 4),
     r"state entry attentive0\.running_mean holds a value that is not finite"),
    ("tabnet", ("norm", "attentive0", "running_var"), _encoded([1.0, -1.0, 1.0, 1.0]),
     r"state entry attentive0\.running_var holds a value below 0"),
    ("tabnet", ("params", "head.W"), _encoded(np.zeros((1, 8))),
     r"state entry head\.W has shape \(1, 8\), expected \(8, 1\)"),
    ("linear_regression", ("coef",), _encoded(np.zeros((2, 2))),
     r"coef must be 1-D, got shape \(2, 2\)"),
], ids=["base64-char", "base64-padding", "base64-number", "byte-count", "shape-bool",
        "shape-negative", "shape-float", "list-in-v2", "nan", "inf", "minus-inf",
        "running-var-negative", "layer-shape", "coef-2d"])
def test_encoded_array_faults_name_the_entry(tmp_path, kind, path, entry, message):
    X, y = small_problem()
    doc = model_to_doc(kind, train_model(kind, X, y, FAST_PARAMS.get(kind), seed=0))
    target = doc["state"]
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = entry
    model_file = tmp_path / "m.json"
    model_file.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgumentError, match=message):
        load_model(model_file)


def test_encoded_arrays_are_exact_owned_and_writable():
    values = np.array([[0.1, -0.0, 5e-324], [1.7976931348623157e308, -2.5, 1e-300]])
    for array in (values, values[:, 0], np.empty((0, 3)), np.float64(7.25)):
        out = decode_array("x", encode_array(array))
        assert out.shape == np.shape(array) and out.tobytes() == np.asarray(array).tobytes()
        assert out.dtype == np.float64 and out.flags.owndata and out.flags.writeable
    with pytest.raises(ValueError, match="not finite"):
        encode_array(np.array([1.0, np.inf]))


def test_network_with_a_non_finite_weight_is_not_saved(tmp_path):
    X, y = small_problem()
    model = train_model("mlp", X, y, FAST_PARAMS["mlp"], seed=0)
    model.head.b.data[0] = np.nan
    path = tmp_path / "m.json"
    with pytest.raises(QoeForgeError, match="cannot be saved as a JSON document"):
        save_model(path, "mlp", model)
    assert not path.exists()


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


def test_model_with_a_non_finite_value_is_a_domain_error_and_writes_nothing(tmp_path):
    X, y = small_problem()
    model = classical.fit_tree(X, y, max_depth=1)
    model.root.threshold = float("nan")
    path = tmp_path / "m.json"
    with pytest.raises(QoeForgeError, match="cannot be saved as a JSON document"):
        save_model(path, "decision_tree", model)
    assert not path.exists()


@pytest.mark.parametrize("field, value, message", [
    # At k = -1 the slice [:, :-1] averaged 63 neighbours; 100000 averaged all.
    ("k", -1, r"k must be an int in \[1, 64\], got -1"),
    ("k", 0, r"k must be an int in \[1, 64\], got 0"),
    ("k", 65, r"k must be an int in \[1, 64\], got 65"),
    ("k", 100000, r"k must be an int in \[1, 64\], got 100000"),
    # These were coerced to 2, 1 and 3.
    ("k", 2.5, r"k must be an int in \[1, 64\], got 2\.5"),
    ("k", True, r"k must be an int in \[1, 64\], got True"),
    ("k", "3", r"k must be an int in \[1, 64\], got '3'"),
    # A short y_train was an IndexError in predict; a long one went unseen.
    ("y_train", [0.0] * 63, r"got shapes \(64, 4\) and \(63,\)"),
    ("y_train", [0.0] * 65, r"got shapes \(64, 4\) and \(65,\)"),
    ("y_train", [[0.0]] * 64, r"got shapes \(64, 4\) and \(64, 1\)"),
    ("X_train", [0.0] * 64, r"got shapes \(64,\) and \(64,\)"),
], ids=["k-1", "k0", "k65", "k100000", "k2.5", "ktrue", "kstring",
        "y_short", "y_long", "y_2d", "x_1d"])
def test_knn_document_fields_are_checked(tmp_path, field, value, message):
    X, y = small_problem()
    doc = v1_model_doc("knn", train_model("knn", X, y, {"k": 3}, seed=0))
    doc["state"][field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgumentError, match=message):
        load_model(path)


def test_knn_construction_checks_its_fields():
    X, y = small_problem()
    with pytest.raises(InvalidArgumentError, match="one y_train value per row"):
        classical.fit_knn(X, y[:-1], k=3)
    with pytest.raises(InvalidArgumentError, match="k must be an int"):
        classical.KnnModel(X_train=X, y_train=y, k=np.float64(3.0))
    classical.KnnModel(X_train=X, y_train=y, k=64)
