"""Where the tracer hooks into qoe-forge, and how spans become per-layer metrics.

Layers are the package's modules. Wrappers sit at the names through which
``cli`` and ``harness`` (and, for the data-set hash, ``demographics``) call
each layer, plus each model class's ``predict``, ``Tensor.backward`` and
``Adam.step``. Nothing is hooked per row.
"""

from __future__ import annotations

import os

from stats import median
from tracing import Span, Tracer, self_times

CLASSICAL = ("linear_regression", "decision_tree", "random_forest",
             "gradient_boosting", "knn")
DEEP = ("mlp", "attention_mlp", "tabnet")
TREE_KINDS = ("decision_tree", "random_forest", "gradient_boosting")
LAYERS = ("data_model", "demographics", "preprocessing", "classical", "deep",
          "metrics", "model_io", "harness", "cli")


def _family(kind: str) -> str:
    return "deep" if kind in DEEP else "classical"


def _catalogue() -> list[tuple[str, str]]:
    out = [
        ("data_model.generate_s", "s"),
        ("data_model.write_csv_s", "s"),
        ("data_model.read_csv_s", "s"),
        ("data_model.hash_s", "s"),
        ("data_model.hash_calls", "count"),
        ("data_model.rows_read", "rows"),
        ("data_model.rows_written", "rows"),
        ("data_model.csv_bytes", "bytes"),
        ("demographics.augment_s", "s"),
        ("demographics.rows_out", "rows"),
        ("preprocessing.split_s", "s"),
        ("preprocessing.fit_transform_s", "s"),
        ("preprocessing.transform_s", "s"),
    ]
    for kind in CLASSICAL:
        out += [(f"classical.{kind}.fit_s", "s"), (f"classical.{kind}.predict_s", "s")]
        if kind in TREE_KINDS:
            out.append((f"classical.{kind}.nodes", "count"))
    for kind in DEEP:
        out += [(f"deep.{kind}.fit_s", "s"), (f"deep.{kind}.predict_s", "s"),
                (f"deep.{kind}.epochs", "count")]
    out += [
        ("deep.backward_s", "s"),
        ("deep.adam_step_s", "s"),
        ("deep.optimizer_steps", "count"),
        ("metrics.metric_block_s", "s"),
        ("metrics.rows_scored", "rows"),
        ("model_io.save_s", "s"),
        ("model_io.load_s", "s"),
    ]
    out += [(f"model_io.{kind}.doc_bytes", "bytes") for kind in CLASSICAL + DEEP]
    out += [("harness.compare_self_s", "s"), ("harness.report_bytes", "bytes")]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


# (metric name, unit) for every per-layer metric, in BENCHMARK.json order.
PER_LAYER = _catalogue()


# -- installing the wrappers ------------------------------------------------


def _rows_result(args, kwargs, result):
    return {"rows": len(result)}


def _rows_first(args, kwargs, result):
    return {"rows": len(args[0])}


def _read_attrs(args, kwargs, result):
    return {"rows": len(result), "path": str(args[0])}


def _write_attrs(args, kwargs, result):
    return {"rows": len(args[0]), "path": str(args[1])}


def _fit_name(args, kwargs):
    return f"{_family(args[0])}.fit"


def _fit_attrs(args, kwargs, result):
    return {"kind": args[0], "model": result}


def _save_attrs(args, kwargs, result):
    return {"kind": args[1], "path": str(args[0])}


def _load_attrs(args, kwargs, result):
    return {"kind": result[0], "path": str(args[0])}


def _report_attrs(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; ``tracer.restore()`` undoes it."""
    from qoe_forge import cli, classical, demographics, harness
    from qoe_forge.deep import autodiff, networks
    from qoe_forge.deep import layers as deep_layers

    callers = (cli, harness)
    functions = [
        ("generate_base_dataset", "data_model.generate", None),
        ("read_csv", "data_model.read_csv", _read_attrs),
        ("write_csv", "data_model.write_csv", _write_attrs),
        ("dataset_hash", "data_model.dataset_hash", None),
        ("augment_dataset", "demographics.augment", _rows_result),
        ("split", "preprocessing.split", None),
        ("fit_transform", "preprocessing.fit_transform", None),
        ("transform", "preprocessing.transform", None),
        ("train_model", _fit_name, _fit_attrs),
        ("metric_block", "metrics.metric_block", _rows_first),
        ("save_model", "model_io.save", _save_attrs),
        ("load_model", "model_io.load", _load_attrs),
        ("run_compare", "harness.run_compare", None),
        ("report_to_json", "harness.report_to_json", _report_attrs),
    ]
    for attr, name, attrs_fn in functions:
        for module in callers:
            if hasattr(module, attr):
                tracer.wrap(module, attr, name, attrs_fn)
    tracer.wrap(demographics, "dataset_hash", "data_model.dataset_hash")

    model_classes = {
        classical.LinearModel: "linear_regression",
        classical.TreeModel: "decision_tree",
        classical.ForestModel: "random_forest",
        classical.BoostedModel: "gradient_boosting",
        classical.KnnModel: "knn",
        networks.MlpNet: "mlp",
        networks.AttentionMlpNet: "attention_mlp",
        networks.TabNetLite: "tabnet",
    }

    def predict_name(args, kwargs):
        return f"{_family(model_classes[type(args[0])])}.predict"

    def predict_attrs(args, kwargs, result):
        return {"kind": model_classes[type(args[0])], "rows": len(result)}

    for cls in model_classes:
        if "predict" in vars(cls):
            tracer.wrap(cls, "predict", predict_name, predict_attrs,
                        skip_inside=(".fit", ".predict"))
    tracer.wrap(autodiff.Tensor, "backward", "deep.backward")
    tracer.wrap(deep_layers.Adam, "step", "deep.adam_step")


# -- turning spans into metrics ---------------------------------------------


def _tree_nodes(tree) -> int:
    count, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(c for c in (node.left, node.right) if c is not None)
    return count


def _model_facts(kind: str, model) -> dict:
    if kind == "decision_tree":
        return {"nodes": _tree_nodes(model)}
    if kind == "random_forest":
        return {"nodes": sum(_tree_nodes(t) for t in model.trees)}
    if kind == "gradient_boosting":
        return {"nodes": sum(_tree_nodes(t) for t in model.stages)}
    if kind in DEEP:
        epochs = getattr(model, "epochs_run", None)
        return {"epochs": epochs if epochs is not None else len(model.loss_curve)}
    return {}


def finalize(spans: list[Span]) -> None:
    """Replace object and path attributes by the sizes they stand for.

    Runs after the traced phase, so model walks and ``stat`` calls are not
    charged to any span. Drops the model references it consumed.
    """
    for s in spans:
        model = s.attrs.pop("model", None)
        if model is not None:
            s.attrs.update(_model_facts(s.attrs["kind"], model))
        path = s.attrs.pop("path", None)
        if path is not None:
            s.attrs["bytes"] = os.path.getsize(path) if os.path.exists(path) else 0


def layer_metrics(groups: list[list[Span]]) -> dict[str, float]:
    """Every per-layer metric except the ``trace.*`` ones, from finalized spans.

    ``groups`` holds one span list per tracer; parent indices are local to it.
    """
    values = {name: 0 for name, _ in PER_LAYER if not name.startswith("trace.")}
    simple = {
        "data_model.generate": "data_model.generate_s",
        "data_model.write_csv": "data_model.write_csv_s",
        "data_model.read_csv": "data_model.read_csv_s",
        "data_model.dataset_hash": "data_model.hash_s",
        "demographics.augment": "demographics.augment_s",
        "preprocessing.split": "preprocessing.split_s",
        "preprocessing.fit_transform": "preprocessing.fit_transform_s",
        "preprocessing.transform": "preprocessing.transform_s",
        "deep.backward": "deep.backward_s",
        "deep.adam_step": "deep.adam_step_s",
        "metrics.metric_block": "metrics.metric_block_s",
        "model_io.save": "model_io.save_s",
        "model_io.load": "model_io.load_s",
    }
    timed = [(s, own) for spans in groups for s, own in zip(spans, self_times(spans))]
    for s, own in timed:
        a = s.attrs
        if s.layer in LAYERS:
            values[f"{s.layer}.self_s"] += own
        if s.name in simple:
            values[simple[s.name]] += s.duration
        if s.name == "data_model.dataset_hash":
            values["data_model.hash_calls"] += 1
        elif s.name == "data_model.read_csv":
            values["data_model.rows_read"] += a["rows"]
        elif s.name == "data_model.write_csv":
            values["data_model.rows_written"] += a["rows"]
            values["data_model.csv_bytes"] += a.get("bytes", 0)
        elif s.name == "demographics.augment":
            values["demographics.rows_out"] += a["rows"]
        elif s.name.endswith((".fit", ".predict")):
            op = s.name.rsplit(".", 1)[1]
            prefix = f"{s.layer}.{a['kind']}"
            values[f"{prefix}.{op}_s"] += s.duration
            for fact in ("nodes", "epochs"):
                if fact in a:
                    values[f"{prefix}.{fact}"] += a[fact]
        elif s.name == "deep.adam_step":
            values["deep.optimizer_steps"] += 1
        elif s.name == "metrics.metric_block":
            values["metrics.rows_scored"] += a["rows"]
        elif s.name in ("model_io.save", "model_io.load"):
            key = f"model_io.{a['kind']}.doc_bytes"
            values[key] = max(values[key], a.get("bytes", 0))
        elif s.name == "harness.run_compare":
            values["harness.compare_self_s"] += own
        elif s.name == "harness.report_to_json":
            values["harness.report_bytes"] += a["bytes"]
    return values


def traced_metrics(setup_spans, pass_spans, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics of the set-up plus the median traced pass."""
    values = layer_metrics([setup_spans, pass_spans])
    values["trace.wall_s"] = median(traced_walls)
    values["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    values["trace.spans"] = len(setup_spans) + len(pass_spans)
    return values
