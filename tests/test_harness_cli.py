"""Experiment harness and command-line interface."""

import json
import os

import numpy as np
import pytest

from qoe_forge import cli, data_model
from qoe_forge.cli import main
from qoe_forge.data_model import read_csv
from qoe_forge.model_io import load_model
from qoe_forge.errors import InvalidArgumentError
from qoe_forge.harness import (
    ExperimentConfig,
    _delta_pct,
    derive_model_seed,
    parse_config_file,
    report_to_json,
    run_compare,
    run_scatter_export,
    write_compare_csv,
)

FAST_ROSTER = "linear_regression,decision_tree,knn"


def fast_config(tmp_path, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "dataset.n = 60          # small for test speed\n"
        "dataset.seed = 5\n"
        f"run.roster = {FAST_ROSTER}\n"
        "run.seed = 11\n" + extra
    )
    return path


class TestConfigParsing:
    def test_types_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# full line comment\n"
            "dataset.n = 120\n"
            "augment.noise_sigma = 1.5   # trailing comment\n"
            "run.include_demographic_feature = false\n"
            "split.mode = iid\n"
            "\n"
        )
        flat = parse_config_file(path)
        assert flat == {
            "dataset.n": 120,
            "augment.noise_sigma": 1.5,
            "run.include_demographic_feature": False,
            "split.mode": "iid",
        }

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(InvalidArgumentError):
            parse_config_file(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # The first key once read "\ufeffdataset.n", an unknown config key.
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text("dataset.n = 60\naugment.noise_sigma = 1.5\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config_file(marked) == parse_config_file(plain)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"# r\xe9glages\ndataset.n = 60\n")
        with pytest.raises(InvalidArgumentError) as exc:
            parse_config_file(path)
        assert str(exc.value).startswith(f"config {path}: not UTF-8 text")

    def test_from_flat(self):
        cfg = ExperimentConfig.from_flat(
            {
                "dataset.n": 100,
                "augment.adjustment_scale": 18.0,
                "split.seed": 2,
                "run.roster": "knn,decision_tree",
                "models.knn.k": 7,
                "profiles.gamer_sports.w_rebuff": 3.5,
            }
        )
        assert cfg.dataset_n == 100
        assert cfg.augment.adjustment_scale == 18.0
        assert cfg.split.seed == 2
        assert cfg.roster == ("knn", "decision_tree")
        assert cfg.model_params == {"knn": {"k": 7}}
        gamer = next(p for p in cfg.profiles if p.id == "gamer_sports")
        assert gamer.w_rebuff == 3.5

    def test_from_flat_checks_and_converts_values(self):
        flat = {"models.mlp.hidden": "16,8", "models.decision_tree.max_depth": "None",
                "run.include_demographic_feature": False, "dataset.n": 90}
        cfg = ExperimentConfig.from_flat(flat)
        assert cfg.model_params == {"mlp": {"hidden": (16, 8)},
                                    "decision_tree": {"max_depth": None}}
        assert cfg.include_demographic_feature is False
        assert cfg.flat_echo == dict(sorted(flat.items()))
        assert ExperimentConfig().flat_echo == {}

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig.from_flat({"dataset.rows": 10})
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig.from_flat({"run.roster": "svm"})
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig.from_flat({"profiles.nobody.w_rebuff": 1.0})

    @pytest.mark.parametrize("key, value", [
        ("models.knn.kk", 3),
        ("models.knn.k", "abc"),
        ("models.mlp.hidden", "a,b"),
        ("models.random_forest.n_trees", 2.5),
        ("models.svm", None),
        ("dataset.n", "abc"),
        ("dataset.seed", 1.5),
        ("run.include_demographic_feature", "no"),
        ("augment.noise_sigma", "loud"),
        ("augment.sigma", 1.0),
        ("split.test_fraction", "half"),
        ("profiles.gamer_sports.w_rebuff", "abc"),
        ("profiles.gamer_sports.w_rebuf", 2),
        ("profiles.gamer_sports.id", "x"),
    ])
    def test_bad_value_names_its_key(self, key, value):
        flat = {"models.svm.k": 3} if value is None else {key: value}
        with pytest.raises(InvalidArgumentError, match=f"^{key}[:;.]"):
            ExperimentConfig.from_flat(flat)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_model_seed(42, "base", "knn")
        assert a == derive_model_seed(42, "base", "knn")
        assert a != derive_model_seed(42, "augmented", "knn")
        assert a != derive_model_seed(42, "base", "mlp")
        assert a != derive_model_seed(43, "base", "knn")


@pytest.fixture(scope="module")
def result():
    cfg = ExperimentConfig(
        dataset_n=60, dataset_seed=5, roster=("linear_regression", "knn"), seed=11
    )
    return run_compare(cfg)


class TestRunCompare:
    def test_report_shape(self, result):
        report, timings = result
        assert report["schema_version"] == 1
        assert report["seed"] == 11
        for side, n_rows in (("base", 60), ("augmented", 360)):
            block = report[side]
            assert block["n_rows"] == n_rows
            assert block["n_train"] + block["n_test"] == n_rows
            assert set(block["models"]) == {"linear_regression", "knn"}
            for doc in block["models"].values():
                assert set(doc["metrics"]) == {"rmse", "mae", "r2", "plcc", "srcc", "n"}
            assert block["test_group_ids"] == sorted(block["test_group_ids"])
        assert set(report["delta_pct"]) == {"linear_regression", "knn"}
        assert set(timings) == {"base", "augmented"}

    def test_delta_pct_consistent(self, result):
        report, _ = result
        for name, delta in report["delta_pct"].items():
            rb = report["base"]["models"][name]["metrics"]["rmse"]
            ra = report["augmented"]["models"][name]["metrics"]["rmse"]
            assert delta["rmse_pct"] == pytest.approx(100.0 * (ra - rb) / rb)

    def test_report_json_deterministic(self, result):
        report, _ = result
        cfg = ExperimentConfig(
            dataset_n=60, dataset_seed=5, roster=("linear_regression", "knn"), seed=11
        )
        report2, _ = run_compare(cfg)
        assert report_to_json(report) == report_to_json(report2)

    def test_no_wall_clock_in_report(self, result):
        report, timings = result
        assert "time" not in report_to_json(report)
        for side in timings.values():
            assert all(v >= 0 for v in side.values())

    def test_each_dataset_hashed_once(self, monkeypatch):
        # Each side is hashed once, for its own report block; augmenting
        # the base side does not hash it.
        hashed = []
        blocks = data_model._csv_blocks
        monkeypatch.setattr(data_model, "_csv_blocks",
                            lambda ds: hashed.append(len(ds)) or blocks(ds))
        run_compare(ExperimentConfig(dataset_n=30, dataset_seed=5,
                                     roster=("linear_regression",), seed=1))
        assert sorted(hashed) == [30, 180]

    def test_delta_pct_undefined_is_none(self):
        base = {"m": {"metrics": {"rmse": 0.0, "mae": 2.0, "r2": None}},
                "z": {"metrics": {"rmse": 1.0, "mae": 1.0, "r2": 0.0}}}
        aug = {"m": {"metrics": {"rmse": 1.0, "mae": 1.0, "r2": 0.5}},
               "z": {"metrics": {"rmse": 2.0, "mae": 1.0, "r2": 0.5}}}
        assert _delta_pct(base, aug) == {
            "m": {"rmse_pct": None, "mae_pct": -50.0, "r2_pct": None},
            "z": {"rmse_pct": 100.0, "mae_pct": 0.0, "r2_pct": None},
        }

    def test_compare_csv(self, result, tmp_path):
        report, _ = result
        path = tmp_path / "compare.csv"
        write_compare_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("model,rmse_base")
        assert len(lines) == 3  # header + two models


class TestScatterExport:
    def test_rows_and_header(self, tmp_path):
        cfg = ExperimentConfig(dataset_n=60, dataset_seed=5, roster=("knn",), seed=11)
        path = tmp_path / "scatter.csv"
        n = run_scatter_export(cfg, "knn", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "true_mos,predicted_mos"
        assert len(lines) == n + 1
        assert n == 72  # 12 held-out sessions x 6 profiles

    def test_model_must_be_in_roster(self, tmp_path):
        cfg = ExperimentConfig(roster=("knn",))
        with pytest.raises(InvalidArgumentError):
            run_scatter_export(cfg, "mlp", tmp_path / "s.csv")


class TestCli:
    def test_generate_augment_split_pipeline(self, tmp_path):
        base = tmp_path / "base.csv"
        aug = tmp_path / "aug.csv"
        assert main(["generate", "--n", "60", "--seed", "5", "--out", str(base)]) == 0
        assert main(["augment", "--in", str(base), "--seed", "1", "--out", str(aug)]) == 0
        assert len(read_csv(aug)) == 360
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        code = main(
            ["split", "--in", str(aug), "--seed", "0",
             "--out-train", str(train), "--out-test", str(test)]
        )
        assert code == 0
        assert len(read_csv(train)) + len(read_csv(test)) == 360

    def test_train_evaluate_round_trip(self, tmp_path):
        base = tmp_path / "base.csv"
        model = tmp_path / "model.json"
        scores = tmp_path / "scores.json"
        main(["generate", "--n", "60", "--seed", "5", "--out", str(base)])
        assert main(
            ["train", "--in", str(base), "--model", "decision_tree",
             "--seed", "3", "--out", str(model)]
        ) == 0
        assert main(
            ["evaluate", "--model", str(model), "--in", str(base), "--out", str(scores)]
        ) == 0
        doc = json.loads(scores.read_text())
        assert doc["kind"] == "decision_tree"
        assert doc["metrics"]["rmse"] >= 0.0

    def test_compare_outputs(self, tmp_path):
        cfg = fast_config(tmp_path)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "compare.csv").exists()
        assert (out / "timings.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert set(report["base"]["models"]) == set(FAST_ROSTER.split(","))

    def test_augment_refuses_augmented_csv(self, tmp_path, capsys):
        base, aug, again = tmp_path / "b.csv", tmp_path / "a.csv", tmp_path / "aa.csv"
        main(["generate", "--n", "20", "--seed", "5", "--out", str(base)])
        main(["augment", "--in", str(base), "--seed", "1", "--out", str(aug)])
        capsys.readouterr()
        assert main(["augment", "--in", str(aug), "--seed", "1", "--out", str(again)]) == 1
        assert "base schema" in capsys.readouterr().err
        assert not again.exists()

    def test_train_config_mlp_hidden(self, tmp_path, capsys):
        # A comma-separated hidden list in a config file reaches the MLP as ints.
        base, model = tmp_path / "b.csv", tmp_path / "mlp.json"
        cfg = tmp_path / "m.cfg"
        cfg.write_text("models.mlp.hidden = 16,8\nmodels.mlp.epochs = 2\n")
        main(["generate", "--n", "40", "--seed", "5", "--out", str(base)])
        assert main(["train", "--in", str(base), "--model", "mlp", "--seed", "3",
                     "--config", str(cfg), "--out", str(model)]) == 0
        capsys.readouterr()
        kind, net, _ = load_model(model)
        assert kind == "mlp"
        assert [layer.W.data.shape for layer in net.hidden_layers] == [(12, 16), (16, 8)]

    @pytest.mark.parametrize("key, value", [
        ("models.knn.kk", "3"),
        ("models.knn.k", "abc"),
        ("models.mlp.hidden", "a,b"),
        ("models.random_forest.n_trees", "2.5"),
        ("models.decision_tree.n_feature_subset", "2"),
        ("models.svm", "3"),
        ("dataset.n", "abc"),
        ("profiles.gamer_sports.w_rebuff", "abc"),
        ("profiles.gamer_sports.w_rebuf", "2"),
        ("run.include_demographic_feature", "no"),
    ])
    @pytest.mark.parametrize("command", ["train", "compare", "scatter"])
    def test_bad_config_value_exits_1_before_running(self, tmp_path, capsys, key, value,
                                                     command):
        base, cfg, out = tmp_path / "b.csv", tmp_path / "c.cfg", tmp_path / "out"
        line = "models.svm.k = 3" if key == "models.svm" else f"{key} = {value}"
        cfg.write_text(line + "\n")
        argv = {
            "train": ["train", "--in", str(base), "--model", "knn"],
            "compare": ["compare"],
            "scatter": ["scatter", "--model", "knn"],
        }[command]
        # The input CSV does not exist: the config must fail before it is read.
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("models.tabnet.max_epochs", "0", "models.tabnet: max_epochs must be >= 1"),
        ("models.mlp.learning_rate", "0.0", "models.mlp: learning_rate must be > 0"),
        ("models.decision_tree.max_depth", "-1",
         "models.decision_tree: max_depth must be None or >= 0"),
        ("models.random_forest.n_trees", "0", "models.random_forest: n_trees must be >= 1"),
        ("models.gradient_boosting.learning_rate", "1.5",
         "models.gradient_boosting: learning_rate must be in (0,1]"),
        ("models.knn.k", "0", "models.knn: k must be >= 1"),
    ])
    def test_out_of_range_model_param_exits_1_before_any_fit(self, tmp_path, capsys,
                                                             monkeypatch, key, value,
                                                             message):
        # compare once ran every other roster model, then exited 0 with an
        # "error" entry for this one in report.json.
        def no_data(cfg):
            raise AssertionError("the config was accepted")

        monkeypatch.setattr("qoe_forge.harness.load_base_dataset", no_data)
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, f"{key} = {value}\n")
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}\n")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--noise-sigma", "--adjustment-scale"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_augment_non_finite_flag_exits_1(self, tmp_path, capsys, flag, value):
        # NaN once passed the range checks: exit 0, and "nan" MOS cells that
        # split could not read back.
        base, out = tmp_path / "b.csv", tmp_path / "a.csv"
        main(["generate", "--n", "5", "--out", str(base)])
        capsys.readouterr()
        assert main(["augment", "--in", str(base), "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        field = flag.removeprefix("--").replace("-", "_")
        assert err.startswith(f"error: {field} must be a finite number")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[:-1] + b"\xe9\n", "not UTF-8 text"),
        (lambda text: text.replace(b",", b',"' + b"x" * 200_000 + b'"', 1),
         "line 1: field larger than field limit"),
    ], ids=["latin1_byte", "oversized_cell"])
    def test_augment_unreadable_csv_exits_1(self, tmp_path, capsys, damage, message):
        # Both once escaped as tracebacks: UnicodeDecodeError and _csv.Error.
        base, out = tmp_path / "b.csv", tmp_path / "a.csv"
        main(["generate", "--n", "5", "--out", str(base)])
        capsys.readouterr()
        base.write_bytes(damage(base.read_bytes()))
        assert main(["augment", "--in", str(base), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {base}")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        cfg = fast_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes() + b"# r\xe9glages\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg}: not UTF-8 text")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", [
        "profiles.casual_viewer.w_rebuff",
        "augment.noise_sigma",
        "augment.adjustment_scale",
        "split.test_fraction",
        "models.mlp.learning_rate",
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_config_float_exits_1(self, tmp_path, capsys, key, value):
        # A NaN profile weight once ran compare to exit 0 with every augmented
        # model failing; an infinite noise_sigma clipped every MOS to 0 or 100.
        out = tmp_path / "out"
        cfg = fast_config(tmp_path, f"{key} = {value}\n")
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: expected float, got {float(value)!r}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_train_config_max_depth_none(self, tmp_path, capsys):
        base, model, cfg = tmp_path / "b.csv", tmp_path / "dt.json", tmp_path / "c.cfg"
        cfg.write_text("models.decision_tree.max_depth = None\n")
        main(["generate", "--n", "40", "--seed", "5", "--out", str(base)])
        assert main(["train", "--in", str(base), "--model", "decision_tree",
                     "--config", str(cfg), "--out", str(model)]) == 0
        assert json.loads(model.read_text())["state"]["max_depth"] is None

    def test_tabnet_validation_split_of_every_row_exits_1(self, tmp_path, capsys):
        # 12 sessions leave 10 training rows, and a fraction of 0.95 held out
        # round(9.5) = 10 of them: it trained on none and exited 0.
        base, train, test = tmp_path / "b.csv", tmp_path / "train.csv", tmp_path / "test.csv"
        model, cfg = tmp_path / "tabnet.json", tmp_path / "c.cfg"
        cfg.write_text("models.tabnet.validation_fraction = 0.95\n")
        main(["generate", "--n", "12", "--seed", "1", "--out", str(base)])
        main(["split", "--in", str(base), "--out-train", str(train), "--out-test", str(test)])
        assert len(read_csv(train)) == 10
        capsys.readouterr()
        assert main(["train", "--in", str(train), "--model", "tabnet",
                     "--config", str(cfg), "--out", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation_fraction 0.95 holds out all 10 training rows")
        assert not model.exists()

    def test_undefined_metrics_are_null_not_errors(self, tmp_path, capsys):
        # max_depth = 0 is a constant predictor: plcc and srcc are undefined.
        cfg = fast_config(tmp_path, "models.decision_tree.max_depth = 0\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for side in ("base", "augmented"):
            block = report[side]["models"]["decision_tree"]["metrics"]
            assert block["plcc"] is None and block["srcc"] is None
            assert block["rmse"] > 0 and block["mae"] > 0
        rows = {r.split(",", 1)[0]: r.split(",") for r in
                (out / "compare.csv").read_text().splitlines()[1:]}
        assert rows["decision_tree"][4:6] == ["", ""]  # plcc_base, srcc_base
        assert "" not in rows["knn"]

        base, model = tmp_path / "b.csv", tmp_path / "dt.json"
        main(["generate", "--n", "40", "--seed", "5", "--out", str(base)])
        assert main(["train", "--in", str(base), "--model", "decision_tree",
                     "--config", str(cfg), "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--in", str(base)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["plcc"] is None and doc["metrics"]["srcc"] is None

    @pytest.mark.parametrize("text", [
        "not json\n",
        "[1, 2]\n",
        '{"schema_version": 1, "state": {}}\n',
        '{"schema_version": 1, "kind": "knn"}\n',
    ])
    def test_evaluate_bad_model_file_exits_1(self, tmp_path, capsys, text):
        base, model = tmp_path / "b.csv", tmp_path / "m.json"
        main(["generate", "--n", "20", "--seed", "5", "--out", str(base)])
        model.write_text(text)
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--in", str(base)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--model", "m.json", "--in", "t.csv", "--seed", "1"],
        ["evaluate", "--model", "m.json", "--in", "t.csv", "--config", "c.cfg"],
        ["correlate", "--in", "a.csv", "--feature", "vmaf_mean", "--out", "o.csv",
         "--seed", "1"],
        ["correlate", "--in", "a.csv", "--feature", "vmaf_mean", "--out", "o.csv",
         "--config", "c.cfg"],
        ["generate", "--n", "5", "--out", "g.csv", "--config", "c.cfg"],
        ["augment", "--in", "b.csv", "--out", "a.csv", "--config", "c.cfg"],
        ["split", "--in", "a.csv", "--out-train", "t.csv", "--out-test", "s.csv",
         "--config", "c.cfg"],
    ])
    def test_removed_options_are_usage_errors(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_correlate(self, tmp_path):
        base, aug = tmp_path / "b.csv", tmp_path / "a.csv"
        main(["generate", "--n", "60", "--seed", "5", "--out", str(base)])
        main(["augment", "--in", str(base), "--seed", "1", "--out", str(aug)])
        out = tmp_path / "corr.csv"
        assert main(
            ["correlate", "--in", str(aug), "--feature", "stall_duration_s",
             "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7  # header + six profiles

    def test_correlate_categorical_feature_exits_1(self, tmp_path, capsys):
        base, aug = tmp_path / "b.csv", tmp_path / "a.csv"
        main(["generate", "--n", "20", "--seed", "5", "--out", str(base)])
        main(["augment", "--in", str(base), "--seed", "1", "--out", str(aug)])
        capsys.readouterr()
        assert main(["correlate", "--in", str(aug), "--feature", "content_type",
                     "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: column 'content_type' is not numeric")

    def test_correlate_undefined_is_an_empty_cell(self, tmp_path, capsys):
        # Two sessions without stalls: stall_count is constant in every profile.
        base, aug = tmp_path / "b.csv", tmp_path / "a.csv"
        main(["generate", "--n", "2", "--seed", "2", "--out", str(base)])
        main(["augment", "--in", str(base), "--out", str(aug)])
        capsys.readouterr()
        out = tmp_path / "c.csv"
        assert main(["correlate", "--in", str(aug), "--feature", "stall_count",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        assert all(line.endswith(",stall_count,") for line in lines[1:])
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 6 and all(p.endswith(": undefined") for p in printed)

    def test_evaluate_inconsistent_preprocessor_exits_1(self, tmp_path, capsys):
        base, model = tmp_path / "b.csv", tmp_path / "m.json"
        main(["generate", "--n", "30", "--seed", "5", "--out", str(base)])
        main(["train", "--in", str(base), "--model", "linear_regression",
              "--out", str(model)])
        doc = json.loads(model.read_text())
        del doc["preprocessor"]["scaler"]["mean"]["duration_s"]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--in", str(base)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: feature column 'duration_s'")

    def test_evaluate_negative_std_exits_1(self, tmp_path, capsys):
        # A negative std once flipped the column silently: exit 0, r2 -0.46.
        base, model = tmp_path / "b.csv", tmp_path / "m.json"
        main(["generate", "--n", "30", "--seed", "5", "--out", str(base)])
        main(["train", "--in", str(base), "--model", "linear_regression",
              "--out", str(model)])
        doc = json.loads(model.read_text())
        doc["preprocessor"]["scaler"]["std"]["duration_s"] = -1.0
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--in", str(base)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: column 'duration_s'") and "Traceback" not in err

    @pytest.mark.parametrize("kind, extra, edit, message", [
        # A negative rate once scored r2 -2.79 and exited 0.
        ("gradient_boosting", "models.gradient_boosting.n_stages = 5\n",
         lambda doc: doc["state"].update(learning_rate=-0.1), "learning_rate must be in (0,1]"),
        ("gradient_boosting", "models.gradient_boosting.n_stages = 5\n",
         lambda doc: doc["state"].update(learning_rate=1.5), "learning_rate must be in (0,1]"),
        # All-zero codes once scored the merged labels and exited 0.
        ("decision_tree", "",
         lambda doc: doc["preprocessor"]["encoders"]["device"].update(
             dict.fromkeys(doc["preprocessor"]["encoders"]["device"], 0)),
         "column 'device' needs the label codes"),
        # A tree's fit params, and a forest's, once loaded whatever they were.
        ("decision_tree", "", lambda doc: doc["state"].update(max_depth="deep"),
         "max_depth: expected int | None"),
        ("decision_tree", "", lambda doc: doc["state"].update(max_depth=-1),
         "max_depth must be None or >= 0"),
        ("decision_tree", "", lambda doc: doc["state"].update(min_samples_leaf=-5),
         "min_samples_leaf must be >= 1"),
        ("random_forest", "", lambda doc: doc["state"].update(n_feature_subset=-3),
         "n_feature_subset must be >= 1"),
        ("random_forest", "", lambda doc: doc["state"]["trees"][0].update(min_samples_leaf=0),
         "min_samples_leaf must be >= 1"),
    ], ids=["rate-negative", "rate-above-1", "codes-all-zero", "tree-depth-not-int",
            "tree-depth-negative", "tree-leaf-negative", "forest-subset-negative",
            "forest-tree-leaf-0"])
    def test_evaluate_document_value_out_of_range_exits_1(
            self, tmp_path, capsys, kind, extra, edit, message):
        base, model = tmp_path / "b.csv", tmp_path / "m.json"
        main(["generate", "--n", "30", "--seed", "5", "--out", str(base)])
        assert main(["train", "--in", str(base), "--model", kind,
                     "--config", str(fast_config(tmp_path, extra)), "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--in", str(base)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QOE_FORGE_SEED", "5")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--n", "20", "--out", str(a)])
        main(["generate", "--n", "20", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_exit_codes(self, tmp_path, capsys):
        # usage error
        assert main(["frobnicate"]) == 1
        # domain error: header mismatch
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["augment", "--in", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
        # I/O error: missing input file
        missing = tmp_path / "nope.csv"
        assert main(
            ["augment", "--in", str(missing), "--out", str(tmp_path / "y.csv")]
        ) == 2
        capsys.readouterr()


class TestSeeds:
    @pytest.mark.parametrize("argv, config, env", [
        (["generate", "--n", "5", "--seed", "-1", "--out", "{out}"], None, None),
        (["split", "--in", "{base}", "--seed", "-1", "--out-train", "{out}",
          "--out-test", "{out}2"], None, None),
        (["compare", "--out", "{out}"], "dataset.seed = -1", None),
        (["compare", "--out", "{out}"], "split.seed = -1", None),
        (["generate", "--n", "5", "--out", "{out}"], None, "abc"),
        (["augment", "--in", "{base}", "--out", "{out}"], None, "abc"),
        (["compare", "--out", "{out}"], None, "abc"),
    ], ids=["generate", "split", "dataset.seed", "split.seed", "env-generate",
            "env-augment", "env-compare"])
    def test_bad_seed_exits_1_without_traceback(self, tmp_path, capsys, monkeypatch,
                                                argv, config, env):
        base, cfg, out = tmp_path / "b.csv", tmp_path / "c.cfg", tmp_path / "out"
        assert main(["generate", "--n", "20", "--seed", "5", "--out", str(base)]) == 0
        argv = [a.format(base=base, out=out) for a in argv]
        if config is not None:
            cfg.write_text(f"dataset.n = 20\n{config}\n")
            argv += ["--config", str(cfg)]
        if env is not None:
            monkeypatch.setenv("QOE_FORGE_SEED", env)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert ("QOE_FORGE_SEED" in err) == (env is not None)
        assert not out.exists()

    def test_negative_augment_and_run_seeds_still_work(self, tmp_path, capsys):
        base, aug = tmp_path / "b.csv", tmp_path / "a.csv"
        main(["generate", "--n", "20", "--seed", "5", "--out", str(base)])
        assert main(["augment", "--in", str(base), "--seed", "-1", "--out", str(aug)]) == 0
        assert main(["compare", "--seed", "-3", "--config", str(fast_config(tmp_path)),
                     "--out", str(tmp_path / "out")]) == 0

    def test_seed_falls_back_to_env_then_each_commands_default(self, tmp_path,
                                                               monkeypatch, capsys):
        seen = []

        def spy(n, seed):
            seen.append(seed)
            return data_model.generate_base_dataset(n, 1)

        monkeypatch.setattr(cli, "generate_base_dataset", spy)

        def seed_of(argv):
            args = cli.build_parser().parse_args(argv)
            if args.command == "generate":
                assert main(argv) == 0
                return seen.pop()
            return cli._experiment_config(args).seed

        gen = ["generate", "--n", "3", "--out", str(tmp_path / "g.csv")]
        cfg = str(fast_config(tmp_path))  # run.seed = 11
        scatter = ["scatter", "--model", "knn", "--out", "s.csv"]
        monkeypatch.delenv("QOE_FORGE_SEED", raising=False)
        assert [seed_of(gen), seed_of(scatter), seed_of(scatter + ["--config", cfg])] == [
            0, 42, 11]
        monkeypatch.setenv("QOE_FORGE_SEED", "7")
        assert [seed_of(gen), seed_of(scatter + ["--config", cfg])] == [7, 7]
        assert seed_of(scatter + ["--config", cfg, "--seed", "9"]) == 9
