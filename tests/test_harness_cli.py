"""Experiment harness and command-line interface."""

import json
import os

import numpy as np
import pytest

from qoe_forge import data_model
from qoe_forge.cli import main
from qoe_forge.data_model import read_csv
from qoe_forge.model_io import load_model
from qoe_forge.errors import InvalidArgumentError
from qoe_forge.harness import (
    ExperimentConfig,
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

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig.from_flat({"dataset.rows": 10})
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig.from_flat({"run.roster": "svm"})
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig.from_flat({"profiles.nobody.w_rebuff": 1.0})


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
        # The base side is hashed for the augmented provenance and for its
        # own report block; the memo makes that one computation.
        hashed = []
        blocks = data_model._csv_blocks
        monkeypatch.setattr(data_model, "_csv_blocks",
                            lambda ds: hashed.append(len(ds)) or blocks(ds))
        run_compare(ExperimentConfig(dataset_n=30, dataset_seed=5,
                                     roster=("linear_regression",), seed=1))
        assert sorted(hashed) == [30, 180]

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
