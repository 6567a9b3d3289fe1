"""Self-tests for the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from stats import median, quartiles, summary  # noqa: E402
from tracing import Span, Tracer, self_times, span_table  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self-time arithmetic ----------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("harness.run_compare", 1.0, 4.0, parent=0),
        Span("data_model.generate", 2.0, 3.0, parent=1),
        Span("metrics.metric_block", 5.0, 7.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("a.x", 1.0, 5.0, parent=0),
        Span("a.y", 3.0, 6.0, parent=0),     # overlaps a.x by 2 s
        Span("a.z", 9.0, 12.0, parent=0),    # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_span_table_sums_count_total_and_self():
    spans = [Span("cli.main", 0.0, 4.0), Span("x.f", 1.0, 2.0, parent=0),
             Span("cli.main", 5.0, 6.0)]
    table = span_table(spans)
    assert table["cli.main"] == {"count": 2, "total_s": 5.0, "self_s": 4.0}
    assert table["x.f"]["self_s"] == 1.0


def test_tracer_wraps_nests_skips_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original_inner = ns.inner
    tracer.wrap(ns, "inner", "m.inner", lambda a, k, r: {"result": r})
    tracer.wrap(ns, "outer", "m.outer")
    with tracer.span("cli.main"):
        assert ns.outer(1) == 4
    tracer.restore()
    assert ns.inner is original_inner
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("cli.main", -1), ("m.outer", 0), ("m.inner", 1)]
    assert tracer.spans[2].attrs == {"result": 2}

    tracer = Tracer()
    tracer.wrap(ns, "inner", "m.inner", skip_inside=(".outer",))
    tracer.wrap(ns, "outer", "m.outer")
    ns.outer(1)
    ns.inner(1)
    tracer.restore()
    assert [s.name for s in tracer.spans] == ["m.outer", "m.inner"]
    assert tracer.spans[1].parent == -1


def test_restore_removes_wrappers_of_inherited_methods():
    class Base:
        def predict(self):
            return 1

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "predict", "m.predict")
    assert "predict" in vars(Child)
    tracer.restore()
    assert "predict" not in vars(Child)
    assert Child().predict() == 1


def test_layer_metrics_from_spans():
    setup = [Span("cli.main", 0.0, 3.0),
             Span("classical.fit", 0.5, 2.5, parent=0,
                  attrs={"kind": "random_forest", "nodes": 40}),
             Span("model_io.save", 2.5, 2.75, parent=0,
                  attrs={"kind": "random_forest", "bytes": 900})]
    timed = [Span("cli.main", 10.0, 14.0),
             Span("harness.run_compare", 10.5, 13.5, parent=0),
             Span("classical.predict", 11.0, 12.0, parent=1,
                  attrs={"kind": "random_forest", "rows": 7}),
             Span("model_io.load", 13.5, 13.75, parent=0,
                  attrs={"kind": "random_forest", "bytes": 900})]
    v = layers.traced_metrics(setup, timed, [4.25], [4.0])
    assert v["classical.random_forest.fit_s"] == pytest.approx(2.0)
    assert v["classical.random_forest.predict_s"] == pytest.approx(1.0)
    assert v["classical.random_forest.nodes"] == 40
    assert v["model_io.random_forest.doc_bytes"] == 900
    assert v["harness.compare_self_s"] == pytest.approx(2.0)
    assert v["cli.self_s"] == pytest.approx(0.75 + 0.75)
    assert v["classical.self_s"] == pytest.approx(3.0)
    assert v["trace.overhead_s"] == pytest.approx(0.25)
    assert v["trace.spans"] == 7
    assert set(v) == {name for name, _ in layers.PER_LAYER}


# -- median and quartiles ------------------------------------------------------


def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert median(values) == 4.0 == q2
    assert summary(values) == {"n": 7, "median": q2, "q1": q1, "q3": q3,
                               "spread": pytest.approx((q3 - q1) / q2)}


def test_pass_seconds_is_the_mean_after_the_warm_up_pass():
    from run import pass_seconds

    assert pass_seconds([9.0, 2.0, 4.0]) == 3.0
    assert pass_seconds([5.0]) == 5.0


def test_a_pass_is_scaled_by_the_reference_speed_around_it():
    from reference import REF_SECONDS
    from run import at_reference_speed

    assert at_reference_speed(3.0, REF_SECONDS) == pytest.approx(3.0)
    assert at_reference_speed(3.0, 1.5 * REF_SECONDS) == pytest.approx(2.0)


def test_quartiles_of_one_value_and_zero_median():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert summary([0.0, 0.0, 0.0])["spread"] == 0.0
    with pytest.raises(ValueError):
        median([])


# -- the benchmark contract ---------------------------------------------------


def test_benchmark_json_matches_the_code():
    from run import END_TO_END
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_output_digest_must_repeat_and_match_the_recorded_one(tmp_path):
    from workloads import Workload

    class Fixed(Workload):
        outputs = b"report"

        def check_outputs(self):
            return [0.5], self.outputs

    w = Fixed(1, tmp_path, expected_digest=hashlib.sha256(b"report").hexdigest())
    assert w.check_pass() == [0.5]
    assert (w.attempted, w.failed) == (1, 0)
    w.outputs = b"changed"
    w.check_pass()
    assert (w.attempted, w.failed) == (3, 2)


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())
        for name in ("setup_s", "wall_s", "wall_ref_s", "peak_rss_mb", "mean_r2",
                     "error_rate"):
            assert name in proc.stdout
    detail = json.loads((HERE / "results" /
                         f"{workload}-seed5-trace{trace}-tiny.json").read_text())
    prov = detail["provenance"]
    assert prov["seed"] == 5 and prov["sizes"] and prov["nproc"] >= 1
    assert {"python", "numpy", "blas", "blas_threads", "git_commit"} <= set(prov)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
