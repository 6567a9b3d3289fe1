"""Run every workload over several seeds, each run in a fresh process, and summarise.

    python3 perfbench/suite.py                      # seed 1
    python3 perfbench/suite.py --seeds 1-10 --baseline perfbench/baseline.json
    python3 perfbench/suite.py --trace 1 --seeds 1 --baseline perfbench/baseline.json

Prints setup_s, wall_ref_s, peak_rss_mb, mean_r2, wall_s and error_rate
(or, with ``--trace 1``, every per-layer metric) by name with units: the median over
seeds, the quartiles and their spread as a share of the median, next to the
metric's bound from BENCHMARK.json. Every workload in BENCHMARK.json runs
for its ``run_seconds``. ``--baseline`` merges the figures, and each seed's
output digest, into a JSON file. Exits 1 when any run failed a check or exited
non-zero.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import summary  # noqa: E402

RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of perfbench/run.py in a fresh process: its parsed result line,
    plus its result file's provenance and output digests."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result.update(returncode=proc.returncode, elapsed_s=elapsed,
                  stderr=proc.stderr[-2000:], provenance=None, output_digests=[],
                  recorded={})
    path = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    if proc.returncode == 0 and path.exists():
        detail = json.loads(path.read_text())
        result.update(provenance=detail["provenance"],
                      output_digests=detail["output_digests"],
                      recorded=detail["end_to_end"])
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", type=Path, default=None,
                   help="merge the summary into this JSON file")
    args = p.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    section = "per_layer" if args.trace else "end_to_end"
    doc = {}
    if args.baseline and args.baseline.exists():
        doc = json.loads(args.baseline.read_text())
    ok = True
    for workload in names:
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(r)
            status = "ok" if r["correct"] and r["returncode"] == 0 else "FAILED"
            print(f"# {workload} seed {seed}: {status} in {r['elapsed_s']:.1f} s",
                  flush=True)
            if status != "ok":
                ok = False
                print(r["stderr"], file=sys.stderr)
        values: dict[str, list] = {}
        units: dict[str, str] = {}
        for r in runs:
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        if not args.trace:
            values["wall_s"] = [r["recorded"]["wall_s"]["value"]
                                for r in runs if r["recorded"]]
            units["wall_s"] = "s"
            values["error_rate"] = [r["failed"] / r["attempted"] for r in runs]
            units["error_rate"] = "1"
        values["run_elapsed_s"] = [r["elapsed_s"] for r in runs]
        units["run_elapsed_s"] = "s"

        table = {}
        for name, vals in values.items():
            table[name] = dict(summary(vals), unit=units[name], values=vals)
            if name in bounds:
                table[name]["bound"] = bounds[name]
        print(f"{'workload':14s} {'metric':34s} {'unit':6s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, row in table.items():
            bound = f"{row['bound']:6.2f}" if "bound" in row else ""
            print(f"{workload:14s} {name:34s} {row['unit']:6s} {row['median']:12.6g} "
                  f"{row['q1']:12.6g} {row['q3']:12.6g} {row['spread']:7.4f} {bound}")
        entry = doc.setdefault("workloads", {}).setdefault(workload, {})
        entry[section] = {"seeds": seeds, "seconds": spec["run_seconds"],
                          "metrics": table}
        if runs[0]["provenance"] is not None:
            entry["provenance"] = runs[0]["provenance"]
        digests = entry.setdefault("digests", {})
        for seed, r in zip(seeds, runs):
            if r["output_digests"]:
                digests[str(seed)] = r["output_digests"][0]

    if args.baseline:
        args.baseline.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
