"""Paired A/B benchmark: a base git ref against the working tree, run alternately.

    python3 scripts/ab_bench.py --base HEAD --seeds 11-20 --out BENCH.json
    python3 scripts/ab_bench.py --base main --seeds 1-2 --trace 1 --out BENCH_trace.json

The base ref's committed files are exported with ``git archive`` into a
temporary directory (no worktree is registered; the export is deleted at the
end). For each seed and every workload in BENCHMARK.json,
``perfbench/run.py`` runs once in each checkout, in a fresh process, with the
run length BENCHMARK.json fixes. Which side runs first alternates from pair to
pair, so slow drift of the host's speed falls on both sides alike; sequential
whole-suite sets do not have that property.

For every workload and metric it prints each side's median and quartiles and
how many pairs the change won (ties count for neither side), and it writes
all values to ``--out``. A pair in which either side failed is listed under
``runs`` but left out of the figures, and it counts as a pair the change did
not win. A metric's better direction comes from BENCHMARK.json (lower when not
listed there). ``claim`` is true when the change won at least nine tenths of
the pairs and the medians differ by more than the base's inter-quartile
distance. The script only invokes
``perfbench/run.py``; it imports nothing from ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def export_ref(ref: str, dest: Path) -> str:
    """Write the committed files of ``ref`` under ``dest``; return its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return commit.stdout.strip()


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its metric values and status."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    ok = proc.returncode == 0 and bool(result.get("correct"))
    detail = root / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    if ok and not trace:
        # The ungated figures (raw wall_s, error_rate) are in the result file,
        # which a failed run may not have rewritten.
        for name, m in json.loads(detail.read_text())["end_to_end"].items():
            values.setdefault(name, m["value"])
    return {"ok": ok, "values": values, "elapsed_s": elapsed,
            "stderr": "" if ok else proc.stderr[-2000:]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(pairs: list[dict], better: str, n_runs: int) -> dict:
    """Medians, quartiles and wins over ``pairs``, the complete ones of ``n_runs``."""
    base = [p["base"] for p in pairs]
    change = [p["change"] for p in pairs]
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    return {
        "better": better,
        "base": {"median": bmed, "q1": bq1, "q3": bq3, "values": base},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "values": change},
        "change_vs_base": (cmed - bmed) / abs(bmed) if bmed else 0.0,
        "wins": wins,
        "pairs": n_runs,
        "complete_pairs": len(pairs),
        "claim": wins >= 0.9 * n_runs and sign * (cmed - bmed) > bq3 - bq1,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="git ref of the base side")
    p.add_argument("--seeds", default="1-10", help="e.g. 11-20 or 3,5,7")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = p.parse_args(argv)

    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    export = Path(tempfile.mkdtemp(prefix="ab_bench_"))
    ok = True
    doc = {"seconds": seconds, "trace": args.trace, "seeds": seeds,
           "host": {"python": sys.version.split()[0], "nproc": os.cpu_count()},
           "workloads": {}}
    try:
        doc["base"] = {"ref": args.base, "commit": export_ref(args.base, export)}
        roots = {"base": export, "change": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    r = run_side(roots[side], workload, seed, seconds, args.trace)
                    pair[side] = r
                    if not r["ok"]:
                        ok = False
                        print(f"# {workload} seed {seed} {side}: FAILED\n{r['stderr']}",
                              file=sys.stderr)
                runs.append(pair)
                print(f"# {workload} seed {seed}: {order[0]} first, "
                      f"base {pair['base']['elapsed_s']:.0f} s, "
                      f"change {pair['change']['elapsed_s']:.0f} s", flush=True)
            done = [r for r in runs if r["base"]["ok"] and r["change"]["ok"]]
            names = [n for n in (done[0]["base"]["values"] if done else ())
                     if all(n in r[s]["values"] for r in done for s in ("base", "change"))]
            table = {
                name: compare([{s: r[s]["values"][name] for s in ("base", "change")}
                               for r in done], better.get(name, "lower"), len(runs))
                for name in names
            }
            doc["workloads"][workload] = {
                "metrics": table,
                "runs": [{"seed": r["seed"], "first": r["first"],
                          "base_ok": r["base"]["ok"], "change_ok": r["change"]["ok"]}
                         for r in runs],
            }
            print(f"{'workload':14s} {'metric':34s} {'base median [q1, q3]':>32s} "
                  f"{'change median [q1, q3]':>32s} {'delta':>8s} {'wins':>6s} claim")
            for name, row in table.items():
                b, c = row["base"], row["change"]
                print(f"{workload:14s} {name:34s} "
                      f"{b['median']:10.5g} [{b['q1']:9.5g}, {b['q3']:9.5g}] "
                      f"{c['median']:10.5g} [{c['q1']:9.5g}, {c['q3']:9.5g}] "
                      f"{100 * row['change_vs_base']:+7.1f}% "
                      f"{row['wins']:2d}/{row['pairs']:<2d} {row['claim']}", flush=True)
    finally:
        shutil.rmtree(export, ignore_errors=True)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
