"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload paper_compare --seed 1 --seconds 40 --trace 0

Run from the root of a qoe-forge checkout: the package is imported from
``src/``, never from an installed copy. With ``--trace 0`` the last stdout
line is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run. A result file with a provenance
block is written under ``perfbench/results/``. An untraced run sets up
``SETUP_RUNS`` times, its own plus one-at-a-time ``--setup-only`` processes
after the timed passes, and reports the median as ``setup_s``. The exit code
is 0 when every operation and output check succeeded, 1 when one failed, 2 on
bad usage or when the package sources are missing.
"""

import os
import time


def process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable).

    The start time is kept in clock ticks, so this has a 10 ms resolution.
    """
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


# The process's age and the clock reading taken with it, before anything else.
AGE_AT_START, T_AGE = process_age(), time.perf_counter()

# One client, one process, no extra threads: BLAS gets a single thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_r2", "1"),
)

# Set-ups per untraced run: its own plus fresh processes after the passes.
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120


def recorded_digest(workload: str, seed: int) -> str | None:
    """The output digest baseline.json records for this workload and seed."""
    try:
        doc = json.loads((HERE / "baseline.json").read_text())
        return doc["workloads"][workload]["digests"][str(seed)]
    except (OSError, ValueError, KeyError):
        return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny input sizes, for the benchmark's self-tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit")
    return p.parse_args(argv)


def usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import qoe_forge from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "qoe_forge" / "cli.py").is_file():
        usage_error(f"no qoe-forge sources at {src}")
    sys.path.insert(0, str(src))
    import qoe_forge

    if Path(qoe_forge.__file__).resolve().parent != src / "qoe_forge":
        usage_error(f"qoe_forge imported from {qoe_forge.__file__}, not {src}")


def measure(w, seconds: float, trace: bool):
    """Prepare the inputs once, then run passes for ``seconds``.

    A pass starts only if it would end within ``seconds``, judged by the
    pass before it, so a run does not overshoot by most of a pass. The
    reference computation runs before the first pass and after each one.
    Untraced: every pass is timed, at least one. Traced: set-up runs under
    the tracer and passes alternate untraced and traced, at least one of each.
    """
    import layers
    from reference import reference_seconds
    from tracing import Tracer

    def start_tracing():
        tracer = Tracer()
        layers.install(tracer)
        w.tracer = tracer
        return tracer

    def stop_tracing(tracer):
        tracer.restore()
        w.tracer = None
        layers.finalize(tracer.spans)
        return tracer.spans

    tracer = start_tracing() if trace else None
    started = time.perf_counter()
    w.prepare()
    setup = time.perf_counter() - started
    setup_spans = stop_tracing(tracer) if trace else []
    first_pass = time.perf_counter()

    passes = []  # (wall seconds, traced, spans, R^2 scores, reference seconds)
    ref_before = reference_seconds()
    while True:
        is_traced = trace and len(passes) % 2 == 1
        w.reset_outputs()
        tracer = start_tracing() if is_traced else None
        started = time.perf_counter()
        w.timed_pass()
        wall = time.perf_counter() - started
        spans = stop_tracing(tracer) if is_traced else None
        ref_after = reference_seconds()
        passes.append((wall, is_traced, spans, w.check_pass(),
                       (ref_before + ref_after) / 2))
        ref_before = ref_after
        done = time.perf_counter() - first_pass + wall > seconds
        if done and (not trace or len(passes) >= 2):
            break
    return setup, setup_spans, passes


def pass_seconds(walls: list[float]) -> float:
    """Wall seconds of one pass: the mean over a run's timed passes.

    The first pass warms up (first-touch memory, lazily built state) and is
    left out when others follow it. The mean rather than the median, because
    on a shared virtual machine the CPU speed moves in spells of tens of
    seconds, and the mean of a whole run averages over them where the median
    picks one.
    """
    timed = walls[1:] or walls
    return sum(timed) / len(timed)


def at_reference_speed(wall: float, reference: float) -> float:
    """A pass's wall seconds had the CPU run at the reference speed, given the
    reference computation's mean seconds just before and after the pass."""
    from reference import REF_SECONDS

    return wall * REF_SECONDS / reference


def fresh_setup(args, w) -> float | None:
    """One more set-up, in a fresh process run to its end; its seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        seconds = float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    except (subprocess.TimeoutExpired, IndexError, ValueError, KeyError) as exc:
        w.check(False, f"set-up in a fresh process failed: {exc!r}")
        return None
    detail = proc.stderr[-2000:]
    return seconds if w.check(proc.returncode == 0, "set-up in a fresh process "
                              f"exited {proc.returncode}\n{detail}") else None


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(HERE))
    import layers
    from provenance import provenance
    from stats import median
    from tracing import span_table
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        usage_error(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(WORKLOADS)}")
    startup = AGE_AT_START + time.perf_counter() - T_AGE
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    expected = None if args.tiny else recorded_digest(args.workload, args.seed)
    try:
        w = WORKLOADS[args.workload](args.seed, work, tiny=args.tiny,
                                     expected_digest=expected)
        if args.setup_only:
            started = time.perf_counter()
            w.prepare()
            setup = startup + time.perf_counter() - started
            for message in w.failures:
                print(f"FAILED: {message}", file=sys.stderr)
            print(json.dumps({"setup_s": setup}))
            return 0 if w.failed == 0 else 1
        setup, setup_spans, passes = measure(w, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups = [startup + setup]
    if not args.trace:
        setups += [fresh_setup(args, w) for _ in range(SETUP_RUNS - 1)]
    scores = passes[0][3]
    untraced = [p[0] for p in passes if not p[1]]
    untraced_ref = [at_reference_speed(p[0], p[4]) for p in passes if not p[1]]
    record = {
        "setup_s": median(s for s in setups if s is not None),
        "wall_s": pass_seconds(untraced),
        "wall_ref_s": pass_seconds(untraced_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_r2": sum(scores) / len(scores) if scores else 0.0,
        "error_rate": w.failed / w.attempted,
    }
    units = dict(END_TO_END, wall_s="s", error_rate="1")
    if args.trace:
        traced = sorted((p for p in passes if p[1]), key=lambda p: p[0])
        median_spans = traced[(len(traced) - 1) // 2][2]
        values = layers.traced_metrics(setup_spans, median_spans,
                                       [p[0] for p in traced],
                                       untraced[1:] or untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": record[name], "unit": unit}
                   for name, unit in END_TO_END}

    result = {
        "correct": w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": metrics,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    detail = {
        "provenance": provenance(ROOT, w.name, args.seed, w.sizes()),
        "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in record.items()},
        "setup_runs_s": setups,
        "pass_walls_s": [p[0] for p in passes],
        "pass_reference_s": [p[4] for p in passes],
        "pass_traced": [p[1] for p in passes],
        "output_digests": w.digests,
        "failures": w.failures,
        "result": result,
    }
    if args.trace:
        phases = {"setup": setup_spans, "median_traced_pass": median_spans}
        detail["span_table"] = {k: span_table(v) for k, v in phases.items()}
        detail["spans"] = {k: [[s.name, s.start, s.end, s.parent, s.attrs] for s in v]
                           for k, v in phases.items()}
    suffix = "-tiny" if args.tiny else ""
    path = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")

    for name, entry in detail["end_to_end"].items():
        print(f"{w.name:14s} {name:12s} {entry['value']:12.6g} {entry['unit']}")
    for message in w.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
