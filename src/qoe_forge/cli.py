"""Command-line interface: generate, augment, split, train, evaluate, compare,
correlate, scatter.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data_model import generate_base_dataset, read_csv, write_csv
from .demographics import AugmentationConfig, augment_dataset
from .errors import QoeForgeError
from .harness import (
    ExperimentConfig,
    derive_model_seed,
    model_hyperparams,
    parse_config_file,
    report_to_json,
    run_compare,
    run_scatter_export,
    write_compare_csv,
    write_correlation_csv,
)
from .metrics import metric_block
from .model_io import ALL_KINDS, load_model, save_model, train_model
from .preprocessing import SplitSpec, fit_transform, split, transform

ENV_SEED = "QOE_FORGE_SEED"


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    return int(env) if env else 0


def _experiment_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_flat(parse_config_file(args.config))
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    elif os.environ.get(ENV_SEED):
        cfg.seed = int(os.environ[ENV_SEED])
    return cfg


def cmd_generate(args) -> int:
    ds = generate_base_dataset(args.n, _default_seed(args))
    write_csv(ds, args.out)
    print(f"wrote {len(ds)} rows to {args.out}")
    return 0


def cmd_augment(args) -> int:
    base = read_csv(args.input)
    cfg = AugmentationConfig(
        noise_sigma=args.noise_sigma,
        adjustment_scale=args.adjustment_scale,
        seed=_default_seed(args),
    )
    aug = augment_dataset(base, cfg)
    write_csv(aug, args.out)
    print(f"wrote {len(aug)} rows to {args.out}")
    return 0


def cmd_split(args) -> int:
    ds = read_csv(args.input)
    spec = SplitSpec(
        test_fraction=args.test_fraction, mode=args.mode, seed=_default_seed(args)
    )
    train_ds, test_ds = split(ds, spec)
    write_csv(train_ds, args.out_train)
    write_csv(test_ds, args.out_test)
    print(f"wrote {len(train_ds)} train rows, {len(test_ds)} test rows")
    return 0


def cmd_train(args) -> int:
    ds = read_csv(args.input)
    cfg = _experiment_config(args)
    X, y, fitted = fit_transform(ds)
    seed = derive_model_seed(cfg.seed, "train", args.model)
    model = train_model(args.model, X, y, model_hyperparams(cfg, args.model), seed)
    save_model(args.out, args.model, model, fitted)
    print(f"trained {args.model} on {len(ds)} rows; model saved to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    kind, model, fitted = load_model(args.model)
    if fitted is None:
        raise QoeForgeError("model document has no preprocessor; cannot evaluate")
    ds = read_csv(args.input)
    X, y = transform(ds, fitted)
    block = metric_block(y, model.predict(X))
    doc = {"schema_version": 1, "kind": kind, "metrics": block.to_doc(), "n": block.n}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_compare(args) -> int:
    cfg = _experiment_config(args)
    report, timings = run_compare(cfg)
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    write_compare_csv(report, os.path.join(args.out, "compare.csv"))
    with open(os.path.join(args.out, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump(timings, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote report to {report_path}")
    return 0


def cmd_correlate(args) -> int:
    ds = read_csv(args.input)
    corr = write_correlation_csv(ds, args.feature, args.out)
    for profile, value in corr.items():
        print(f"{profile}: {value:+.4f}")
    return 0


def cmd_scatter(args) -> int:
    cfg = _experiment_config(args)
    n = run_scatter_export(cfg, args.model, args.out)
    print(f"wrote {n} (true, predicted) pairs to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoe-forge",
        description="Demographic-aware QoE augmentation and MOS model benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"seed (falls back to ${ENV_SEED}, then 0)")
        p.add_argument("--config", default=None, help="experiment config file")

    p = sub.add_parser("generate", help="emit a synthetic base dataset CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("augment", help="6x demographic augmentation of a base CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--noise-sigma", type=float, default=2.0)
    p.add_argument("--adjustment-scale", type=float, default=12.0)
    common(p)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("split", help="train/test split of a dataset CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--mode", choices=["grouped_by_session", "iid"],
                   default="grouped_by_session")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    common(p)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("train", help="train one model on a CSV, save model JSON")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--model", choices=ALL_KINDS, required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a CSV")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("compare", help="base-vs-augmented benchmark of the roster")
    p.add_argument("--out", required=True, help="output directory")
    common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("correlate", help="per-demographic feature/MOS correlation")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--feature", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("scatter", help="export (true, predicted) MOS pairs")
    p.add_argument("--model", choices=ALL_KINDS, required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=cmd_scatter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except QoeForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
