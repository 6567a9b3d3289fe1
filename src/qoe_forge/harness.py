"""End-to-end experiment orchestration: generate/ingest -> augment -> split ->
preprocess -> train -> evaluate, with JSON reports and plot-ready CSV output.

Reports are byte-deterministic for a fixed config; wall-clock timings go to a
sidecar file so they never perturb the report itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, replace

from .data_model import Dataset, dataset_hash, generate_base_dataset, read_csv
from .demographics import (
    BUILTIN_PROFILES,
    AugmentationConfig,
    DemographicProfile,
    augment_dataset,
)
from .errors import InvalidArgumentError, QoeForgeError
from .metrics import correlation_by_demographic, metric_block
from .model_io import ALL_KINDS, model_params, train_model
from .params import check_params, convert, field_types
from .preprocessing import SplitSpec, fit_transform, split, held_out_group_ids, transform

REPORT_SCHEMA_VERSION = 1


def parse_config_file(path) -> dict:
    """Flat ``section.key = value`` text config; '#' starts a comment."""
    flat: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgumentError(f"config line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            flat[key.strip()] = _parse_value(value.strip())
    return flat


def _parse_value(text: str):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


# Flat config keys that set one ExperimentConfig field.
_FIELD_KEYS = {
    "dataset.path": "dataset_path",
    "dataset.n": "dataset_n",
    "dataset.seed": "dataset_seed",
    "run.seed": "seed",
    "run.include_demographic_feature": "include_demographic_feature",
}
_PROFILE_WEIGHTS = {
    name: annotation
    for name, annotation in field_types(DemographicProfile).items()
    if name != "id"
}


@dataclass
class ExperimentConfig:
    dataset_path: str | None = None
    dataset_n: int = 450
    dataset_seed: int = 42
    augment: AugmentationConfig = field(default_factory=lambda: AugmentationConfig(seed=1))
    split: SplitSpec = field(default_factory=SplitSpec)
    roster: tuple[str, ...] = ALL_KINDS
    model_params: dict = field(default_factory=dict)
    seed: int = 42
    include_demographic_feature: bool = True
    profiles: tuple[DemographicProfile, ...] = BUILTIN_PROFILES
    flat_echo: dict = field(default_factory=dict)  # the flat keys, echoed in reports

    @classmethod
    def from_flat(cls, flat: dict) -> "ExperimentConfig":
        """Build a config from flat keys; every key and value is checked, so a
        bad one fails here, before anything runs."""
        cfg = cls()
        own_types = field_types(cls)
        sections = {"augment": {"seed": 1}, "split": {}}
        nested: dict[str, dict] = {"models": {}, "profiles": {}}  # name -> params
        for key, value in flat.items():
            section, _, rest = key.partition(".")
            name, _, param = rest.partition(".")
            if key in _FIELD_KEYS:
                attr = _FIELD_KEYS[key]
                setattr(cfg, attr, convert(key, own_types[attr], value))
            elif key == "run.roster":
                roster = tuple(m.strip() for m in str(value).split(",") if m.strip())
                unknown = [m for m in roster if m not in ALL_KINDS]
                if unknown:
                    raise InvalidArgumentError(f"unknown roster models {unknown}")
                if not roster:
                    raise InvalidArgumentError("roster is empty")
                cfg.roster = roster
            elif section in sections and name and not param:
                sections[section][name] = value
            elif section in nested and param and "." not in param:
                nested[section].setdefault(name, {})[param] = value
            else:
                raise InvalidArgumentError(f"unknown config key {key!r}")
        aug, spl = sections["augment"], sections["split"]
        cfg.augment = AugmentationConfig(
            **check_params("augment", field_types(AugmentationConfig), aug)
        )
        cfg.split = SplitSpec(**check_params("split", field_types(SplitSpec), spl))
        cfg.model_params = {
            kind: model_params(kind, raw) for kind, raw in nested["models"].items()
        }
        profiles = {p.id: p for p in BUILTIN_PROFILES}
        for pid, raw in nested["profiles"].items():
            if pid not in profiles:
                raise InvalidArgumentError(f"unknown profile {pid!r}")
            profiles[pid] = replace(
                profiles[pid], **check_params(f"profiles.{pid}", _PROFILE_WEIGHTS, raw)
            )
        cfg.profiles = tuple(profiles[p.id] for p in BUILTIN_PROFILES)
        cfg.flat_echo = dict(sorted(flat.items()))
        return cfg


def derive_model_seed(global_seed: int, side: str, model: str) -> int:
    digest = hashlib.sha256(f"{global_seed}:{side}:{model}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def load_base_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset_path:
        return read_csv(cfg.dataset_path)
    return generate_base_dataset(cfg.dataset_n, cfg.dataset_seed)


def evaluate_side(cfg: ExperimentConfig, dataset: Dataset, side: str):
    """Split, preprocess, train and score every roster model on one dataset.

    Returns (side report dict, timings dict, per-model (y_true, y_pred)).
    """
    exclude = ()
    if side == "augmented" and not cfg.include_demographic_feature:
        exclude = ("demographic",)
    train_ds, test_ds = split(dataset, cfg.split)
    X_train, y_train, fitted = fit_transform(train_ds, exclude=exclude)
    X_test, y_test = transform(test_ds, fitted)

    models = {}
    timings = {}
    predictions = {}
    for name in cfg.roster:
        seed = derive_model_seed(cfg.seed, side, name)
        started = time.perf_counter()
        try:
            model = train_model(name, X_train, y_train, cfg.model_params.get(name), seed)
            y_pred = model.predict(X_test)
            models[name] = {"metrics": metric_block(y_test, y_pred).to_doc()}
            predictions[name] = (y_test, y_pred)
        except QoeForgeError as exc:
            models[name] = {"error": f"{type(exc).__name__}: {exc}"}
        timings[name] = time.perf_counter() - started

    report = {
        "dataset_hash": dataset_hash(dataset),
        "n_rows": len(dataset),
        "n_train": len(train_ds),
        "n_test": len(test_ds),
        "test_group_ids": held_out_group_ids(test_ds),
        "models": models,
    }
    return report, timings, predictions


def _pct_change(base: float | None, aug: float | None) -> float | None:
    """Change from base to aug in percent of |base|; None where undefined."""
    if base is None or aug is None or base == 0.0:
        return None
    return 100.0 * (aug - base) / abs(base)


def _delta_pct(base: dict, aug: dict) -> dict:
    out = {}
    for name in base:
        mb = base[name].get("metrics")
        ma = aug.get(name, {}).get("metrics")
        if not mb or not ma:
            continue
        out[name] = {
            f"{m}_pct": _pct_change(mb[m], ma[m]) for m in ("rmse", "mae", "r2")
        }
    return out


def run_compare(cfg: ExperimentConfig):
    """Train the roster on base and augmented data; return (report, timings)."""
    base = load_base_dataset(cfg)
    augmented = augment_dataset(base, cfg.augment, cfg.profiles)
    base_report, base_times, _ = evaluate_side(cfg, base, "base")
    aug_report, aug_times, _ = evaluate_side(cfg, augmented, "augmented")
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": cfg.flat_echo,
        "seed": cfg.seed,
        "base": base_report,
        "augmented": aug_report,
        "delta_pct": _delta_pct(base_report["models"], aug_report["models"]),
    }
    timings = {"base": base_times, "augmented": aug_times}
    return report, timings


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_compare_csv(report: dict, path) -> None:
    """Plot-ready table behind the base-vs-augmented comparison figure."""
    metrics = ("rmse", "mae", "r2", "plcc", "srcc")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["model"]
            + [f"{m}_base" for m in metrics]
            + [f"{m}_augmented" for m in metrics]
            + ["rmse_delta_pct", "mae_delta_pct", "r2_delta_pct"]
        )
        for name in sorted(report["base"]["models"]):
            mb = report["base"]["models"][name].get("metrics")
            ma = report["augmented"]["models"][name].get("metrics")
            if not mb or not ma:
                continue
            delta = report["delta_pct"][name]
            cells = (
                [mb[m] for m in metrics]
                + [ma[m] for m in metrics]
                + [delta[k] for k in ("rmse_pct", "mae_pct", "r2_pct")]
            )
            # An undefined metric is an empty cell.
            writer.writerow([name] + ["" if v is None else repr(v) for v in cells])


def run_scatter_export(cfg: ExperimentConfig, model_name: str, path) -> int:
    """Write (true, predicted) MOS pairs for the test split of the augmented set."""
    if model_name not in cfg.roster:
        raise InvalidArgumentError(f"model {model_name!r} is not in the roster")
    base = load_base_dataset(cfg)
    augmented = augment_dataset(base, cfg.augment, cfg.profiles)
    single = replace(cfg, roster=(model_name,))
    _, _, predictions = evaluate_side(single, augmented, "augmented")
    if model_name not in predictions:
        raise QoeForgeError(f"model {model_name!r} failed to train")
    y_true, y_pred = predictions[model_name]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["true_mos", "predicted_mos"])
        for t, p in zip(y_true, y_pred):
            writer.writerow([repr(float(t)), repr(float(p))])
    return len(y_true)


def write_correlation_csv(dataset: Dataset, feature: str, path) -> dict[str, float | None]:
    """An undefined correlation is an empty cell."""
    corr = correlation_by_demographic(dataset, feature)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["demographic", "feature", "plcc"])
        for profile, value in corr.items():
            writer.writerow([profile, feature, "" if value is None else repr(value)])
    return corr
