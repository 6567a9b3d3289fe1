"""Dataset -> design matrix through one train-fitted feature plan, and
leakage-safe splits."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset
from .errors import InvalidArgumentError, SchemaMismatchError


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    mode: str = "grouped_by_session"  # or "iid"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidArgumentError("test_fraction must be in (0,1)")
        if self.mode not in ("grouped_by_session", "iid"):
            raise InvalidArgumentError(f"unknown split mode {self.mode!r}")
        if self.seed < 0:
            raise InvalidArgumentError(
                f"split seed must be a non-negative integer, got {self.seed}"
            )


@dataclass(frozen=True)
class FittedPreprocessor:
    """The feature plan fitted on a training split.

    ``feature_columns`` is the design-matrix column order. A categorical
    feature has a label -> code mapping in ``encoders``, codes in
    first-appearance order; a numeric one has a population ``mean`` and
    ``std``. Building a plan checks that every feature has exactly one of the
    two, that no mapping or statistic names another column, and that every
    mean is finite and every std finite and above 0.
    """

    feature_columns: list[str]
    encoders: dict[str, dict[str, int]]
    mean: dict[str, float]
    std: dict[str, float]
    target_column: str

    def __post_init__(self):
        for name in self.feature_columns:
            has = (name in self.encoders, name in self.mean, name in self.std)
            if has not in ((True, False, False), (False, True, True)):
                raise InvalidArgumentError(
                    f"feature column {name!r} needs either a label mapping or a mean and std")
        stray = {*self.encoders, *self.mean, *self.std}.difference(self.feature_columns)
        if stray:
            raise InvalidArgumentError(f"encodings of non-feature columns {sorted(stray)}")
        for name, mu in self.mean.items():
            sigma = self.std[name]
            if not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0):
                raise InvalidArgumentError(
                    f"column {name!r} needs a finite mean and a finite std above 0, "
                    f"got mean {mu!r} and std {sigma!r}")

    @classmethod
    def fit(cls, train: Dataset, exclude: tuple[str, ...] = ()) -> "FittedPreprocessor":
        """Plan the features of ``train``, leaving out meta and group columns
        and ``exclude``. A constant numeric column is dropped with a warning."""
        if len(train) == 0:
            raise InvalidArgumentError("training dataset is empty")
        features, encoders, mean, std, target = [], {}, {}, {}, ""
        for col in train.schema:
            if col.kind in ("meta", "group") or col.name in exclude:
                continue
            if col.kind == "target":
                target = col.name
                continue
            values = train.column(col.name)
            if col.kind == "categorical":
                labels = dict.fromkeys(values.tolist())
                encoders[col.name] = {lab: code for code, lab in enumerate(labels)}
            else:
                values = values.astype(np.float64)
                sigma = float(np.std(values))  # population sigma
                if sigma == 0.0:
                    warnings.warn(
                        f"column {col.name!r} is constant on the training split; dropped")
                    continue
                mean[col.name] = float(np.mean(values))
                std[col.name] = sigma
            features.append(col.name)
        return cls(features, encoders, mean, std, target)

    def to_doc(self) -> dict:
        """The plan as a JSON document; ``scaler.columns`` is derived from
        the plan (the features that have a mean, in order) and not read back."""
        return {
            "feature_columns": list(self.feature_columns),
            "encoders": dict(self.encoders),
            "scaler": {
                "columns": [c for c in self.feature_columns if c in self.mean],
                "mean": dict(self.mean),
                "std": dict(self.std),
            },
            "target_column": self.target_column,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FittedPreprocessor":
        scaler = doc["scaler"]
        return cls(
            feature_columns=list(doc["feature_columns"]),
            encoders={c: {k: int(v) for k, v in m.items()} for c, m in doc["encoders"].items()},
            mean={k: float(v) for k, v in scaler["mean"].items()},
            std={k: float(v) for k, v in scaler["std"].items()},
            target_column=doc["target_column"],
        )


def fit_transform(
    train: Dataset, exclude: tuple[str, ...] = ()
) -> tuple[np.ndarray, np.ndarray, FittedPreprocessor]:
    """Fit the feature plan on ``train`` and return (X, y, plan)."""
    fitted = FittedPreprocessor.fit(train, exclude)
    X, y = transform(train, fitted)
    return X, y, fitted


def transform(dataset: Dataset, fitted: FittedPreprocessor) -> tuple[np.ndarray, np.ndarray]:
    """Encode and scale ``dataset`` with the plan's train-fitted values."""
    names = set(dataset.column_names())
    missing = [c for c in (*fitted.feature_columns, fitted.target_column) if c not in names]
    if missing:
        raise SchemaMismatchError(f"dataset lacks fitted columns {missing}")
    matrix_cols = []
    for name in fitted.feature_columns:
        values = dataset.column(name)
        mapping = fitted.encoders.get(name)
        if mapping is None:
            values = values.astype(np.float64)
            matrix_cols.append((values - fitted.mean[name]) / fitted.std[name])
            continue
        # Unseen labels get the reserved overflow code (max + 1). A dict lookup per
        # label beats np.unique here: that sorts str objects one comparison at a time.
        labels = values.tolist()
        overflow = len(mapping)
        unseen = set(labels).difference(mapping)
        if unseen:
            warnings.warn(
                f"column {name!r}: unseen labels {sorted(unseen)} "
                f"mapped to overflow code {overflow}"
            )
        codes = [mapping.get(lab, overflow) for lab in labels]
        matrix_cols.append(np.array(codes, dtype=np.float64))
    X = np.column_stack(matrix_cols)
    y = dataset.column(fitted.target_column).astype(np.float64)
    return X, y


def _group_column(dataset: Dataset) -> str:
    """Augmented siblings share ``base_session_id``; base rows are their own group."""
    return "base_session_id" if dataset.has_column("base_session_id") else "session_id"


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split; grouped mode keeps augmented siblings together."""
    n = len(dataset)
    if n < 5:
        raise InvalidArgumentError(f"need at least 5 rows to split, got {n}")
    rng = np.random.default_rng(spec.seed)

    if spec.mode == "iid":
        n_test = round(n * spec.test_fraction)
        if n_test < 1 or n_test >= n:
            raise InvalidArgumentError("test fraction leaves an empty side")
        perm = rng.permutation(n)
        test_idx = np.sort(perm[:n_test])
        train_idx = np.sort(perm[n_test:])
    else:
        groups = dataset.column(_group_column(dataset))
        # Not np.unique: its first call imports numpy.ma, about 20 ms per process.
        unique = np.array(sorted(set(groups.tolist())), dtype=groups.dtype)
        n_test_groups = round(len(unique) * spec.test_fraction)
        if n_test_groups < 1 or n_test_groups >= len(unique):
            raise InvalidArgumentError("too few groups for the requested fraction")
        perm = rng.permutation(len(unique))
        in_test = np.isin(groups, unique[perm[:n_test_groups]])
        test_idx = np.flatnonzero(in_test)
        train_idx = np.flatnonzero(~in_test)

    return dataset.subset(train_idx), dataset.subset(test_idx)


def held_out_group_ids(test: Dataset) -> list[int]:
    """Group ids in the test split, for the audit trail in reports."""
    return sorted(set(test.column(_group_column(test)).tolist()))
