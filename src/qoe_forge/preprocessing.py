"""Dataset -> design matrix: label encoding, standardization, leakage-safe splits."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset
from .errors import InvalidArgumentError, SchemaMismatchError


@dataclass
class ColumnEncoder:
    """Label -> dense 0-based code, assigned in first-appearance order."""

    column: str
    mapping: dict[str, int] = field(default_factory=dict)

    def fit(self, labels) -> "ColumnEncoder":
        for lab in dict.fromkeys(np.asarray(labels, dtype=object).tolist()):
            self.mapping.setdefault(lab, len(self.mapping))
        return self

    def encode(self, labels) -> np.ndarray:
        # Unseen labels get the reserved overflow code (max + 1). A dict lookup
        # per label beats np.unique here: that sorts str objects one Python
        # comparison at a time.
        labels = np.asarray(labels, dtype=object).tolist()
        overflow = len(self.mapping)
        unseen = set(labels).difference(self.mapping)
        if unseen:
            warnings.warn(
                f"column {self.column!r}: unseen labels {sorted(unseen)} "
                f"mapped to overflow code {overflow}"
            )
        lookup = self.mapping.get
        return np.array([lookup(lab, overflow) for lab in labels], dtype=np.float64)


@dataclass
class StandardScaler:
    """Per-column population mean/std fitted on the training split."""

    columns: list[str] = field(default_factory=list)
    mean: dict[str, float] = field(default_factory=dict)
    std: dict[str, float] = field(default_factory=dict)

    def fit(self, name: str, values: np.ndarray) -> bool:
        mu = float(np.mean(values))
        sigma = float(np.std(values))  # population sigma
        if sigma == 0.0:
            warnings.warn(f"column {name!r} is constant on the training split; dropped")
            return False
        self.columns.append(name)
        self.mean[name] = mu
        self.std[name] = sigma
        return True

    def transform(self, name: str, values: np.ndarray) -> np.ndarray:
        return (values - self.mean[name]) / self.std[name]


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


@dataclass
class FittedPreprocessor:
    """Train-fitted encoders/scaler plus the resulting feature column order."""

    feature_columns: list[str]
    encoders: dict[str, ColumnEncoder]
    scaler: StandardScaler
    target_column: str

    def to_doc(self) -> dict:
        return {
            "feature_columns": list(self.feature_columns),
            "encoders": {c: e.mapping for c, e in self.encoders.items()},
            "scaler": {
                "columns": list(self.scaler.columns),
                "mean": dict(self.scaler.mean),
                "std": dict(self.scaler.std),
            },
            "target_column": self.target_column,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FittedPreprocessor":
        encoders = {
            c: ColumnEncoder(c, {k: int(v) for k, v in m.items()})
            for c, m in doc["encoders"].items()
        }
        scaler = StandardScaler(
            columns=list(doc["scaler"]["columns"]),
            mean={k: float(v) for k, v in doc["scaler"]["mean"].items()},
            std={k: float(v) for k, v in doc["scaler"]["std"].items()},
        )
        return cls(
            feature_columns=list(doc["feature_columns"]),
            encoders=encoders,
            scaler=scaler,
            target_column=doc["target_column"],
        )


def fit_transform(
    train: Dataset, exclude: tuple[str, ...] = ()
) -> tuple[np.ndarray, np.ndarray, FittedPreprocessor]:
    """Fit encoders/scaler on ``train`` and return (X, y, fitted state).

    Meta and group columns are excluded; categorical columns (including the
    demographic label when present) are label-encoded; numeric columns are
    standardized with population sigma. Constant numeric columns are dropped.
    """
    if len(train) == 0:
        raise InvalidArgumentError("training dataset is empty")

    encoders: dict[str, ColumnEncoder] = {}
    scaler = StandardScaler()
    feature_columns: list[str] = []
    target_column = ""
    matrix_cols: list[np.ndarray] = []

    for col in train.schema:
        if col.kind in ("meta", "group") or col.name in exclude:
            continue
        if col.kind == "target":
            target_column = col.name
            continue
        values = train.column(col.name)
        if col.kind == "categorical":
            enc = ColumnEncoder(col.name).fit(values)
            encoders[col.name] = enc
            feature_columns.append(col.name)
            matrix_cols.append(enc.encode(values))
        else:
            vals = values.astype(np.float64)
            if scaler.fit(col.name, vals):
                feature_columns.append(col.name)
                matrix_cols.append(scaler.transform(col.name, vals))

    fitted = FittedPreprocessor(feature_columns, encoders, scaler, target_column)
    X = np.column_stack(matrix_cols)
    y = train.column(target_column).astype(np.float64)
    return X, y, fitted


def transform(
    dataset: Dataset, fitted: FittedPreprocessor
) -> tuple[np.ndarray, np.ndarray]:
    """Apply train-fitted parameters; never refits."""
    names = set(dataset.column_names())
    missing = [c for c in fitted.feature_columns if c not in names]
    if missing:
        raise SchemaMismatchError(f"dataset lacks fitted feature columns {missing}")
    matrix_cols = []
    for name in fitted.feature_columns:
        values = dataset.column(name)
        if name in fitted.encoders:
            matrix_cols.append(fitted.encoders[name].encode(values))
        else:
            matrix_cols.append(fitted.scaler.transform(name, values.astype(np.float64)))
    X = np.column_stack(matrix_cols)
    y = dataset.column(fitted.target_column).astype(np.float64)
    return X, y


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
        group_col = (
            "base_session_id" if dataset.has_column("base_session_id") else "session_id"
        )
        groups = dataset.column(group_col)
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
    col = "base_session_id" if test.has_column("base_session_id") else "session_id"
    return sorted(set(test.column(col).tolist()))
