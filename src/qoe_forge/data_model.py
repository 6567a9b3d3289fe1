"""The columnar dataset type, CSV I/O, and the seeded synthetic base-dataset generator.

The original 450-session HAS dataset is not publicly available, so
``generate_base_dataset`` plants a documented latent MOS function instead:
quality helps, stalls hurt, variance hurts. The exact feature schema is a
reconstruction (the source data lists feature categories only) and is part
of the public CSV contract below.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import sys
from dataclasses import InitVar, dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    CsvParseError,
    InvalidArgumentError,
    RowValidationError,
    SchemaMismatchError,
)

CONTENT_TYPES = ("sports", "movie", "news", "animation")
DEVICES = ("phone", "tablet", "tv", "desktop")
ENCODING_PROFILES = ("h264_main", "h264_high", "hevc_main", "av1_main")

BITRATE_MIN_KBPS = 300.0
BITRATE_MAX_KBPS = 20000.0


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # numeric | categorical | target | group | meta


BASE_SCHEMA: tuple[Column, ...] = (
    Column("session_id", "meta"),
    Column("content_type", "categorical"),
    Column("device", "categorical"),
    Column("encoding_profile", "categorical"),
    Column("duration_s", "numeric"),
    Column("bitrate_mean_kbps", "numeric"),
    Column("bitrate_std_kbps", "numeric"),
    Column("vmaf_mean", "numeric"),
    Column("vmaf_std", "numeric"),
    Column("ssim_mean", "numeric"),
    Column("qp_mean", "numeric"),
    Column("stall_duration_s", "numeric"),
    Column("stall_count", "numeric"),
    Column("mos", "target"),
)

AUGMENTED_SCHEMA: tuple[Column, ...] = BASE_SCHEMA + (
    Column("demographic", "categorical"),
    Column("base_session_id", "group"),
)

_INT_COLUMNS = {"session_id", "stall_count", "base_session_id"}
_STRING_COLUMNS = {c.name for c in AUGMENTED_SCHEMA if c.kind == "categorical"}

# Rows per block when CSV text is formatted or parsed, so neither holds a
# Python object per cell of the whole file at once.
_BLOCK_ROWS = 1024


def _dtype(name: str):
    """Column storage: object arrays of str, int64, or float64."""
    if name in _STRING_COLUMNS:
        return object
    return np.int64 if name in _INT_COLUMNS else np.float64


@dataclass(frozen=True, eq=False)
class Dataset:
    """One read-only numpy column per schema column.

    Columns are equal-length 1-D arrays: int64 for ids and ``stall_count``,
    object arrays of ``str`` for categoricals, float64 for the rest. They are
    copied and frozen on construction, so a dataset never changes; derived
    datasets are new objects.
    ``copy=False`` hands over arrays that nothing else holds (the module's
    own constructors pass freshly computed ones): they are frozen in place
    instead of copied.
    """

    schema: tuple[Column, ...]
    columns: Mapping[str, np.ndarray]
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool):
        names = [c.name for c in self.schema]
        if sorted(self.columns) != sorted(names):
            raise SchemaMismatchError(
                f"columns {sorted(self.columns)} do not match the schema {names}"
            )
        to_array = np.array if copy else np.asarray
        frozen = {name: to_array(self.columns[name], dtype=_dtype(name)) for name in names}
        if any(a.ndim != 1 for a in frozen.values()) or len(set(map(len, frozen.values()))) > 1:
            raise InvalidArgumentError("columns must be 1-D arrays of one length")
        for arr in frozen.values():
            arr.flags.writeable = False
        object.__setattr__(self, "columns", MappingProxyType(frozen))

    def __len__(self) -> int:
        return len(self.columns[self.schema[0].name])

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def column_names(self) -> list[str]:
        return [c.name for c in self.schema]

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            schema=self.schema,
            columns={name: col[idx] for name, col in self.columns.items()},
            copy=False,
        )

    def violations(self) -> list[tuple[int, str]]:
        """Every broken session invariant as (1-based row, message), row-major."""
        c = self.columns

        def outside(name, lo, hi):
            values = c[name]
            return (~((lo <= values) & (values <= hi)),
                    lambda i: f"{name} {values[i].item()} outside [{lo},{hi}]")

        checks = [
            (c["session_id"] < 0, "session_id < 0"),
            (c["duration_s"] <= 0, "duration_s <= 0"),
            (c["bitrate_mean_kbps"] <= 0, "bitrate_mean_kbps <= 0"),
            (c["bitrate_std_kbps"] < 0, "bitrate_std_kbps < 0"),
            outside("vmaf_mean", 0, 100),
            (c["vmaf_std"] < 0, "vmaf_std < 0"),
            outside("ssim_mean", 0, 1),
            outside("qp_mean", 0, 51),
            (c["stall_duration_s"] < 0, "stall_duration_s < 0"),
            (c["stall_count"] < 0, "stall_count < 0"),
            ((c["stall_count"] == 0) & (c["stall_duration_s"] != 0),
             "stall_count = 0 but stall_duration_s != 0"),
            outside("mos", 0, 100),
        ]
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        return [
            (i + 1, msg if isinstance(msg, str) else msg(i))
            for i in np.flatnonzero(bad).tolist()
            for mask, msg in checks
            if mask[i]
        ]

    def validate_rows(self) -> None:
        failures = self.violations()
        if failures:
            raise RowValidationError(failures)


def generate_base_dataset(n: int, seed: int) -> Dataset:
    """Sample ``n`` synthetic sessions, deterministic in ``(n, seed)``.

    The MOS is a planted function of the session's own impact factors:
    ``clip(100*quality_boost - 40*rebuff_impact - 15*quality_variance
    + N(0, 2^2), 0, 100)``.
    """
    from .demographics import compute_impact_factors

    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)

    u = rng.uniform(0.0, 1.0, n)  # log-uniform quantile, reused as bitrate rank
    bitrate_mean = BITRATE_MIN_KBPS * (BITRATE_MAX_KBPS / BITRATE_MIN_KBPS) ** u
    # Lower clip is 0.5 rather than 0: the latent MOS divides by vmaf_mean.
    vmaf_mean = np.clip(
        100.0 * (1.0 - np.exp(-bitrate_mean / 4000.0)) + rng.normal(0.0, 3.0, n),
        0.5,
        100.0,
    )
    ssim_mean = np.clip(
        0.5 + 0.005 * vmaf_mean + rng.normal(0.0, 0.02, n), 0.0, 1.0
    )
    stall_count = rng.poisson(0.6, n)
    stall_duration = stall_count * rng.exponential(1.5, n)
    bitrate_std = bitrate_mean * rng.uniform(0.02, 0.25, n)
    vmaf_std = vmaf_mean * rng.uniform(0.02, 0.25, n)
    qp_mean = np.clip(51.0 - 40.0 * u + rng.normal(0.0, 2.0, n), 0.0, 51.0)
    duration = rng.uniform(60.0, 600.0, n)
    content = rng.choice(len(CONTENT_TYPES), n)
    device = rng.choice(len(DEVICES), n)
    encoding = rng.choice(len(ENCODING_PROFILES), n)
    mos_noise = rng.normal(0.0, 2.0, n)

    columns = {
        "session_id": np.arange(n),
        "content_type": np.array(CONTENT_TYPES, dtype=object)[content],
        "device": np.array(DEVICES, dtype=object)[device],
        "encoding_profile": np.array(ENCODING_PROFILES, dtype=object)[encoding],
        "duration_s": duration,
        "bitrate_mean_kbps": bitrate_mean,
        "bitrate_std_kbps": bitrate_std,
        "vmaf_mean": vmaf_mean,
        "vmaf_std": vmaf_std,
        "ssim_mean": ssim_mean,
        "qp_mean": qp_mean,
        "stall_duration_s": stall_duration,
        "stall_count": stall_count,
    }
    f = compute_impact_factors(columns)
    latent = (
        100.0 * f.quality_boost
        - 40.0 * f.rebuff_impact
        - 15.0 * f.quality_variance
        + mos_noise
    )
    columns["mos"] = np.minimum(np.maximum(latent, 0.0), 100.0)
    return Dataset(schema=BASE_SCHEMA, columns=columns, copy=False)


def _quote(text: str) -> str:
    """``text`` as the csv module writes it as one cell of a row."""
    buf = io.StringIO()
    # "\r\n" as terminator makes the writer quote a lone "\r" as well as "\n".
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-3]  # drop the empty second cell's "," and "\r\n"


def _format_runs(values: np.ndarray, fmt):
    """``fmt`` of each value, called once per run of equal adjacent values.

    Runs compare the values' 64-bit patterns, so ``0.0`` and ``-0.0`` stay
    apart. Augmented data repeats most numeric columns once per demographic
    profile; values without runs are formatted one by one.
    """
    bits = values.view(np.int64)
    heads = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if len(heads) == len(values) - 1:
        return map(fmt, values.tolist())
    starts = np.concatenate(([0], heads))
    texts = np.array(list(map(fmt, values[starts].tolist())), dtype=object)
    return np.repeat(texts, np.diff(starts, append=len(values))).tolist()


def _csv_blocks(dataset: Dataset):
    """The canonical CSV text, header first, in blocks of ``_BLOCK_ROWS`` rows.

    Ints are written with ``str``, floats with ``repr`` (round-trip
    precision) and categoricals quoted by the csv module's minimal rules.
    """
    names = dataset.column_names()
    yield ",".join(map(_quote, names)) + "\n"
    quoted = {
        name: {v: _quote(str(v)) for v in set(dataset.column(name).tolist())}
        for name in names
        if name in _STRING_COLUMNS
    }
    for start in range(0, len(dataset), _BLOCK_ROWS):
        cells = []
        for name in names:
            values = dataset.column(name)[start:start + _BLOCK_ROWS]
            if name in quoted:
                cells.append(map(quoted[name].__getitem__, values.tolist()))
            else:
                cells.append(_format_runs(values, str if name in _INT_COLUMNS else repr))
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def write_csv(dataset: Dataset, path) -> None:
    """Emit the dataset in schema column order with round-trip float precision."""
    if len(dataset) == 0:
        raise InvalidArgumentError("cannot write an empty dataset")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_csv_blocks(dataset))


def dataset_hash(dataset: Dataset) -> str:
    """SHA-256 of the canonical CSV emission; stable content identity."""
    digest = hashlib.sha256()
    for block in _csv_blocks(dataset):
        digest.update(block.encode("utf-8"))
    return digest.hexdigest()


def _parse_column(name: str, cells: tuple[str, ...]) -> np.ndarray:
    """One column's array; raises ValueError or OverflowError on a bad cell.

    Ints must fit int64 and floats must be finite.
    """
    if name in _STRING_COLUMNS:  # equal labels then share one str object
        return np.array(list(map(sys.intern, cells)), dtype=object)
    arr = np.array(list(map(int if name in _INT_COLUMNS else float, cells)), dtype=_dtype(name))
    if name not in _INT_COLUMNS and not np.isfinite(arr).all():
        raise ValueError(f"non-finite value in {name}")
    return arr


def _cell_ok(name: str, cell: str) -> bool:
    """Whether ``_parse_column`` accepts ``cell`` in column ``name``."""
    if name in _STRING_COLUMNS:
        return True
    try:
        value = int(cell) if name in _INT_COLUMNS else float(cell)
    except ValueError:
        return False
    if name in _INT_COLUMNS:
        return -(2**63) <= value < 2**63
    return math.isfinite(value)


def _parse_block(records: list[list[str]], header: list[str], first_row: int) -> dict:
    """Columns of one block of records; raises the row-major first fault.

    Every column is parsed at once when every record has the header's width.
    Otherwise, or when a column fails, the block is scanned row by row as a
    row-at-a-time reader would: a record with the wrong cell count fails
    before any of its cells, then the first cell ``_cell_ok`` rejects.
    """
    width = len(header)
    if {*map(len, records)} == {width}:
        try:
            return {name: _parse_column(name, cells)
                    for name, cells in zip(header, zip(*records))}
        except (ValueError, OverflowError):
            pass
    for row, record in enumerate(records, first_row):
        if len(record) != width:
            raise SchemaMismatchError(f"row {row}: expected {width} cells, got {len(record)}")
        for name, cell in zip(header, record):
            if not _cell_ok(name, cell):
                raise CsvParseError(row, name, cell)
    raise AssertionError("_cell_ok accepts a block that _parse_column rejects")


def read_csv(path) -> Dataset:
    """Ingest a base or augmented CSV, validating schema and row invariants."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatchError("file has no header row") from None
        base_names = [c.name for c in BASE_SCHEMA]
        aug_names = [c.name for c in AUGMENTED_SCHEMA]
        if header == base_names:
            schema = BASE_SCHEMA
        elif header == aug_names:
            schema = AUGMENTED_SCHEMA
        else:
            raise SchemaMismatchError(
                f"header {header!r} matches neither the base nor the augmented schema"
            )
        parts = {name: [np.empty(0, dtype=_dtype(name))] for name in header}
        first_row = 1
        while block := list(itertools.islice(reader, _BLOCK_ROWS)):
            for name, arr in _parse_block(block, header, first_row).items():
                parts[name].append(arr)
            first_row += len(block)

    ds = Dataset(
        schema=schema,
        columns={name: np.concatenate(p) for name, p in parts.items()},
        copy=False,
    )
    ds.validate_rows()
    return ds
