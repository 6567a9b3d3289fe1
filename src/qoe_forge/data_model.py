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
import sys
import warnings
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
    dtype: type  # storage: np.int64, np.float64, or object (of str)


BASE_SCHEMA: tuple[Column, ...] = (
    Column("session_id", "meta", np.int64),
    Column("content_type", "categorical", object),
    Column("device", "categorical", object),
    Column("encoding_profile", "categorical", object),
    Column("duration_s", "numeric", np.float64),
    Column("bitrate_mean_kbps", "numeric", np.float64),
    Column("bitrate_std_kbps", "numeric", np.float64),
    Column("vmaf_mean", "numeric", np.float64),
    Column("vmaf_std", "numeric", np.float64),
    Column("ssim_mean", "numeric", np.float64),
    Column("qp_mean", "numeric", np.float64),
    Column("stall_duration_s", "numeric", np.float64),
    Column("stall_count", "numeric", np.int64),
    Column("mos", "target", np.float64),
)

AUGMENTED_SCHEMA: tuple[Column, ...] = BASE_SCHEMA + (
    Column("demographic", "categorical", object),
    Column("base_session_id", "group", np.int64),
)

# Each storage type's cell parser; interned labels share one str object.
_CELL_PARSERS = {np.int64: int, np.float64: float, object: sys.intern}

# Rows per block when CSV text is formatted or parsed, and when augmentation
# seeds its per-row noise, so none of them holds a Python object per cell or
# row of the whole dataset at once.
_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class Dataset:
    """One read-only numpy column per schema column.

    Columns are equal-length 1-D arrays of their schema column's ``dtype``
    (object arrays hold ``str``). They are copied and frozen on construction,
    so a dataset never changes; derived datasets are new objects.
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
        frozen = {c.name: to_array(self.columns[c.name], dtype=c.dtype) for c in self.schema}
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
    profile.
    """
    bits = values.view(np.int64)
    starts = np.concatenate(([0], np.flatnonzero(bits[1:] != bits[:-1]) + 1))
    texts = np.array(list(map(fmt, values[starts].tolist())), dtype=object)
    return np.repeat(texts, np.diff(starts, append=len(values))).tolist()


def _csv_blocks(dataset: Dataset):
    """The canonical CSV text, header first, in blocks of ``_BLOCK_ROWS`` rows.

    Numbers are written with ``repr`` (round-trip precision for floats; an
    int's ``repr`` is its ``str``) and categoricals quoted by the csv
    module's minimal rules.
    """
    names = dataset.column_names()
    yield ",".join(map(_quote, names)) + "\n"
    quoted = {
        c.name: {v: _quote(str(v)) for v in set(dataset.column(c.name).tolist())}
        for c in dataset.schema
        if c.dtype is object
    }
    for start in range(0, len(dataset), _BLOCK_ROWS):
        cells = []
        for name in names:
            values = dataset.column(name)[start:start + _BLOCK_ROWS]
            if name in quoted:
                cells.append(map(quoted[name].__getitem__, values.tolist()))
            else:
                cells.append(_format_runs(values, repr))
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


def _parse_column(col: Column, cells: tuple[str, ...]) -> np.ndarray:
    """One column's array; raises ValueError or OverflowError on a bad cell.

    Ints must fit int64 and floats must be finite.
    """
    arr = np.array(list(map(_CELL_PARSERS[col.dtype], cells)), dtype=col.dtype)
    if col.dtype is np.float64 and not np.isfinite(arr).all():
        raise ValueError(f"non-finite value in {col.name}")
    return arr


def _parse_block(records: list[list[str]], schema: tuple[Column, ...], first_row: int) -> dict:
    """Columns of one block of records; raises the row-major first fault.

    Every column is parsed at once when every record has the schema's width.
    Otherwise, or when a column fails, the block is scanned row by row as a
    row-at-a-time reader would: a record with the wrong cell count fails
    before any of its cells, then the first cell ``_parse_column`` rejects.
    """
    width = len(schema)
    if {*map(len, records)} == {width}:
        try:
            return {col.name: _parse_column(col, cells)
                    for col, cells in zip(schema, zip(*records))}
        except (ValueError, OverflowError):
            pass
    for row, record in enumerate(records, first_row):
        if len(record) != width:
            raise SchemaMismatchError(f"row {row}: expected {width} cells, got {len(record)}")
        for col, cell in zip(schema, record):
            try:
                _parse_column(col, (cell,))
            except (ValueError, OverflowError):
                raise CsvParseError(row, col.name, cell) from None
    raise AssertionError("a block that fails column by column has no failing cell")


# Characters whose block of lines goes to the csv module; see _bulk_columns.
_C_PARSER_DECLINES = '"\0\x1c\x1d\x1e\x1f'


def _bulk_columns(lines: list[str], schema: tuple[Column, ...], records: np.dtype):
    """Columns of one block of data lines, parsed by numpy's C parser, or None
    for a block that parser cannot be trusted with.

    A block it can be trusted with is ASCII text with no quote or NUL, no
    carriage return but in a line-final ``\r\n``, and no line longer than the
    csv module's field size limit: the csv module would read each of its
    lines as one record of the cells between commas, and ``np.loadtxt`` ends
    a line at its ``\r\n`` as the csv module does. Nor may it hold the
    separators ``\x1c``-``\x1f``, which numpy strips from a number as
    whitespace and Python does not. Then ``np.loadtxt`` reads a float cell
    as ``float`` does (with ``PyOS_string_to_double``) and an int cell only
    in syntax that ``int`` accepts, within int64; it refuses any other cell.
    Where it skips a blank line, the csv module gives a record of no cells.
    So when ``loadtxt`` returns one row per line with finite floats, the
    columns are those of ``_parse_block``; otherwise the block has a fault or
    a cell only the exact path reads.
    """
    text = "".join(lines)
    if (not text.isascii() or any(c in text for c in _C_PARSER_DECLINES)
            or "\r" in text and text.count("\r") != text.count("\r\n")
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        # Older numpy reads an int cell such as "1.5" through float, with a
        # DeprecationWarning; raised as an error, it declines the block.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=records, delimiter=",", comments=None,
                               quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if len(table) != len(lines):
        return None
    columns = {}
    for col in schema:
        cells = table[col.name]
        if col.dtype is np.float64 and not np.isfinite(cells).all():
            return None
        # Copies, so the table and the parser's own label objects are freed
        # with the block.
        columns[col.name] = np.array(
            list(map(sys.intern, cells)) if col.dtype is object else cells, dtype=col.dtype)
    return columns


def _header_schema(header: list[str] | None) -> tuple[Column, ...]:
    """The schema whose column names the header row lists."""
    if header is None:
        raise SchemaMismatchError("file has no header row")
    for schema in (BASE_SCHEMA, AUGMENTED_SCHEMA):
        if header == [c.name for c in schema]:
            return schema
    raise SchemaMismatchError(
        f"header {header!r} matches neither the base nor the augmented schema"
    )


def _read_columns(fh, path) -> tuple[tuple[Column, ...], dict]:
    """The schema the header row names and its columns, parsed block by block.

    Each block of ``_BLOCK_ROWS`` lines goes to ``_bulk_columns``. From the
    first block it declines, the csv module reads the rest of the file (a
    quoted cell may span lines) into records for ``_parse_block``. Text that
    is not UTF-8 or that the csv module rejects is an
    ``InvalidArgumentError`` naming ``path``, and for the csv module the file
    line; a fault of a record before the one the csv module rejects comes
    first.
    """
    reader = csv.reader(fh)
    lines_before = 0  # file lines before the first that ``reader`` reads
    try:
        schema = _header_schema(next(reader, None))
        records = np.dtype([(c.name, c.dtype) for c in schema])
        parts = {c.name: [np.empty(0, dtype=c.dtype)] for c in schema}
        first_row = 1
        while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
            columns = _bulk_columns(lines, schema, records)
            if columns is None:
                # Every line so far was one record.
                lines_before = reader.line_num + first_row - 1
                reader = csv.reader(itertools.chain(lines, fh))
                break
            for name, arr in columns.items():
                parts[name].append(arr)
            first_row += len(lines)
        # After a block went to the csv module, the rest of the file; at the
        # end of the file, nothing.
        while True:
            block = []
            try:
                # ``extend`` keeps the records read before one the csv
                # module rejects.
                block.extend(itertools.islice(reader, _BLOCK_ROWS))
            except csv.Error:
                if block:  # their first fault comes first in row-major order
                    _parse_block(block, schema, first_row)
                raise
            if not block:
                break
            for name, arr in _parse_block(block, schema, first_row).items():
                parts[name].append(arr)
            first_row += len(block)
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise InvalidArgumentError(
            f"{path}, line {lines_before + reader.line_num}: {exc}") from None
    return schema, {name: np.concatenate(p) for name, p in parts.items()}


def read_csv(path) -> Dataset:
    """Ingest a base or augmented CSV, validating schema and row invariants.

    A leading UTF-8 byte-order mark is skipped. Text that is not UTF-8, or
    that the csv module rejects (such as a cell over its field size limit),
    is an ``InvalidArgumentError`` naming ``path``.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        schema, columns = _read_columns(fh, path)
    ds = Dataset(schema=schema, columns=columns, copy=False)
    ds.validate_rows()
    return ds
