"""Dataset generation, schema validation, and CSV round-trips."""

import hashlib

import numpy as np
import pytest

from qoe_forge.cli import main
from qoe_forge.data_model import (
    AUGMENTED_SCHEMA,
    BASE_SCHEMA,
    Dataset,
    dataset_hash,
    generate_base_dataset,
    read_csv,
    write_csv,
)
from qoe_forge.errors import (
    CsvParseError,
    InvalidArgumentError,
    RowValidationError,
    SchemaMismatchError,
)

from conftest import columns_equal, make_session


class TestGeneration:
    def test_deterministic_in_seed(self):
        a = generate_base_dataset(50, seed=7)
        b = generate_base_dataset(50, seed=7)
        assert columns_equal(a, b)
        assert dataset_hash(a) == dataset_hash(b)

    def test_different_seeds_differ(self):
        a = generate_base_dataset(50, seed=7)
        b = generate_base_dataset(50, seed=8)
        assert dataset_hash(a) != dataset_hash(b)

    def test_shape_and_schema(self, base450):
        assert len(base450) == 450
        assert base450.schema == BASE_SCHEMA
        assert base450.column_names()[0] == "session_id"
        assert base450.column("session_id").tolist() == list(range(450))

    def test_row_invariants_hold(self):
        ds = generate_base_dataset(2000, seed=3)
        ds.validate_rows()  # must not raise

    def test_value_ranges(self, base450):
        assert np.all(base450.column("mos") >= 0)
        assert np.all(base450.column("mos") <= 100)
        br = base450.column("bitrate_mean_kbps")
        assert np.all((br >= 300) & (br <= 20_000))
        vmaf = base450.column("vmaf_mean")
        assert np.all((vmaf > 0) & (vmaf <= 100))

    def test_quality_drives_mos(self, base450):
        # Directional sanity on the planted target.
        mos = base450.column("mos")
        vmaf = base450.column("vmaf_mean")
        stall = base450.column("stall_duration_s")
        assert np.corrcoef(vmaf, mos)[0, 1] > 0.3
        assert np.corrcoef(stall, mos)[0, 1] < -0.1

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            generate_base_dataset(0, seed=1)


class TestCsv:
    def test_round_trip_rows_equal(self, tmp_path, base450):
        path = tmp_path / "base.csv"
        write_csv(base450, path)
        loaded = read_csv(path)
        assert loaded.schema == BASE_SCHEMA
        assert columns_equal(loaded, base450)
        assert dataset_hash(loaded) == dataset_hash(base450)

    def test_round_trip_byte_identical(self, tmp_path, base450):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(base450, p1)
        write_csv(read_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_augmented_round_trip(self, tmp_path, aug2700):
        path = tmp_path / "aug.csv"
        write_csv(aug2700, path)
        loaded = read_csv(path)
        assert loaded.schema == AUGMENTED_SCHEMA
        assert columns_equal(loaded, aug2700)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("session_id,foo\n1,2\n")
        with pytest.raises(SchemaMismatchError):
            read_csv(path)

    def test_unparseable_cell_reports_location(self, tmp_path, base450):
        path = tmp_path / "bad.csv"
        write_csv(base450.subset([0, 1]), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(lines[2].split(",")[4], "not_a_number", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvParseError) as exc:
            read_csv(path)
        assert exc.value.row == 2
        assert exc.value.column == "duration_s"

    def _write_lines(self, tmp_path, base, edit):
        path = tmp_path / "in.csv"
        write_csv(base, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")

        def set_cell(row, column, value):
            cells = lines[row].split(",")
            cells[header.index(column)] = value
            lines[row] = ",".join(cells)

        edit(lines, set_cell)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_first_error_is_row_major(self, tmp_path):
        base = generate_base_dataset(6, seed=0)

        def bad_cell_then_short_row(lines, set_cell):
            set_cell(3, "vmaf_mean", "x")
            lines[5] = ",".join(lines[5].split(",")[:5])

        with pytest.raises(CsvParseError) as exc:
            read_csv(self._write_lines(tmp_path, base, bad_cell_then_short_row))
        assert (exc.value.row, exc.value.column, exc.value.value) == (3, "vmaf_mean", "x")

        def short_row_then_bad_cell(lines, set_cell):
            lines[2] = ",".join(lines[2].split(",")[:5])
            set_cell(3, "vmaf_mean", "x")

        with pytest.raises(SchemaMismatchError, match="row 2: expected 14 cells, got 5"):
            read_csv(self._write_lines(tmp_path, base, short_row_then_bad_cell))

        def two_bad_cells_in_a_row(lines, set_cell):
            set_cell(3, "vmaf_mean", "x")
            set_cell(3, "duration_s", "inf")
            set_cell(4, "mos", "nan")

        with pytest.raises(CsvParseError) as exc:
            read_csv(self._write_lines(tmp_path, base, two_bad_cells_in_a_row))
        assert (exc.value.row, exc.value.column) == (3, "duration_s")

        def blank_line(lines, set_cell):
            lines.insert(3, "")

        with pytest.raises(SchemaMismatchError, match="row 3: expected 14 cells, got 0"):
            read_csv(self._write_lines(tmp_path, base, blank_line))

    def test_errors_in_later_blocks_keep_file_row_numbers(self, tmp_path):
        base = generate_base_dataset(3000, seed=0)

        def late_errors(lines, set_cell):
            set_cell(2500, "stall_count", "1e3")
            set_cell(2700, "qp_mean", "-inf")

        with pytest.raises(CsvParseError) as exc:
            read_csv(self._write_lines(tmp_path, base, late_errors))
        assert (exc.value.row, exc.value.column) == (2500, "stall_count")

    def test_int_beyond_int64_is_a_parse_error(self, tmp_path):
        base = generate_base_dataset(6, seed=0)
        for column, value in (("session_id", str(2**63)), ("session_id", "9" * 400),
                              ("stall_count", str(-(2**63) - 1))):
            path = self._write_lines(
                tmp_path, base, lambda lines, set_cell: set_cell(4, column, value))
            with pytest.raises(CsvParseError) as exc:
                read_csv(path)
            assert (exc.value.row, exc.value.column) == (4, column)

    def test_python_number_syntax_accepted(self, tmp_path):
        base = generate_base_dataset(6, seed=0)

        def spaced(lines, set_cell):
            set_cell(2, "stall_count", " 2_0 ")
            set_cell(2, "duration_s", " 1_0.5 ")

        loaded = read_csv(self._write_lines(tmp_path, base, spaced))
        assert loaded.column("stall_count")[1] == 20
        assert loaded.column("duration_s")[1] == 10.5

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(",".join(c.name for c in BASE_SCHEMA) + "\n")
        ds = read_csv(path)
        assert len(ds) == 0
        assert ds.column("session_id").dtype == np.int64
        assert ds.column("device").dtype == object

    def test_invariant_violation_rejected(self, tmp_path, base450):
        small = base450.subset([0])
        bad = Dataset(schema=small.schema, columns={**small.columns, "mos": [150.0]})
        path = tmp_path / "bad.csv"
        write_csv(bad, path)
        with pytest.raises(RowValidationError):
            read_csv(path)


class TestDataset:
    def test_subset_preserves_schema(self, base450):
        sub = base450.subset([3, 1])
        assert sub.schema == base450.schema
        assert sub.column("session_id").tolist() == [3, 1]

    def test_columns_are_typed_and_read_only(self, base450):
        dtypes = {c.name: base450.column(c.name).dtype for c in BASE_SCHEMA}
        assert {n for n, d in dtypes.items() if d == np.int64} == {"session_id", "stall_count"}
        assert {n for n, d in dtypes.items() if d == object} == {
            "content_type", "device", "encoding_profile"}
        assert all(d in (np.int64, np.float64, object) for d in dtypes.values())
        assert all(type(v) is str for v in base450.column("device").tolist())
        with pytest.raises(ValueError):
            base450.column("mos")[0] = 1.0
        with pytest.raises(TypeError):
            base450.columns["mos"] = np.zeros(450)

    def test_constructor_copies_and_checks_columns(self, base450):
        mos = np.array(base450.column("mos"))
        ds = Dataset(BASE_SCHEMA, {**base450.columns, "mos": mos})
        mos[0] = -5.0  # the caller's array stays writable and is not shared
        assert ds.column("mos")[0] == base450.column("mos")[0]
        with pytest.raises(InvalidArgumentError):
            Dataset(BASE_SCHEMA, {**base450.columns, "mos": mos[:10]})
        with pytest.raises(SchemaMismatchError):
            Dataset(BASE_SCHEMA, {"mos": mos})

    def test_constructor_without_copy_freezes_the_given_arrays(self, base450):
        mos = np.array(base450.column("mos"))
        ds = Dataset(BASE_SCHEMA, {**base450.columns, "mos": mos}, copy=False)
        assert ds.column("mos") is mos
        assert not mos.flags.writeable
        stall = base450.column("stall_count").astype(np.int32)
        ds = Dataset(BASE_SCHEMA, {**base450.columns, "stall_count": stall}, copy=False)
        assert ds.column("stall_count").dtype == np.int64  # converted, so copied
        assert stall.flags.writeable

    def test_hash_is_memoized_per_instance(self):
        ds = generate_base_dataset(30, seed=2)
        first = dataset_hash(ds)
        assert dataset_hash(ds) is first  # the same str object: not recomputed
        assert dataset_hash(ds.subset(range(30))) == first

    def test_invariant_violations_listed(self):
        bad = make_session(mos=-1.0, stall_count=0, stall_duration_s=1.0)
        assert bad.violations() == [
            (1, "stall_count = 0 but stall_duration_s != 0"),
            (1, "mos -1.0 outside [0,100]"),
        ]
        assert make_session().violations() == []

    def test_violations_match_row_loop(self):
        # Rows 2 and 4 break several invariants each; the report is row-major
        # in invariant order, as a row-at-a-time check would list it.
        rows = [{}, {"vmaf_mean": 101.0, "qp_mean": -2.0, "session_id": -1},
                {}, {"ssim_mean": float("nan"), "stall_count": -1, "duration_s": 0.0}]
        sessions = [make_session(**r) for r in rows]
        ds = Dataset(BASE_SCHEMA, {
            c.name: np.concatenate([s.column(c.name) for s in sessions]) for c in BASE_SCHEMA})
        assert ds.violations() == [
            (2, "session_id < 0"),
            (2, "vmaf_mean 101.0 outside [0,100]"),
            (2, "qp_mean -2.0 outside [0,51]"),
            (4, "duration_s <= 0"),
            (4, "ssim_mean nan outside [0,1]"),
            (4, "stall_count < 0"),
        ]
        with pytest.raises(RowValidationError) as exc:
            ds.validate_rows()
        assert exc.value.failures == ds.violations()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    """Exact ``write_csv`` bytes, recorded on the row-based implementation."""

    def test_paper_corpus(self, tmp_path, base450, aug2700):
        write_csv(base450, tmp_path / "base.csv")
        write_csv(aug2700, tmp_path / "aug.csv")
        assert _sha256(tmp_path / "base.csv") == (
            "9bc61256e4610436bae2fe71752b13ad5ce84957ab8a62597946eee86ef65ecf")
        assert _sha256(tmp_path / "aug.csv") == (
            "95a2bcb27a15a3bc6974ee1564ac698f74e39a223b302f8c886ac4fb4473a79b")
        assert dataset_hash(base450) == _sha256(tmp_path / "base.csv")
        assert dataset_hash(aug2700) == _sha256(tmp_path / "aug.csv")

    def test_cli_data_path_4000(self, tmp_path, capsys):
        o = tmp_path
        assert main(["generate", "--n", "4000", "--seed", "1", "--out", str(o / "g.csv")]) == 0
        assert main(["augment", "--in", str(o / "g.csv"), "--seed", "2",
                     "--out", str(o / "a.csv")]) == 0
        assert main(["split", "--in", str(o / "a.csv"), "--seed", "3",
                     "--out-train", str(o / "train.csv"),
                     "--out-test", str(o / "test.csv")]) == 0
        capsys.readouterr()
        assert _sha256(o / "train.csv") == (
            "adcd462ef6d36359149904abd1e92c2f5c319010333a57a0b54e851408942dcc")
        assert _sha256(o / "test.csv") == (
            "e40229d719c5dcca74314d7e73a4cce45565b07a8e6936ab04a10df55c32209d")

    @staticmethod
    def _odd_labels(content_types):
        # A leading space in row 1's device and a lone quote in row 2's profile.
        base = generate_base_dataset(5, seed=0)
        device = base.column("device").tolist()
        profile = base.column("encoding_profile").tolist()
        device[0], profile[1] = " lead space", '"'
        return Dataset(BASE_SCHEMA, {**base.columns, "content_type": content_types,
                                     "device": device, "encoding_profile": profile})

    def test_categorical_quoting(self, tmp_path):
        # A comma, quotes, a newline, an empty string and a tab, each quoted
        # (or not) as the csv module does.
        values = ["a,b", 'say "hi"', "line\nbreak", "", "tab\there"]
        ds = self._odd_labels(values)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(ds, p1)
        pinned = "1f2a858cb29cc1cecef34e621c063ab516b7361bd0e052017047c19b129242d2"
        assert _sha256(p1) == pinned
        loaded = read_csv(p1)
        assert loaded.column("content_type").tolist() == values
        assert columns_equal(loaded, ds)
        write_csv(loaded, p2)
        assert _sha256(p2) == pinned

    def test_carriage_return_written_unquoted(self, tmp_path):
        # The csv module (lineterminator "\n") leaves a lone "\r" unquoted; the
        # bytes stay those of the row-based writer.
        ds = self._odd_labels(["a,b", 'say "hi"', "line\nbreak", "", "cr\rhere"])
        write_csv(ds, tmp_path / "a.csv")
        assert _sha256(tmp_path / "a.csv") == (
            "2e4ec6fafa044e2e728b6560664fc6851f05a79aba2299ab9e368f840b29330c")
