"""CSV IO, schemas, normalization, splits and the synthetic generator."""

import csv
import hashlib
import itertools
import json
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import CELL_VALUES, CSV_ROWS, CSV_STRUCTURES, csv_bytes

from vbnn import data as data_module
from vbnn.cli import _load_feature_rows
from vbnn.data import (
    _BLOCK_ROWS,
    REFERENCE_TRUTH,
    ColumnSchema,
    SchemaError,
    TableSchema,
    default_schema,
    fit_normalization,
    generate_synthetic,
    load_csv,
    normalize,
    save_predictions_csv,
    save_report_csv,
    split,
    write_csv,
)
from vbnn.metrics import IntegrationConfig, TrueFunction, draw_points
from vbnn.model import LabeledBatch, sigmoid
from vbnn.optimizer import TrainReport


def write_text(path, text: str) -> None:
    path.write_text(text)


class TestLoadCsv:
    def test_small_file_exact_values(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "x1,x2,y\n0.5,1.25,1\n-0.125,3.0,0\n")
        batch, schema = load_csv(path)
        np.testing.assert_array_equal(batch.x, [[0.5, 1.25], [-0.125, 3.0]])
        np.testing.assert_array_equal(batch.y, [1, 0])
        assert [c.name for c in schema.columns] == ["x1", "x2", "y"]
        assert schema.label_index == 2

    def test_label_column_found_by_name_anywhere(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "y,a,b\n1,0.1,0.2\n0,0.3,0.4\n")
        batch, schema = load_csv(path)
        assert schema.label_index == 0
        np.testing.assert_array_equal(batch.x, [[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_array_equal(batch.y, [1, 0])

    def test_label_column_named_label_when_there_is_no_y(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "a,label,b\n0.1,1,0.2\n0.3,0,0.4\n")
        batch, schema = load_csv(path)
        assert schema.label_index == 1
        np.testing.assert_array_equal(batch.x, [[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_array_equal(batch.y, [1, 0])

    def test_label_falls_back_to_last_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "a,b,outcome\n0.1,0.2,0\n")
        _, schema = load_csv(path)
        assert schema.label_index == 2

    def test_missing_values_name_their_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "x1,y\n0.5,1\n,0\n0.7,1\nnope,0\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert "line(s) 3, 5 (" in str(err.value)

    def test_non_finite_cells_name_their_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "x1,x2,y\n0.5,nan,1\n0.1,0.2,0\ninf,0.3,1\n0.4,-inf,0\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert "line(s) 2, 4, 5 (" in str(err.value)

    def test_short_row_is_an_error(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "x1,x2,y\n0.5,1\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert "line(s) 2 (" in str(err.value)

    def test_every_row_one_cell_short_names_every_line(self, tmp_path):
        # a table of one wrong width throughout, not a ragged one
        path = tmp_path / "d.csv"
        write_text(path, "x1,x2,y\n0.5,1\n0.2,0\n0.3,1\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert "line(s) 2, 3, 4 (line 2 has 2 cell(s), expected 3; " in str(err.value)

    def test_non_binary_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "x1,y\n0.5,2\n")
        with pytest.raises(SchemaError, match="0/1"):
            load_csv(path)

    def test_header_must_match_given_schema(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "a,b,y\n0.1,0.2,1\n")
        with pytest.raises(SchemaError, match="does not match"):
            load_csv(path, schema=default_schema(2))

    def test_categorical_column_must_be_binary(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "flag,y\n0.5,1\n")
        schema = TableSchema(columns=(
            ColumnSchema(name="flag", kind="categorical_binary"),
            ColumnSchema(name="y", kind="label"),
        ))
        with pytest.raises(SchemaError, match="flag"):
            load_csv(path, schema=schema)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_header_only_gives_empty_batch(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "x1,x2,y\n")
        batch, _ = load_csv(path)
        assert batch.n == 0 and batch.p == 2


# the schema of CSV_ROWS: x1, a 0/1 flag and the label y
PARITY_SCHEMA = TableSchema(columns=(ColumnSchema(name="x1"),
                                     ColumnSchema(name="flag", kind="categorical_binary"),
                                     ColumnSchema(name="y", kind="label")))


def parity_tables(rng) -> dict:
    """Each table the two readers must agree on, by name: CSV_ROWS and its two
    feature columns alone, with each cell set to each of CELL_VALUES and under
    each of CSV_STRUCTURES, then line ends, blocks and extreme values."""
    tables = {}
    for rows in (CSV_ROWS, [row[:2] for row in CSV_ROWS]):
        width = len(rows[0])
        for i, j in itertools.product(range(1, len(rows)), range(width)):
            for value in CELL_VALUES:
                mutated = [list(row) for row in rows]
                mutated[i][j] = value
                tables[f"{width} columns, line {i + 1}, column {j} = {value!r}"] = csv_bytes(mutated)
        for name, mutate in CSV_STRUCTURES.items():
            tables[f"{width} columns, {name}"] = mutate(rows)
    for name, end in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
        tables[name] = csv_bytes(CSV_ROWS, end=end)
    tables["no final newline"] = csv_bytes(CSV_ROWS)[:-1]
    tables["whitespace-only line"] = csv_bytes(CSV_ROWS[:2] + [[b"  "]] + CSV_ROWS[2:])
    n = 2 * _BLOCK_ROWS + 1
    rows = [[repr(v).encode(), str(f).encode(), str(y).encode()] for v, f, y in
            zip(rng.normal(0, 10, n).tolist(), rng.integers(0, 2, n), rng.integers(0, 2, n))]
    tables["three blocks"] = csv_bytes(CSV_ROWS[:1] + rows)
    tables["three blocks, nan in the last row"] = csv_bytes(CSV_ROWS[:1] + rows[:-1]
                                                            + [[b"nan", b"0", b"1"]])
    tables["three blocks, crlf"] = csv_bytes(CSV_ROWS[:1] + rows, end=b"\r\n")
    tables.update({name: table for name, (table, _) in later_block_tables(rows).items()})
    tables["quoted line break"] = csv_bytes(CSV_ROWS[:2] + [[b'"0.5\n"', b"1", b"0"]]
                                            + CSV_ROWS[3:])
    extremes = [b"-0.0", b"5e-324", b"1.7976931348623157e308", b"-1.7976931348623157e308"]
    tables["extremes"] = csv_bytes(CSV_ROWS[:1] + [[v, b"1", b"0"] for v in extremes])
    # 17-digit, denormal and extreme values, every cell quoted, in three blocks
    # of CR-only lines with no final line end
    specials = itertools.cycle(extremes + [b"2.5e-310", None, None])
    quoted = [[b'"' + cell + b'"' for cell in ([v] + row[1:] if v else row)]
              for v, row in zip(specials, rows)]
    tables["three blocks, quoted extremes, cr"] = csv_bytes(CSV_ROWS[:1] + quoted,
                                                            end=b"\r")[:-1]
    return tables


def later_block_tables(rows) -> dict:
    """Tables of ``2 * _BLOCK_ROWS + 1`` data rows that differ from ``rows`` only
    in their last row, in the third block, or across the first two blocks, by
    name, each with how many blocks ``np.loadtxt`` reads of it."""
    table = csv_bytes(CSV_ROWS[:1] + rows)

    def last(*cells):
        return csv_bytes(CSV_ROWS[:1] + rows[:-1] + [list(cells)])

    return {
        "three blocks, quoted cell in the last row": (last(b'"0.5"', b"0", b"1"), 3),
        "three blocks, cr-only last line": (table[:-1] + b"\r", 3),
        "three blocks, no final newline": (table[:-1], 3),
        "three blocks, label 2 in the last row": (last(b"0.5", b"0", b"2"), 2),
        "three blocks, quoted line break in the last row": (last(b'"0.5\n"', b"0", b"1"), 2),
        "three blocks, blank line before the last row": (
            csv_bytes(CSV_ROWS[:1] + rows[:-1] + [[]] + rows[-1:]), 2),
        # the first block's last line ends inside a quoted cell
        "quoted line break across blocks 1 and 2": (csv_bytes(
            CSV_ROWS[:1] + rows[: _BLOCK_ROWS - 1] + [rows[_BLOCK_ROWS - 1][:2] + [b'"1\n"']]
            + rows[_BLOCK_ROWS:]), 0),
    }


def read_outcomes(path) -> dict:
    """What each reader makes of the file: its arrays' dtype, shape and bytes,
    or its error's type and message."""
    readers = {
        "load_csv": lambda: load_csv(path)[0],
        "load_csv with a schema": lambda: load_csv(path, PARITY_SCHEMA)[0],
        "_load_feature_rows": lambda: _load_feature_rows(path, PARITY_SCHEMA),
    }
    outcomes = {}
    for name, read in readers.items():
        try:
            got = read()
        except ValueError as exc:  # SchemaError too
            outcomes[name] = (type(exc), str(exc))
        else:
            arrays = (got.x, got.y) if isinstance(got, LabeledBatch) else (got,)
            outcomes[name] = [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]
    return outcomes


def loadtxt_spy():
    """A stand-in for ``_plain_values``, and the list to which it appends, per
    call, how many blocks ``np.loadtxt`` read."""
    loadtxt_path, taken = data_module._plain_values, []

    def spy(*args):
        blocks, declined = loadtxt_path(*args)
        taken.append(len(blocks))
        return blocks, declined

    return spy, taken


class TestTwoReaders:
    def test_loadtxt_path_reads_what_the_csv_path_reads(self, tmp_path, monkeypatch, rng):
        # every reader gives the same bytes, or the same error, with the np.loadtxt
        # path on as with the csv.reader path alone; the plain tables take it
        path = tmp_path / "d.csv"
        spy, taken = loadtxt_spy()
        failures, plain, blocks_read = [], set(), {}
        for name, content in parity_tables(rng).items():
            path.write_bytes(content)
            taken.clear()
            monkeypatch.setattr(data_module, "_plain_values", spy)
            both = read_outcomes(path)
            if any(taken):
                plain.add(name)
            blocks_read[name] = set(taken)
            # np.loadtxt declines the first block, so csv.reader reads from the start
            monkeypatch.setattr(data_module, "_plain_values",
                                lambda lines, *args: ([], list(lines)))
            if both != read_outcomes(path):
                failures.append(name)
        assert not failures, failures
        rows = [[b"0", b"0", b"0"]] * (2 * _BLOCK_ROWS + 1)
        later = {name: {blocks} for name, (_, blocks) in later_block_tables(rows).items()}
        assert {name: blocks_read[name] for name in later} == later
        assert {"lf", "crlf", "cr", "no final newline", "three blocks", "three blocks, crlf",
                "extremes", "three blocks, quoted extremes, cr", "3 columns, bom",
                "3 columns, cr-line-ends",
                "3 columns, line 2, column 0 = b'-0'",
                "3 columns, line 2, column 0 = b'\"1\"'"} <= plain
        assert not {"quoted line break", "whitespace-only line", "3 columns, blank-line",
                    "3 columns, unclosed-quote"} & plain

    def test_a_pipe_is_read_by_the_csv_path(self, tmp_path):
        # a pipe cannot be read twice, so a table that the np.loadtxt path
        # declines, such as one with a quoted line break, must not be half read by it
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        content = csv_bytes(CSV_ROWS[:2] + [[b'"0.5\n"', b"1", b"0"]] + CSV_ROWS[3:])
        writer = threading.Thread(target=path.write_bytes, daemon=True, args=(content,))
        writer.start()
        batch, _ = load_csv(path, PARITY_SCHEMA)
        writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(batch.x, [[0.1, 0.0], [0.5, 1.0], [0.9, 1.0]])
        np.testing.assert_array_equal(batch.y, [1, 0, 1])

    def test_a_plain_pipe_is_read_by_the_loadtxt_path(self, tmp_path, monkeypatch):
        # a pipe is read once either way, so a plain one takes np.loadtxt's blocks
        content = csv_bytes(CSV_ROWS)
        (tmp_path / "file.csv").write_bytes(content)
        expected = load_csv(tmp_path / "file.csv", PARITY_SCHEMA)[0]
        spy, taken = loadtxt_spy()
        monkeypatch.setattr(data_module, "_plain_values", spy)
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, daemon=True, args=(content,))
        writer.start()
        batch, _ = load_csv(path, PARITY_SCHEMA)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert taken == [1]
        assert (batch.x.tobytes(), batch.y.tobytes()) == (expected.x.tobytes(),
                                                          expected.y.tobytes())

    @pytest.mark.parametrize("end", ["crlf", "no final crlf"])
    def test_reading_20k_rows_holds_about_the_values(self, tmp_path, end):
        # the values are 0.48 MB; a list of csv.reader rows peaks at 7.8 MB of str cells,
        # and np.loadtxt reads every block, the last one without its final CRLF too
        path = tmp_path / "d.csv"
        write_csv(generate_synthetic(REFERENCE_TRUTH, 20_000, seed=0), path, default_schema(2))
        if end == "no final crlf":
            path.write_bytes(path.read_bytes()[:-2])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            load_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


def reference_write_csv(batch, path, schema):
    """The row-at-a-time writer that write_csv's bytes must match."""
    label_idx = schema.label_index
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in schema.columns])
        for i in range(batch.n):
            row, j = [], 0
            for idx in range(len(schema.columns)):
                if idx == label_idx:
                    row.append(int(batch.y[i]))
                else:
                    row.append(repr(float(batch.x[i, j])))
                    j += 1
            writer.writerow(row)


def schema_with_label_at(p, label_idx, names=None):
    names = names or [f"x{j + 1}" for j in range(p)]
    cols = [ColumnSchema(name=name) for name in names]
    cols.insert(label_idx, ColumnSchema(name="y", kind="label"))
    return TableSchema(columns=tuple(cols))


class TestWriteCsv:
    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 3])
    @pytest.mark.parametrize("p, label_idx", [(3, 0), (3, 2), (3, 3), (1, 0), (1, 1)],
                             ids=["first", "middle", "last", "p1-first", "p1-last"])
    def test_bytes_match_the_row_at_a_time_writer(self, tmp_path, rng, n, p, label_idx):
        x = rng.normal(0, 10, (n, p))
        # extreme values where repr differs most from short formats
        special = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308]
        x.flat[:len(special)] = special[:x.size]
        batch = LabeledBatch(x=x, y=rng.integers(0, 2, n))
        schema = schema_with_label_at(p, label_idx)
        write_csv(batch, tmp_path / "blocks.csv", schema)
        reference_write_csv(batch, tmp_path / "rows.csv", schema)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_header_name_that_needs_quoting(self, tmp_path, rng):
        batch = LabeledBatch(x=rng.normal(size=(5, 2)), y=rng.integers(0, 2, 5))
        schema = schema_with_label_at(2, 0, names=['a,"b"', "c d"])
        write_csv(batch, tmp_path / "blocks.csv", schema)
        reference_write_csv(batch, tmp_path / "rows.csv", schema)
        written = (tmp_path / "blocks.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        assert written.startswith(b'y,"a,""b""",c d\r\n')
        back, _ = load_csv(tmp_path / "blocks.csv", schema=schema)
        np.testing.assert_array_equal(back.x, batch.x)

    def test_round_trip_is_bit_identical(self, tmp_path, rng):
        batch = LabeledBatch(x=rng.normal(0, 10, (20, 3)),
                             y=rng.integers(0, 2, 20))
        path = tmp_path / "d.csv"
        write_csv(batch, path, default_schema(3))
        back, _ = load_csv(path)
        np.testing.assert_array_equal(back.x, batch.x)
        np.testing.assert_array_equal(back.y, batch.y)

    def test_respects_schema_column_order(self, tmp_path):
        schema = TableSchema(columns=(
            ColumnSchema(name="y", kind="label"),
            ColumnSchema(name="a"),
        ))
        batch = LabeledBatch(x=np.array([[0.25]]), y=np.array([1]))
        path = tmp_path / "d.csv"
        write_csv(batch, path, schema)
        assert path.read_text().splitlines()[0] == "y,a"
        back, _ = load_csv(path, schema=schema)
        np.testing.assert_array_equal(back.x, batch.x)


def reference_rows_csv(path, header, rows):
    """The row-at-a-time csv.writer whose bytes every CSV writer must match."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestArtifactCsv:
    def test_report_bytes_match_the_row_at_a_time_writer(self, tmp_path, rng):
        n = 2 * _BLOCK_ROWS + 1
        traces = rng.normal(0, 10, (3, n))
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
        for trace in traces:
            trace[:len(special)] = special
            rng.shuffle(trace)
        report = TrainReport(*traces, converged=False, wall_time=0.0)
        save_report_csv(report, tmp_path / "blocks.csv")
        reference_rows_csv(tmp_path / "rows.csv", ["iteration", "elbo", "grad_var", "rho_t"],
                           ([i, *(repr(float(v)) for v in values)]
                            for i, values in enumerate(zip(*traces))))
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_predictions_bytes(self, tmp_path):
        path = tmp_path / "predictions.csv"
        save_predictions_csv(path, np.array([0.1, 0.5, 1 / 3]), np.array([0, 1, 0]))
        assert path.read_bytes() == (b"row_id,p_hat,label_hat\r\n0,0.1,0\r\n1,0.5,1\r\n"
                                     b"2,0.3333333333333333,0\r\n")

    def test_predictions_and_labels_of_unequal_lengths_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            save_predictions_csv(tmp_path / "p.csv", np.array([0.1, 0.9]), np.array([0]))

    def test_predictions_match_the_row_at_a_time_writer_across_a_block(self, tmp_path, rng):
        probs = rng.random(_BLOCK_ROWS + 1)
        labels = (probs >= 0.5).astype(np.int64)
        save_predictions_csv(tmp_path / "blocks.csv", probs, labels)
        reference_rows_csv(tmp_path / "rows.csv", ["row_id", "p_hat", "label_hat"],
                           ([i, repr(float(p)), int(y)]
                            for i, (p, y) in enumerate(zip(probs, labels))))
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestNormalization:
    def batch(self, rng, n=50):
        return LabeledBatch(x=np.column_stack([rng.normal(5, 2, n),
                                               rng.uniform(10, 20, n)]),
                            y=rng.integers(0, 2, n))

    def schema(self):
        return TableSchema(columns=(
            ColumnSchema(name="a", normalization="zscore"),
            ColumnSchema(name="b", normalization="minmax01"),
            ColumnSchema(name="y", kind="label"),
        ))

    def test_fit_then_normalize_standardizes(self, rng):
        batch = self.batch(rng)
        fitted = fit_normalization(self.schema(), batch)
        out = normalize(batch, fitted)
        assert out.x[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
        assert out.x[:, 0].std() == pytest.approx(1.0, rel=1e-12)
        assert out.x[:, 1].min() == 0.0 and out.x[:, 1].max() == 1.0

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
    def test_fitted_statistics_are_numpys_in_model_json_order(self, rng, scale):
        # the statistics and their key order are the bytes of model.json's schema
        n = 40
        x = scale * np.column_stack([rng.normal(5, 2, n), rng.uniform(10, 20, n),
                                     rng.normal(0, 1, n)])
        x = np.column_stack([x, rng.integers(0, 2, n)])
        schema = TableSchema(columns=(
            ColumnSchema(name="a", normalization="zscore"),
            ColumnSchema(name="y", kind="label"),
            ColumnSchema(name="b", normalization="minmax01"),
            ColumnSchema(name="c"),
            ColumnSchema(name="d", kind="categorical_binary"),
        ))
        doc = fit_normalization(schema, LabeledBatch(x=x, y=rng.integers(0, 2, n))).to_json_dict()
        a, b = x[:, 0], x[:, 1]
        assert doc["columns"] == [
            {"name": "a", "kind": "numeric", "normalization": "zscore",
             "mean": float(np.mean(a)), "sd": float(np.std(a))},
            {"name": "y", "kind": "label", "normalization": "none"},
            {"name": "b", "kind": "numeric", "normalization": "minmax01",
             "min": float(np.min(b)), "max": float(np.max(b))},
            {"name": "c", "kind": "numeric", "normalization": "none"},
            {"name": "d", "kind": "categorical_binary", "normalization": "none"},
        ]
        head = ["name", "kind", "normalization"]
        assert [list(col) for col in doc["columns"]] == [
            head + ["mean", "sd"], head, head + ["min", "max"], head, head]

    def test_unfitted_schema_refused(self, rng):
        with pytest.raises(SchemaError, match="not fitted"):
            normalize(self.batch(rng), self.schema())

    def test_zero_variance_column_refused(self):
        batch = LabeledBatch(x=np.column_stack([np.ones(5), np.arange(5.0)]),
                             y=np.zeros(5, dtype=int))
        with pytest.raises(SchemaError, match="column 'a': zscore sd must be > 0 and finite"):
            fit_normalization(self.schema(), batch)

    def test_out_of_range_counted_and_warned(self, rng, caplog):
        train = self.batch(rng)
        fitted = fit_normalization(self.schema(), train)
        fresh = LabeledBatch(x=np.array([[5.0, 9.0], [5.0, 25.0], [5.0, 15.0]]),
                             y=np.array([0, 1, 0]))
        with caplog.at_level("WARNING", logger="vbnn.data"):
            out = normalize(fresh, fitted)
        assert "2 value(s)" in caplog.text
        assert out.x[0, 1] < 0 and out.x[1, 1] > 1

    def test_label_column_never_normalized(self):
        with pytest.raises(SchemaError, match="never normalized"):
            ColumnSchema(name="y", kind="label", normalization="zscore")

    def test_label_column_holds_no_statistics(self):
        with pytest.raises(SchemaError, match="column 'y': none normalization takes no mean"):
            ColumnSchema(name="y", kind="label", mean=5.0)


class TestSchemaJson:
    def test_round_trip_preserves_fitted_stats(self, rng):
        batch = LabeledBatch(x=rng.normal(0, 1, (30, 1)), y=rng.integers(0, 2, 30))
        schema = TableSchema(columns=(
            ColumnSchema(name="a", normalization="zscore"),
            ColumnSchema(name="y", kind="label"),
        ))
        fitted = fit_normalization(schema, batch)
        back = TableSchema.from_json_dict(json.loads(json.dumps(fitted.to_json_dict())))
        assert back == fitted
        back.check_fitted()

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(columns=(ColumnSchema(name="a"),
                                 ColumnSchema(name="a", kind="label")))

    def test_exactly_one_label_required(self):
        with pytest.raises(SchemaError):
            TableSchema(columns=(ColumnSchema(name="a"), ColumnSchema(name="b")))


class TestSplit:
    def make(self, n, rng):
        return LabeledBatch(x=rng.uniform(0, 1, (n, 2)), y=rng.integers(0, 2, n))

    def test_kfold_partitions_exactly(self, rng):
        batch = self.make(265, rng)
        pairs = split(batch, 10, 1)
        sizes = sorted(len(test.y) for _, test in pairs)
        assert sizes == [26] * 5 + [27] * 5
        seen = np.concatenate([test.x[:, 0] for _, test in pairs])
        assert len(seen) == 265
        # every test row appears exactly once (features are a.s. distinct)
        assert len(np.unique(seen)) == 265
        for train, test in pairs:
            assert len(train.y) + len(test.y) == 265
            assert not np.intersect1d(train.x[:, 0], test.x[:, 0]).size

    def test_same_seed_reproduces(self, rng):
        batch = self.make(40, rng)
        a = split(batch, 5, 3)
        b = split(batch, 5, 3)
        c = split(batch, 5, 4)
        np.testing.assert_array_equal(a[0][0].x, b[0][0].x)
        assert not np.array_equal(a[0][0].x, c[0][0].x)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(5, 60), folds=st.integers(2, 5), seed=st.integers(0, 99))
    def test_kfold_covers_every_row_once(self, n, folds, seed):
        batch = LabeledBatch(x=np.arange(n, dtype=float).reshape(n, 1),
                             y=np.zeros(n, dtype=int))
        pairs = split(batch, folds, seed)
        seen = np.sort(np.concatenate([test.x[:, 0] for _, test in pairs]))
        np.testing.assert_array_equal(seen, np.arange(n))
        sizes = {len(test.y) for _, test in pairs}
        assert max(sizes) - min(sizes) <= 1

    def test_too_small_or_too_many_folds(self, rng):
        with pytest.raises(ValueError):
            split(self.make(1, rng), 10, 0)
        with pytest.raises(ValueError, match="folds"):
            split(self.make(3, rng), 5, 0)

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    def test_non_integer_seed_is_refused_by_name(self, rng, seed):
        rule = "must be >= 0" if seed == -1 else f"must be an integer, got {seed!r}"
        with pytest.raises(ValueError, match=rf"^seed {rule}$"):
            split(self.make(10, rng), 2, seed)

    @pytest.mark.parametrize("folds", [2.5, 3.0, True, np.int64(3)],
                             ids=["2.5", "3.0", "True", "int64"])
    def test_non_integer_folds_are_refused_by_name(self, rng, folds):
        # 2.5 and 3.0 once failed in np.array_split with an unnamed TypeError
        message = f"folds must be an integer, got {folds!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            split(self.make(10, rng), folds, 0)

    def test_one_fold_is_refused_by_name(self, rng):
        with pytest.raises(ValueError, match=r"^folds must be >= 2$"):
            split(self.make(10, rng), 1, 0)

    def test_folds_keep_each_row_with_its_label(self, rng):
        # column 0 holds the row index, so each fold's rows can be looked up
        batch = LabeledBatch(x=np.column_stack([np.arange(6.0), rng.uniform(0, 1, 6)]),
                             y=rng.integers(0, 2, 6))
        for train, test in split(batch, 3, 0):
            for part in (train, test):
                rows = part.x[:, 0].astype(int)
                np.testing.assert_array_equal(part.x, batch.x[rows])
                np.testing.assert_array_equal(part.y, batch.y[rows])


class TestGenerateSynthetic:
    def test_saturated_truth_gives_all_ones(self):
        batch = generate_synthetic(TrueFunction.constant(50.0, p=2), 200, seed=0)
        assert batch.y.sum() == 200
        assert np.all((batch.x >= 0) & (batch.x < 1))

    def test_coin_flip_truth_is_balanced(self):
        batch = generate_synthetic(TrueFunction.constant(0.0, p=1), 100_000, seed=1)
        # se = 0.5/sqrt(1e5) ~ 0.0016; 0.005 is ~3 sigma
        assert abs(batch.y.mean() - 0.5) < 0.005

    def test_fully_deterministic(self):
        a = generate_synthetic(REFERENCE_TRUTH, 64, seed=9)
        b = generate_synthetic(REFERENCE_TRUTH, 64, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_frozen_golden_draw(self):
        # freezes the generator: any change to the draw order breaks this
        batch = generate_synthetic(REFERENCE_TRUTH, 50, seed=123)
        digest = hashlib.sha256(batch.x.tobytes() + batch.y.tobytes()).hexdigest()
        assert digest[:16] == "89d2106b9f40331e"
        assert batch.x[0, 0] == 0.6823518632481435
        assert int(batch.y.sum()) == 22

    def test_reference_truth_label_rate_matches_its_integral(self):
        # E[y] must track E[sigmoid(eta0(X))] ~ 0.4684
        x = draw_points(IntegrationConfig(n_mc=200_000, seed=7), p=2)
        target = sigmoid(REFERENCE_TRUTH(x)).mean()
        batch = generate_synthetic(REFERENCE_TRUTH, 200_000, seed=42)
        se = math.sqrt(0.25 / 200_000)
        assert abs(batch.y.mean() - target) < 5 * se

    def test_empty_draw(self):
        batch = generate_synthetic(REFERENCE_TRUTH, 0, seed=0)
        assert batch.n == 0 and batch.p == 2

    @pytest.mark.parametrize("field, value", [("n", 2.5), ("n", True), ("seed", 2.5),
                                              ("seed", True)])
    def test_non_integer_count_is_refused_by_name(self, field, value):
        counts = {"n": 10, "seed": 0, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
            generate_synthetic(REFERENCE_TRUTH, **counts)
