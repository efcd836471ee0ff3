"""CSV loading, column schemas, normalization, k-fold splits and synthetic data.

A dataset is a plain CSV with a header row.  The sidecar schema describes
each column: its kind (numeric feature, binary categorical feature, or the
single label column) and the normalization to apply (none, zscore, or
minmax01).  Normalization statistics are fitted once on training data and
carried inside the schema, so held-out data is transformed with the training
statistics rather than its own.  ``split`` cuts a batch into seeded k-fold
cross-validation pairs.  Every data CSV is opened by ``_open_table``, which
reads it as UTF-8 and drops a byte order mark; an empty file, or one holding
bytes that are not UTF-8, raises ValueError naming the file.  ``_parse_table``
reads a table once: plain blocks with ``np.loadtxt``, quoted cells, CR-only line
ends and a missing final newline included, then, from the first block that is
not plain (a blank line, a quoted line break or a bad cell), the rest with
``csv.reader``, which alone builds the errors.
Data, predictions, training reports, sweep results and the consistency
study's table are written by one block writer, ``_write_rows``: CRLF line
ends, numbers and booleans as ``repr``, strings as their text.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from .metrics import TrueFunction
from .model import LabeledBatch, NetworkParams, _check_counts, check_keys, json_field, sigmoid

__all__ = [
    "SchemaError",
    "ColumnSchema",
    "TableSchema",
    "default_schema",
    "load_csv",
    "write_csv",
    "save_predictions_csv",
    "save_report_csv",
    "fit_normalization",
    "normalize",
    "split",
    "generate_synthetic",
    "REFERENCE_TRUTH",
]

logger = logging.getLogger("vbnn")

_KINDS = ("numeric", "categorical_binary", "label")
# Each normalization and the fitted statistics it reads.
_NORMALIZATIONS = {"none": (), "zscore": ("mean", "sd"), "minmax01": ("min", "max")}
# Each fitted statistic and how it is fitted, in model.json's key order.
_STATISTICS = {"mean": np.mean, "sd": np.std, "min": np.min, "max": np.max}


class SchemaError(ValueError):
    """The schema is inconsistent, or the data violates it."""


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str = "numeric"
    normalization: str = "none"
    mean: float | None = None
    sd: float | None = None
    min: float | None = None
    max: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r}")
        if self.normalization not in tuple(_NORMALIZATIONS):  # a JSON array is unhashable
            raise SchemaError(f"unknown normalization {self.normalization!r}")
        if self.kind in ("label", "categorical_binary") and self.normalization != "none":
            raise SchemaError(f"column {self.name!r}: {self.kind} columns are never normalized")
        allowed = _NORMALIZATIONS[self.normalization]
        stray = [key for key in _STATISTICS
                 if getattr(self, key) is not None and key not in allowed]
        if stray:
            raise SchemaError(f"column {self.name!r}: {self.normalization} normalization "
                              f"takes no {' or '.join(stray)}")
        # a negative sd would flip the feature, a zero one divide by zero, and an
        # infinite sd or range map every value to 0
        if self.normalization == "zscore" and self.sd is not None and not 0 < self.sd < math.inf:
            raise SchemaError(f"column {self.name!r}: zscore sd must be > 0 and finite, "
                              f"got {self.sd!r}")
        if (self.normalization == "minmax01" and None not in (self.min, self.max)
                and not 0 < self.max - self.min < math.inf):
            raise SchemaError(f"column {self.name!r}: minmax01 max - min must be > 0 and "
                              f"finite, got min={self.min!r}, max={self.max!r}")

    def to_json_dict(self) -> dict:
        stats = {key: getattr(self, key) for key in _STATISTICS if getattr(self, key) is not None}
        return {"name": self.name, "kind": self.kind, "normalization": self.normalization, **stats}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ColumnSchema":
        check_keys(doc, [f.name for f in fields(cls)], f"schema column {doc.get('name')!r}")
        stats = {key: json_field(doc, key, float) for key in _STATISTICS
                 if doc.get(key) is not None}
        return cls(name=json_field(doc, "name", str), kind=doc.get("kind", "numeric"),
                   normalization=doc.get("normalization", "none"), **stats)


@dataclass(frozen=True)
class TableSchema:
    """Ordered column descriptions with exactly one label column."""

    columns: tuple

    def __post_init__(self) -> None:
        cols = tuple(self.columns)
        object.__setattr__(self, "columns", cols)
        names = [c.name for c in cols]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise SchemaError(f"column names must be unique, repeated: {', '.join(repeated)}")
        labels = [c for c in cols if c.kind == "label"]
        if len(labels) != 1:
            raise SchemaError(f"schema needs exactly one label column, found {len(labels)}")

    @property
    def label_index(self) -> int:
        return next(i for i, c in enumerate(self.columns) if c.kind == "label")

    @property
    def feature_columns(self) -> tuple:
        return tuple(c for c in self.columns if c.kind != "label")

    @property
    def p(self) -> int:
        return len(self.feature_columns)

    def check_fitted(self) -> None:
        """Raise SchemaError naming the first feature column that lacks the
        statistics of its normalization."""
        for col in self.feature_columns:
            if any(getattr(col, key) is None for key in _NORMALIZATIONS[col.normalization]):
                raise SchemaError(f"column {col.name!r} is not fitted: {col.normalization} "
                                  f"needs {' and '.join(_NORMALIZATIONS[col.normalization])}")

    def to_json_dict(self) -> dict:
        return {"columns": [c.to_json_dict() for c in self.columns]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TableSchema":
        check_keys(doc, ("columns",), "a table schema")
        columns = json_field(doc, "columns", list[dict])
        return cls(columns=tuple(ColumnSchema.from_json_dict(c) for c in columns))


def default_schema(p: int) -> TableSchema:
    """Unnormalized numeric features x1..xp followed by a binary label y."""
    cols = [ColumnSchema(name=f"x{i + 1}") for i in range(p)]
    cols.append(ColumnSchema(name="y", kind="label"))
    return TableSchema(columns=tuple(cols))


# Bad cells that a malformed-row error quotes; its list of lines stays complete.
_CELLS_QUOTED = 3

# The lines that csv.reader reads as an empty row and np.loadtxt skips.
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))

# Rows that _plain_values reads, and _write_rows formats and writes, at once, so
# that their memory stays near one block's strings whatever the row count.
_BLOCK_ROWS = 1024


def _is_plain(text: str) -> bool:
    """False for text holding what Python's ``float`` reads but a plain ASCII
    number never holds: a non-ASCII digit or space, or an ``_`` (``1_0`` is 10)."""
    return text.isascii() and "_" not in text


def _is_finite_number(cell: str) -> bool:
    if not _is_plain(cell):
        return False
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _plain_values(lines, ncol: int, binary: list) -> tuple[list, list]:
    """The (rows, ncol) value blocks of a table body's ``lines`` that ``np.loadtxt``
    reads, ``_BLOCK_ROWS`` lines at a time, and the lines of the first block that
    is not plain, for ``csv.reader`` to read (empty when every block was plain).

    A block is plain when its text is ASCII with no ``_``, none of its lines is
    blank (``\n``, ``\r\n`` or ``\r``), its last line holds an even number of
    ``"`` (so no quoted cell runs on into the next block), and ``np.loadtxt``
    reads one row of finite values per line, one per cell, with 0 or 1 in each
    column of ``binary``.  Quoted cells, CR-only line ends and a missing final
    newline are plain, but a quoted line break is not: it joins two lines into
    one row.  A plain block's cells are then what ``csv.reader`` splits the
    lines into, and ``np.loadtxt`` reads each with Python's own parser
    (``PyOS_string_to_double``), so the values are those ``float`` gives, bit
    for bit.  Only the values and one block's lines are held, where a list of
    ``csv.reader`` rows would hold every cell as a ``str``.
    """
    blocks = []
    while block := list(itertools.islice(lines, _BLOCK_ROWS)):
        if not (_is_plain("".join(block)) and _BLANK_LINES.isdisjoint(block)
                and block[-1].count('"') % 2 == 0):
            break
        try:
            values = np.loadtxt(block, delimiter=",", comments=None, quotechar='"',
                                ndmin=2)
        except ValueError:  # a cell that is not a number, or a row of another width
            break
        if (values.shape != (len(block), ncol) or not np.isfinite(values).all()
                or not np.isin(values[:, binary], (0.0, 1.0)).all()):
            break
        blocks.append(values)
    return blocks, block


def _parse_table(path, names: list, body, schema: TableSchema) -> np.ndarray:
    """The values of the data rows of ``body``, an open table after its header
    of ``names``, which holds the schema's columns, or its feature columns only.

    The file is read once.  Its plain blocks (see ``_plain_values``), quoted
    cells, CR-only line ends and a missing final newline included, are read by
    ``np.loadtxt``; from the first block that is not plain, the rest of the file
    is read by ``csv.reader``, which alone reads blank lines and quoted line
    breaks, and alone builds the errors, since a plain block holds no bad row.

    A row with the wrong cell count, or with a cell that is missing, not a
    plain ASCII number (``1_0`` and a full-width digit are not), nan or
    infinite, raises ValueError listing every such row's file line number
    (1-based, header is line 1) and quoting the first few bad cells with
    their column names.  A label or categorical_binary cell that
    is not 0 or 1 raises SchemaError naming the column, the first bad line
    and its cell.
    """
    ncol = len(names)
    binary = {names.index(col.name): col for col in schema.columns
              if col.kind != "numeric" and col.name in names}
    blocks, declined = _plain_values(body, ncol, list(binary))
    if not declined:  # every block was plain; the empty tail below raises peak RSS
        return np.concatenate(blocks) if blocks else np.empty((0, ncol))
    first = 2 + _BLOCK_ROWS * len(blocks)  # the file line of the reader's first row
    rows = list(csv.reader(itertools.chain(declined, body)))
    try:  # numpy reads each str cell with Python's float
        values = np.array(rows, dtype=float).reshape(len(rows), ncol)
        if not (np.isfinite(values).all() and _is_plain("".join(map("".join, rows)))):
            raise ValueError
    except ValueError:  # a row of the wrong width, or a cell that is not a plain finite number
        bad_lines = [first + i for i, row in enumerate(rows)
                     if len(row) != ncol or not all(map(_is_finite_number, row))]
        cells = []
        for line in bad_lines:
            row = rows[line - first]
            if len(row) != ncol:
                cells.append(f"line {line} has {len(row)} cell(s), expected {ncol}")
            else:
                cells += [f"line {line}, column {name!r}: {cell!r}"
                          for name, cell in zip(names, row) if not _is_finite_number(cell)]
            if len(cells) >= _CELLS_QUOTED:
                break
        raise ValueError(
            f"{path}: malformed, missing or non-finite values at line(s) "
            + ", ".join(str(b) for b in bad_lines)
            + f" ({'; '.join(cells[:_CELLS_QUOTED])})"
        ) from None
    for j, col in binary.items():
        bad = np.flatnonzero(~np.isin(values[:, j], (0.0, 1.0)))
        if bad.size:
            i = int(bad[0])
            what = ("label column must contain only 0/1 values" if col.kind == "label"
                    else f"categorical column {col.name!r} must be 0/1")
            raise SchemaError(f"{path}: {what} (line {first + i}: {rows[i][j]!r})")
    return np.concatenate(blocks + [values])


@contextmanager
def _open_table(path):
    """Yield a data CSV's header, read by ``csv.reader`` (a name may be quoted)
    and its names stripped, and the open file after it, for ``_parse_table``.

    The file is read as UTF-8, with no newline translation, and a byte order
    mark is dropped.  An empty file, or bytes that are not UTF-8 anywhere in
    the block, raise ValueError naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected a header row")
            yield [h.strip() for h in header], fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: "
                         f"{exc.reason})") from None


def load_csv(path, schema: TableSchema | None = None) -> tuple[LabeledBatch, TableSchema]:
    """Parse a headered CSV into a batch, validating against the schema.

    Unparseable, missing or non-finite values raise ValueError listing the
    file line numbers (1-based, header is line 1).  Without a schema, every
    column is an unnormalized numeric feature except the label, which is the
    column named 'y' or 'label' (or the last column when neither name
    appears); a header with a repeated name or with no feature column then
    raises SchemaError naming the file.
    """
    with _open_table(path) as (header, body):
        if schema is None:
            if "y" in header:
                label = header.index("y")
            elif "label" in header:
                label = header.index("label")
            else:
                label = len(header) - 1
            cols = [
                ColumnSchema(name=h, kind="label" if i == label else "numeric")
                for i, h in enumerate(header)
            ]
            try:
                schema = TableSchema(columns=tuple(cols))
            except SchemaError as exc:  # a repeated column name
                raise SchemaError(f"{path}: {exc}") from None
            if schema.p == 0:
                raise SchemaError(f"{path}: needs a label and at least one feature column, "
                                  f"found header {header}")
        else:
            expected = [c.name for c in schema.columns]
            if header != expected:
                raise SchemaError(
                    f"{path}: header {header} does not match schema columns {expected}"
                )

        values = _parse_table(path, header, body, schema)
    label_idx = schema.label_index
    feature_idx = [i for i in range(len(header)) if i != label_idx]
    y = values[:, label_idx].astype(np.int64)
    return LabeledBatch(x=values[:, feature_idx], y=y), schema


def _write_rows(path, header: list, columns: list) -> None:
    """Write a header and columns (1-d arrays of one length) as a CSV; columns
    of unequal lengths raise ValueError.

    A numeric or boolean column's cell is its value's ``repr`` (full precision,
    ``True``/``False``), a string column's (numpy dtype kind ``U``, as in sweep
    results) its text, which must need no quoting, so the rows are the bytes
    ``csv.writer`` gives (CRLF line ends).  Each block of ``_BLOCK_ROWS`` rows
    is formatted as one string and written by one call.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            cells = [map(str if col.dtype.kind == "U" else repr,
                         col[start:start + _BLOCK_ROWS].tolist()) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells, strict=True))) + "\r\n")


def write_csv(batch: LabeledBatch, path, schema: TableSchema) -> None:
    """Write a batch back to CSV in schema column order, labels as 0/1."""
    if schema.p != batch.p:
        raise SchemaError("schema width does not match batch width")
    columns = list(batch.x.T)
    columns.insert(schema.label_index, batch.y)
    _write_rows(path, [c.name for c in schema.columns], columns)


def save_predictions_csv(path, probs: np.ndarray, labels: np.ndarray) -> None:
    """Write row_id,p_hat,label_hat rows (full float precision)."""
    _write_rows(path, ["row_id", "p_hat", "label_hat"],
                [np.arange(len(probs)), np.asarray(probs, dtype=float),
                 np.asarray(labels, dtype=np.int64)])


def save_report_csv(report, path) -> None:
    """Write a ``TrainReport``'s traces as iteration,elbo,grad_var,rho_t rows."""
    _write_rows(path, ["iteration", "elbo", "grad_var", "rho_t"],
                [np.arange(report.iterations_run), report.elbo_trace,
                 report.grad_var_trace, report.rho_trace])


def fit_normalization(schema: TableSchema, batch: LabeledBatch) -> TableSchema:
    """Fill normalization statistics from this batch (training data only).
    ``ColumnSchema`` refuses a statistic that cannot normalize, such as the sd
    of a constant column or a range that overflows, naming its column."""
    if schema.p != batch.p:
        raise SchemaError("schema width does not match batch width")
    with np.errstate(over="ignore", invalid="ignore"):  # ColumnSchema refuses inf and nan
        cols = [replace(col, **{key: float(_STATISTICS[key](values))
                                for key in _NORMALIZATIONS[col.normalization]})
                for col, values in zip(schema.feature_columns, batch.x.T)]
    cols.insert(schema.label_index, schema.columns[schema.label_index])
    return TableSchema(columns=tuple(cols))


def normalize(batch: LabeledBatch, schema: TableSchema) -> LabeledBatch:
    """Apply the fitted per-column transforms; logs a warning when minmax01
    values fall outside the fitted range (they map outside [0,1])."""
    schema.check_fitted()
    if schema.p != batch.p:
        raise SchemaError("schema width does not match batch width")
    x = batch.x.copy()
    outside = 0
    for j, col in enumerate(schema.feature_columns):
        if col.normalization == "zscore":
            x[:, j] = (x[:, j] - col.mean) / col.sd
        elif col.normalization == "minmax01":
            outside += int(np.sum((x[:, j] < col.min) | (x[:, j] > col.max)))
            x[:, j] = (x[:, j] - col.min) / (col.max - col.min)
    if outside:
        logger.warning(
            "%d value(s) fell outside the fitted minmax range and map outside [0,1]",
            outside,
        )
    return LabeledBatch(x=x, y=batch.y)


def split(batch: LabeledBatch, folds: int, seed: int) -> list[tuple[LabeledBatch, LabeledBatch]]:
    """Seeded k-fold cross-validation: one (train, test) pair per fold.

    The rows are shuffled by ``default_rng(seed).permutation`` and cut into
    ``folds`` contiguous test folds whose sizes differ by at most one row;
    every row appears in exactly one test fold.
    """
    _check_counts(folds=(folds, 2), seed=(seed, 0))
    n = batch.n
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    if folds > n:
        raise ValueError("more folds than rows")
    parts = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    pairs = []
    for i, test_idx in enumerate(parts):
        train_idx = np.concatenate([parts[j] for j in range(folds) if j != i])
        pairs.append((LabeledBatch(x=batch.x[train_idx], y=batch.y[train_idx]),
                      LabeledBatch(x=batch.x[test_idx], y=batch.y[test_idx])))
    return pairs


def generate_synthetic(truth: TrueFunction, n: int, seed: int) -> LabeledBatch:
    """Draw x ~ U[0,1]^p and y ~ Bernoulli(sigmoid(eta0(x))), fully seeded.

    The generator makes exactly two draws (features, then label uniforms),
    so a given (truth, n, seed) always produces byte-identical data.
    """
    _check_counts(n=(n, 0), seed=(seed, 0))
    rng = np.random.default_rng(seed)
    x = rng.random((n, truth.p))
    probs = sigmoid(truth(x))
    y = (rng.random(n) < probs).astype(np.int64)
    return LabeledBatch(x=x, y=y)


# Reference synthetic truth used by the experiment scripts and tests: a p=2,
# k=3 network whose decision surface is XOR-like along the two axes with a
# soft diagonal gate, giving roughly balanced labels and a Bayes risk well
# away from both 0 and 0.5.
REFERENCE_TRUTH = TrueFunction.from_network(
    NetworkParams(
        beta0=-3.0,
        beta=np.array([4.0, 4.0, -6.0]),
        gamma0=np.array([-3.0, -3.0, 4.5]),
        gamma=np.array([[6.0, 0.0], [0.0, 6.0], [-6.0, -6.0]]),
    )
)
