"""CSV loading, column schemas, normalization, k-fold splits and synthetic data.

A dataset is a plain CSV with a header row.  The sidecar schema describes
each column: its kind (numeric feature, binary categorical feature, or the
single label column) and the normalization to apply (none, zscore, or
minmax01).  Normalization statistics are fitted once on training data and
carried inside the schema, so held-out data is transformed with the training
statistics rather than its own.  ``split`` cuts a batch into seeded k-fold
cross-validation pairs.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, fields, replace

import numpy as np

from .metrics import TrueFunction
from .model import LabeledBatch, NetworkParams, check_keys, json_field, sigmoid

__all__ = [
    "SchemaError",
    "DataError",
    "ColumnSchema",
    "TableSchema",
    "default_schema",
    "load_csv",
    "write_csv",
    "fit_normalization",
    "normalize",
    "split",
    "generate_synthetic",
    "REFERENCE_TRUTH",
]

logger = logging.getLogger("vbnn")

_KINDS = ("numeric", "categorical_binary", "label")
_NORMALIZATIONS = ("none", "zscore", "minmax01")


class SchemaError(ValueError):
    """The schema is inconsistent, or the data violates it."""


class DataError(ValueError):
    """Rows of the file could not be parsed; carries the offending line numbers."""

    def __init__(self, message: str, lines=()):
        super().__init__(message)
        self.lines = tuple(lines)


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
        if self.normalization not in _NORMALIZATIONS:
            raise SchemaError(f"unknown normalization {self.normalization!r}")
        if self.kind in ("label", "categorical_binary") and self.normalization != "none":
            raise SchemaError(f"column {self.name!r}: {self.kind} columns are never normalized")

    @property
    def fitted(self) -> bool:
        if self.normalization == "zscore":
            return self.mean is not None and self.sd is not None
        if self.normalization == "minmax01":
            return self.min is not None and self.max is not None
        return True

    def to_json_dict(self) -> dict:
        doc: dict = {"name": self.name, "kind": self.kind, "normalization": self.normalization}
        for key in ("mean", "sd", "min", "max"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ColumnSchema":
        check_keys(doc, [f.name for f in fields(cls)], f"schema column {doc.get('name')!r}")
        stats = {key: json_field(doc, key, float) for key in ("mean", "sd", "min", "max")
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

    @property
    def fitted(self) -> bool:
        return all(c.fitted for c in self.feature_columns)

    def to_json_dict(self) -> dict:
        return {"columns": [c.to_json_dict() for c in self.columns]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TableSchema":
        columns = json_field(doc, "columns", list[dict])
        return cls(columns=tuple(ColumnSchema.from_json_dict(c) for c in columns))


def default_schema(p: int) -> TableSchema:
    """Unnormalized numeric features x1..xp followed by a binary label y."""
    cols = [ColumnSchema(name=f"x{i + 1}") for i in range(p)]
    cols.append(ColumnSchema(name="y", kind="label"))
    return TableSchema(columns=tuple(cols))


def _parse_rows(path, rows: list, ncol: int) -> np.ndarray:
    """The (len(rows), ncol) values of the data rows that follow a header.

    A row with the wrong cell count, or with a cell that is missing, not a
    number, nan or infinite, raises DataError listing every such row's file
    line number (1-based, header is line 1).
    """
    values = np.full((len(rows), ncol), np.nan)
    for i, row in enumerate(rows):
        if len(row) == ncol:
            try:
                values[i] = [float(cell) for cell in row]
            except ValueError:
                pass  # the row stays nan and is reported below
    bad_lines = (np.flatnonzero(~np.isfinite(values).all(axis=1)) + 2).tolist()
    if bad_lines:
        raise DataError(
            f"{path}: malformed, missing or non-finite values at line(s) "
            + ", ".join(str(b) for b in bad_lines),
            lines=bad_lines,
        )
    return values


def load_csv(path, schema: TableSchema | None = None) -> tuple[LabeledBatch, TableSchema]:
    """Parse a headered CSV into a batch, validating against the schema.

    Unparseable, missing or non-finite values raise DataError listing the
    file line numbers (1-based, header is line 1).  Without a schema, every
    column is an unnormalized numeric feature except the label, which is the
    column named 'y' or 'label' (or the last column when neither name
    appears); a header with a repeated name or with no feature column then
    raises SchemaError naming the file.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row")
        rows = list(reader)

    header = [h.strip() for h in header]
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

    ncol = len(schema.columns)
    values = _parse_rows(path, rows, ncol)

    label_idx = schema.label_index
    y = values[:, label_idx]
    feature_idx = [i for i in range(ncol) if i != label_idx]
    x = values[:, feature_idx]

    if len(rows) and not np.all(np.isin(y, (0.0, 1.0))):
        raise SchemaError(f"{path}: label column must contain only 0/1 values")
    for j, col in enumerate(schema.feature_columns):
        if col.kind == "categorical_binary" and len(rows):
            if not np.all(np.isin(x[:, j], (0.0, 1.0))):
                raise SchemaError(f"{path}: categorical column {col.name!r} must be 0/1")

    return LabeledBatch(x=x, y=y.astype(np.int64)), schema


# Rows that write_csv formats and writes at once, so its memory stays near
# one block's strings whatever n is.
_BLOCK_ROWS = 1024


def write_csv(batch: LabeledBatch, path, schema: TableSchema | None = None) -> None:
    """Write a batch back to CSV (full float precision) in schema column order.

    Features are written as ``repr`` floats and labels as 0/1, with CRLF line
    ends, the bytes ``csv.writer`` gives row by row.  The rows are formatted
    and written a block of ``_BLOCK_ROWS`` at a time; a float's ``repr`` holds
    no comma, quote or line break, so only the header can need quoting.
    """
    schema = schema or default_schema(batch.p)
    if schema.p != batch.p:
        raise SchemaError("schema width does not match batch width")
    label_idx = schema.label_index
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([c.name for c in schema.columns])
        for start in range(0, batch.n, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            cols = [map(repr, col) for col in batch.x[rows].T.tolist()]
            cols.insert(label_idx, map(str, batch.y[rows].tolist()))
            fh.writelines(",".join(cells) + "\r\n" for cells in zip(*cols))


def fit_normalization(schema: TableSchema, batch: LabeledBatch) -> TableSchema:
    """Fill normalization statistics from this batch (training data only)."""
    if schema.p != batch.p:
        raise SchemaError("schema width does not match batch width")
    cols = list(schema.columns)
    j = 0
    for idx, col in enumerate(cols):
        if col.kind == "label":
            continue
        values = batch.x[:, j]
        if col.normalization == "zscore":
            sd = float(values.std())
            if sd == 0.0:
                raise SchemaError(f"column {col.name!r} has zero variance, cannot zscore")
            cols[idx] = replace(col, mean=float(values.mean()), sd=sd)
        elif col.normalization == "minmax01":
            lo, hi = float(values.min()), float(values.max())
            if hi <= lo:
                raise SchemaError(f"column {col.name!r} is constant, cannot minmax scale")
            cols[idx] = replace(col, min=lo, max=hi)
        j += 1
    return TableSchema(columns=tuple(cols))


def normalize(batch: LabeledBatch, schema: TableSchema) -> LabeledBatch:
    """Apply the fitted per-column transforms; logs a warning when minmax01
    values fall outside the fitted range (they map outside [0,1])."""
    if not schema.fitted:
        raise SchemaError("schema is not fitted; call fit_normalization first")
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
    n = batch.n
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    if folds < 2:
        raise ValueError("kfold needs at least 2 folds")
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
    if n < 0:
        raise ValueError("n must be >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
