"""CSV ingestion, label encoding, min-max normalization, and splits.

Fitting (encoder codes, per-column min/max) happens on the training rows
only; transform clamps out-of-range values into [0, 1] and fails loudly on
categorical values the encoder never saw. Rows with missing cells or
non-finite numbers are rejected at load time. Data-row numbers in errors
are 1-based (the header is row 0).

``load_csv`` reads the CSV in blocks of ``CSV_BLOCK_ROWS`` records and
converts each numeric column block in one numpy call, so memory holds one
block of cells plus the typed columns: on 100,000 rows of the benchmark's
43-column CSV, a 40 MB table, its RSS grew by 79 MB.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from collections import deque
from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

from .errors import (BadCsv, BadMagic, ConfigError, EmptyFile,
                     MissingColumn, ParseError, ScaleOverflow, StoreError,
                     UnknownCategory, VersionUnsupported)

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"
KIND_LABEL = "label"

DATASET_MAGIC = b"EIDD"
DATASET_VERSION = 1
_DATASET_HEAD = struct.Struct("<HIH")  # version, rows, features

# data records that load_csv reads and parses together
CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in (KIND_NUMERIC, KIND_CATEGORICAL, KIND_LABEL):
            raise ConfigError(f"unknown column kind {self.kind!r} for '{self.name}'")


@dataclass
class FeatureSchema:
    columns: list[ColumnSpec]
    selected_features: list[str]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate column names in schema")
        labels = [c.name for c in self.columns if c.kind == KIND_LABEL]
        if len(labels) != 1:
            raise ConfigError(f"schema needs exactly one label column, found {len(labels)}")
        non_label = {c.name for c in self.columns if c.kind != KIND_LABEL}
        bad = [f for f in self.selected_features if f not in non_label]
        if bad:
            raise ConfigError(f"selected features not among non-label columns: {bad}")
        if len(set(self.selected_features)) != len(self.selected_features):
            raise ConfigError("duplicate selected features")

    @property
    def label_column(self) -> str:
        return next(c.name for c in self.columns if c.kind == KIND_LABEL)

    @classmethod
    def from_json(cls, obj, where: str = "schema") -> "FeatureSchema":
        """Schema from its JSON form at dotted key ``where``; a missing or
        unknown key or a wrong type is a ConfigError naming the key."""
        check_json_object(obj, ("columns", "selected_features"), where)
        cols, selected = obj.get("columns"), obj.get("selected_features")
        if not isinstance(cols, list):
            raise ConfigError(f"{where}.columns must be a list of {{name, kind}} string objects")
        for i, c in enumerate(cols):
            check_json_object(c, ("name", "kind"), f"{where}.columns[{i}]")
            if not (isinstance(c.get("name"), str) and isinstance(c.get("kind"), str)):
                raise ConfigError(f"{where}.columns[{i}] needs a string name and kind")
        if not (isinstance(selected, list) and selected
                and all(isinstance(f, str) for f in selected)):
            raise ConfigError(f"{where}.selected_features must be a non-empty list of strings")
        return cls(columns=[ColumnSpec(**c) for c in cols], selected_features=selected)


def check_json_object(obj, keys, where: str) -> None:
    """Reject ``obj`` unless it is a JSON object with no key outside ``keys``;
    errors name it by its dotted key ``where`` ("" for the whole config)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError("unknown config key(s): "
                          + ", ".join(f"{where}.{k}" if where else k for k in unknown))


@dataclass
class RawTable:
    """One typed array per schema column, in schema order: float64 for numeric
    columns, str for categorical ones, int64 0/1 for the label."""

    arrays: dict[str, np.ndarray]

    @property
    def columns(self) -> list[str]:
        return list(self.arrays)

    def __len__(self) -> int:
        return len(next(iter(self.arrays.values())))


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _parse_column(cells, col: ColumnSpec, first_row: int) -> np.ndarray:
    """Typed array for one column block whose first cell is data row
    ``first_row``; ParseError names its first bad cell."""
    if col.kind == KIND_CATEGORICAL:
        values = np.array(list(map(str.strip, cells)), dtype=str)
        bad = values == ""
    else:
        try:
            values = np.array(cells, dtype=np.float64)  # float() of each cell, in C
        except ValueError:  # a cell float() rejects: find it cell by cell
            values = np.fromiter(map(_float_or_nan, cells), np.float64, len(cells))
        bad = (values != 0.0) & (values != 1.0) if col.kind == KIND_LABEL else ~np.isfinite(values)
    if bad.any():
        row = int(bad.argmax())
        value = cells[row].strip()
        problem = ("missing value" if value == "" else
                   f"label must be 0 or 1, got {value!r}" if col.kind == KIND_LABEL else
                   f"{value!r} is not a finite number")
        raise ParseError(first_row + row, col.name, problem)
    return values.astype(np.int64) if col.kind == KIND_LABEL else values


def _parse_block(reader, columns: list[tuple[ColumnSpec, int]], parts: dict,
                 first_row: int) -> int:
    """Read up to ``CSV_BLOCK_ROWS`` records, append each schema column's typed
    array for them to ``parts`` and return how many were read. ParseError names
    the first bad cell in row-major order: each column's first bad row, then
    the lowest row, ties going to schema order. The block's cells are freed
    on return, before the next block is read."""
    width = max(i for _, i in columns) + 1
    # pad short records so every schema column exists; an empty cell is missing
    block = [r if len(r) >= width else r + [""] * (width - len(r))
             for r in islice(reader, CSV_BLOCK_ROWS)]
    if not block:
        return 0
    cells = list(zip(*block))
    errors = []
    for col, i in columns:
        try:
            parts[col.name].append(_parse_column(cells[i], col, first_row))
        except ParseError as exc:
            errors.append(exc)
    if errors:
        raise min(errors, key=lambda exc: exc.row)  # min() keeps the first of equal rows
    return len(block)


def load_csv(path: str, schema: FeatureSchema) -> RawTable:
    """Read an RFC-4180 CSV with a header row into one typed array per column.

    The records are read and parsed in blocks of ``CSV_BLOCK_ROWS``, so memory
    holds one block of cells plus the typed columns. Errors come in this
    order: header errors (EmptyFile for no header, MissingColumn, BadCsv for
    a column named twice); BadCsv for a record anywhere in the file that is
    not UTF-8 or holds a field over the csv module's limit (after a bad cell
    the file is still read to its end); ParseError for the first bad cell in
    row-major order; EmptyFile for a header with no data rows.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
            missing = [c.name for c in schema.columns if c.name not in header]
            if missing:
                raise MissingColumn(missing)
            twice = [c.name for c in schema.columns if header.count(c.name) > 1]
            if twice:
                raise BadCsv(f"{path}: CSV header names column(s) twice: {', '.join(twice)}")
            columns = [(c, header.index(c.name)) for c in schema.columns]
            parts, rows = {c.name: [] for c in schema.columns}, 0
            try:
                while n := _parse_block(reader, columns, parts, rows + 1):
                    rows += n
            except ParseError:
                deque(reader, maxlen=0)  # a BadCsv later in the file comes first
                raise
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        except UnicodeDecodeError as exc:
            raise BadCsv(f"{path} is not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise BadCsv(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise EmptyFile(f"{path} has a header but no data rows")
    # join one column at a time, dropping its blocks, so the table is never held twice
    return RawTable(arrays={name: np.concatenate(parts.pop(name)) for name in list(parts)})


@dataclass
class EncodingMap:
    """Per categorical column: distinct value -> consecutive 0-based code,
    assigned in lexicographic order of the distinct values."""

    codes: dict[str, dict[str, int]] = field(default_factory=dict)

    def encode(self, column: str, values: np.ndarray) -> np.ndarray:
        """int64 codes of a str column; UnknownCategory names its first unseen value."""
        mapping = self.codes.get(column, {})
        distinct, inverse = np.unique(values, return_inverse=True)
        lookup = np.array([mapping.get(v, -1) for v in distinct.tolist()], dtype=np.int64)
        codes = lookup[inverse]
        if (codes < 0).any():
            raise UnknownCategory(str(values[int((codes < 0).argmax())]), column)
        return codes


@dataclass
class NormStats:
    """Per selected column: (min, max) fitted on the training rows."""

    stats: dict[str, tuple[float, float]] = field(default_factory=dict)


@dataclass
class DatasetSplit:
    features: np.ndarray  # (n, n_features) float64 in [0, 1]
    labels: np.ndarray    # (n,) int, values {0, 1}

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigError("features and labels row counts differ")

    def __len__(self) -> int:
        return self.features.shape[0]


def _feature_column(table: RawTable, enc: EncodingMap, name: str,
                    rows: np.ndarray) -> np.ndarray:
    """float64 values of one feature at the given rows, categorical ones as codes."""
    values = table.arrays[name][rows]
    return enc.encode(name, values).astype(np.float64) if values.dtype.kind == "U" else values


def fit_label_encoding(table: RawTable, schema: FeatureSchema, row_indices) -> EncodingMap:
    """Codes by lexicographic order of each categorical column's distinct
    values at the given rows."""
    rows = np.asarray(row_indices, np.int64)
    enc = EncodingMap()
    for col in schema.columns:
        if col.kind == KIND_CATEGORICAL:
            distinct = np.unique(table.arrays[col.name][rows]).tolist()
            enc.codes[col.name] = {v: i for i, v in enumerate(distinct)}
    return enc


def fit_minmax(table: RawTable, schema: FeatureSchema, enc: EncodingMap,
               row_indices) -> NormStats:
    """Per-column min/max over the given (non-empty) rows: the training split
    only, by contract."""
    rows = np.asarray(row_indices, np.int64)
    stats = NormStats()
    for name in schema.selected_features:
        x = _feature_column(table, enc, name, rows)
        # the first extreme in row order, so -0.0 vs 0.0 is picked like min()/max()
        hi = x.argmax()
        mn, mx = float(x[x.argmin()]), float(x[hi])
        if not math.isfinite(mx - mn):
            raise ScaleOverflow(int(rows[hi]) + 1, name, f"range [{mn!r}, {mx!r}] overflows")
        stats.stats[name] = (mn, mx)
    return stats


def apply_transform(table: RawTable, schema: FeatureSchema, enc: EncodingMap,
                    stats: NormStats, row_indices) -> DatasetSplit:
    """x' = (x - min) / (max - min) clamped to [0, 1]; constant columns map to 0."""
    rows = np.asarray(row_indices, np.int64)
    feats = np.zeros((len(rows), len(schema.selected_features)))
    for j, name in enumerate(schema.selected_features):
        x = _feature_column(table, enc, name, rows)
        mn, mx = stats.stats[name]
        if mx != mn:
            # far past a tiny range the quotient overflows to inf and clamps to 1
            with np.errstate(over="ignore"):
                feats[:, j] = np.clip((x - mn) / (mx - mn), 0.0, 1.0)
    return DatasetSplit(features=feats, labels=table.arrays[schema.label_column][rows])


def split_indices(n_rows: int, ratios, seed: int):
    """Deterministic seeded shuffle, then partition by the first two of the
    three ratios, which ``config.Split`` checks."""
    r1, r2, _ = ratios
    perm = np.random.default_rng(seed).permutation(n_rows)
    n1 = int(n_rows * r1)
    n2 = int(n_rows * r2)
    return perm[:n1], perm[n1:n1 + n2], perm[n1 + n2:]


# --- binary dataset file + JSON sidecar ---

def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path + ".tmp"`` and rename it over ``path``, so
    readers never see a partial file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_dataset(ds: DatasetSplit, path: str) -> None:
    """EIDD container: header, row-major float32 features, u8 labels."""
    n, f = ds.features.shape
    write_atomic(path, DATASET_MAGIC + _DATASET_HEAD.pack(DATASET_VERSION, n, f)
                 + ds.features.astype("<f4").tobytes()
                 + ds.labels.astype(np.uint8).tobytes())


def load_dataset(path: str) -> DatasetSplit:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != DATASET_MAGIC:
        raise BadMagic(f"{path} is not a dataset file")
    off = 4 + _DATASET_HEAD.size
    if len(buf) < off:
        raise StoreError(f"{path} is {len(buf)} bytes, shorter than its {off}-byte header")
    version, n, f = _DATASET_HEAD.unpack_from(buf, 4)
    if version != DATASET_VERSION:
        raise VersionUnsupported(f"{path}: version {version}, expected {DATASET_VERSION}")
    if f == 0:
        raise StoreError(f"{path} holds rows with zero features")
    need = n * f * 4 + n
    if len(buf) - off != need:
        raise StoreError(f"{path}: payload is {len(buf) - off} bytes, expected {need}")
    feats = np.frombuffer(buf, dtype="<f4", count=n * f, offset=off)
    labels = np.frombuffer(buf, dtype=np.uint8, count=n, offset=off + n * f * 4)
    if not ((feats >= 0.0) & (feats <= 1.0)).all():  # NaN and inf fail too
        raise StoreError(f"{path} holds a feature outside [0, 1]")
    if (labels > 1).any():
        raise StoreError(f"{path} holds a label outside {{0, 1}}")
    return DatasetSplit(features=feats.astype(np.float64).reshape(n, f),
                        labels=labels.astype(np.int64))


def save_sidecar(path: str, schema: FeatureSchema, enc: EncodingMap,
                 stats: NormStats, meta: dict | None = None) -> None:
    doc = {"schema": asdict(schema), "encoding": enc.codes,
           "norm_stats": stats.stats, "meta": meta or {}}
    write_atomic(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8"))
