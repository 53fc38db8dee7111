"""CSV ingestion, label encoding, min-max normalization, and splits.

Fitting (encoder codes, per-column min/max) happens on the training rows
only; transform clamps out-of-range values into [0, 1] and fails loudly on
categorical values the encoder never saw. Rows with missing cells or
non-finite numbers are rejected at load time. Data-row numbers in errors
are 1-based (the header is row 0).
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import (BadCsv, BadMagic, BadRatios, ConfigError, EmptyFile,
                     MissingColumn, ParseError, ScaleOverflow, StoreError,
                     UnknownCategory, VersionUnsupported)

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"
KIND_LABEL = "label"

DATASET_MAGIC = b"EIDD"
DATASET_VERSION = 1


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

    def to_json(self) -> dict:
        return {"columns": [{"name": c.name, "kind": c.kind} for c in self.columns],
                "selected_features": list(self.selected_features)}

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


def _parse_column(cells: list[str], col: ColumnSpec) -> np.ndarray:
    """Typed array for one column; ParseError names its first bad cell."""
    if col.kind == KIND_CATEGORICAL:
        values = np.array(list(map(str.strip, cells)), dtype=str)
        bad = values == ""
    else:
        values = np.fromiter(map(_float_or_nan, cells), np.float64, len(cells))
        bad = (values != 0.0) & (values != 1.0) if col.kind == KIND_LABEL else ~np.isfinite(values)
    if bad.any():
        row = int(bad.argmax())
        value = cells[row].strip()
        problem = ("missing value" if value == "" else
                   f"label must be 0 or 1, got {value!r}" if col.kind == KIND_LABEL else
                   f"{value!r} is not a finite number")
        raise ParseError(row + 1, col.name, problem)
    return values.astype(np.int64) if col.kind == KIND_LABEL else values


def load_csv(path: str, schema: FeatureSchema) -> RawTable:
    """Read an RFC-4180 CSV with a header row into one typed array per column.

    ParseError names the first bad cell in row-major order: each column's
    first bad row, then the lowest row, ties going to schema order.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
            missing = [c.name for c in schema.columns if c.name not in header]
            if missing:
                raise MissingColumn(missing)
            records = list(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        except UnicodeDecodeError as exc:
            raise BadCsv(f"{path} is not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise BadCsv(f"{path}, line {reader.line_num}: {exc}") from None
    if not records:
        raise EmptyFile(f"{path} has a header but no data rows")
    width = max(header.index(c.name) for c in schema.columns) + 1
    # pad short records so every schema column exists; an empty cell is missing
    records = [r if len(r) >= width else r + [""] * (width - len(r)) for r in records]
    arrays, errors = {}, []
    for col in schema.columns:
        try:
            cells = list(map(itemgetter(header.index(col.name)), records))
            arrays[col.name] = _parse_column(cells, col)
        except ParseError as exc:
            errors.append(exc)
    if errors:
        raise min(errors, key=lambda exc: exc.row)  # min() keeps the first of equal rows
    return RawTable(arrays=arrays)


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

    def to_json(self) -> dict:
        return {col: dict(mapping) for col, mapping in self.codes.items()}

    @classmethod
    def from_json(cls, obj: dict) -> "EncodingMap":
        return cls(codes={col: {k: int(v) for k, v in mapping.items()}
                          for col, mapping in obj.items()})


@dataclass
class NormStats:
    """Per selected column: (min, max) fitted on the training rows."""

    stats: dict[str, tuple[float, float]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {col: [mn, mx] for col, (mn, mx) in self.stats.items()}


@dataclass
class DatasetSplit:
    features: np.ndarray  # (n, n_features) float64 in [0, 1]
    labels: np.ndarray    # (n,) int, values {0, 1}
    row_ids: np.ndarray   # original row indices

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigError("features and labels row counts differ")

    def __len__(self) -> int:
        return self.features.shape[0]


def _row_index(table: RawTable, row_indices) -> np.ndarray:
    return np.arange(len(table)) if row_indices is None else np.asarray(row_indices, np.int64)


def _feature_column(table: RawTable, enc: EncodingMap, name: str,
                    rows: np.ndarray) -> np.ndarray:
    """float64 values of one feature at the given rows, categorical ones as codes."""
    values = table.arrays[name][rows]
    return enc.encode(name, values).astype(np.float64) if values.dtype.kind == "U" else values


def fit_label_encoding(table: RawTable, schema: FeatureSchema,
                       row_indices=None) -> EncodingMap:
    """Codes by lexicographic order of each categorical column's distinct values."""
    rows = _row_index(table, row_indices)
    enc = EncodingMap()
    for col in schema.columns:
        if col.kind == KIND_CATEGORICAL:
            distinct = np.unique(table.arrays[col.name][rows]).tolist()
            enc.codes[col.name] = {v: i for i, v in enumerate(distinct)}
    return enc


def fit_minmax(table: RawTable, schema: FeatureSchema, enc: EncodingMap,
               row_indices=None) -> NormStats:
    """Per-column min/max over the given (non-empty) rows: the training split
    only, by contract."""
    rows = _row_index(table, row_indices)
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
                    stats: NormStats, row_indices=None) -> DatasetSplit:
    """x' = (x - min) / (max - min) clamped to [0, 1]; constant columns map to 0."""
    rows = _row_index(table, row_indices)
    feats = np.zeros((len(rows), len(schema.selected_features)))
    for j, name in enumerate(schema.selected_features):
        x = _feature_column(table, enc, name, rows)
        mn, mx = stats.stats[name]
        if mx != mn:
            # far past a tiny range the quotient overflows to inf and clamps to 1
            with np.errstate(over="ignore"):
                feats[:, j] = np.clip((x - mn) / (mx - mn), 0.0, 1.0)
    return DatasetSplit(features=feats, labels=table.arrays[schema.label_column][rows],
                        row_ids=rows)


def check_ratios(ratios) -> tuple[float, float, float]:
    if len(ratios) != 3:
        raise BadRatios(f"need exactly three ratios, got {len(ratios)}")
    r = tuple(float(x) for x in ratios)
    if any(x <= 0.0 for x in r):
        raise BadRatios(f"ratios must be positive, got {r}")
    if abs(sum(r) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must sum to 1, got {sum(r)}")
    return r


def split_indices(n_rows: int, ratios, seed: int):
    """Deterministic seeded shuffle, then partition by the first two ratios."""
    r1, r2, _ = check_ratios(ratios)
    perm = np.random.default_rng(seed).permutation(n_rows)
    n1 = int(n_rows * r1)
    n2 = int(n_rows * r2)
    return perm[:n1], perm[n1:n1 + n2], perm[n1 + n2:]


# --- binary dataset file + JSON sidecar ---

def save_dataset(ds: DatasetSplit, path: str) -> None:
    """EIDD container: header, row-major float32 features, u8 labels."""
    n, f = ds.features.shape
    blob = (DATASET_MAGIC + struct.pack("<HIH", DATASET_VERSION, n, f)
            + ds.features.astype("<f4").tobytes()
            + ds.labels.astype(np.uint8).tobytes())
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def load_dataset(path: str) -> DatasetSplit:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != DATASET_MAGIC:
        raise BadMagic(f"{path} is not a dataset file")
    off = 4 + struct.calcsize("<HIH")
    if len(buf) < off:
        raise StoreError(f"{path} is {len(buf)} bytes, shorter than its {off}-byte header")
    version, n, f = struct.unpack_from("<HIH", buf, 4)
    if version != DATASET_VERSION:
        raise VersionUnsupported(f"dataset version {version}, expected {DATASET_VERSION}")
    need = n * f * 4 + n
    if len(buf) - off != need:
        raise StoreError(f"dataset payload is {len(buf) - off} bytes, expected {need}")
    feats = np.frombuffer(buf, dtype="<f4", count=n * f, offset=off)
    labels = np.frombuffer(buf, dtype=np.uint8, count=n, offset=off + n * f * 4)
    if not np.isfinite(feats).all():
        raise StoreError(f"{path} holds non-finite features")
    if (labels > 1).any():
        raise StoreError(f"{path} holds a label outside {{0, 1}}")
    return DatasetSplit(features=feats.astype(np.float64).reshape(n, f),
                        labels=labels.astype(np.int64),
                        row_ids=np.arange(n, dtype=np.int64))


def save_sidecar(path: str, schema: FeatureSchema, enc: EncodingMap,
                 stats: NormStats, meta: dict | None = None) -> None:
    doc = {"schema": schema.to_json(), "encoding": enc.to_json(),
           "norm_stats": stats.to_json(), "meta": meta or {}}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
