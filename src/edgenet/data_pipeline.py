"""CSV ingestion, label encoding, min-max normalization, and splits.

Fitting (encoder codes, per-column min/max) happens on the training rows
only; transform clamps out-of-range values into [0, 1] and fails loudly on
categorical values the encoder never saw. Rows with missing cells are
rejected at load time. Data-row numbers in errors are 1-based (the header
is row 0).
"""

from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadMagic, BadRatios, ConfigError, EmptyFile, MissingColumn,
                     ParseError, StoreError, UnknownCategory, VersionUnsupported)

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

    def kind_of(self, name: str) -> str:
        return next(c.kind for c in self.columns if c.name == name)

    def to_json(self) -> dict:
        return {"columns": [{"name": c.name, "kind": c.kind} for c in self.columns],
                "selected_features": list(self.selected_features)}

    @classmethod
    def from_json(cls, obj: dict) -> "FeatureSchema":
        cols = [ColumnSpec(name=c["name"], kind=c["kind"]) for c in obj["columns"]]
        return cls(columns=cols, selected_features=list(obj["selected_features"]))


@dataclass
class RawTable:
    """Typed cells in schema column order; numeric floats, categorical strings,
    labels already checked to be 0/1."""

    columns: list[str]
    rows: list[list]

    def __len__(self) -> int:
        return len(self.rows)


def _parse_cell(raw: str, kind: str, row_no: int, col: str):
    value = raw.strip()
    if value == "":
        raise ParseError(row_no, col, "missing value")
    if kind == KIND_CATEGORICAL:
        return value
    try:
        num = float(value)
    except ValueError:
        raise ParseError(row_no, col, f"cannot parse {value!r} as a number") from None
    if kind == KIND_LABEL:
        if num not in (0.0, 1.0):
            raise ParseError(row_no, col, f"label must be 0 or 1, got {value!r}")
        return int(num)
    return num


def load_csv(path: str, schema: FeatureSchema) -> RawTable:
    """Read an RFC-4180 CSV with a header row into typed cells."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        header = [h.strip() for h in header]
        missing = [c.name for c in schema.columns if c.name not in header]
        if missing:
            raise MissingColumn(missing)
        positions = {c.name: header.index(c.name) for c in schema.columns}
        rows = []
        for row_no, record in enumerate(reader, start=1):
            cells = []
            for col in schema.columns:
                pos = positions[col.name]
                if pos >= len(record):
                    raise ParseError(row_no, col.name, "missing value")
                cells.append(_parse_cell(record[pos], col.kind, row_no, col.name))
            rows.append(cells)
    if not rows:
        raise EmptyFile(f"{path} has a header but no data rows")
    return RawTable(columns=[c.name for c in schema.columns], rows=rows)


@dataclass
class EncodingMap:
    """Per categorical column: distinct value -> consecutive 0-based code,
    assigned in lexicographic order of the distinct values."""

    codes: dict[str, dict[str, int]] = field(default_factory=dict)

    def encode(self, column: str, value: str) -> int:
        try:
            return self.codes[column][value]
        except KeyError:
            raise UnknownCategory(value, column) from None

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

    @classmethod
    def from_json(cls, obj: dict) -> "NormStats":
        return cls(stats={col: (float(v[0]), float(v[1])) for col, v in obj.items()})


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

    def subset(self, indices: np.ndarray) -> "DatasetSplit":
        return DatasetSplit(features=self.features[indices],
                            labels=self.labels[indices],
                            row_ids=self.row_ids[indices])


def _iter_rows(table: RawTable, row_indices) -> list[int]:
    return list(range(len(table))) if row_indices is None else list(row_indices)


def fit_label_encoding(table: RawTable, schema: FeatureSchema,
                       row_indices=None) -> EncodingMap:
    """Codes by lexicographic order of each categorical column's distinct values."""
    rows = _iter_rows(table, row_indices)
    enc = EncodingMap()
    for col in schema.columns:
        if col.kind != KIND_CATEGORICAL:
            continue
        idx = table.columns.index(col.name)
        distinct = sorted({table.rows[r][idx] for r in rows})
        enc.codes[col.name] = {v: i for i, v in enumerate(distinct)}
    return enc


def _encoded_value(table: RawTable, schema: FeatureSchema, enc: EncodingMap,
                   row: int, col: str) -> float:
    idx = table.columns.index(col)
    cell = table.rows[row][idx]
    if schema.kind_of(col) == KIND_CATEGORICAL:
        return float(enc.encode(col, cell))
    return float(cell)


def fit_minmax(table: RawTable, schema: FeatureSchema, enc: EncodingMap,
               row_indices=None) -> NormStats:
    """Per-column min/max over the given rows (training split only, by contract)."""
    rows = _iter_rows(table, row_indices)
    stats = NormStats()
    for col in schema.selected_features:
        vals = [_encoded_value(table, schema, enc, r, col) for r in rows]
        stats.stats[col] = (min(vals), max(vals))
    return stats


def apply_transform(table: RawTable, schema: FeatureSchema, enc: EncodingMap,
                    stats: NormStats, row_indices=None) -> DatasetSplit:
    """x' = (x - min) / (max - min) clamped to [0, 1]; constant columns map to 0."""
    rows = _iter_rows(table, row_indices)
    label_idx = table.columns.index(schema.label_column)
    n = len(rows)
    feats = np.zeros((n, len(schema.selected_features)))
    labels = np.zeros(n, dtype=np.int64)
    for out_i, r in enumerate(rows):
        for out_j, col in enumerate(schema.selected_features):
            x = _encoded_value(table, schema, enc, r, col)
            mn, mx = stats.stats[col]
            if mx == mn:
                feats[out_i, out_j] = 0.0
            else:
                feats[out_i, out_j] = min(max((x - mn) / (mx - mn), 0.0), 1.0)
        labels[out_i] = table.rows[r][label_idx]
    return DatasetSplit(features=feats, labels=labels,
                        row_ids=np.asarray(rows, dtype=np.int64))


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


def split(dataset: DatasetSplit, ratios, seed: int):
    """Partition a dataset into train/validation/test splits."""
    idx_train, idx_val, idx_test = split_indices(len(dataset), ratios, seed)
    return dataset.subset(idx_train), dataset.subset(idx_val), dataset.subset(idx_test)


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
    version, n, f = struct.unpack_from("<HIH", buf, 4)
    if version != DATASET_VERSION:
        raise VersionUnsupported(f"dataset version {version}, expected {DATASET_VERSION}")
    off = 4 + struct.calcsize("<HIH")
    need = n * f * 4 + n
    if len(buf) - off != need:
        raise StoreError(f"dataset payload is {len(buf) - off} bytes, expected {need}")
    feats = np.frombuffer(buf, dtype="<f4", count=n * f, offset=off)
    labels = np.frombuffer(buf, dtype=np.uint8, count=n, offset=off + n * f * 4)
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


def load_sidecar(path: str) -> tuple[FeatureSchema, EncodingMap, NormStats, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return (FeatureSchema.from_json(doc["schema"]), EncodingMap.from_json(doc["encoding"]),
            NormStats.from_json(doc["norm_stats"]), doc.get("meta", {}))
