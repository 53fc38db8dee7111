"""Seeded synthetic binary dataset for desk-scale runs.

Features are uniform in [0, 1]^d. The label comes from a fixed smooth
nonlinear score; rows closer than ``MARGIN`` to the decision surface are
resampled, then a ``NOISE`` fraction of labels is flipped. Fully
deterministic for a given seed.

Run as a module to emit the 5000-row demo CSV (data seed 11) plus a
matching run-config JSON (run seed 42, which ``preprocess --seed`` and
``train --seed`` override):

    python -m edgenet.synthetic --out workdir/
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import asdict

import numpy as np

from .config import RunConfig
from .data_pipeline import KIND_LABEL, KIND_NUMERIC, ColumnSpec, FeatureSchema

N_FEATURES = 10
MARGIN = 0.2
NOISE = 0.05


def decision_score(x: np.ndarray) -> np.ndarray:
    """Fixed decision score: dominant linear part plus bilinear and
    quadratic interactions. Zero-mean over the unit cube."""
    return (x[:, 0] + 0.8 * x[:, 1] - x[:, 2] - 0.8 * x[:, 3]
            + 0.9 * x[:, 4] * x[:, 5] - 0.9 * x[:, 6] * x[:, 7]
            + 0.25 * (x[:, 8] ** 2 - x[:, 9] ** 2))


def make_synthetic(n_rows: int = 5000, seed: int = 11) -> tuple[np.ndarray, np.ndarray]:
    """Returns (features (n, 10) in [0,1], labels (n,) of {0,1})."""
    rng = np.random.default_rng(seed)
    xs = []
    kept = 0
    while kept < n_rows:
        batch = rng.random((n_rows, N_FEATURES))
        s = decision_score(batch)
        keep = np.abs(s) >= MARGIN
        xs.append(batch[keep])
        kept += int(keep.sum())
    x = np.concatenate(xs)[:n_rows]
    y = (decision_score(x) > 0.0).astype(np.int64)
    flips = rng.random(n_rows) < NOISE
    y[flips] = 1 - y[flips]
    return x, y


def write_csv(path: str, x: np.ndarray, y: np.ndarray) -> None:
    header = ",".join(f"f{i}" for i in range(x.shape[1])) + ",label"
    lines = [header]
    for row, label in zip(x, y):
        lines.append(",".join(f"{v:.6f}" for v in row) + f",{int(label)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def config_dict(seed: int = 42) -> dict:
    """Run config matching the generated CSV, with all defaults spelled out."""
    schema = FeatureSchema(
        columns=[ColumnSpec(f"f{i}", KIND_NUMERIC) for i in range(N_FEATURES)]
        + [ColumnSpec("label", KIND_LABEL)],
        selected_features=[f"f{i}" for i in range(N_FEATURES)])
    return asdict(RunConfig(seed=seed, schema=schema))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write the 5000-row demo data.csv (data seed "
                                 "11) and its config.json (run seed 42)")
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    x, y = make_synthetic()
    csv_path = os.path.join(args.out, "data.csv")
    cfg_path = os.path.join(args.out, "config.json")
    write_csv(csv_path, x, y)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} ({len(y)} rows, {int(y.sum())} anomalies) and {cfg_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
