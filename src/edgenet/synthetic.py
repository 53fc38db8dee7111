"""Seeded synthetic binary dataset for desk-scale runs.

Features are uniform in [0, 1]^d. The label comes from a fixed smooth
nonlinear score; rows too close to the decision surface are resampled so a
margin exists, then a fraction of labels is flipped as noise. Fully
deterministic for a given seed.

Run as a module to emit a CSV plus a matching run-config JSON:

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

N_ROWS_DEFAULT = 5000
N_FEATURES = 10
MARGIN_DEFAULT = 0.2
NOISE_DEFAULT = 0.05
SEED_DEFAULT = 11


def decision_score(x: np.ndarray) -> np.ndarray:
    """Fixed decision score: dominant linear part plus bilinear and
    quadratic interactions. Zero-mean over the unit cube."""
    return (x[:, 0] + 0.8 * x[:, 1] - x[:, 2] - 0.8 * x[:, 3]
            + 0.9 * x[:, 4] * x[:, 5] - 0.9 * x[:, 6] * x[:, 7]
            + 0.25 * (x[:, 8] ** 2 - x[:, 9] ** 2))


def make_synthetic(n_rows: int = N_ROWS_DEFAULT, seed: int = SEED_DEFAULT,
                   noise: float = NOISE_DEFAULT,
                   margin: float = MARGIN_DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Returns (features (n, 10) in [0,1], labels (n,) of {0,1})."""
    rng = np.random.default_rng(seed)
    xs = []
    kept = 0
    while kept < n_rows:
        batch = rng.random((n_rows, N_FEATURES))
        s = decision_score(batch)
        keep = np.abs(s) >= margin
        xs.append(batch[keep])
        kept += int(keep.sum())
    x = np.concatenate(xs)[:n_rows]
    y = (decision_score(x) > 0.0).astype(np.int64)
    flips = rng.random(n_rows) < noise
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
    ap = argparse.ArgumentParser(description="generate the synthetic demo dataset")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--rows", type=int, default=N_ROWS_DEFAULT)
    ap.add_argument("--seed", type=int, default=SEED_DEFAULT,
                    help="dataset generation seed")
    ap.add_argument("--run-seed", type=int, default=42,
                    help="seed written into the emitted config (splits/training)")
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    x, y = make_synthetic(n_rows=args.rows, seed=args.seed)
    csv_path = os.path.join(args.out, "data.csv")
    cfg_path = os.path.join(args.out, "config.json")
    write_csv(csv_path, x, y)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config_dict(seed=args.run_seed), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} ({len(y)} rows, {int(y.sum())} anomalies) and {cfg_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
