"""Seed sweep: how reliably does training leave the ln 2 plateau?

For each seed s from 1 to 10 this preprocesses the demo CSV with
``synthetic.config_dict(seed=s)`` (so s is both the split seed and the
training seed), trains with that config in a temporary directory, and
prints one row per seed:

- val_acc_pct: accuracy of ``baseline.eidm`` on the validation split at
  threshold 0.5
- val_auc: AUC of ``baseline.eidm`` on the validation split
- plateau_epochs: dense-phase epochs whose training BCE (``err`` in
  ``run.csv``) is above 0.68, i.e. still near ln 2
- epochs: all epochs in ``run.csv``

Run from the repository root (a seed takes about six seconds on
one core):

    python tools/seed_sweep.py

BLAS runs single-threaded, as in the benchmark, so rows are reproducible.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from edgenet import cli, synthetic  # noqa: E402
from edgenet.data_pipeline import load_dataset  # noqa: E402
from edgenet.lstm_net import scores  # noqa: E402
from edgenet.metrics import roc_curve  # noqa: E402
from edgenet.model_store import load_model  # noqa: E402

PLATEAU_ERR = 0.68
HEADER = ("seed", "val_acc_pct", "val_auc", "plateau_epochs", "epochs")


def run_seed(seed: int, work: str) -> tuple:
    csv_path, cfg_path = os.path.join(work, "data.csv"), os.path.join(work, "config.json")
    x, y = synthetic.make_synthetic()
    synthetic.write_csv(csv_path, x, y)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(synthetic.config_dict(seed=seed), fh)
    data, models = os.path.join(work, "data"), os.path.join(work, "models")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["preprocess", "--config", cfg_path, "--csv", csv_path, "--out", data],
                     ["train", "--config", cfg_path, "--data", data, "--out", models]):
            if cli.main(argv) != 0:
                raise SystemExit(f"seed {seed}: {argv[0]} failed")

    val = load_dataset(os.path.join(data, "val.eidd"))
    p = scores(load_model(os.path.join(models, "baseline.eidm")).params, val.features)
    acc = 100.0 * float(np.mean((p >= 0.5).astype(np.int64) == val.labels))
    with open(os.path.join(models, "run.csv"), encoding="utf-8", newline="") as fh:
        records = list(csv.DictReader(fh))
    plateau = sum(r["phase"] == "dense" and float(r["err"]) > PLATEAU_ERR for r in records)
    return seed, f"{acc:.1f}", f"{roc_curve(p, val.labels).auc:.4f}", plateau, len(records)


def main() -> int:
    print(",".join(HEADER))
    for seed in range(1, 11):
        with tempfile.TemporaryDirectory() as work:
            print(",".join(map(str, run_seed(seed, work))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
