"""Command-line entry point: preprocess, train, quantize, evaluate,
size-report, predict, dump.

All commands are deterministic given (config, inputs). Exit codes:
0 success, 1 data/config/validation error, 2 usage error (argparse),
3 IO or container-format error, 4 training divergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import data_pipeline as dp
from . import model_store as store
from .config import RunConfig, load_config
from .dsd_trainer import train_dsd
from .errors import (ConfigError, EdgenetError, EmptySplit, NonFiniteLoss,
                     NonFiniteScore, SingleClassInput, StoreError)
from .lstm_net import scores
from .metrics import METRICS_CSV_HEADER, confusion, metrics_from_confusion, roc_curve
from .quantizer import quantize_model

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_IO = 3
EXIT_DIVERGED = 4

SPLIT_FILES = {"train": "train.eidd", "val": "val.eidd", "test": "test.eidd"}


def cmd_preprocess(cfg: RunConfig, csv_in: str, out_dir: str) -> int:
    if cfg.schema is None:
        raise ConfigError("preprocess needs a config with a 'schema' section")
    table = dp.load_csv(csv_in, cfg.schema)
    splits = dict(zip(SPLIT_FILES, dp.split_indices(len(table), cfg.split.ratios, cfg.seed)))
    for name, indices in splits.items():
        if len(indices) == 0:
            raise EmptySplit(f"the {name} split has no rows ({len(table)} rows in all, "
                             f"ratios {list(cfg.split.ratios)})")
    enc = dp.fit_label_encoding(table, cfg.schema, row_indices=splits["train"])
    stats = dp.fit_minmax(table, cfg.schema, enc, row_indices=splits["train"])

    # every split is transformed (an unseen category fails) before the first write
    datasets = {name: dp.apply_transform(table, cfg.schema, enc, stats, row_indices=indices)
                for name, indices in splits.items()}
    os.makedirs(out_dir, exist_ok=True)
    for name, split in datasets.items():
        dp.save_dataset(split, os.path.join(out_dir, SPLIT_FILES[name]))
    counts = {name: len(split) for name, split in datasets.items()}
    dp.save_sidecar(os.path.join(out_dir, "sidecar.json"), cfg.schema, enc, stats,
                    meta={"seed": cfg.seed, "ratios": list(cfg.split.ratios), "rows": counts})
    print(f"preprocessed {len(table)} rows -> " +
          ", ".join(f"{k}={v}" for k, v in counts.items()))
    return EXIT_OK


def cmd_train(cfg: RunConfig, data_dir: str, out_dir: str) -> int:
    train_split = dp.load_dataset(os.path.join(data_dir, SPLIT_FILES["train"]))
    val_split = dp.load_dataset(os.path.join(data_dir, SPLIT_FILES["val"]))
    net, run = train_dsd(cfg, train_split, val_split)

    os.makedirs(out_dir, exist_ok=True)
    store.save_dense(run.dense_params, os.path.join(out_dir, "checkpoint_dense.eidm"))
    store.save_sparse(run.sparse_params, run.final_mask,
                      os.path.join(out_dir, "pruned.eidm"))
    store.save_dense(net, os.path.join(out_dir, "baseline.eidm"))
    dp.write_atomic(os.path.join(out_dir, "run.csv"), run.csv().encode("utf-8"))

    last = run.records[-1]
    print(f"trained {len(run.records)} epochs; final val_auc={last.val_auc:.6f} "
          f"sparsity={run.final_mask.zero_fraction():.2f} "
          f"mask_violations={run.mask_violations}")
    return EXIT_OK


def cmd_quantize(model_in: str, model_out: str) -> int:
    loaded = store.load_model(model_in)
    store.save_quantized(quantize_model(loaded.params, mask=loaded.mask), model_out)
    ratio = os.path.getsize(model_in) / os.path.getsize(model_out)
    print(f"quantized {model_in} -> {model_out} ({ratio:.2f}x smaller)")
    return EXIT_OK


def _model_scores(loaded: store.LoadedModel, features: np.ndarray) -> np.ndarray:
    """Scores for every row; a NaN or infinite score is an error, never a label."""
    p = scores(loaded.params, features)
    bad = np.count_nonzero(~np.isfinite(p))
    if bad:
        raise NonFiniteScore(f"the model scored {bad} of {len(p)} rows as NaN or infinite")
    return p


def cmd_evaluate(model_path: str, data_path: str, threshold: float,
                 out_dir: str | None) -> int:
    loaded = store.load_model(model_path)
    ds = dp.load_dataset(data_path)
    p = _model_scores(loaded, ds.features)
    preds = (p >= threshold).astype(np.int64)
    report = metrics_from_confusion(confusion(ds.labels, preds))
    metrics_text = METRICS_CSV_HEADER + "\n" + report.csv_row() + "\n"
    print(metrics_text, end="")

    roc_text = None
    try:
        roc = roc_curve(p, ds.labels)
        print(f"AUC,{roc.auc:.6f}")
        roc_text = roc.csv()
    except SingleClassInput:
        print("warning: single-class split, ROC/AUC skipped", file=sys.stderr)

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        dp.write_atomic(os.path.join(out_dir, "metrics.csv"), metrics_text.encode("utf-8"))
        roc_path = os.path.join(out_dir, "roc.csv")
        if roc_text is not None:
            dp.write_atomic(roc_path, roc_text.encode("utf-8"))
        elif os.path.exists(roc_path):  # an earlier run's ROC is not this split's
            os.remove(roc_path)
    return EXIT_OK


def cmd_size_report(baseline: str, others: list[str], evals: dict[str, str],
                    out_file: str | None) -> int:
    accuracies = {name: _accuracy_from_metrics_csv(path) for name, path in evals.items()}
    paths = list({os.path.abspath(p): p for p in [baseline] + others}.values())  # one row per file
    for path in paths:
        store.inspect(path)  # StoreError unless a model container
    names = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    shared = sorted({n for n in names if names.count(n) > 1})
    if shared:  # rows and --eval accuracies are keyed by name
        raise ConfigError(f"different model files share the name {', '.join(shared)}")
    unmatched = sorted(set(evals) - set(names))
    if unmatched:
        raise ConfigError(f"--eval names no model in the report: {', '.join(unmatched)}")
    base_size = os.path.getsize(baseline)
    lines = ["name,accuracy,size_bytes,ratio"]
    for name, path in zip(names, paths):
        size = os.path.getsize(path)
        acc = f"{100.0 * accuracies[name]:.4f}" if name in accuracies else ""
        lines.append(f"{name},{acc},{size},{base_size / size:.4f}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if out_file:
        dp.write_atomic(out_file, text.encode("utf-8"))
    return EXIT_OK


def _accuracy_from_metrics_csv(path: str) -> float:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            row = fh.readline().strip().split(",")
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not a metrics CSV (not UTF-8 text)") from None
    try:
        return float(row[header.index("Acc%")]) / 100.0
    except (ValueError, IndexError):
        raise ConfigError(f"{path} is not a metrics CSV (missing Acc% column)") from None


def _parse_features(features_arg: str) -> np.ndarray:
    """The ``--features`` values; each must be a number in [0, 1], the range
    ``preprocess`` scales every feature into."""
    try:
        values = [float(v) for v in features_arg.split(",")]
    except ValueError:
        raise ConfigError("--features must be a comma-separated list of numbers") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError("--features must be finite numbers (no nan or inf)")
    for k, v in enumerate(values):
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"--features value {k + 1} of {len(values)} is {v!r}, "
                              "outside [0, 1]")
    return np.array(values)


def cmd_predict(model_path: str, features_arg: str, threshold: float) -> int:
    values = _parse_features(features_arg)  # before the model file is read
    loaded = store.load_model(model_path)
    p = float(_model_scores(loaded, values[None, :])[0])
    label = int(p >= threshold)
    print(json.dumps({"probability": p, "label": label}))
    return EXIT_OK


def cmd_dump(path: str) -> int:
    records = store.inspect(path)
    print(f"{'name':28} {'dtype':8} {'encoding':14} {'shape':14} {'payload':>9} crc")
    for r in records:
        extra = ""
        if r.dtype == store.DTYPE_I8:
            extra = f"  scale={r.scale!r} zero_point={r.zero_point}"
        print(f"{r.name:28} {store.DTYPE_NAMES[r.dtype]:8} {store.ENCODING_NAMES[r.encoding]:14} "
              f"{str(list(r.shape)):14} {r.payload_len:>9} "
              f"{'ok' if r.crc_ok else 'BAD'}{extra}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    ap = argparse.ArgumentParser(prog="edgenet",
                                 description="train, compress and evaluate the "
                                             "intrusion-detection LSTM")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="CSV -> normalized binary splits")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="run the three-phase training")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="directory from `preprocess`")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("quantize", help="float model -> int8 model")
    p.add_argument("model_in")
    p.add_argument("model_out")

    p = sub.add_parser("evaluate", help="metrics + ROC for a model on a split")
    p.add_argument("model")
    p.add_argument("data", help="an .eidd split file")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", help="directory for metrics.csv / roc.csv")

    p = sub.add_parser("size-report", help="byte sizes and ratios vs a baseline")
    p.add_argument("--baseline", required=True)
    p.add_argument("models", nargs="*")
    p.add_argument("--eval", action="append", default=[],
                   metavar="NAME=METRICS_CSV",
                   help="attach an accuracy from an evaluate run")
    p.add_argument("--out")

    p = sub.add_parser("predict", help="classify one record")
    p.add_argument("model")
    p.add_argument("--features", required=True,
                   help="comma-separated normalized values, each in [0, 1] (else exit 1)")
    p.add_argument("--threshold", type=float, default=0.5)

    p = sub.add_parser("dump", help="print a container's tensor table")
    p.add_argument("file")
    return ap


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in ("preprocess", "train"):
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.command == "preprocess":
            return cmd_preprocess(cfg, args.csv, args.out)
        return cmd_train(cfg, args.data, args.out)
    if args.command == "quantize":
        return cmd_quantize(args.model_in, args.model_out)
    if args.command in ("evaluate", "predict") and not 0.0 <= args.threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {args.threshold}")
    if args.command == "evaluate":
        return cmd_evaluate(args.model, args.data, args.threshold, args.out)
    if args.command == "size-report":
        evals = {}
        for item in args.eval:
            if "=" not in item:
                raise ConfigError(f"--eval expects NAME=CSVPATH, got {item!r}")
            name, path = item.split("=", 1)
            evals[name] = path
        return cmd_size_report(args.baseline, args.models, evals, args.out)
    if args.command == "predict":
        return cmd_predict(args.model, args.features, args.threshold)
    if args.command == "dump":
        return cmd_dump(args.file)
    raise AssertionError(f"unhandled command {args.command}")


def _attach_features(argv: list[str]) -> list[str]:
    """``--features -5,0.5`` joined as ``--features=-5,0.5``. argparse reads a
    separate value that starts with '-' as an unknown option (exit 2); joined,
    it reaches the [0, 1] check like any other list."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--features" and arg[:1] == "-" and arg[:2] != "--":
            out[-1] = f"--features={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_features(sys.argv[1:] if argv is None else argv))
    try:
        return _dispatch(args)
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EdgenetError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
