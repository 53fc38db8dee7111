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
import os
import sys
from dataclasses import replace

import numpy as np

from . import data_pipeline as dp
from . import model_store as store
from .config import RunConfig, load_config
from .dsd_trainer import to_sequences, train_dsd
from .errors import (ConfigError, EdgenetError, EmptySplit, NonFiniteLoss,
                     SingleClassInput, StoreError)
from .lstm_net import scores as float_scores
from .metrics import METRICS_CSV_HEADER, confusion, metrics_from_confusion, roc_curve
from .quantizer import quantize_model, quantized_scores

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_IO = 3
EXIT_DIVERGED = 4

SPLIT_FILES = {"train": "train.eidd", "val": "val.eidd", "test": "test.eidd"}


def _write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


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

    os.makedirs(out_dir, exist_ok=True)
    counts = {}
    for name, indices in splits.items():
        split = dp.apply_transform(table, cfg.schema, enc, stats, row_indices=indices)
        dp.save_dataset(split, os.path.join(out_dir, SPLIT_FILES[name]))
        counts[name] = len(split)
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
    _write_text(os.path.join(out_dir, "run.csv"), run.csv())

    last = run.records[-1]
    print(f"trained {len(run.records)} epochs; final val_auc={last.val_auc:.6f} "
          f"sparsity={run.final_mask.zero_fraction():.2f} "
          f"mask_violations={run.mask_violations}")
    return EXIT_OK


def cmd_quantize(model_in: str, model_out: str, cfg: RunConfig) -> int:
    loaded = store.load_model(model_in)
    if loaded.kind == "quantized":
        # already 8-bit: pass through unchanged (recalibration would drift)
        store.save_quantized(loaded.qmodel, model_out)
        print(f"{model_in} is already quantized; re-serialized to {model_out}")
        return EXIT_OK
    quant = cfg.quantization
    qm = quantize_model(loaded.params, mask=loaded.mask, fixed_range=quant.fixed_range,
                        q_min=quant.q_min, q_max=quant.q_max)
    store.save_quantized(qm, model_out)
    ratio = os.path.getsize(model_in) / os.path.getsize(model_out)
    print(f"quantized {model_in} -> {model_out} ({ratio:.2f}x smaller)")
    return EXIT_OK


def _model_scores(loaded: store.LoadedModel, features: np.ndarray) -> np.ndarray:
    if loaded.kind == "quantized":
        seq = to_sequences(features, _seq_len_for(loaded.qmodel.layer_sizes[0], features))
        return quantized_scores(loaded.qmodel, seq)
    seq = to_sequences(features, _seq_len_for(loaded.params.input_size, features))
    return float_scores(loaded.params, seq)


def _seq_len_for(input_dim: int, features: np.ndarray) -> int:
    n_feat = features.shape[1]
    if n_feat % input_dim != 0:
        raise ConfigError(f"dataset has {n_feat} features; model expects a "
                          f"multiple of {input_dim}")
    return n_feat // input_dim


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
        _write_text(os.path.join(out_dir, "metrics.csv"), metrics_text)
        if roc_text is not None:
            _write_text(os.path.join(out_dir, "roc.csv"), roc_text)
    return EXIT_OK


def cmd_size_report(baseline: str, others: list[str], evals: dict[str, str],
                    out_file: str | None) -> int:
    accuracies = {}
    for name, csv_path in evals.items():
        accuracies[name] = _accuracy_from_metrics_csv(csv_path)
    report = store.size_report(others, baseline, accuracies=accuracies)
    unmatched = sorted(set(evals) - {row.name for row in report.rows})
    if unmatched:
        raise ConfigError(f"--eval names no model in the report: {', '.join(unmatched)}")
    text = report.csv()
    print(text, end="")
    if out_file:
        _write_text(out_file, text)
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


def cmd_predict(model_path: str, features_arg: str, threshold: float) -> int:
    loaded = store.load_model(model_path)
    try:
        values = np.array([float(v) for v in features_arg.split(",")])
    except ValueError:
        raise ConfigError("--features must be a comma-separated list of numbers") from None
    if not np.all(np.isfinite(values)):
        raise ConfigError("--features must be finite numbers (no nan or inf)")
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
    p.add_argument("--config")

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
    p.add_argument("--features", required=True, help="comma-separated normalized values")
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
        return cmd_quantize(args.model_in, args.model_out, load_config(args.config))
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
