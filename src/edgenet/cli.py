"""Command-line entry point: preprocess, train, quantize, evaluate,
size-report, predict, dump.

All commands are deterministic given (config, inputs). A handler returns nothing;
``main`` maps what it raises to the exit code: 0 success, 1 data, config or
validation error, 2 usage error (argparse), 3 IO or container format, 4 divergence.
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


def _config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _threshold(args: argparse.Namespace) -> float:
    if not 0.0 <= args.threshold <= 1.0:  # exit 1 before any file is read, not argparse's 2
        raise ConfigError(f"threshold must be in [0, 1], got {args.threshold}")
    return args.threshold


def cmd_preprocess(args: argparse.Namespace) -> None:
    cfg = _config(args)
    if cfg.schema is None:
        raise ConfigError("preprocess needs a config with a 'schema' section")
    table = dp.load_csv(args.csv, cfg.schema)
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
    os.makedirs(args.out, exist_ok=True)
    for name, split in datasets.items():
        dp.save_dataset(split, os.path.join(args.out, SPLIT_FILES[name]))
    counts = {name: len(split) for name, split in datasets.items()}
    dp.save_sidecar(os.path.join(args.out, "sidecar.json"), cfg.schema, enc, stats,
                    meta={"seed": cfg.seed, "ratios": list(cfg.split.ratios), "rows": counts})
    print(f"preprocessed {len(table)} rows -> " +
          ", ".join(f"{k}={v}" for k, v in counts.items()))


def cmd_train(args: argparse.Namespace) -> None:
    cfg = _config(args)
    train_split = dp.load_dataset(os.path.join(args.data, SPLIT_FILES["train"]))
    val_split = dp.load_dataset(os.path.join(args.data, SPLIT_FILES["val"]))
    net, run = train_dsd(cfg, train_split, val_split)

    os.makedirs(args.out, exist_ok=True)
    store.save_dense(run.dense_params, os.path.join(args.out, "checkpoint_dense.eidm"))
    store.save_sparse(run.sparse_params, run.final_mask, os.path.join(args.out, "pruned.eidm"))
    store.save_dense(net, os.path.join(args.out, "baseline.eidm"))
    dp.write_atomic(os.path.join(args.out, "run.csv"), run.csv().encode("utf-8"))

    last = run.records[-1]
    print(f"trained {len(run.records)} epochs; final val_auc={last.val_auc:.6f} "
          f"sparsity={run.final_mask.zero_fraction():.2f} "
          f"mask_violations={run.mask_violations}")


def cmd_quantize(args: argparse.Namespace) -> None:
    loaded = store.load_model(args.model_in)
    in_size = os.path.getsize(args.model_in)  # before the output may replace the input
    store.save_quantized(quantize_model(loaded.params, mask=loaded.mask), args.model_out)
    ratio = in_size / os.path.getsize(args.model_out)
    print(f"quantized {args.model_in} -> {args.model_out} ({ratio:.2f}x smaller)")


def _model_scores(loaded: store.LoadedModel, features: np.ndarray) -> np.ndarray:
    """Scores for every row; a NaN or infinite score is an error, never a label."""
    p = scores(loaded.params, features)
    bad = np.count_nonzero(~np.isfinite(p))
    if bad:
        raise NonFiniteScore(f"the model scored {bad} of {len(p)} rows as NaN or infinite")
    return p


def cmd_evaluate(args: argparse.Namespace) -> None:
    threshold = _threshold(args)
    loaded = store.load_model(args.model)
    ds = dp.load_dataset(args.data)
    p = _model_scores(loaded, ds.features)
    preds = (p >= threshold).astype(np.int64)
    report = metrics_from_confusion(confusion(ds.labels, preds))
    metrics_text = METRICS_CSV_HEADER + "\n" + report.csv_row() + "\n"
    print(metrics_text, end="")

    roc = None
    try:
        roc = roc_curve(p, ds.labels)
        print(f"AUC,{roc.auc:.6f}")
    except SingleClassInput:
        print("warning: single-class split, ROC/AUC skipped", file=sys.stderr)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        dp.write_atomic(os.path.join(args.out, "metrics.csv"), metrics_text.encode("utf-8"))
        roc_path = os.path.join(args.out, "roc.csv")
        if roc is not None:
            dp.write_atomic(roc_path, roc.csv().encode("utf-8"))
        elif os.path.exists(roc_path):  # an earlier run's ROC is not this split's
            os.remove(roc_path)


def cmd_size_report(args: argparse.Namespace) -> None:
    bad = [item for item in args.eval if "=" not in item]
    if bad:
        raise ConfigError(f"--eval expects NAME=CSVPATH, got {bad[0]!r}")
    evals = dict(item.split("=", 1) for item in args.eval)
    accuracies = {name: _accuracy_from_metrics_csv(path) for name, path in evals.items()}
    # one row per file
    paths = list({os.path.abspath(p): p for p in [args.baseline, *args.models]}.values())
    for path in paths:
        store.inspect(path)  # StoreError unless a model container
    names = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    shared = sorted({n for n in names if names.count(n) > 1})
    if shared:  # rows and --eval accuracies are keyed by name
        raise ConfigError(f"different model files share the name {', '.join(shared)}")
    unmatched = sorted(set(evals) - set(names))
    if unmatched:
        raise ConfigError(f"--eval names no model in the report: {', '.join(unmatched)}")
    base_size = os.path.getsize(args.baseline)
    lines = ["name,accuracy,size_bytes,ratio"]
    for name, path in zip(names, paths):
        size = os.path.getsize(path)
        acc = f"{100.0 * accuracies[name]:.4f}" if name in accuracies else ""
        lines.append(f"{name},{acc},{size},{base_size / size:.4f}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        dp.write_atomic(args.out, text.encode("utf-8"))


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


def cmd_predict(args: argparse.Namespace) -> None:
    threshold = _threshold(args)
    values = _parse_features(args.features)  # before the model file is read
    loaded = store.load_model(args.model)
    p = float(_model_scores(loaded, values[None, :])[0])
    label = int(p >= threshold)
    print(json.dumps({"probability": p, "label": label}))


def cmd_dump(args: argparse.Namespace) -> None:
    records = store.inspect(args.file)
    print(f"{'name':28} {'dtype':8} {'encoding':14} {'shape':14} {'payload':>9} crc")
    for r in records:
        extra = ""
        if r.dtype == store.DTYPE_I8:
            extra = f"  scale={r.scale!r} zero_point={r.zero_point}"
        print(f"{r.name:28} {store.DTYPE_NAMES[r.dtype]:8} {store.ENCODING_NAMES[r.encoding]:14} "
              f"{str(list(r.shape)):14} {r.payload_len:>9} "
              f"{'ok' if r.crc_ok else 'BAD'}{extra}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    ap = argparse.ArgumentParser(prog="edgenet",
                                 description="train, compress and evaluate the "
                                             "intrusion-detection LSTM")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="CSV -> normalized binary splits")
    p.set_defaults(run=cmd_preprocess)
    p.add_argument("--config", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="run the three-phase training")
    p.set_defaults(run=cmd_train)
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="directory from `preprocess`")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("quantize", help="float model -> int8 model")
    p.set_defaults(run=cmd_quantize)
    p.add_argument("model_in")
    p.add_argument("model_out")

    p = sub.add_parser("evaluate", help="metrics + ROC for a model on a split")
    p.set_defaults(run=cmd_evaluate)
    p.add_argument("model")
    p.add_argument("data", help="an .eidd split file")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", help="directory for metrics.csv / roc.csv")

    p = sub.add_parser("size-report", help="byte sizes and ratios vs a baseline")
    p.set_defaults(run=cmd_size_report)
    p.add_argument("--baseline", required=True)
    p.add_argument("models", nargs="*")
    p.add_argument("--eval", action="append", default=[], metavar="NAME=METRICS_CSV",
                   help="attach an accuracy from an evaluate run")
    p.add_argument("--out")

    p = sub.add_parser("predict", help="classify one record")
    p.set_defaults(run=cmd_predict)
    p.add_argument("model")
    p.add_argument("--features", required=True,
                   help="comma-separated normalized values, each in [0, 1] (else exit 1)")
    p.add_argument("--threshold", type=float, default=0.5)

    p = sub.add_parser("dump", help="print a container's tensor table")
    p.set_defaults(run=cmd_dump)
    p.add_argument("file")
    return ap


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
        args.run(args)
        return EXIT_OK
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
