"""Per-layer timing of edgenet, installed from outside the package.

Each target is a function defined in one edgenet module. Modules that import
it by name hold their own binding (``dsd_trainer.forward_batch``,
``quantizer.forward_batch``, ``cli.quantize_model``), so patching only the
defining module misses their calls. The tracer replaces every binding of the
function object in every loaded edgenet module, plus the class attribute for
methods, and puts the originals back on ``uninstall``.

A span is ``[key, start, end, parent, op]``: the parent is the index of the
enclosing span (-1 at top level) and ``op`` the operation it belongs to.
Spans stay in memory until ``write_jsonl``. A layer's time is the self time
of its spans, i.e. duration minus the part of it covered by child spans, so
no second is counted in two layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    path: str                      # "module:function" or "module:Class.method"
    key: str | Callable            # span key, or f(bound arguments) -> key
    count: Callable | None = None  # f(counters, bound arguments, result)


def _forward_key(call) -> str:
    return "lstm_net.forward_train" if call.get("mode") == "train" else "lstm_net.forward_eval"


def _count_eval_rows(counters, call, result) -> None:
    if call.get("mode") != "train":
        counters["lstm_net.forward_eval_rows"] += len(result[0])


def _count_loaded_cells(counters, call, table) -> None:
    counters["data_pipeline.cells"] += len(table) * len(table.columns)


def _count_fit_cells(counters, call, stats) -> None:
    rows = call.get("row_indices")
    n = len(call["table"]) if rows is None else len(rows)
    counters["data_pipeline.cells"] += n * len(stats.stats)


def _count_split_cells(counters, call, split) -> None:
    counters["data_pipeline.cells"] += split.features.size


def _count_roc(counters, call, roc) -> None:
    counters["metrics.roc_calls"] += 1
    counters["metrics.roc_points"] += len(roc.points)


def _count_read(counters, call, result) -> None:
    counters["model_store.bytes_read"] += os.path.getsize(call["path"])


def _count_written(counters, call, result) -> None:
    counters["model_store.bytes_written"] += os.path.getsize(call["path"])


def _count_nothing(counters, call, result) -> None:
    pass


def _empty(arg=None):
    return arg


TARGETS = (
    Target("edgenet.data_pipeline:load_csv", "data_pipeline.load_csv", _count_loaded_cells),
    Target("edgenet.data_pipeline:fit_label_encoding", "data_pipeline.fit"),
    Target("edgenet.data_pipeline:fit_minmax", "data_pipeline.fit", _count_fit_cells),
    Target("edgenet.data_pipeline:apply_transform", "data_pipeline.transform",
           _count_split_cells),
    Target("edgenet.data_pipeline:save_dataset", "data_pipeline.io"),
    Target("edgenet.data_pipeline:load_dataset", "data_pipeline.io"),
    Target("edgenet.data_pipeline:save_sidecar", "data_pipeline.io"),
    Target("edgenet.lstm_net:forward_batch", _forward_key, _count_eval_rows),
    Target("edgenet.lstm_net:backward", "lstm_net.backward"),
    Target("edgenet.lstm_net:NetworkParams.with_tensors", "lstm_net.rebuild"),
    Target("edgenet.optimizer:sgdm_step", "optimizer.sgdm_step"),
    Target("edgenet.optimizer:l2_term", "optimizer.l2_term"),
    Target("edgenet.pruning:compute_masks", "pruning.compute_masks"),
    Target("edgenet.pruning:apply_masks", "pruning.apply_masks"),
    Target("edgenet.pruning:select_swd_subset", "pruning.swd_select"),
    Target("edgenet.pruning:total_weight_decay", "pruning.swd_select"),
    Target("edgenet.dsd_trainer:train_dsd", "dsd_trainer.train"),
    Target("edgenet.dsd_trainer:_run_phase", lambda call: "dsd_trainer.phase." + call["phase"]),
    Target("edgenet.dsd_trainer:_validate", "dsd_trainer.validate"),
    Target("edgenet.metrics:roc_curve", "metrics.roc", _count_roc),
    Target("edgenet.metrics:RocCurve.csv", "metrics.roc"),
    Target("edgenet.metrics:confusion", "metrics.confusion"),
    Target("edgenet.metrics:metrics_from_confusion", "metrics.confusion"),
    Target("edgenet.metrics:MetricReport.csv_row", "metrics.confusion"),
    Target("edgenet.quantizer:quantize_model", "quantizer.quantize_model"),
    Target("edgenet.quantizer:dequantized_net", "quantizer.dequantize"),
    Target("edgenet.model_store:load_model", "model_store.load", _count_read),
    Target("edgenet.model_store:save_dense", "model_store.save", _count_written),
    Target("edgenet.model_store:save_sparse", "model_store.save", _count_written),
    Target("edgenet.model_store:save_quantized", "model_store.save", _count_written),
    Target("edgenet.cli:main", "cli.main"),
)

PHASES = ("dense", "sparse", "redense")

# (name, unit) of every per-layer metric; BENCHMARK.json lists the same
# names plus the two that run.py measures itself (cli.import_s and
# tracer.overhead_pct).
LAYER_METRICS = (
    ("data_pipeline.load_csv_s", "s"), ("data_pipeline.fit_s", "s"),
    ("data_pipeline.transform_s", "s"), ("data_pipeline.io_s", "s"),
    ("data_pipeline.cells", "count"),
    ("lstm_net.forward_train_s", "s"), ("lstm_net.forward_train_calls", "count"),
    ("lstm_net.backward_s", "s"), ("lstm_net.backward_calls", "count"),
    ("lstm_net.forward_eval_s", "s"), ("lstm_net.forward_eval_rows", "count"),
    ("lstm_net.rebuild_s", "s"),
    ("optimizer.sgdm_step_s", "s"), ("optimizer.l2_term_s", "s"), ("optimizer.calls", "count"),
    ("pruning.compute_masks_s", "s"), ("pruning.apply_masks_s", "s"),
    ("pruning.swd_select_s", "s"), ("pruning.calls", "count"),
    *((f"dsd_trainer.phase_s.{p}", "s") for p in PHASES),
    *((f"dsd_trainer.epochs.{p}", "count") for p in PHASES),
    ("dsd_trainer.self_s", "s"),
    ("metrics.roc_s", "s"), ("metrics.roc_calls", "count"), ("metrics.roc_points", "count"),
    ("metrics.confusion_s", "s"),
    ("quantizer.quantize_model_s", "s"), ("quantizer.dequantize_s", "s"),
    ("quantizer.dequantize_calls", "count"),
    ("model_store.load_s", "s"), ("model_store.load_calls", "count"),
    ("model_store.bytes_read", "bytes"), ("model_store.save_s", "s"),
    ("model_store.bytes_written", "bytes"),
    ("cli.self_s", "s"),
)


def _resolve(path: str):
    """(owner, attribute, function) for "module:name" or "module:Class.name"."""
    module_name, qualname = path.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children = defaultdict(list)
    for sp in spans:
        if sp[3] >= 0:
            children[sp[3]].append((sp[1], sp[2]))
    out = []
    for i, sp in enumerate(spans):
        start, end = sp[1], sp[2]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self):
        importlib.import_module("edgenet.cli")  # loads every module a command uses
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        # Span key -> whether its wrapper binds the call's arguments (the
        # slower wrapper). Keys computed per call come from binding wrappers.
        self._binds: dict[str, bool] = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "edgenet" or name.startswith("edgenet.")]
        for target in TARGETS:
            try:
                owner, attr, fn = _resolve(target.path)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.path)
                continue
            wrapper = self._wrap(fn, target)
            if isinstance(target.key, str):
                self._binds[target.key] = (self._binds.get(target.key, False)
                                           or target.count is not None)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn, wrapper))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, fn, wrapper))

    def _wrap(self, fn, target: Target):
        spans, stack, counters = self.spans, self._stack, self.counters
        key, count = target.key, target.count
        sig = inspect.signature(fn) if callable(key) or count else None
        tracer = self

        def wrapper(*args, **kwargs):
            call = sig.bind(*args, **kwargs).arguments if sig is not None else None
            rec = [key(call) if callable(key) else key, 0.0, 0.0,
                   stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, call, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def wrapper_cost_s(self, calls: int = 10_000, repeats: int = 5) -> dict[bool, float]:
        """Median time one wrapper adds to a call of an empty function, for a
        wrapper without (False) and with (True) argument binding."""
        costs = {}
        for binds in (False, True):
            wrapped = self._wrap(_empty, Target("", "calibration",
                                                _count_nothing if binds else None))
            samples = []
            for _ in range(repeats):
                n_spans = len(self.spans)
                t0 = perf_counter()
                for _ in range(calls):
                    wrapped(0)
                t1 = perf_counter()
                for _ in range(calls):
                    _empty(0)
                samples.append((2 * t1 - t0 - perf_counter()) / calls)
                del self.spans[n_spans:]
            costs[binds] = statistics.median(samples)
        return costs

    def overhead_s(self, n_ops: int) -> float:
        """Time the wrappers add to one traced operation: its spans times the
        measured cost of a wrapped empty call. The count callbacks' own work
        (such as a file size lookup per save) is not included."""
        cost = self.wrapper_cost_s()
        per_kind = Counter(self._binds.get(sp[0], True) for sp in self.spans)
        return sum(n * cost[binds] for binds, n in per_kind.items()) / max(n_ops, 1)

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Every LAYER_METRICS value, per traced operation."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        epochs: Counter = Counter()
        for sp, s in zip(self.spans, self_times(self.spans)):
            key = sp[0]
            self_s[key] += s
            total_s[key] += sp[2] - sp[1]
            calls[key] += 1
            if key == "dsd_trainer.validate" and sp[3] >= 0:
                epochs[self.spans[sp[3]][0].rsplit(".", 1)[-1]] += 1

        def prefixed(table, prefix):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        c = self.counters
        m = {
            "data_pipeline.load_csv_s": self_s["data_pipeline.load_csv"],
            "data_pipeline.fit_s": self_s["data_pipeline.fit"],
            "data_pipeline.transform_s": self_s["data_pipeline.transform"],
            "data_pipeline.io_s": self_s["data_pipeline.io"],
            "data_pipeline.cells": c["data_pipeline.cells"],
            "lstm_net.forward_train_s": self_s["lstm_net.forward_train"],
            "lstm_net.forward_train_calls": calls["lstm_net.forward_train"],
            "lstm_net.backward_s": self_s["lstm_net.backward"],
            "lstm_net.backward_calls": calls["lstm_net.backward"],
            "lstm_net.forward_eval_s": self_s["lstm_net.forward_eval"],
            "lstm_net.forward_eval_rows": c["lstm_net.forward_eval_rows"],
            "lstm_net.rebuild_s": self_s["lstm_net.rebuild"],
            "optimizer.sgdm_step_s": self_s["optimizer.sgdm_step"],
            "optimizer.l2_term_s": self_s["optimizer.l2_term"],
            "optimizer.calls": prefixed(calls, "optimizer."),
            "pruning.compute_masks_s": self_s["pruning.compute_masks"],
            "pruning.apply_masks_s": self_s["pruning.apply_masks"],
            "pruning.swd_select_s": self_s["pruning.swd_select"],
            "pruning.calls": prefixed(calls, "pruning."),
            "dsd_trainer.self_s": prefixed(self_s, "dsd_trainer."),
            "metrics.roc_s": self_s["metrics.roc"],
            "metrics.roc_calls": c["metrics.roc_calls"],
            "metrics.roc_points": c["metrics.roc_points"],
            "metrics.confusion_s": self_s["metrics.confusion"],
            "quantizer.quantize_model_s": self_s["quantizer.quantize_model"],
            "quantizer.dequantize_s": self_s["quantizer.dequantize"],
            "quantizer.dequantize_calls": calls["quantizer.dequantize"],
            "model_store.load_s": self_s["model_store.load"],
            "model_store.load_calls": calls["model_store.load"],
            "model_store.bytes_read": c["model_store.bytes_read"],
            "model_store.save_s": self_s["model_store.save"],
            "model_store.bytes_written": c["model_store.bytes_written"],
            "cli.self_s": self_s["cli.main"],
        }
        for p in PHASES:
            m[f"dsd_trainer.phase_s.{p}"] = total_s[f"dsd_trainer.phase.{p}"]
            m[f"dsd_trainer.epochs.{p}"] = epochs[p]
        per_op = max(n_ops, 1)
        return {name: m[name] / per_op for name, _ in LAYER_METRICS}

    def write_jsonl(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for key, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": key, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")
