"""The three workloads. Each builds its fixtures in ``setup``, runs one
operation per ``op`` call through the ``timed`` callback the runner passes
in, and checks the operation's outputs afterwards, outside the timed call.

Why these three (see README.md):
- dsd-train: nearly all compute; train-mode LSTM, BPTT, optimizer, pruning.
- ingest-score: the wide-CSV preprocessing path, eval-mode LSTM at T>1,
  ROC over thousands of scores, model_store writes and reads.
- predict-loop: the edge deployment path; container parse, dequantize,
  batch-1 forward and CLI overhead on every request.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import stats
import unswgen
from edgenet import cli, lstm_net, model_store, pruning, quantizer, synthetic
from edgenet import data_pipeline as dp

THRESHOLD = 0.5
HIDDEN = (32, 32, 32)
FINAL_SPARSITY = 0.8


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``edgenet.cli.main`` in-process with stdout captured. Looks ``main``
    up on the module at call time, so the tracer's wrapper is used."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, buf.getvalue()


def same_files(ref_dir: str, cur_dir: str) -> list[str]:
    """Names of files under ``ref_dir`` whose bytes differ in ``cur_dir``."""
    differ = []
    for base, _, files in os.walk(ref_dir):
        for name in files:
            ref = os.path.join(base, name)
            cur = os.path.join(cur_dir, os.path.relpath(ref, ref_dir))
            if not os.path.exists(cur) or _read(ref) != _read(cur):
                differ.append(os.path.relpath(ref, ref_dir))
    return sorted(differ)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _prepare(cfg: str, csv: str, out: str) -> None:
    rc, text = run_cli(["preprocess", "--config", cfg, "--csv", csv, "--out", out])
    if rc != 0:
        raise RuntimeError(f"preprocess of the fixture failed with exit code {rc}: {text}")


def _parse_eval(text: str) -> tuple[float, float]:
    """(Acc%, AUC) from the stdout of ``evaluate``."""
    lines = text.splitlines()
    acc = float(lines[1].split(",")[lines[0].split(",").index("Acc%")])
    auc = float(next(l for l in lines if l.startswith("AUC,")).split(",")[1])
    return acc, auc


def _pruned_copy(net: lstm_net.NetworkParams):
    """(net, mask) with every weight tensor magnitude-pruned to the final sparsity."""
    weights = {k: v for k, v in net.tensors().items() if lstm_net.is_weight_name(k)}
    mask = pruning.compute_masks(weights, FINAL_SPARSITY)
    return net.with_tensors(pruning.apply_masks(net.tensors(), mask)), mask


class DsdTrain:
    """One op is the ``train`` command on the preprocessed demo data.

    The dataset and its split are the demo ones (``edgenet.synthetic``
    defaults), on which the acceptance gates are defined; ``--seed`` is the
    training seed (initialisation, shuffling, dropout). On other splits the
    5% label noise alone puts a perfect model under the 0.95 validation
    accuracy gate about half the time.
    """

    loop_share = 1.0

    def setup(self, work: str, seed: int) -> None:
        self.work, self.seed = work, seed
        x, y = synthetic.make_synthetic()
        csv = os.path.join(work, "data.csv")
        synthetic.write_csv(csv, x, y)
        self.cfg = os.path.join(work, "config.json")
        _write_json(self.cfg, synthetic.config_dict())
        self.data = os.path.join(work, "data")
        _prepare(self.cfg, csv, self.data)
        self.val = dp.load_dataset(os.path.join(self.data, "val.eidd"))
        self.n_train = len(dp.load_dataset(os.path.join(self.data, "train.eidd")))

    def op(self, i: int, timed) -> tuple[int, list[str]]:
        out = os.path.join(self.work, "models_ref" if i == 0 else "models")
        rc, text = timed(run_cli, ["train", "--config", self.cfg, "--data", self.data,
                                   "--out", out, "--seed", str(self.seed)])
        if rc != 0:
            return 0, [f"train exited with {rc}"]
        problems = []
        violations = re.search(r"mask_violations=(\d+)", text)
        if violations is None or int(violations.group(1)) != 0:
            problems.append(f"mask violations reported: {text.strip()!r}")
        base = model_store.load_model(os.path.join(out, "baseline.eidm")).params
        p = lstm_net.scores(base, self.val.features)
        acc = float(np.mean((p >= THRESHOLD).astype(np.int64) == self.val.labels))
        if acc < 0.95:
            problems.append(f"validation accuracy {acc:.4f} < 0.95")
        pruned = model_store.load_model(os.path.join(out, "pruned.eidm"))
        for name, m in pruned.mask.masks.items():
            if int(m.sum()) != math.ceil(0.2 * m.size):
                problems.append(f"{name}: {int(m.sum())} survivors of {m.size}")
        if i > 0:
            problems += [f"{f} differs from the first run"
                         for f in same_files(os.path.join(self.work, "models_ref"), out)]
        with open(os.path.join(out, "run.csv"), encoding="utf-8") as fh:
            epochs = sum(1 for _ in fh) - 1
        return self.n_train * epochs, problems

    def finish(self, budget_s: float, op_s: list[float]) -> tuple[dict, int, list[str]]:
        """Quantize the first run's pruned model and score both models on
        the test split."""
        models = os.path.join(self.work, "models_ref")
        deploy = os.path.join(models, "pruned_quantized.eidm")
        test = os.path.join(self.data, "test.eidd")
        rc, _ = run_cli(["quantize", os.path.join(models, "pruned.eidm"), deploy])
        rc_b, base_text = run_cli(["evaluate", os.path.join(models, "baseline.eidm"), test])
        rc_d, deploy_text = run_cli(["evaluate", deploy, test])
        if (rc, rc_b, rc_d) != (0, 0, 0):
            return {}, 1, [f"quantize/evaluate exit codes {(rc, rc_b, rc_d)}"]
        _, test_auc = _parse_eval(base_text)
        deploy_acc, _ = _parse_eval(deploy_text)
        return ({"train_s": (statistics.median(op_s), "s"), "test_auc": (test_auc, ""),
                 "deploy_acc_pct": (deploy_acc, "%"),
                 "deploy_model_bytes": (os.path.getsize(deploy), "bytes")}, 1, [])


class IngestScore:
    """One op: preprocess a UNSW-NB15-shaped CSV, quantize a seeded float
    model and its bitmap-sparse copy, evaluate the float and both int8
    models on the largest (training) split."""

    loop_share = 1.0
    rows = 10_000
    input_width = 7  # 42 features -> 6-step sequences

    def setup(self, work: str, seed: int) -> None:
        self.work = work
        self.csv = os.path.join(work, "flows.csv")
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.write(unswgen.generate(self.rows, seed))
        self.cfg = os.path.join(work, "config.json")
        _write_json(self.cfg, {"seed": seed, "schema": unswgen.schema()})
        net = lstm_net.init_params((self.input_width,) + HIDDEN, seed=seed)
        self.float_model = os.path.join(work, "float.eidm")
        self.sparse_model = os.path.join(work, "sparse.eidm")
        model_store.save_dense(net, self.float_model)
        model_store.save_sparse(*_pruned_copy(net), self.sparse_model)
        self.oracle = None
        self.preprocess_s, self.evaluate_s = [], []

    def _models(self, out: str) -> list[str]:
        return [self.float_model, os.path.join(out, "float_q.eidm"),
                os.path.join(out, "sparse_q.eidm")]

    def _operation(self, out: str) -> tuple[list, float, float]:
        data = os.path.join(out, "data")
        t0 = perf_counter()
        results = [run_cli(["preprocess", "--config", self.cfg, "--csv", self.csv,
                            "--out", data])]
        t1 = perf_counter()
        results.append(run_cli(["quantize", self.float_model, self._models(out)[1]]))
        results.append(run_cli(["quantize", self.sparse_model, self._models(out)[2]]))
        t2 = perf_counter()
        for k, model in enumerate(self._models(out)):
            results.append(run_cli(["evaluate", model, os.path.join(data, "train.eidd"),
                                    "--out", os.path.join(out, f"eval{k}")]))
        return results, t1 - t0, perf_counter() - t2

    def _oracle(self, out: str) -> list[tuple[float, float]]:
        """(Acc%, pairwise AUC) per evaluated model, from the benchmark's own
        scoring of the first op's training split."""
        train = dp.load_dataset(os.path.join(out, "data", "train.eidd"))
        n, f = train.features.shape
        x = train.features.reshape(n, f // self.input_width, self.input_width)
        expected = []
        for path in self._models(out):
            loaded = model_store.load_model(path)
            if loaded.kind == "quantized":
                p = quantizer.quantized_scores(loaded.qmodel, x)
            else:
                p = lstm_net.scores(loaded.params, x)
            acc = 100.0 * float(np.mean((p >= THRESHOLD).astype(np.int64) == train.labels))
            expected.append((acc, stats.pairwise_auc(p, train.labels)))
        self.n_train = n
        return expected

    def op(self, i: int, timed) -> tuple[int, list[str]]:
        out = os.path.join(self.work, "ref" if i == 0 else "cur")
        results, pre_s, eval_s = timed(self._operation, out)
        codes = [rc for rc, _ in results]
        if any(codes):
            return 0, [f"exit codes {codes}"]
        if self.oracle is None:
            self.oracle = self._oracle(out)
        problems = []
        for (_, text), (acc, auc) in zip(results[3:], self.oracle):
            got_acc, got_auc = _parse_eval(text)
            if abs(got_acc - acc) > 1e-4 or abs(got_auc - auc) > 1e-6:
                problems.append(f"evaluate printed Acc%={got_acc} AUC={got_auc}, "
                                f"expected {acc:.4f} and {auc:.6f}")
        if i > 0:
            problems += [f"{f} differs from the first run"
                         for f in same_files(os.path.join(self.work, "ref"), out)]
        self.preprocess_s.append(pre_s)
        self.evaluate_s.append(eval_s)
        return self.rows, problems

    def finish(self, budget_s: float, op_s: list[float]) -> tuple[dict, int, list[str]]:
        scored = len(self._models("")) * self.n_train * len(self.evaluate_s)
        return ({"preprocess_rows_per_s": (self.rows * len(self.preprocess_s)
                                           / sum(self.preprocess_s), "1/s"),
                 "evaluate_rows_per_s": (scored / sum(self.evaluate_s), "1/s")}, 0, [])


def child_env(src_dir: str) -> dict:
    """Environment for a fresh interpreter that imports edgenet from ``src_dir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class PredictLoop:
    """One op is ``predict`` on the pruned int8 model for one test row, run
    in-process; rows cycle through the test split. After the warm loop, a
    series of cold ``python -m edgenet.cli predict`` launches, one at a time,
    with the same interpreter and source tree."""

    loop_share = 0.8

    def __init__(self, src_dir: str):
        self.src_dir = src_dir

    def setup(self, work: str, seed: int) -> None:
        x, y = synthetic.make_synthetic(seed=seed)
        csv = os.path.join(work, "data.csv")
        synthetic.write_csv(csv, x, y)
        cfg = os.path.join(work, "config.json")
        _write_json(cfg, synthetic.config_dict(seed=seed))
        data = os.path.join(work, "data")
        _prepare(cfg, csv, data)
        net = lstm_net.init_params((synthetic.N_FEATURES,) + HIDDEN, seed=seed)
        pruned = os.path.join(work, "pruned.eidm")
        model_store.save_sparse(*_pruned_copy(net), pruned)
        self.model = os.path.join(work, "pruned_quantized.eidm")
        rc, text = run_cli(["quantize", pruned, self.model])
        if rc != 0:
            raise RuntimeError(f"quantize of the fixture failed with exit code {rc}: {text}")
        test = dp.load_dataset(os.path.join(data, "test.eidd"))
        self.rows = [",".join(repr(float(v)) for v in row) for row in test.features]
        qm = model_store.load_model(self.model).qmodel
        self.expected = quantizer.quantized_scores(qm, test.features)

    def _check(self, text: str, row: int) -> list[str]:
        lines = text.splitlines()
        if len(lines) != 1:
            return [f"predict printed {len(lines)} lines"]
        try:
            doc = json.loads(lines[0])
            p, label = float(doc["probability"]), doc["label"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"predict output {lines[0]!r} is not the expected JSON: {exc}"]
        if not math.isfinite(p) or abs(p - float(self.expected[row])) > 1e-9:
            return [f"row {row}: probability {p!r}, batch score {self.expected[row]!r}"]
        if label != int(p >= THRESHOLD):
            return [f"row {row}: label {label!r} disagrees with probability {p!r}"]
        return []

    def op(self, i: int, timed) -> tuple[int, list[str]]:
        row = i % len(self.rows)
        rc, text = timed(run_cli, ["predict", self.model, "--features", self.rows[row]])
        if rc != 0:
            return 0, [f"predict exited with {rc}"]
        return 1, self._check(text, row)

    def finish(self, budget_s: float, op_s: list[float]) -> tuple[dict, int, list[str]]:
        env = child_env(self.src_dir)
        problems = []
        cold_s = []
        deadline = perf_counter() + budget_s
        i = 0
        while i < 5 or perf_counter() < deadline:
            row = i % len(self.rows)
            argv = [sys.executable, "-m", "edgenet.cli", "predict", self.model,
                    "--features", self.rows[row]]
            t0 = perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            cold_s.append(perf_counter() - t0)
            if proc.returncode != 0:
                problems.append(f"cold predict exited with {proc.returncode}: {proc.stderr}")
            else:
                problems += self._check(proc.stdout, row)
            i += 1
        metrics = {"predict_p50_ms": (1e3 * statistics.median(op_s), "ms"),
                   "predict_cold_p50_ms": (1e3 * statistics.median(cold_s), "ms")}
        for name, samples in (("predict_tail_ms", op_s), ("predict_cold_tail_ms", cold_s)):
            q, value = stats.tail(samples)
            if q is not None:
                metrics[name] = (1e3 * value, f"ms p{q:g} of {len(samples)}")
        return metrics, i, problems
