"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale pipeline
(criteria 4-8) runs once in a module fixture; criterion 8 repeats it and
compares bytes. Criterion 9 is optional and needs UNSW_NB15_CSV set.
"""

import json
import os
import time

import numpy as np
import pytest

from edgenet.cli import main
from edgenet.data_pipeline import load_dataset
from edgenet.dsd_trainer import train_dsd
from edgenet.lstm_net import backward, forward_batch, init_params, scores
from edgenet.metrics import ConfusionMatrix, metrics_from_confusion, roc_curve
from edgenet.model_store import DTYPE_I8, inspect, load_model
from edgenet.quantizer import (calibrate, dequantize, make_quant_params,
                               quantize, quantized_scores)
from edgenet.synthetic import config_dict, make_synthetic, write_csv

from oracles import (brute_metrics, finite_difference_gradients,
                     gradient_agreement, pairwise_auc)

SEED = 42


def run_pipeline(base_dir: str) -> dict:
    """synthetic csv -> preprocess -> train -> quantize -> evaluate, via the CLI."""
    os.makedirs(base_dir, exist_ok=True)
    csv = os.path.join(base_dir, "data.csv")
    cfg_path = os.path.join(base_dir, "config.json")
    x, y = make_synthetic()
    write_csv(csv, x, y)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config_dict(seed=SEED), fh, indent=2, sort_keys=True)

    data = os.path.join(base_dir, "data")
    models = os.path.join(base_dir, "models")
    assert main(["preprocess", "--config", cfg_path, "--csv", csv, "--out", data]) == 0
    t0 = time.time()
    assert main(["train", "--config", cfg_path, "--data", data, "--out", models]) == 0
    train_seconds = time.time() - t0

    paths = {
        "baseline": os.path.join(models, "baseline.eidm"),
        "pruned": os.path.join(models, "pruned.eidm"),
        "quantized": os.path.join(models, "quantized.eidm"),
        "pruned_quantized": os.path.join(models, "pruned_quantized.eidm"),
    }
    assert main(["quantize", paths["baseline"], paths["quantized"]]) == 0
    assert main(["quantize", paths["pruned"], paths["pruned_quantized"]]) == 0

    evals = {}
    for name, mpath in paths.items():
        out_dir = os.path.join(base_dir, f"eval_{name}")
        assert main(["evaluate", mpath, os.path.join(data, "test.eidd"),
                     "--out", out_dir]) == 0
        evals[name] = os.path.join(out_dir, "metrics.csv")

    return {"dir": base_dir, "config": cfg_path, "csv": csv, "data": data,
            "models": models, "paths": paths, "evals": evals,
            "run_csv": os.path.join(models, "run.csv"),
            "train_seconds": train_seconds}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    ctx = run_pipeline(str(tmp_path_factory.mktemp("accept")))
    # a direct training run (same seed/config) exposes the TrainRun internals
    train = load_dataset(os.path.join(ctx["data"], "train.eidd"))
    val = load_dataset(os.path.join(ctx["data"], "val.eidd"))
    from edgenet.config import load_config
    cfg = load_config(ctx["config"])
    net, run = train_dsd(cfg, train, val)
    ctx["direct_net"] = net
    ctx["direct_run"] = run
    return ctx


def test_c1_gradient_correctness():
    t0 = time.time()
    worst_rel = 0.0
    worst_abs = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        net = init_params((3, 4, 4), seed=seed, dropout_rate=0.0)
        x = rng.random((1, 2, 3))
        y = rng.integers(0, 2, size=1).astype(np.float64)
        _, cache = forward_batch(net, x, mode="train",
                                 rng=np.random.default_rng(seed))
        analytic = backward(net, cache, y).tensors()
        numeric = finite_difference_gradients(net, x, y, seed, eps=1e-5)
        worst, ok, max_abs = gradient_agreement(analytic, numeric, rel_tol=1e-4)
        assert ok, f"seed {seed}: worst relative error {worst:.3e}"
        worst_rel = max(worst_rel, worst)
        worst_abs = max(worst_abs, max_abs)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE C1 PASS: 100 seeds, worst rel err {worst_rel:.2e} "
          f"(max abs dev {worst_abs:.1e}), {elapsed:.1f}s")


def test_c2_metrics_formula_fidelity():
    prec, dr = 0.936487, 0.862710
    f1_pct = 100.0 * 2 * prec * dr / (prec + dr)
    assert abs(f1_pct - 89.8086) <= 1e-3

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 500, size=4))
        if tp + tn + fp + fn == 0:
            continue
        rep = metrics_from_confusion(ConfusionMatrix(tp, tn, fp, fn))
        ref = brute_metrics(tp, tn, fp, fn)
        for key, val in ref.items():
            worst = max(worst, abs(getattr(rep, key) - val))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE C2 PASS: F1 relation {f1_pct:.4f} vs 89.8086; "
          f"oracle max dev {worst:.1e}")


def test_c3_auc_oracle_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        if rng.random() < 0.5:
            scores_ = rng.integers(0, 12, size=n) / 12.0  # heavy ties
        else:
            scores_ = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        auc = roc_curve(scores_, labels).auc
        worst = max(worst, abs(auc - pairwise_auc(scores_, labels)))
    assert worst <= 1e-9
    print(f"\nACCEPTANCE C3 PASS: 1000 score sets, max |trapezoid - pairwise| "
          f"= {worst:.2e}")


def test_c4_end_to_end_training(pipeline):
    assert pipeline["train_seconds"] < 600.0

    baseline = load_model(pipeline["paths"]["baseline"]).params
    val = load_dataset(os.path.join(pipeline["data"], "val.eidd"))
    p = scores(baseline, val.features)
    acc = float(np.mean((p >= 0.5).astype(np.int64) == val.labels))
    assert acc >= 0.95, f"validation accuracy {acc:.4f} < 0.95"

    # sparse phase ends with exactly 20% survivors per prunable tensor
    pruned = load_model(pipeline["paths"]["pruned"])
    net_sparse, mask = pruned.params, pruned.mask
    assert pruned.kind == "float" and mask is not None
    for name, m in mask.masks.items():
        n = m.size
        expect = int(np.ceil(0.2 * n))
        assert int(m.sum()) == expect, f"{name}: {int(m.sum())} != {expect}"
        assert np.all(net_sparse.tensors()[name][~m.astype(bool)] == 0.0)

    # every masked weight stayed bitwise zero after every sparse-phase step
    run = pipeline["direct_run"]
    assert run.mask_violations == 0

    # the direct run and the CLI run are the same training trajectory
    direct32 = {k: v.astype(np.float32)
                for k, v in pipeline["direct_net"].tensors().items()}
    for name, arr in baseline.tensors().items():
        np.testing.assert_array_equal(arr.astype(np.float32), direct32[name])

    print(f"\nACCEPTANCE C4 PASS: val acc {acc:.4f} >= 0.95, survivors exact, "
          f"0 mask violations, train {pipeline['train_seconds']:.0f}s")


def test_c5_quantization_round_trip(pipeline):
    rng = np.random.default_rng(5)
    for _ in range(20):
        tensor = rng.normal(scale=rng.uniform(0.01, 3.0), size=500)
        f_min, f_max = calibrate(tensor)
        qp = make_quant_params(f_min, f_max)
        grid = np.linspace(f_min, f_max, 10_000)
        back = dequantize(quantize(grid, qp))
        assert np.max(np.abs(back - grid)) <= qp.scale + 1e-12
        q = quantize(grid, qp).values.astype(int)
        assert np.all(np.diff(q) >= 0)  # monotone on the sorted grid
        assert dequantize(quantize(np.array([0.0]), qp))[0] == 0.0

    dense_payloads = {r.name: r.payload_len
                      for r in inspect(pipeline["paths"]["baseline"])}
    quant_records = inspect(pipeline["paths"]["quantized"])
    n_weights = 0
    for rec in quant_records:
        if rec.dtype == DTYPE_I8:
            assert rec.payload_len * 4 == dense_payloads[rec.name]
            n_weights += 1
    assert n_weights > 0
    print(f"\nACCEPTANCE C5 PASS: round-trip <= S on 20 grids, monotone, exact "
          f"zero, int8 payload = 1/4 float32 on {n_weights} tensors")


def test_c6_size_ratio_reproduction(pipeline):
    sizes = {name: os.path.getsize(path) for name, path in pipeline["paths"].items()}
    ratios = {name: sizes["baseline"] / size for name, size in sizes.items()}
    assert ratios["quantized"] >= 3.2
    assert ratios["pruned"] >= 2.5
    assert ratios["pruned_quantized"] >= 5.0
    assert ratios["pruned_quantized"] == max(ratios.values())
    assert sizes["pruned_quantized"] < sizes["quantized"] < sizes["baseline"]
    print("\nACCEPTANCE C6 PASS: ratios "
          + ", ".join(f"{k}={ratios[k]:.2f}x" for k in
                      ("quantized", "pruned", "pruned_quantized")))


def test_c7_accuracy_preservation(pipeline):
    test = load_dataset(os.path.join(pipeline["data"], "test.eidd"))

    def acc_of(path: str) -> tuple[float, np.ndarray]:
        loaded = load_model(path)
        if loaded.kind == "quantized":
            p = quantized_scores(loaded.qmodel, test.features[:, None, :])
        else:
            p = scores(loaded.params, test.features)
        preds = (p >= 0.5).astype(np.int64)
        return float(np.mean(preds == test.labels)), preds

    acc_float, pred_float = acc_of(pipeline["paths"]["baseline"])
    acc_quant, pred_quant = acc_of(pipeline["paths"]["quantized"])
    acc_pq, _ = acc_of(pipeline["paths"]["pruned_quantized"])

    gap_q = abs(acc_quant - acc_float)
    gap_pq = abs(acc_pq - acc_float)
    agreement = float(np.mean(pred_float == pred_quant))
    assert gap_q <= 0.010, f"quantized gap {100 * gap_q:.3f}pp > 1pp"
    assert gap_pq <= 0.015, f"pruned+quantized gap {100 * gap_pq:.3f}pp > 1.5pp"
    assert agreement >= 0.99
    print(f"\nACCEPTANCE C7 PASS: float {100 * acc_float:.2f}%, quantized gap "
          f"{100 * gap_q:.3f}pp, pruned+quantized gap {100 * gap_pq:.3f}pp, "
          f"agreement {100 * agreement:.1f}%")


def test_c8_determinism(pipeline, tmp_path_factory):
    repeat = run_pipeline(str(tmp_path_factory.mktemp("accept_repeat")))

    compared = []
    for name in ("train.eidd", "val.eidd", "test.eidd", "sidecar.json"):
        a = open(os.path.join(pipeline["data"], name), "rb").read()
        b = open(os.path.join(repeat["data"], name), "rb").read()
        assert a == b, f"{name} differs between runs"
        compared.append(name)
    for key in pipeline["paths"]:
        a = open(pipeline["paths"][key], "rb").read()
        b = open(repeat["paths"][key], "rb").read()
        assert a == b, f"{key} model differs between runs"
        compared.append(key + ".eidm")
    a = open(pipeline["run_csv"], "rb").read()
    b = open(repeat["run_csv"], "rb").read()
    assert a == b, "run.csv differs between runs"
    compared.append("run.csv")
    for key in pipeline["evals"]:
        a = open(pipeline["evals"][key], "rb").read()
        b = open(repeat["evals"][key], "rb").read()
        assert a == b, f"metrics for {key} differ between runs"
        compared.append(f"metrics[{key}]")
    print(f"\nACCEPTANCE C8 PASS: {len(compared)} artifacts byte-identical "
          f"across repeated runs")


@pytest.mark.skipif("UNSW_NB15_CSV" not in os.environ,
                    reason="optional: set UNSW_NB15_CSV to a local dataset CSV")
def test_c9_optional_unsw_nb15(tmp_path):
    """Non-gating: trains on a 10% stratified subsample and logs the metrics."""
    import csv as csv_mod

    src = os.environ["UNSW_NB15_CSV"]
    with open(src, newline="", encoding="utf-8") as fh:
        reader = csv_mod.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert "label" in header, "expected a 'label' column"
    drop = {"id", "attack_cat"}
    candidates = [c for c in header if c not in drop and c != "label"]

    idx = {c: header.index(c) for c in header}
    numeric = set()
    for col in candidates:
        try:
            for row in rows[:200]:
                float(row[idx[col]])
            numeric.add(col)
        except ValueError:
            pass

    labels = np.array([int(float(r[idx["label"]])) for r in rows])
    rng = np.random.default_rng(SEED)
    keep = []
    for cls in (0, 1):
        cls_rows = np.flatnonzero(labels == cls)
        take = max(1, int(0.1 * cls_rows.size))
        keep.extend(rng.choice(cls_rows, size=take, replace=False))
    keep = sorted(keep)

    sub_csv = str(tmp_path / "unsw_sub.csv")
    with open(sub_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(header)
        writer.writerows(rows[i] for i in keep)

    schema = {"columns": [{"name": c, "kind": "numeric" if c in numeric
                           else "categorical"} for c in candidates]
              + [{"name": "label", "kind": "label"}],
              "selected_features": candidates}
    doc = config_dict(seed=SEED)
    doc["schema"] = schema
    cfg = str(tmp_path / "unsw_cfg.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

    data = str(tmp_path / "data")
    models = str(tmp_path / "models")
    assert main(["preprocess", "--config", cfg, "--csv", sub_csv, "--out", data]) == 0
    assert main(["train", "--config", cfg, "--data", data, "--out", models]) == 0

    test = load_dataset(os.path.join(data, "test.eidd"))
    net = load_model(os.path.join(models, "baseline.eidm")).params
    p = scores(net, test.features)
    preds = (p >= 0.5).astype(np.int64)
    acc = float(np.mean(preds == test.labels))
    fp = int(np.sum((preds == 1) & (test.labels == 0)))
    tn = int(np.sum((preds == 0) & (test.labels == 0)))
    far = fp / (fp + tn) if fp + tn else 0.0
    print(f"\nACCEPTANCE C9 (non-gating): test accuracy {100 * acc:.2f}% "
          f"(target >= 97), FAR {100 * far:.2f}% (target <= 1); "
          f"full-scale reference values: 99.05% / 0.30%")
