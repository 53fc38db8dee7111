"""Self-tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest -q bench
"""

import csv
import io
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import unswgen  # noqa: E402


@pytest.mark.parametrize("n, q", [(0, None), (19, None), (20, 50.0), (99, 50.0),
                                  (100, 90.0), (200, 95.0), (986, 95.0),
                                  (1000, 99.0), (2000, 99.5), (10_000, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert stats.tail_percentile(n) == q
    if q is not None:
        assert n - stats._rank(q, n) >= 10


def test_tail_value_is_the_nearest_rank_sample():
    values = list(range(1, 101))  # 1..100
    assert stats.tail(values) == (90.0, 90.0)
    assert stats.tail(values[:19]) == (None, None)
    assert stats.nearest_rank([5.0, 1.0, 3.0], 50.0) == 3.0


def test_pairwise_auc_matches_brute_force_with_ties():
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 6, size=60) / 5.0
    labels = rng.integers(0, 2, size=60)
    pos, neg = scores[labels == 1], scores[labels == 0]
    brute = np.mean([1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg])
    assert stats.pairwise_auc(scores, labels) == pytest.approx(brute, abs=1e-12)


def _span(start, end, parent):
    return ["k", start, end, parent, 0]


def test_self_time_subtracts_the_union_of_children():
    spans = [_span(0.0, 10.0, -1),
             _span(1.0, 3.0, 0), _span(2.0, 5.0, 0),   # overlap: covers 1..5
             _span(2.5, 2.75, 2),                      # grandchild: not the root's
             _span(8.0, 12.0, 0)]                      # clipped to 8..10
    got = tracer.self_times(spans)
    assert got[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(3.0 - 0.25)
    assert got[3] == pytest.approx(0.25)


def test_tracer_patches_every_binding_and_restores_them():
    from edgenet import dsd_trainer, lstm_net, metrics, quantizer
    t = tracer.Tracer()
    assert t.missing == []
    original = lstm_net.forward_batch
    t.install()
    try:
        assert dsd_trainer.forward_batch is quantizer.forward_batch is lstm_net.forward_batch
        assert lstm_net.forward_batch is not original
        net = lstm_net.init_params([3, 4], seed=0)
        qm = quantizer.quantize_model(net)
        p = quantizer.quantized_scores(qm, np.zeros((5, 3)))
        metrics.roc_curve(p, [0, 1, 0, 1, 1]).csv()
    finally:
        t.uninstall()
    assert dsd_trainer.forward_batch is original and quantizer.forward_batch is original
    keys = [sp[0] for sp in t.spans]
    assert keys.count("lstm_net.forward_eval") == 1
    assert keys.count("metrics.roc") == 2  # the curve and its CSV
    assert "quantizer.dequantize" in keys and "lstm_net.rebuild" in keys
    m = t.layer_metrics(n_ops=1)
    assert m["lstm_net.forward_eval_rows"] == 5
    assert m["quantizer.dequantize_calls"] == 1
    assert m["metrics.roc_calls"] == 1


def test_wrapper_cost_is_positive_and_leaves_no_spans():
    t = tracer.Tracer()
    cost = t.wrapper_cost_s(calls=2000, repeats=3)
    assert t.spans == []
    assert 0 < cost[False] < 1e-3 and 0 < cost[True] < 1e-3


def test_generator_is_deterministic_and_unsw_shaped():
    a = unswgen.generate(3000, seed=7)
    assert a == unswgen.generate(3000, seed=7)
    assert a != unswgen.generate(3000, seed=8)
    rows = list(csv.reader(io.StringIO(a)))
    header, body = rows[0], rows[1:]
    assert len(body) == 3000 and len(header) == 43
    spec = unswgen.schema()
    assert len(spec["selected_features"]) == 42
    for name, distinct in (("proto", 130), ("service", 13), ("state", 10)):
        col = [r[header.index(name)] for r in body]
        assert len(set(col)) == distinct
        assert min(col.count(v) for v in set(col)) >= unswgen.MIN_PER_VALUE
    assert {r[-1] for r in body} == {"0", "1"}


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == ["dsd-train", "ingest-score",
                                                      "predict-loop"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = list(tracer.LAYER_METRICS) + [("cli.import_s", "s"), ("tracer.overhead_pct", "%")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
