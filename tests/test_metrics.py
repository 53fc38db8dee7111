import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgenet.errors import EmptyInput, LengthMismatch, NonFiniteScore, SingleClassInput
from edgenet.metrics import (METRICS_CSV_HEADER, ConfusionMatrix, confusion,
                             metrics_from_confusion, roc_curve)

from oracles import brute_metrics, pairwise_auc


class TestConfusion:
    def test_mixed_counts(self):
        cm = confusion([1, 1, 0, 0], [1, 0, 0, 1])
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 1, 1, 1)

    def test_perfect_prediction(self):
        cm = confusion([1, 0, 1], [1, 0, 1])
        assert cm.fp == 0 and cm.fn == 0

    def test_all_false_alarms(self):
        cm = confusion([0, 0, 0], [1, 1, 1])
        assert (cm.fp, cm.tp, cm.tn, cm.fn) == (3, 0, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([1, 0], [1])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            confusion([], [])


class TestMetricFormulas:
    def test_hand_worked_matrix(self):
        rep = metrics_from_confusion(ConfusionMatrix(tp=90, fn=10, fp=20, tn=80))
        assert rep.accuracy == pytest.approx(0.85, abs=1e-12)
        assert rep.precision == pytest.approx(90 / 110, abs=1e-12)
        assert rep.detection_rate == pytest.approx(0.9, abs=1e-12)
        assert rep.far == pytest.approx(0.2, abs=1e-12)
        assert rep.f1 == pytest.approx(2 * (90 / 110) * 0.9 / (90 / 110 + 0.9), abs=1e-12)

    def test_reference_f1_relation(self):
        # 93.6487% precision and 86.2710% detection rate combine to 89.8086% F1
        prec, dr = 0.936487, 0.862710
        f1 = 2 * prec * dr / (prec + dr)
        assert 100.0 * f1 == pytest.approx(89.8086, abs=1e-3)

    def test_perfect_detector(self):
        rep = metrics_from_confusion(ConfusionMatrix(tp=7, tn=0, fp=0, fn=0))
        assert (rep.accuracy, rep.precision, rep.detection_rate, rep.f1) == (1, 1, 1, 1)
        assert rep.far == 0.0

    def test_degenerate_denominators_are_zero_and_flagged(self):
        rep = metrics_from_confusion(ConfusionMatrix(tp=0, tn=5, fp=0, fn=0))
        assert rep.precision == 0.0 and rep.detection_rate == 0.0 and rep.f1 == 0.0

    def test_brute_force_equivalence_10k(self):
        rng = np.random.default_rng(404)
        for _ in range(10_000):
            tp, tn, fp, fn = rng.integers(0, 1000, size=4)
            if tp + tn + fp + fn == 0:
                continue
            rep = metrics_from_confusion(ConfusionMatrix(int(tp), int(tn), int(fp), int(fn)))
            ref = brute_metrics(int(tp), int(tn), int(fp), int(fn))
            for key, val in ref.items():
                assert abs(getattr(rep, key) - val) <= 1e-12

    @given(st.integers(0, 10_000), st.integers(0, 10_000),
           st.integers(0, 10_000), st.integers(0, 10_000))
    def test_f1_between_precision_and_recall(self, tp, tn, fp, fn):
        if tp + tn + fp + fn == 0:
            return
        rep = metrics_from_confusion(ConfusionMatrix(tp, tn, fp, fn))
        lo = min(rep.precision, rep.detection_rate)
        hi = max(rep.precision, rep.detection_rate)
        assert lo - 1e-12 <= rep.f1 <= hi + 1e-12
        # harmonic mean never exceeds the geometric mean
        assert rep.f1 <= np.sqrt(rep.precision * rep.detection_rate) + 1e-12

    @given(st.integers(0, 10_000), st.integers(0, 10_000),
           st.integers(0, 10_000), st.integers(0, 10_000))
    def test_accuracy_plus_misclassification_is_one(self, tp, tn, fp, fn):
        if tp + tn + fp + fn == 0:
            return
        rep = metrics_from_confusion(ConfusionMatrix(tp, tn, fp, fn))
        mis = (fp + fn) / (tp + tn + fp + fn)
        assert rep.accuracy + mis == pytest.approx(1.0, abs=1e-12)

    def test_csv_row_format(self):
        rep = metrics_from_confusion(ConfusionMatrix(tp=90, fn=10, fp=20, tn=80))
        assert METRICS_CSV_HEADER == "FAR%,Acc%,Prec%,DR%,F1%"
        assert rep.csv_row() == "20.0000,85.0000,81.8182,90.0000,85.7143"


class TestRoc:
    def test_perfect_separation(self):
        roc = roc_curve([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
        assert roc.auc == pytest.approx(1.0, abs=1e-12)

    def test_three_of_four_pairs(self):
        roc = roc_curve([0.9, 0.8, 0.6, 0.1], [1, 0, 1, 0])
        assert roc.auc == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, deadline, bad):
        deadline(2)
        with pytest.raises(NonFiniteScore):
            roc_curve([0.2, bad, 0.7], [0, 1, 1])

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(7)
        n = 10_000
        labels = rng.integers(0, 2, size=n)
        scores = rng.random(n)
        assert roc_curve(scores, labels).auc == pytest.approx(0.5, abs=0.02)

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(3)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        if labels.sum() in (0, 50):
            labels[0] = 1 - labels[0]
        roc = roc_curve(scores, labels)
        assert roc.points[0] == (0.0, 0.0)
        assert roc.points[-1] == (1.0, 1.0)
        fprs = [p[0] for p in roc.points]
        tprs = [p[1] for p in roc.points]
        assert all(a <= b for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_auc_equals_pairwise_statistic(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 201))
        # coarse grid forces score ties so the half-credit path is exercised
        scores = rng.integers(0, 10, size=n) / 10.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        auc = roc_curve(scores, labels).auc
        assert abs(auc - pairwise_auc(scores, labels)) <= 1e-9

    def test_single_class_raises(self):
        with pytest.raises(SingleClassInput):
            roc_curve([0.1, 0.9], [1, 1])

    def test_csv_shape(self):
        roc = roc_curve([0.9, 0.1], [1, 0])
        lines = roc.csv().strip().split("\n")
        assert lines[0] == "fpr,tpr"
        assert len(lines) == len(roc.points) + 1
