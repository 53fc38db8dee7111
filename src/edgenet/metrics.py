"""Confusion matrix, the five detection metrics, ROC curve and AUC.

Positive class is the anomaly (label 1). A ratio whose denominator is zero
(no negatives, no positive predictions, no positives, or a zero precision
plus detection rate for F1) reads 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, LengthMismatch, NonFiniteScore, SingleClassInput


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    far: float
    precision: float
    detection_rate: float
    f1: float

    def csv_row(self) -> str:
        """Percentages with 4 decimals, in the columns of ``METRICS_CSV_HEADER``."""
        return ",".join(f"{100.0 * getattr(self, f):.4f}" for _, f in _METRICS_COLUMNS)


# (metrics.csv column, MetricReport field), in column order
_METRICS_COLUMNS = (("FAR%", "far"), ("Acc%", "accuracy"), ("Prec%", "precision"),
                    ("DR%", "detection_rate"), ("F1%", "f1"))
METRICS_CSV_HEADER = ",".join(col for col, _ in _METRICS_COLUMNS)


@dataclass(frozen=True)
class RocCurve:
    points: list[tuple[float, float]]  # (fpr, tpr), threshold descending
    auc: float

    def csv(self) -> str:
        lines = ["fpr,tpr"]
        lines += [f"{fpr!r},{tpr!r}" for fpr, tpr in self.points]
        return "\n".join(lines) + "\n"


def confusion(labels, preds) -> ConfusionMatrix:
    """Count TP/TN/FP/FN with anomaly (1) as the positive class."""
    labels = np.asarray(labels)
    preds = np.asarray(preds)
    if labels.shape != preds.shape:
        raise LengthMismatch(f"labels {labels.shape} vs preds {preds.shape}")
    if labels.size == 0:
        raise EmptyInput("need at least one labelled prediction")
    labels = labels.astype(bool)
    preds = preds.astype(bool)
    tp = int(np.sum(labels & preds))
    tn = int(np.sum(~labels & ~preds))
    fp = int(np.sum(~labels & preds))
    fn = int(np.sum(labels & ~preds))
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def metrics_from_confusion(cm: ConfusionMatrix) -> MetricReport:
    if cm.total < 1:
        raise EmptyInput("empty confusion matrix")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    accuracy = (cm.tp + cm.tn) / cm.total
    far = ratio(cm.fp, cm.fp + cm.tn)
    precision = ratio(cm.tp, cm.tp + cm.fp)
    dr = ratio(cm.tp, cm.tp + cm.fn)
    f1 = ratio(2.0 * precision * dr, precision + dr)
    return MetricReport(accuracy=accuracy, far=far, precision=precision,
                        detection_rate=dr, f1=f1)


def roc_curve(scores, labels) -> RocCurve:
    """ROC swept over distinct scores descending; tied scores form one step.

    AUC is the trapezoidal area, which with grouped ties equals the
    pairwise ranking statistic with half credit for tied pairs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise LengthMismatch(f"scores {scores.shape} vs labels {labels.shape}")
    labels = labels.astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInput("ROC needs both classes present")
    if not np.isfinite(scores).all():
        raise NonFiniteScore("ROC needs finite scores")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tps = np.cumsum(labels[order])
    fps = np.arange(1, scores.size + 1) - tps
    # a run of tied scores is one step: read the counts at each run's last index
    ends = np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]), scores.size - 1)
    fprs = np.concatenate(([0.0], fps[ends] / n_neg))
    tprs = np.concatenate(([0.0], tps[ends] / n_pos))
    return RocCurve(points=list(zip(fprs.tolist(), tprs.tolist())),
                    auc=float(np.trapezoid(tprs, fprs)))
