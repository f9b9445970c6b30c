"""Confusion-matrix accumulation and classification metrics.

Per-class precision/recall/F1 use the one-vs-rest reduction of the 4x4
confusion matrix; any 0/0 is defined as 0 (a class that is never predicted
has precision 0, one that never occurs has recall 0, and F1 is 0 whenever
precision + recall is 0). Macro averages are unweighted means over the four
classes; accuracy is the trace over the total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import N_CLASSES
from .errors import ValidationError


class ConfusionMatrix:
    """4x4 counts where ``counts[t][p]`` is true class t predicted as p."""

    def __init__(self, counts=None):
        if counts is None:
            counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (N_CLASSES, N_CLASSES):
            raise ValidationError(
                f"confusion matrix must be {N_CLASSES}x{N_CLASSES}, got {counts.shape}"
            )
        if counts.min() < 0:
            raise ValidationError("confusion counts must be nonnegative")
        self.counts = counts

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_correct(self) -> int:
        return int(np.trace(self.counts))

    def add(self, preds, labels) -> None:
        """Accumulate (prediction, truth) pairs into this matrix."""
        preds = np.asarray(preds, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if preds.shape != labels.shape or preds.ndim != 1:
            raise ValidationError(
                f"predictions and labels must be equal-length vectors, got "
                f"shapes {preds.shape} and {labels.shape}"
            )
        for name, arr in (("prediction", preds), ("label", labels)):
            if arr.size and (arr.min() < 0 or arr.max() >= N_CLASSES):
                raise ValidationError(f"{name} values must lie in [0, {N_CLASSES})")
        np.add.at(self.counts, (labels, preds), 1)


def accumulate_confusion(preds, labels) -> ConfusionMatrix:
    """Build a confusion matrix from parallel prediction/label vectors."""
    cm = ConfusionMatrix()
    cm.add(preds, labels)
    return cm


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class Report:
    """Per-class metrics plus macro averages and overall accuracy."""

    per_class: tuple[ClassMetrics, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float
    total: int


def per_class_metrics(cm: ConfusionMatrix) -> list[ClassMetrics]:
    """One-vs-rest precision/recall/F1 for each of the four classes."""
    out = []
    col_sums = cm.counts.sum(axis=0)
    row_sums = cm.counts.sum(axis=1)
    for c in range(N_CLASSES):
        tp = int(cm.counts[c, c])
        fp = int(col_sums[c]) - tp
        fn = int(row_sums[c]) - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        out.append(
            ClassMetrics(precision=precision, recall=recall, f1=f1, support=int(row_sums[c]))
        )
    return out


def summarize(cm: ConfusionMatrix) -> Report:
    """Full report: per-class metrics, unweighted macro averages, accuracy."""
    total = cm.total
    if total < 1:
        raise ValidationError("cannot summarize an empty confusion matrix")
    per_class = tuple(per_class_metrics(cm))
    return Report(
        per_class=per_class,
        macro_precision=sum(m.precision for m in per_class) / N_CLASSES,
        macro_recall=sum(m.recall for m in per_class) / N_CLASSES,
        macro_f1=sum(m.f1 for m in per_class) / N_CLASSES,
        accuracy=cm.n_correct / total,
        total=total,
    )
