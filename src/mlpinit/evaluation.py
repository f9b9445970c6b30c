"""Confusion counts and classification metrics.

A confusion matrix is a plain (4, 4) int64 array of counts where
``counts[t, p]`` is the number of records of true class t predicted as p:
rows are truth, columns are predictions.

Per-class precision/recall/F1 use the one-vs-rest reduction of that matrix;
any 0/0 is defined as 0 (a class that is never predicted has precision 0, one
that never occurs has recall 0, and F1 is 0 whenever precision + recall is
0). Macro averages are unweighted means over the four classes; accuracy is
the trace over the total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import N_CLASSES
from .errors import ValidationError
from .numerics import _check_ints


def accumulate_confusion(preds, labels) -> np.ndarray:
    """The (4, 4) int64 counts of parallel prediction/label vectors.

    Both must be integer vectors of classes in [0, 4); ValidationError names
    any other dtype, bool included, rather than truncating it.
    """
    if np.shape(preds) != np.shape(labels) or np.ndim(preds) != 1:
        raise ValidationError(
            f"predictions and labels must be equal-length vectors, got "
            f"shapes {np.shape(preds)} and {np.shape(labels)}"
        )
    preds = _check_ints("prediction", preds, lo=0, hi=N_CLASSES)
    labels = _check_ints("label", labels, lo=0, hi=N_CLASSES)
    flat = np.bincount(labels * N_CLASSES + preds, minlength=N_CLASSES * N_CLASSES)
    return flat.astype(np.int64, copy=False).reshape(N_CLASSES, N_CLASSES)


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


def summarize(counts) -> Report:
    """Per-class metrics, unweighted macro averages and accuracy of a
    confusion matrix laid out as ``accumulate_confusion`` returns it.

    ValidationError unless ``counts`` is a (4, 4) integer array (bool is not
    one) with no negative count and at least one record.
    """
    if np.shape(counts) != (N_CLASSES, N_CLASSES):
        raise ValidationError(
            f"confusion counts must have shape ({N_CLASSES}, {N_CLASSES}), got {np.shape(counts)}"
        )
    counts = _check_ints("confusion count", counts, lo=0)
    total = int(counts.sum())
    if total < 1:
        raise ValidationError("cannot summarize an empty confusion matrix")
    per_class = []
    for c in range(N_CLASSES):
        tp = int(counts[c, c])
        predicted = int(counts[:, c].sum())
        support = int(counts[c].sum())
        precision = tp / predicted if predicted > 0 else 0.0
        recall = tp / support if support > 0 else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append(ClassMetrics(precision=precision, recall=recall, f1=f1, support=support))
    return Report(
        per_class=tuple(per_class),
        macro_precision=sum(m.precision for m in per_class) / N_CLASSES,
        macro_recall=sum(m.recall for m in per_class) / N_CLASSES,
        macro_f1=sum(m.f1 for m in per_class) / N_CLASSES,
        accuracy=int(np.trace(counts)) / total,
        total=total,
    )
