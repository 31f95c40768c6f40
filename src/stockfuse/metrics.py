"""Classification metrics and the 1-D PCA projection.

MCC uses the multiclass R_K correlation over the confusion matrix. All
products and sums are taken in exact integer arithmetic before the final
square root, so on any 2-class matrix the value is bit-identical to the
classic tp/tn/fp/fn formula (the two expressions differ only by a factor of
2 in numerator and denominator).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import DataError, ShapeError

log = logging.getLogger(__name__)


def confusion_matrix(y_true, y_pred, n_classes: int = 3) -> np.ndarray:
    """Counts with rows = true class, cols = predicted class."""
    y_true = np.asarray(y_true, dtype=np.int64).reshape(-1)
    y_pred = np.asarray(y_pred, dtype=np.int64).reshape(-1)
    if y_true.shape != y_pred.shape:
        raise ShapeError(f"{y_true.shape[0]} labels vs {y_pred.shape[0]} predictions")
    if y_true.size and not (
        0 <= y_true.min() and y_true.max() < n_classes and 0 <= y_pred.min() and y_pred.max() < n_classes
    ):
        raise DataError(f"class indices outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def accuracy(cm: np.ndarray) -> float:
    cm = np.asarray(cm)
    total = int(cm.sum())
    if total == 0:
        raise DataError("accuracy undefined on an empty confusion matrix")
    return float(np.trace(cm)) / total


def mcc(cm: np.ndarray) -> float:
    """Multiclass Matthews correlation; 0 by convention when degenerate."""
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ShapeError(f"confusion matrix must be square, got {cm.shape}")
    total = int(cm.sum())
    if total == 0:
        raise DataError("MCC undefined on an empty confusion matrix")
    correct = int(np.trace(cm))
    true_counts = [int(x) for x in cm.sum(axis=1)]
    pred_counts = [int(x) for x in cm.sum(axis=0)]
    num = correct * total - sum(p * t for p, t in zip(pred_counts, true_counts))
    den_pred = total * total - sum(p * p for p in pred_counts)
    den_true = total * total - sum(t * t for t in true_counts)
    den = den_pred * den_true
    if den == 0:
        return 0.0
    return num / math.sqrt(den)


def chance_band(labels, sigmas: float = 3.0) -> float:
    """Accuracy level indistinguishable from guessing the majority class."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DataError("chance band needs at least one label")
    counts = np.bincount(labels, minlength=3)
    p = counts.max() / labels.size
    return float(p + sigmas * np.sqrt(p * (1.0 - p) / labels.size))


# ---------------------------------------------------------------------------
# 1-D PCA


def pca_project_1d(features: np.ndarray):
    """Project t x d features onto the top principal axis.

    Rows are mean-centered over time; the loading is the covariance's top
    eigenvector (`np.linalg.eigh`), with its sign fixed so the
    largest-magnitude coordinate is positive. Returns (series, loading).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ShapeError(f"PCA input must be t x d with t >= 2, got {x.shape}")
    t, d = x.shape
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (t - 1)
    if not np.any(cov):
        log.warning("PCA on zero-covariance features: returning zero series")
        return np.zeros(t), np.zeros(d)
    v = np.linalg.eigh(cov)[1][:, -1]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return centered @ v, v


def zscore(series: np.ndarray) -> np.ndarray:
    series = np.asarray(series, dtype=np.float64)
    std = series.std()
    if std == 0.0:
        return np.zeros_like(series)
    return (series - series.mean()) / std


def smoothness(series: np.ndarray) -> float:
    """Mean squared first difference of the z-scored series."""
    z = zscore(series)
    if z.size < 2:
        return 0.0
    return float(np.mean(np.diff(z) ** 2))
