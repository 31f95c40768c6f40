"""Prediction head: time-axis reduction, feature-axis reduction, and loss.

The time MLP reduces t -> ceil(t/2) -> ceil(t/4) -> 1 along the window axis
with ReLUs after the first two layers only, and is applied with shared
weights to both the fused features and the raw indicator features;
concatenating the two d-vectors lets the classifier fall back on the primary
modality alone. Its last layer is linear: a ReLU there would be a single
unit fed by nonnegative inputs, dead for every input (and so without
gradient, for both branches at once) whenever its weights start <= 0. The
feature MLP reduces 2d -> d -> ceil(d/2) -> 3 with ReLUs after the first two
layers only, leaving unbounded logits for the softmax cross-entropy.

`HEAD_VERSION` names this function of the head's weights and the model's
parameter layout; checkpoints record it, and a checkpoint of another version
is refused. The shapes alone cannot tell a head whose last time layer had a
ReLU (version 1) from this one. Version 2 stored every attention and graph
attention head as its own parameters; version 3 stores each multi-head
projection as one matrix, the heads side by side.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

log = logging.getLogger(__name__)

HEAD_VERSION = 3


def time_mlp_widths(t: int) -> tuple[int, int, int]:
    widths = (max(1, -(-t // 2)), max(1, -(-t // 4)), 1)
    if t < 4:
        log.warning("window length %d < 4: time-MLP widths clamp to %s", t, widths)
    return widths


def feature_mlp_widths(d: int) -> tuple[int, int, int]:
    return (max(1, d), max(1, -(-d // 2)), 3)


@dataclass
class PredictorParams:
    """Shared time-reduction stack plus the feature-reduction stack."""

    time_layers: list  # [(w: t_in x t_out, b: 1 x t_out), ...] x 3
    feat_layers: list  # [(w, b), ...] x 3

    def all(self):
        return [p for pair in self.time_layers + self.feat_layers for p in pair]


def _reduce_time(x: Tensor, params: PredictorParams) -> Tensor:
    """t x d -> 1 x d through the shared time stack (last layer linear)."""
    h = ad.transpose(x)  # d x t
    for i, (w, b) in enumerate(params.time_layers):
        h = ad.add(ad.matmul(h, w.tensor), b.tensor)
        if i < len(params.time_layers) - 1:
            h = ad.relu(h)
    return ad.transpose(h)  # 1 x d


def aggregate_time(fused: Tensor, indicators: Tensor, params: PredictorParams) -> Tensor:
    """Collapse the window axis of both branches and concatenate to 1 x 2d."""
    if fused.shape != indicators.shape:
        raise ShapeError(f"branch shapes differ: {fused.shape} vs {indicators.shape}")
    expect = params.time_layers[0][0].values.shape[0]
    if fused.rows != expect:
        raise ShapeError(f"window length {fused.rows} != time-MLP input {expect}")
    return ad.concat_cols([_reduce_time(fused, params), _reduce_time(indicators, params)])


def aggregate_features(h: Tensor, params: PredictorParams) -> Tensor:
    """2d feature vector(s) -> 3 raw logits per row."""
    out = h
    for i, (w, b) in enumerate(params.feat_layers):
        out = ad.affine(out, w.tensor, b.tensor)
        if i < len(params.feat_layers) - 1:
            out = ad.relu(out)
    return out


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Batch-mean softmax cross-entropy over class indices in {0, 1, 2}."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape[0] != logits.rows:
        raise ShapeError(f"{labels.shape[0]} labels for {logits.rows} logit rows")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.cols):
        raise ShapeError(f"labels outside [0, {logits.cols})")
    onehot = np.zeros(logits.shape, dtype=logits.values.dtype)
    onehot[np.arange(labels.size), labels] = 1.0
    logp = ad.log_softmax_rows(logits)
    return ad.scale(ad.sum_all(ad.mul(logp, Tensor(onehot))), -1.0 / max(1, labels.size))


def predict_classes(logits: Tensor | np.ndarray) -> np.ndarray:
    vals = logits.values if isinstance(logits, Tensor) else np.asarray(logits)
    return vals.argmax(axis=1)


# ---------------------------------------------------------------------------
# the batched time reduction over row-stacked windows


def block_reduce_time(x_st: Tensor, params: PredictorParams, block: int) -> Tensor:
    """Batched _reduce_time over stacked windows: (B*block) x d -> B x d.

    Each window is transposed into d rows of its `block` time steps, so the
    time layers run as affine maps over all B*d rows at once; the B x 1 x d
    result is transposed back to one row per window.
    """
    h = ad.block_transpose(x_st, block)  # (B*d) x block
    for i, (w, b) in enumerate(params.time_layers):
        h = ad.affine(h, w.tensor, b.tensor)
        if i < len(params.time_layers) - 1:
            h = ad.relu(h)
    return ad.block_transpose(h, x_st.cols)  # (B*d) x 1 -> B x d
