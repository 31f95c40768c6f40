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
projection as one matrix, the heads side by side. Version-3 checkpoints
written while every variant held all of `full`'s parameters still load for
`eval`, `dump-features` and resume: arrays are read by name, and those of
parameters a variant no longer holds (see `model`) are ignored.

The model runs the time MLP on both branches as one tape node,
`block_reduce_time`, over row-stacked windows, and the feature MLP as
`aggregate_features` over one row per window.
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


def block_reduce_time(
    fused: Tensor, q_i: Tensor, params: PredictorParams, ws: int
) -> Tensor:
    """The time stack over both branches of B stacked windows: B x 2d.

    `fused` and `q_i` are (B*ws) x d, window after window; columns [0, d)
    of the result reduce `fused`, [d, 2d) reduce `q_i`. One tape node runs
    the shared time layers on each branch in turn, on the B x ws x d view
    of its rows: each layer is one broadcast matmul W^T H over all windows
    plus the bias as a column, so the last layer's B x 1 x d is already the
    branch's B x d block and neither direction copies or transposes a
    window.

    While the tape records, the node saves each branch's two hidden
    activations, whose signs are the ReLU masks, and nothing of either
    input: the first layer's weight gradient reads the input tensor, a tape
    parent, and each input gradient is written in window rows. A branch
    that needs no gradient, such as the constant zeros that
    `drop_indicators` passes, gets none. The per-window reference is in
    `tests/reference.py`.
    """
    if fused.shape != q_i.shape:
        raise ShapeError(f"time reduction branches differ in shape: {fused.shape}, {q_i.shape}")
    rows, d = fused.shape
    if ws < 1 or rows % ws:
        raise ShapeError(f"{rows} rows not divisible into windows of {ws}")
    layers = [(w.tensor, b.tensor) for w, b in params.time_layers]
    if layers[0][0].rows != ws:
        raise ShapeError(f"time stack reads windows of {layers[0][0].rows}, got {ws}")
    n = rows // ws
    last = len(layers) - 1

    keep = ad.grad_enabled()
    blocks, hidden = [], []
    for x in (fused, q_i):
        h = x.values.reshape(n, ws, d)
        acts = []
        for i, (w, b) in enumerate(layers):
            h = np.matmul(w.values.T, h)
            h += b.values.T
            if i < last:
                np.maximum(h, 0, out=h)
                acts.append(h)
        blocks.append(h.reshape(n, d))
        hidden.append(acts if keep else None)

    def backward(g):
        for k, x in enumerate((fused, q_i)):
            acts = hidden[k]
            g_h = g[:, None, k * d : (k + 1) * d]  # B x 1 x d
            for i in range(last, -1, -1):
                w, b = layers[i]
                h_in = acts[i - 1] if i else x.values.reshape(n, ws, d)
                ad.add_grad(w, np.matmul(h_in, g_h.transpose(0, 2, 1)).sum(axis=0))
                ad.add_grad(b, g_h.sum(axis=0).sum(axis=1).reshape(1, -1))
                if i:
                    g_h = np.matmul(w.values, g_h)
                    g_h *= h_in > 0
                elif x.requires_grad:
                    ad.add_grad(x, np.matmul(w.values, g_h).reshape(rows, d))

    parents = [fused, q_i] + [t for pair in layers for t in pair]
    return ad.node(np.concatenate(blocks, axis=1), parents, backward)
