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
`aggregate_features` over one row per window. The indicator branch reaches
the time MLP as the indicator encoder's factored form, the 4-wide rows
[ind, 1] and the map [W; c]: the first time layer is linear, so it reduces
the 4-wide rows over time before the map widens them to d, and the d-wide
indicator features are never formed.
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
    fused: Tensor, z: Tensor, f: Tensor, params: PredictorParams, ws: int
) -> Tensor:
    """The time stack over both branches of B stacked windows: B x 2d.

    `fused` is (B*ws) x d, window after window; columns [0, d) of the
    result reduce it. The indicator branch is given as r-wide rows `z`,
    (B*ws) x r, and an r x d map `f`, and columns [d, 2d) reduce z f
    without forming it: the first time layer is linear before its ReLU, so
    it computes (W_0^T Z) F + b_0 = W_0^T (Z F) + b_0 on each window's
    ws x r rows Z. One tape node runs the shared time layers on each branch
    in turn, on the B x ws x c view of its rows: each layer is one
    broadcast matmul W^T H over all windows plus the bias as a column, so
    the last layer's B x 1 x d is already the branch's B x d block and
    neither direction copies or transposes a window.

    While the tape records, the node saves each branch's two hidden
    activations, whose signs are the ReLU masks, and the indicator branch's
    W_0^T Z. Backward, `fused` gets its gradient in window rows; `z` is read
    as constant rows and gets none, and the map gets F's gradient
    sum_w (W_0^T Z_w)^T g_w, while W_0 gets sum_w Z_w (g_w F^T)^T from that
    branch. A constant map, such as the zero map that `drop_indicators`
    passes, gets no gradient, and its branch still feeds the time layers'
    bias gradients. The per-window reference, fed the d-wide rows Z F, is
    in `tests/reference.py`.
    """
    rows, d = fused.shape
    if z.rows != rows or f.shape != (z.cols, d):
        raise ShapeError(
            f"time reduction branches differ in shape: {fused.shape}, {z.shape} through {f.shape}"
        )
    if ws < 1 or rows % ws:
        raise ShapeError(f"{rows} rows not divisible into windows of {ws}")
    layers = [(w.tensor, b.tensor) for w, b in params.time_layers]
    if layers[0][0].rows != ws:
        raise ShapeError(f"time stack reads windows of {layers[0][0].rows}, got {ws}")
    n, r = rows // ws, z.cols
    last = len(layers) - 1
    branches = ((fused, None), (z, f))

    keep = ad.grad_enabled()
    blocks, hidden = [], []
    zw = None  # W_0^T Z of the indicator branch, B x t_1 x r
    for x, f_map in branches:
        h = x.values.reshape(n, ws, -1)
        acts = []
        for i, (w, b) in enumerate(layers):
            h = np.matmul(w.values.T, h)
            if f_map is not None and i == 0:
                zw = h if keep else None
                h = (h.reshape(-1, r) @ f_map.values).reshape(n, -1, d)
            h += b.values.T
            if i < last:
                np.maximum(h, 0, out=h)
                acts.append(h)
        blocks.append(h.reshape(n, d))
        hidden.append(acts if keep else None)

    def backward(g):
        for k, (x, f_map) in enumerate(branches):
            acts = hidden[k]
            g_h = g[:, None, k * d : (k + 1) * d]  # B x 1 x d
            for i in range(last, -1, -1):
                w, b = layers[i]
                ad.add_grad(b, g_h.sum(axis=0).sum(axis=1).reshape(1, -1))
                h_in = acts[i - 1] if i else x.values.reshape(n, ws, -1)
                if not i and f_map is not None:  # the gradient of W_0^T Z is g F^T
                    g_2d = g_h.reshape(-1, d)
                    ad.add_grad(f_map, zw.reshape(-1, r).T @ g_2d)
                    g_h = (g_2d @ f_map.values.T).reshape(n, -1, r)
                ad.add_grad(w, np.matmul(h_in, g_h.transpose(0, 2, 1)).sum(axis=0))
                if i:
                    g_h = np.matmul(w.values, g_h)
                    g_h *= h_in > 0
                elif f_map is None and x.requires_grad:
                    ad.add_grad(x, np.matmul(w.values, g_h).reshape(rows, d))

    parents = [fused, f] + [t for pair in layers for t in pair]
    return ad.node(np.concatenate(blocks, axis=1), parents, backward)
