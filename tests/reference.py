"""The per-window reference path: the model's forward for one window, composed
from generic tape ops, the oracle that pins the batched block ops.

`forward_sample` encodes one window's t rows, runs GAT over all n stocks at
each of its dates (masked dense n x n scores), fuses the modalities stage by
stage and reduces the time axis one window at a time, so it shares no code
with `block_cross_attention`, `block_gat_encode` or `block_reduce_time`. The
tape ops only this path needs are defined here on `ad.node`/`ad.add_grad`;
`tests/test_autodiff.py` checks their gradients with the package's ops.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import numpy as np

from stockfuse import autodiff as ad
from stockfuse.autodiff import Parameter, Tensor
from stockfuse.encoders import LEAKY_SLOPE, NEG_MASK, encode_documents, encode_indicators
from stockfuse.predictor import aggregate_features


def params_of(obj) -> list[Parameter]:
    """Every Parameter in a params dataclass (nested ones and lists included), in field order."""
    if isinstance(obj, Parameter):
        return [obj]
    if is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in fields(obj)]
    if not isinstance(obj, (list, tuple)):
        return []
    return [p for item in obj for p in params_of(item)]


# ---------------------------------------------------------------------------
# tape ops


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    def backward(g):
        a._ensure_grad()
        a.grad[:, lo:hi] += g

    return ad.node(a.values[:, lo:hi].copy(), (a,), backward)


def leaky_relu(a: Tensor, slope: float = LEAKY_SLOPE) -> Tensor:
    factor = np.where(a.values > 0, 1.0, slope).astype(a.values.dtype)
    return ad.node(a.values * factor, (a,), lambda g: ad.add_grad(a, g * factor))


def elu(a: Tensor) -> Tensor:
    neg = np.expm1(np.minimum(a.values, 0.0))
    slope = np.where(a.values > 0, 1.0, neg + 1.0)
    out = np.where(a.values > 0, a.values, neg)
    return ad.node(out, (a,), lambda g: ad.add_grad(a, g * slope))


def softmax_rows(a: Tensor) -> Tensor:
    ex = np.exp(a.values - a.values.max(axis=1, keepdims=True))
    out = ex / ex.sum(axis=1, keepdims=True)

    def backward(g):
        ad.add_grad(a, out * (g - (g * out).sum(axis=1, keepdims=True)))

    return ad.node(out, (a,), backward)


# ---------------------------------------------------------------------------
# one window


def cross_attention(query: Tensor, kv: Tensor, attn) -> Tensor:
    """Shared-softmax multi-head cross-attention, t x d'."""
    q = ad.matmul(query, attn.wq.tensor)
    k = ad.matmul(kv, attn.wk.tensor)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), attn.score_scale)
    return ad.matmul(softmax_rows(scores), ad.matmul(kv, attn.wv.tensor))


def fuse_stage(query, kv, guide, stage, variant="full", n_layers=1):
    """(unstable, stable, gate) of a gated cross-attention stage, stacked n_layers deep."""
    for _ in range(max(1, n_layers)):
        if variant == "glu_fusion":
            unstable = ad.matmul(kv, stage.glu.tensor)
        else:
            unstable = cross_attention(query, kv, stage.attn)
        h_a = ad.add(ad.matmul(unstable, stage.gate.w_a.tensor), stage.gate.b_a.tensor)
        if variant == "ca_fusion":  # the gate is forced to 1
            stable, gate = h_a, Tensor(np.ones_like(h_a.values))
        else:
            pre = ad.add(ad.matmul(guide, stage.gate.w_b.tensor), stage.gate.b_b.tensor)
            gate = ad.sigmoid(pre)
            stable = ad.mul(h_a, gate)
        query = guide = stable
    return unstable, stable, gate


def fuse_trimodal(v_i, v_d, v_g, stage1, stage2, variant="full", n_layers=1):
    """The variant wiring: (fused t x d, {"stage1"/"stage2": (unstable, stable, gate)}).

    A stage whose key/value modality the variant drops is skipped, and that
    modality is not read (pass None).
    """
    fused, stages = v_i, {}
    if variant != "drop_docs":
        query = v_d if variant == "drop_indicators" else v_i
        stages["stage1"] = fuse_stage(query, v_d, query, stage1, variant, n_layers)
        fused = stages["stage1"][1]
    if variant not in ("drop_graph", "drop_indicators"):
        stages["stage2"] = fuse_stage(fused, v_g, fused, stage2, variant, n_layers)
        fused = stages["stage2"][1]
    return fused, stages


def gat_encode(features: Tensor, neighbors: np.ndarray, gat, alphas: list | None = None) -> Tensor:
    """One timestamp of multi-head graph attention over all n nodes.

    Leaky-relu additive scores on a dense n x n matrix, masked to the
    neighbours, one softmax per head, heads averaged, then ELU. Each layer's
    per-head attention matrices are appended to `alphas` if given.
    """
    mask_bias = Tensor(np.where(neighbors, 0.0, NEG_MASK).astype(features.values.dtype))
    h = features
    for w, a in gat.layers:
        d, k_heads = h.cols, a.values.shape[1]
        hw_all = ad.matmul(h, w.tensor)
        total = None
        for k in range(k_heads):  # head k is column block k of W and column k of a
            hw = slice_cols(hw_all, k * d, (k + 1) * d)
            a_k = slice_cols(a.tensor, k, k + 1)
            left = ad.matmul(hw, ad.slice_rows(a_k, 0, d))  # n x 1
            right = ad.transpose(ad.matmul(hw, ad.slice_rows(a_k, d, 2 * d)))  # 1 x n
            alpha = softmax_rows(ad.add(leaky_relu(ad.add(left, right)), mask_bias))
            if alphas is not None:
                alphas.append(alpha.values)
            head = ad.matmul(alpha, hw)
            total = head if total is None else ad.add(total, head)
        h = elu(ad.scale(total, 1.0 / k_heads))
    return h


def reduce_time(x: Tensor, pred) -> Tensor:
    """t x d -> 1 x d through the shared time stack (last layer linear)."""
    h = ad.transpose(x)
    for i, (w, b) in enumerate(pred.time_layers):
        h = ad.add(ad.matmul(h, w.tensor), b.tensor)
        if i < len(pred.time_layers) - 1:
            h = ad.relu(h)
    return ad.transpose(h)


def aggregate_time(fused: Tensor, indicators: Tensor, pred) -> Tensor:
    """Both branches' time reductions side by side, 1 x 2d."""
    return ad.concat_cols([reduce_time(fused, pred), reduce_time(indicators, pred)])


def forward_sample(model, packed, stock: int, start: int):
    """(logits 1 x 3, stages) of one window of `model`, composed per window."""
    cfg, variant, n = model.cfg, model.variant, packed.n_stocks
    rows = (start + np.arange(cfg.ws)) * n + stock
    v_d = v_g = None
    if variant == "drop_indicators":
        v_i = Tensor(np.zeros((cfg.ws, cfg.d), dtype=cfg.dtype))
    else:
        v_i = encode_indicators(Tensor(packed.ind[rows]), model.ind)
    if variant != "drop_docs":
        v_d = encode_documents(Tensor(packed.doc[rows]), packed.mask[rows], model.doc)
    if variant not in ("drop_graph", "drop_indicators"):
        per_date = []
        for tau in range(start, start + cfg.ws):
            nodes = encode_indicators(Tensor(packed.ind[tau * n : (tau + 1) * n]), model.ind)
            g_all = gat_encode(nodes, packed.neighbors, model.gat)
            per_date.append(ad.slice_rows(g_all, stock, stock + 1))
        v_g = ad.concat_rows(per_date)
    fused, stages = fuse_trimodal(v_i, v_d, v_g, *model.stages, variant, cfg.fusion_layers)
    return aggregate_features(aggregate_time(fused, v_i, model.pred), model.pred), stages
