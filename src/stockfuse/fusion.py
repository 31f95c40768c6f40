"""Gated cross-attention fusion.

Each stage fuses a guide modality with a key/value modality in two steps:
multi-head cross-attention produces a wide "unstable" feature (head score
matrices are averaged, one shared row-softmax is applied, and the shared
attention matrix hits every head's values), then a sigmoid gate computed
from the guide selects what survives. Stage 1 fuses indicators with
documents; stage 2 fuses that result with the graph features. The design
chains: any stage's stable output is t x d and can guide another stage.

Each projection W_Q, W_K, W_V is stored as one d x d' matrix, d' = M*dh,
head m in columns m*dh .. (m+1)*dh, the usual multi-head layout (Vaswani
et al. 2017). Because the M heads share one softmax, they need no loop:
with s = 1/(M*sqrt(d')), the averaged head scores are
sum_m s*(x Q_m)(y K_m)^T = s*(x W_Q)(y W_K)^T, and the heads' outputs side by
side are A (y W_V).

`block_cross_attention` runs a whole stage's row-level work over row-stacked
windows ((B*t) x d, block size t) as one tape node with a hand-derived
backward; the per-window composition of tape ops it is pinned against lives
in `tests/reference.py`. It rests on two fold identities:

  scores   s*(x W_Q)(y W_K)^T = (x P) y^T,  P = s*W_Q W_K^T  (d x d)
  h_a      softmax(.)(y W_V) W_a + b_a = softmax(.)(y N) + b_a,  N = W_V W_a  (d x d)

so the score is one bilinear form and the d'-wide "unstable" feature, whose
only reader is W_a, is never formed; for glu_fusion N = glu W_a and there is
no softmax. P and N are tape nodes built from the stored projections, d^2*d'
each per call, and they are the stage node's parents: its backward emits
x^T d(xP) into P and y^T d(yN) into N, and the tape chains those into W_Q,
W_K, W_V (or glu) and W_a. Every row-level product is d x d (projections)
or t x t per window (scores, mixing), so no row array is wider than d. At
B*t = 20,480, d = 64, d' = 128, forward plus backward of a stage needs
about 1.8 GFLOP against 5.2 for the wide-head form. The fold costs more
only if d' < d, which no shipped config uses. `block_unstable` recomputes
the unstable feature off the tape from the returned attention weights, for
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ShapeError


@dataclass
class CrossAttnParams:
    """Query/key/value projections, d x d' each, head m in columns m*dh .. (m+1)*dh."""

    wq: Parameter
    wk: Parameter
    wv: Parameter
    n_heads: int

    @property
    def out_dim(self) -> int:
        """Concatenated width d' = M * head_dim."""
        return self.wq.values.shape[1]

    @property
    def score_scale(self) -> float:
        """s = 1/(M*sqrt(d')): the heads' mean of scores scaled by 1/sqrt(d')."""
        return 1.0 / (self.n_heads * math.sqrt(self.out_dim))


@dataclass
class GateParams:
    w_a: Parameter  # d' x d
    b_a: Parameter  # 1 x d
    w_b: Parameter  # d x d
    b_b: Parameter  # 1 x d


@dataclass
class FusionStageParams:
    attn: CrossAttnParams
    gate: GateParams
    glu: Parameter | None = None  # d x d', used only by the glu_fusion variant


def block_cross_attention(
    query_st: Tensor,
    kv_st: Tensor,
    guide_st: Tensor,
    stage: FusionStageParams,
    block: int,
    gated: bool = True,
) -> tuple[Tensor, Tensor | None, np.ndarray | None]:
    """One gated cross-attention stage layer on each block of `block` rows, as one tape node.

    Rows are B windows stacked as (B*block) x d. The mixing is attention,
    or the glu_fusion linear map when `stage.glu` is set. With `gated=False`
    (ca_fusion) the output is the pre-gate projection h and the guide is not
    read. Both d x d' maps are folded on the tape into d x d products before
    any row is touched (see the module docstring), so no row array is wider
    than d; the node's backward stops at the folded maps.

    Returns (stable, gate, attn): the (B*block) x d output node, the gate as
    a plain value (None when ungated) and the B x block x block attention
    weights (None for glu_fusion). Matches the per-window reference stage up
    to the order of floating-point sums.
    """
    rows = kv_st.rows
    if query_st.rows != rows or guide_st.rows != rows or rows % block:
        raise ShapeError(
            f"stacked query {query_st.shape}, kv {kv_st.shape} and guide {guide_st.shape} "
            f"not divisible into the same blocks of {block}"
        )
    if query_st.cols != kv_st.cols:
        raise ShapeError(f"query {query_st.shape} and kv {kv_st.shape} widths differ")
    n_blocks = rows // block
    gate_p, attn_p = stage.gate, stage.attn
    glu = stage.glu is not None
    mix = stage.glu if glu else attn_p.wv  # d x d'
    n_node = ad.matmul(mix.tensor, gate_p.w_a.tensor)  # d x d
    w_b = gate_p.w_b.values
    x, y, guide = query_st.values, kv_st.values, guide_st.values
    n_fold = n_node.values
    if glu:
        attn = None
        h = y @ n_fold
    else:
        p_node = ad.scale(
            ad.matmul(attn_p.wq.tensor, ad.transpose(attn_p.wk.tensor)), attn_p.score_scale
        )  # d x d
        p_fold = p_node.values
        xp3 = (x @ p_fold).reshape(n_blocks, block, -1)
        y3 = y.reshape(n_blocks, block, -1)
        yn3 = (y @ n_fold).reshape(n_blocks, block, -1)
        attn = xp3 @ y3.transpose(0, 2, 1)  # b x t x s
        attn -= attn.max(axis=2, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=2, keepdims=True)
        h = (attn @ yn3).reshape(rows, -1)
    h += gate_p.b_a.values
    out = h
    gate = None
    if gated:
        pre = guide @ w_b
        pre += gate_p.b_b.values
        gate = ad.sigmoid_values(pre)
        out *= gate

    def backward(g):
        d_h = g
        if gated:
            d_h = g * gate
            d_pre = g - d_h  # g * h * gate * (1 - gate) = (g - g * gate) * out
            d_pre *= out
            if guide_st.requires_grad:
                ad.add_grad(guide_st, d_pre @ w_b.T)
            ad.add_grad(gate_p.w_b.tensor, guide.T @ d_pre)
            ad.add_grad(gate_p.b_b.tensor, d_pre.sum(axis=0, keepdims=True))
        ad.add_grad(gate_p.b_a.tensor, d_h.sum(axis=0, keepdims=True))
        if glu:
            d_yn = d_h
            if kv_st.requires_grad:
                ad.add_grad(kv_st, d_h @ n_fold.T)
        else:
            d_h3 = d_h.reshape(yn3.shape)
            d_s = d_h3 @ yn3.transpose(0, 2, 1)
            d_yn = (attn.transpose(0, 2, 1) @ d_h3).reshape(rows, -1)
            d_s -= (d_s * attn).sum(axis=2, keepdims=True)
            d_s *= attn
            d_xp = (d_s @ y3).reshape(rows, -1)
            if query_st.requires_grad:
                ad.add_grad(query_st, d_xp @ p_fold.T)
            if kv_st.requires_grad:
                d_y = (d_s.transpose(0, 2, 1) @ xp3).reshape(rows, -1)
                d_y += d_yn @ n_fold.T
                ad.add_grad(kv_st, d_y)
            ad.add_grad(p_node, x.T @ d_xp)
        ad.add_grad(n_node, y.T @ d_yn)

    parents = [kv_st, n_node, gate_p.b_a.tensor]
    if not glu:
        parents += [query_st, p_node]
    if gated:
        parents += [guide_st, gate_p.w_b.tensor, gate_p.b_b.tensor]
    stable = ad.node(out, parents, backward)
    return stable, None if gate is None else Tensor(gate), attn


def block_unstable(kv_st: Tensor, stage: FusionStageParams, attn: np.ndarray | None) -> Tensor:
    """A stage's d'-wide pre-gate feature as a plain value, for diagnostics.

    Recomputed from the attention weights block_cross_attention returned
    (`attn`, None for glu_fusion): the stage op itself never forms it.
    """
    y = kv_st.values
    if stage.glu is not None:
        return Tensor(y @ stage.glu.values)
    v3 = (y @ stage.attn.wv.values).reshape(*attn.shape[:2], -1)
    return Tensor((attn @ v3).reshape(kv_st.rows, -1))

