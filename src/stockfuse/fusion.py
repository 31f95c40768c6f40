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

The per-window functions (`cross_attention`, `gated_selection`,
`fuse_stage`, `fuse_trimodal`) compose tape ops and are the reference. The
model runs `block_cross_attention`: a whole stage's row-level work over
row-stacked windows ((B*t) x d, block size t) as one tape node with a
hand-derived backward. It rests on two fold identities:

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
from dataclasses import dataclass, field

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

    def all(self):
        return [self.wq, self.wk, self.wv]


@dataclass
class GateParams:
    w_a: Parameter  # d' x d
    b_a: Parameter  # 1 x d
    w_b: Parameter  # d x d
    b_b: Parameter  # 1 x d

    def all(self):
        return [self.w_a, self.b_a, self.w_b, self.b_b]


@dataclass
class FusionStageParams:
    attn: CrossAttnParams
    gate: GateParams
    glu: Parameter | None = None  # d x d', used only by the glu_fusion variant

    def all(self, variant: str = "full"):
        params = list(self.gate.all())
        if variant == "glu_fusion":
            params.append(self.glu)
        else:
            params.extend(self.attn.all())
        return params


@dataclass
class FusionStageOutput:
    unstable: Tensor  # t x d'
    stable: Tensor  # t x d
    gate_values: Tensor  # t x d, strictly inside (0, 1)


@dataclass
class TrimodalOutput:
    fused_docs: Tensor  # stage-1 stable, t x d
    fused_all: Tensor  # stage-2 stable, t x d
    stages: list = field(default_factory=list)  # FusionStageOutput per stage


def cross_attention(query_src: Tensor, kv_src: Tensor, params: CrossAttnParams) -> Tensor:
    """Shared-softmax multi-head cross-attention, output t x d'."""
    if query_src.cols != kv_src.cols:
        raise ShapeError(f"query {query_src.shape} and kv {kv_src.shape} widths differ")
    if query_src.rows != kv_src.rows:
        raise ShapeError(f"query {query_src.shape} and kv {kv_src.shape} lengths differ")
    q = ad.matmul(query_src, params.wq.tensor)
    k = ad.matmul(kv_src, params.wk.tensor)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), params.score_scale)
    return ad.matmul(ad.softmax_rows(scores), ad.matmul(kv_src, params.wv.tensor))


def attention_matrix(query_src: Tensor, kv_src: Tensor, params: CrossAttnParams) -> np.ndarray:
    """The shared attention matrix alone (for invariant checks)."""
    q = query_src.values @ params.wq.values
    k = kv_src.values @ params.wk.values
    scores = (q @ k.T) * params.score_scale
    shifted = scores - scores.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def gated_selection(unstable: Tensor, guide: Tensor, params: GateParams) -> Tensor:
    """Sigmoid gate from the guide, applied to a projection of the unstable."""
    h_a = ad.add(ad.matmul(unstable, params.w_a.tensor), params.b_a.tensor)
    h_b = ad.sigmoid(ad.add(ad.matmul(guide, params.w_b.tensor), params.b_b.tensor))
    return ad.mul(h_a, h_b)


def fuse_stage(
    query: Tensor,
    kv: Tensor,
    guide: Tensor,
    params: FusionStageParams,
    variant: str = "full",
    n_layers: int = 1,
) -> FusionStageOutput:
    """One gated cross-attention block, optionally stacked n_layers deep."""
    out = None
    for _ in range(max(1, n_layers)):
        if variant == "glu_fusion":
            unstable = ad.matmul(kv, params.glu.tensor)
        else:
            unstable = cross_attention(query, kv, params.attn)
        h_a = ad.add(ad.matmul(unstable, params.gate.w_a.tensor), params.gate.b_a.tensor)
        if variant == "ca_fusion":  # the gate is forced to 1
            stable, gate = h_a, Tensor(np.ones_like(h_a.values))
        else:
            gate = ad.sigmoid(
                ad.add(ad.matmul(guide, params.gate.w_b.tensor), params.gate.b_b.tensor)
            )
            stable = ad.mul(h_a, gate)
        out = FusionStageOutput(unstable=unstable, stable=stable, gate_values=gate)
        query = guide = stable
    return out


def fuse_trimodal(
    v_i: Tensor,
    v_d: Tensor,
    v_g: Tensor,
    stage1: FusionStageParams,
    stage2: FusionStageParams,
    variant: str = "full",
    n_layers: int = 1,
) -> TrimodalOutput:
    """Indicators guide the document fusion; its output guides the graph fusion."""
    stages = []
    if variant == "drop_docs":
        fused_docs = v_i
    else:
        query = guide = v_d if variant == "drop_indicators" else v_i
        s1 = fuse_stage(query, v_d, guide, stage1, variant=variant, n_layers=n_layers)
        stages.append(s1)
        fused_docs = s1.stable
    if variant == "drop_graph":
        fused_all = fused_docs
    else:
        s2 = fuse_stage(fused_docs, v_g, fused_docs, stage2, variant=variant, n_layers=n_layers)
        stages.append(s2)
        fused_all = s2.stable
    return TrimodalOutput(fused_docs=fused_docs, fused_all=fused_all, stages=stages)


# ---------------------------------------------------------------------------
# the batched stage op over row-stacked windows


def block_cross_attention(
    query_st: Tensor,
    kv_st: Tensor,
    guide_st: Tensor,
    stage: FusionStageParams,
    block: int,
    gated: bool = True,
) -> tuple[Tensor, Tensor | None, np.ndarray | None]:
    """One layer of fuse_stage on each block of `block` rows, as one tape node.

    Rows are B windows stacked as (B*block) x d. The mixing is attention,
    or the glu_fusion linear map when `stage.glu` is set. With `gated=False`
    (ca_fusion) the output is the pre-gate projection h and the guide is not
    read. Both d x d' maps are folded on the tape into d x d products before
    any row is touched (see the module docstring), so no row array is wider
    than d; the node's backward stops at the folded maps.

    Returns (stable, gate, attn): the (B*block) x d output node, the gate as
    a plain value (None when ungated) and the B x block x block attention
    weights (None for glu_fusion). Matches fuse_stage run per window, up to
    the order of floating-point sums.
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

