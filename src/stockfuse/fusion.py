"""Gated cross-attention fusion.

Each stage fuses a guide modality with a key/value modality in two steps:
multi-head cross-attention produces a wide "unstable" feature (head score
matrices are averaged, one shared row-softmax is applied, and the shared
attention matrix hits every head's values), then a sigmoid gate computed
from the guide selects what survives. Stage 1 fuses indicators with
documents; stage 2 fuses that result with the graph features. The design
chains: any stage's stable output is t x d and can guide another stage.

Because the head score matrices are averaged before the one softmax, M heads
of width dh are exactly one head of width d' = M*dh: with Q, K and V the
per-head projections concatenated column-wise (d x d'),
sum_m Q_m K_m^T = Q K^T, so the attention matrix is
softmax(Q K^T / (M * sqrt(d'))) and the concatenated output is that matrix
times V.

The batched ops work on row-stacked windows ((B*t) x d with block size t)
and are one tape node each with a hand-derived backward:
`block_cross_attention` runs the wide head (three d x d' projections, one
score matmul, softmax and attention-times-values per window), and
`block_gated_selection` runs the gate. Both are tested against the
per-window functions above, which are the reference.
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
    """Per-head query/key/value projections, each d x head_dim."""

    heads: list  # [(wq, wk, wv), ...]

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    @property
    def head_dim(self) -> int:
        return self.heads[0][0].values.shape[1]

    @property
    def out_dim(self) -> int:
        """Concatenated width d' = M * head_dim; also the score scale."""
        return self.n_heads * self.head_dim

    def all(self):
        return [p for head in self.heads for p in head]


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
    inv_scale = 1.0 / math.sqrt(params.out_dim)
    score_sum = None
    values = []
    for wq, wk, wv in params.heads:
        q = ad.matmul(query_src, wq.tensor)
        k = ad.matmul(kv_src, wk.tensor)
        values.append(ad.matmul(kv_src, wv.tensor))
        s = ad.scale(ad.matmul(q, ad.transpose(k)), inv_scale)
        score_sum = s if score_sum is None else ad.add(score_sum, s)
    attn = ad.softmax_rows(ad.scale(score_sum, 1.0 / params.n_heads))
    return ad.concat_cols([ad.matmul(attn, v) for v in values])


def attention_matrix(query_src: Tensor, kv_src: Tensor, params: CrossAttnParams) -> np.ndarray:
    """The shared attention matrix alone (for invariant checks)."""
    inv_scale = 1.0 / math.sqrt(params.out_dim)
    total = np.zeros((query_src.rows, kv_src.rows))
    for wq, wk, _ in params.heads:
        q = query_src.values @ wq.values
        k = kv_src.values @ wk.values
        total += (q @ k.T) * inv_scale
    total /= params.n_heads
    shifted = total - total.max(axis=1, keepdims=True)
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
        gate = ad.sigmoid(
            ad.add(ad.matmul(guide, params.gate.w_b.tensor), params.gate.b_b.tensor)
        )
        stable = h_a if variant == "ca_fusion" else ad.mul(h_a, gate)
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
# fused batched stage ops over row-stacked windows


def block_cross_attention(
    query_st: Tensor, kv_st: Tensor, params: CrossAttnParams, block: int
) -> Tensor:
    """cross_attention applied independently to each block of `block` rows.

    Input rows are B windows stacked as (B*block) x d; output is
    (B*block) x d'. Runs as one wide head (see the module docstring): the
    per-head weights are concatenated into d x d' matrices, so the
    projections are three GEMMs and each window needs one score matmul,
    one softmax and one attention-times-values product. Matches slicing,
    running cross_attention per window and re-stacking, up to the order of
    floating-point sums.
    """
    if query_st.rows != kv_st.rows or query_st.rows % block:
        raise ShapeError(
            f"stacked inputs {query_st.shape}/{kv_st.shape} not divisible into blocks of {block}"
        )
    if query_st.cols != kv_st.cols:
        raise ShapeError(f"query {query_st.shape} and kv {kv_st.shape} widths differ")
    n_blocks = query_st.rows // block
    dp = params.out_dim
    head_dim = params.head_dim
    score_scale = 1.0 / (params.n_heads * math.sqrt(dp))
    wq, wk, wv = (
        np.concatenate([head[i].values for head in params.heads], axis=1) for i in range(3)
    )
    x, y = query_st.values, kv_st.values
    q3 = (x @ wq).reshape(n_blocks, block, dp)
    k3 = (y @ wk).reshape(n_blocks, block, dp)
    v3 = (y @ wv).reshape(n_blocks, block, dp)
    attn = q3 @ k3.transpose(0, 2, 1)  # b x t x s
    attn *= score_scale
    attn -= attn.max(axis=2, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=2, keepdims=True)
    out_vals = (attn @ v3).reshape(n_blocks * block, dp)

    def backward(g):
        g3 = g.reshape(n_blocks, block, dp)
        d_scores = g3 @ v3.transpose(0, 2, 1)
        d_v = (attn.transpose(0, 2, 1) @ g3).reshape(-1, dp)
        d_scores -= (d_scores * attn).sum(axis=2, keepdims=True)
        d_scores *= attn
        d_scores *= score_scale
        d_q = (d_scores @ k3).reshape(-1, dp)
        d_k = (d_scores.transpose(0, 2, 1) @ q3).reshape(-1, dp)
        if query_st.requires_grad:
            query_st._ensure_grad()
            query_st.grad += d_q @ wq.T
        if kv_st.requires_grad:
            kv_st._ensure_grad()
            kv_st.grad += d_k @ wk.T + d_v @ wv.T
        for i, (src, d_proj) in enumerate(((x, d_q), (y, d_k), (y, d_v))):
            trainable = [head[i].tensor for head in params.heads]
            if not any(p.requires_grad for p in trainable):
                continue
            d_w = src.T @ d_proj  # d x d'
            for m, p in enumerate(trainable):
                if p.requires_grad:
                    p._ensure_grad()
                    p.grad += d_w[:, m * head_dim : (m + 1) * head_dim]

    head_params = [p.tensor for trio in params.heads for p in trio]
    return ad.node(out_vals, (query_st, kv_st, *head_params), backward)


def block_gated_selection(
    unstable: Tensor, guide: Tensor, params: GateParams, gated: bool = True
) -> tuple[Tensor, Tensor]:
    """gated_selection over stacked rows as one tape node.

    Computes h_a = U·Wa + ba, the gate σ(G·Wb + bb) and h_a ⊙ gate, with a
    hand-derived backward that keeps only the output and the gate (the
    gate's pre-activation gradient is g ⊙ out ⊙ (1 - gate)). With
    `gated=False` (the ca_fusion variant) the output is h_a itself, the guide
    is not read and the returned gate is all ones. Returns (stable, gate);
    the gate tensor is a plain value for diagnostics, not a tape node.
    """
    if unstable.rows != guide.rows:
        raise ShapeError(f"unstable {unstable.shape} and guide {guide.shape} row counts differ")
    h_a = unstable.values @ params.w_a.values
    h_a += params.b_a.values
    if gated:
        pre = guide.values @ params.w_b.values
        pre += params.b_b.values
        gate = ad.sigmoid_values(pre)
        out_vals = h_a * gate
    else:
        gate = np.ones_like(h_a)
        out_vals = h_a

    def backward(g):
        d_h = g
        if gated:
            d_h = g * gate
            d_pre = g * out_vals
            d_pre *= 1.0 - gate
            _linear_backward(guide, params.w_b, params.b_b, d_pre)
        _linear_backward(unstable, params.w_a, params.b_a, d_h)

    parents = (unstable, params.w_a.tensor, params.b_a.tensor)
    if gated:
        parents += (guide, params.w_b.tensor, params.b_b.tensor)
    return ad.node(out_vals, parents, backward), Tensor(gate)


def _linear_backward(src: Tensor, w: Parameter, b: Parameter, d_out: np.ndarray) -> None:
    """Accumulate the grads of out = src·w + b given d_out."""
    if src.requires_grad:
        src._ensure_grad()
        src.grad += d_out @ w.values.T
    if w.tensor.requires_grad:
        w.tensor._ensure_grad()
        w.tensor.grad += src.values.T @ d_out
    if b.tensor.requires_grad:
        b.tensor._ensure_grad()
        b.tensor.grad += d_out.sum(axis=0, keepdims=True)
