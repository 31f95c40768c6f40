"""Gated cross-attention fusion.

Each stage fuses a query modality with a key/value modality in two steps:
multi-head cross-attention produces a wide "unstable" feature (head score
matrices are averaged, one shared row-softmax is applied, and the shared
attention matrix hits every head's values), then a sigmoid gate computed
from the query selects what survives. Stage 1 fuses indicators with
documents; stage 2 fuses that result with the graph features. The design
chains: any stage's stable output is t x d and can be another stage's query.

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

  scores   s*(x W_Q)(y W_K)^T = x (y P^T)^T,  P = s*W_Q W_K^T  (d x d)
  h_a      softmax(.)(y W_V) W_a + b_a = softmax(.)(y N) + b_a,  N = W_V W_a  (d x d)

so the score is one bilinear form, with its map applied on the key side,
and the d'-wide "unstable" feature, whose only reader is W_a, is never
formed; for glu_fusion N = glu W_a and there is no softmax. P and N are
tape nodes built from the stored projections, d^2*d' each per call, and
they are the stage node's parents: its backward emits d(y P^T)^T y into P
and y^T d(yN) into N, and the tape chains those into W_Q, W_K, W_V (or glu)
and W_a. Every row-level product is d x d (maps) or t x t per window
(scores, mixing), so no row array is wider than d. At B*t = 20,480, d = 64,
d' = 128, forward plus backward of a stage needs about 1.8 GFLOP against
5.2 for the wide-head form. The fold costs more only if d' < d, which no
shipped config uses. `block_unstable` recomputes the unstable feature off
the tape from the returned attention weights, for diagnostics.

Row-wise maps and per-window work. The maps of single rows are the gate's
sigmoid(x W_b + b_b) on query rows, and y P^T and y N on key/value rows;
the scores x (y P^T)^T, the softmax and the mixing A (y N) are per window.
A batch's windows overlap when their starts are close (eval parts are
consecutive starts), so its B*t window rows repeat few calendar rows: an
`ingest_eval` batch gathers 46,000 window rows from ~4,300. An operand
passed as calendar source rows with the B x t window index therefore runs
its row-wise maps once per source row and gathers only the products (and,
for the query, its rows, which the scores read); backward sums the
window-row gradients into source rows (`ad.scatter_add_windows`: one index
column at a time unless a window repeats) and runs the input- and
weight-gradient GEMMs on the source rows. Stage 1's query and key/value are
calendar rows, so both sides take this form; stage 2 reads stage 1's window
output as its query, so there only its gate runs on window rows. The model
takes this form when the calendar slab has fewer rows than the batch
gathers, and gathers windows first otherwise. A shuffled training batch
spans most of the calendar (~24,600-29,600 slab rows against 20,480 window
rows on `train_graph`), so it keeps the gathered form: compacting it to its
unique rows instead made stage 1's forward plus backward slower on 2 cores,
63 -> 78 ms in float32 and 124 -> 151 ms in float64, because the four
scatters cost more than the third of the GEMM rows they save.

The query map. A query whose rows are a linear map of narrower rows, x =
z F with F r x d, is passed as z with `query_map=F`. The op folds F into
the two maps that read the query, F P and F W_b (r x d each, tape nodes
whose backward hands F its gradient), so the gate is z (F W_b), the key
rows are y (F P)^T and the scores z (y (F P)^T)^T: every query-side
product and the key rows are r wide, and x is never formed. The model's
indicator query is the affine map of 3 raw columns, so it passes the rows
[ind, 1] with F = [W; c], the indicator encoder's fold: r = 4 against
d = 64.
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


def _to_source(g: np.ndarray, index: np.ndarray | None, n_rows: int) -> np.ndarray:
    """Window-row gradient `g` summed into the `n_rows` source rows it was gathered from."""
    if index is None:
        return g
    out = np.zeros((n_rows, g.shape[1]), dtype=g.dtype)
    ad.scatter_add_windows(out, index, g, ad.distinct_columns(index))
    return out


def _operand_index(x: Tensor, index, rows: int, block: int, name: str) -> np.ndarray | None:
    """The checked B x block index of a source-row operand; None for window rows."""
    if index is None:
        if x.rows != rows:
            raise ShapeError(f"{name} has {x.rows} window rows, expected {rows}")
        return None
    index = np.asarray(index, dtype=np.intp)
    if index.shape != (rows // block, block):
        raise ShapeError(f"{name} index {index.shape} is not {rows // block} windows of {block}")
    if index.size and (index.min() < 0 or index.max() >= x.rows):
        raise ShapeError(f"{name} index out of range for {x.rows} source rows")
    return index


def block_cross_attention(
    query_st: Tensor,
    kv_st: Tensor,
    stage: FusionStageParams,
    block: int,
    gated: bool = True,
    query_index: np.ndarray | None = None,
    kv_index: np.ndarray | None = None,
    query_map: Tensor | None = None,
) -> tuple[Tensor, Tensor | None, np.ndarray | None]:
    """One gated cross-attention stage layer on each block of `block` rows, as one tape node.

    Windows are B blocks of `block` rows, (B*block) x d stacked. An operand
    given with an index is source rows read through that B x block index:
    its row-wise maps run on the source rows and their products are
    gathered into window rows (see the module docstring). The mixing is
    attention, or the glu_fusion linear map when `stage.glu` is set. The
    gate reads the query; with `gated=False` (ca_fusion) the output is the
    pre-gate projection h. Both d x d' maps are folded on the tape into
    d x d products before any row is touched, so no row array is wider
    than d; the node's backward stops at the folded maps.

    With a `query_map` F (r x d), the query is r-wide rows z that the stage
    reads as z F: the score map P and the gate's W_b are folded through F
    on the tape, as F P and F W_b, so the query rows are never widened to
    d and F's gradient flows through those two products.

    Returns (stable, gate, attn): the (B*block) x d output node, the gate as
    window rows of plain values (None when ungated) and the B x block x
    block attention weights (None for glu_fusion). Matches the per-window
    reference stage on z F up to the order of floating-point sums.
    """
    d = kv_st.cols
    if query_map is None:
        if query_st.cols != d:
            raise ShapeError(f"query {query_st.shape} and kv {kv_st.shape} widths differ")
    elif query_map.shape != (query_st.cols, d):
        raise ShapeError(
            f"query map {query_map.shape} does not take query {query_st.shape} to kv width {d}"
        )
    index = query_index if kv_index is None else kv_index
    rows = kv_st.rows if index is None else np.size(index)
    if rows % block:
        raise ShapeError(f"{rows} window rows not divisible into blocks of {block}")
    q_idx = _operand_index(query_st, query_index, rows, block, "query")
    kv_idx = _operand_index(kv_st, kv_index, rows, block, "kv")
    n_blocks, r = rows // block, query_st.cols
    gate_p, attn_p = stage.gate, stage.attn
    glu = stage.glu is not None
    mix = stage.glu if glu else attn_p.wv  # d x d'
    n_node = ad.matmul(mix.tensor, gate_p.w_a.tensor)  # d x d
    n_fold = n_node.values
    x, y = query_st.values, kv_st.values

    def on_query(w):  # a d x d map as the r-wide query rows read it: F w, or w itself
        return w if query_map is None else ad.matmul(query_map, w)

    def windows(values, idx):
        return values if idx is None else values[idx.reshape(-1)]

    gate = None
    if gated:
        wb_node = on_query(gate_p.w_b.tensor)  # r x d
        w_b = wb_node.values
        pre = x @ w_b
        pre += gate_p.b_b.values
        gate = windows(ad.sigmoid_values(pre), q_idx)
    if glu:
        attn = None
        h = windows(y @ n_fold, kv_idx)
    else:
        p_node = on_query(ad.scale(
            ad.matmul(attn_p.wq.tensor, ad.transpose(attn_p.wk.tensor)), attn_p.score_scale
        ))  # r x d
        p_fold = p_node.values
        x3 = windows(x, q_idx).reshape(n_blocks, block, r)
        k3 = windows(y @ p_fold.T, kv_idx).reshape(n_blocks, block, r)  # key rows y P^T
        yn3 = windows(y @ n_fold, kv_idx).reshape(n_blocks, block, d)
        attn = x3 @ k3.transpose(0, 2, 1)  # b x t x s
        attn -= attn.max(axis=2, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=2, keepdims=True)
        h = (attn @ yn3).reshape(rows, d)
    h += gate_p.b_a.values
    out = h
    if gated:
        out *= gate

    def backward(g):
        d_h = g
        if gated:
            d_h = g * gate
            d_pre = g - d_h  # g * h * gate * (1 - gate) = (g - g * gate) * out
            d_pre *= out
            ad.add_grad(gate_p.b_b.tensor, d_pre.sum(axis=0, keepdims=True))
            d_pre = _to_source(d_pre, q_idx, len(x))
            if query_st.requires_grad:
                ad.add_grad(query_st, d_pre @ w_b.T)
            ad.add_grad(wb_node, x.T @ d_pre)
        ad.add_grad(gate_p.b_a.tensor, d_h.sum(axis=0, keepdims=True))
        if glu:
            d_yn = d_h
        else:
            d_h3 = d_h.reshape(n_blocks, block, d)
            d_s = d_h3 @ yn3.transpose(0, 2, 1)
            d_yn = (attn.transpose(0, 2, 1) @ d_h3).reshape(rows, d)
            d_s -= (d_s * attn).sum(axis=2, keepdims=True)
            d_s *= attn
            if query_st.requires_grad:
                ad.add_grad(query_st, _to_source((d_s @ k3).reshape(rows, r), q_idx, len(x)))
            d_k = _to_source((d_s.transpose(0, 2, 1) @ x3).reshape(rows, r), kv_idx, len(y))
            ad.add_grad(p_node, d_k.T @ y)
        d_yn = _to_source(d_yn, kv_idx, len(y))
        if kv_st.requires_grad:
            d_kv = d_yn @ n_fold.T
            if not glu:
                d_kv += d_k @ p_fold
            ad.add_grad(kv_st, d_kv)
        ad.add_grad(n_node, y.T @ d_yn)

    parents = [kv_st, n_node, gate_p.b_a.tensor]
    if gated or not glu:
        parents.append(query_st)
    if not glu:
        parents.append(p_node)
    if gated:
        parents += [wb_node, gate_p.b_b.tensor]
    stable = ad.node(out, parents, backward)
    return stable, None if gate is None else Tensor(gate), attn


def block_unstable(
    kv_st: Tensor,
    stage: FusionStageParams,
    attn: np.ndarray | None,
    kv_index: np.ndarray | None = None,
) -> Tensor:
    """A stage's d'-wide pre-gate feature as window rows of plain values, for diagnostics.

    Recomputed from the attention weights block_cross_attention returned
    (`attn`, None for glu_fusion): the stage op itself never forms it.
    `kv_st` and `kv_index` are the key/value operand as that call read it.
    """
    glu = stage.glu is not None
    v = kv_st.values @ (stage.glu if glu else stage.attn.wv).values
    if kv_index is not None:
        v = v[np.asarray(kv_index, dtype=np.intp).reshape(-1)]
    if glu:
        return Tensor(v)
    v3 = v.reshape(*attn.shape[:2], -1)
    return Tensor((attn @ v3).reshape(len(v), -1))
