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
  h_a      softmax(.)(y W_V) W_a + b_a = softmax(.)(y N + b_a),  N = W_V W_a  (d x d)

so the score is one bilinear form, with its map applied on the key side,
and the d'-wide "unstable" feature, whose only reader is W_a, is never
formed; for glu_fusion N = glu W_a and there is no softmax. The bias b_a
rides on the value rows because every attention row sums to 1:
A (y N + b_a) = A y N + b_a, and for glu_fusion gathering window rows
commutes with adding b_a to every row. So b_a is added once, to the value
rows as given (on an `ingest_eval` batch ~4,300 source rows, not 46,000
window rows), and its gradient is the column sum of the value rows'
gradient. P and N are tape nodes built from the stored projections,
d^2*d' each per call, and they are the stage node's parents: its backward
emits d(y P^T)^T y into P and y^T d(yN) into N, and the tape chains those
into W_Q, W_K, W_V (or glu) and W_a. Every row-level product is d x d (maps) or t x t per window
(scores, mixing), so no row array is wider than d, and the fold does less
work than the wide-head form whenever d' >= d, as in every shipped config.
`block_unstable` recomputes the unstable feature off the tape from the
returned attention weights, for diagnostics.

Row-wise maps and per-window work. The maps of single rows are the gate's
sigmoid(x W_b + b_b) on query rows, and y P^T and y N + b_a on key/value
rows; the scores x (y P^T)^T, the softmax and the mixing A (y N + b_a) are
per window.
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
spans most of the calendar, more slab rows than window rows, so it keeps
the gathered form: compacting it to its unique rows instead costs four
scatters, more than the GEMM rows they save (measured in `CHANGES.md`).

The query map. A query whose rows are a linear map of narrower rows, x =
z F with F r x d, is passed as z with `query_map=F`. The op folds F into
the two maps that read the query, F P and F W_b (r x d each, tape nodes
whose backward hands F its gradient), so the gate is z (F W_b), the key
rows are y (F P)^T and the scores z (y (F P)^T)^T: every query-side
product and the key rows are r wide, and x is never formed. The model's
indicator query is the affine map of 3 raw columns, so it passes the rows
[ind, 1] with F = [W; c], the indicator encoder's fold: r = 4 against
d = 64.

Key-major scores. A tile's scores are one t x (windows*t) buffer, stored
key-major: column w*t + i holds query row i of window w against its
window's t keys. Each window's K X^T is written into it through an `out=`
view of `np.matmul`, so the softmax's max, exp and sum, and the
backward's row dot, reduce along axis 0 over long contiguous rows, not
along t-element rows. The mixing A (y N + b_a) and the gradients read the
same buffer through transposed views, with no copy; the attention the
diagnostics read is the B x t x t query-major view of the whole buffer.

Tiles. The window-row work runs over tiles of whole windows, TILE_ROWS //
t windows each (1,020 rows at t = 20), so that its intermediates stay in
a core's L2 cache instead of streaming 46,000 x 64 arrays (23.5 MB in
float64 on an `ingest_eval` batch) through memory once per elementwise
pass (cf. FlashAttention, Dao et al. 2022). Forward, each tile gathers its
query, key and value rows and its gate (the source rows' gate, one GEMM,
in the stage-1 form) or computes the gate from its query rows, then runs
the scores, softmax, mixing and * gate in reused tile buffers and writes
into the whole output array. The key and value maps y P^T and y N + b_a
stay one GEMM each over the kv rows as given: a 4-wide GEMM split into
tiles changes in the last bit. On the tape the gate, key and value rows
the backward reads are written tile by tile into one whole array each,
and so are the gate and the scores the diagnostics read; otherwise each
tile scores into a tile buffer and no whole gate or attention array is
formed (7.4 MB of attention per stage on a float64 `ingest_eval` batch).
Backward, each tile forms its rows of the gate, score, query, key and
value-row gradients; the source-row scatters, the weight-gradient GEMMs
and the bias sums then run over all rows. Every per-window product and
every reduction along a score column is the same computation in any
tile, so the tiled op is bit-identical to one tile: float64 `ingest_eval`
eval logits, and a float32 `train_graph`-shaped batch's loss and every
gradient, came out equal bit for bit (the tile tests pin tiles against
one tile at 1e-12). A batch that fits one tile runs the loop once.
TILE_ROWS was chosen by timing a whole eval over tile sizes; those
timings, and those of the key-major scores and the two stage forms, are
in `CHANGES.md`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ShapeError

TILE_ROWS = 1024  # window rows per tile of the stage op's window-row work (see "Tiles")


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
    w_b: Parameter | None  # d x d
    b_b: Parameter | None  # 1 x d


@dataclass
class FusionStageParams:
    attn: CrossAttnParams | None  # None when `glu` replaces the attention
    gate: GateParams  # w_b and b_b None when the stage is ungated (ca_fusion)
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
    query_index: np.ndarray | None = None,
    kv_index: np.ndarray | None = None,
    query_map: Tensor | None = None,
    diagnostics: bool = False,
) -> tuple[Tensor, Tensor | None, np.ndarray | None]:
    """One gated cross-attention stage layer on each block of `block` rows, as one tape node.

    Windows are B blocks of `block` rows, (B*block) x d stacked. An operand
    given with an index is source rows read through that B x block index:
    its row-wise maps run on the source rows and their products are
    gathered into window rows (see the module docstring). The mixing is
    attention, or the glu_fusion linear map when `stage.glu` is set. The
    gate reads the query; a stage without `gate.w_b` (ca_fusion) is ungated
    and its output is the pre-gate projection h. Both d x d' maps are
    folded on the tape into d x d products before any row is touched, so no
    row array is wider than d; the node's backward stops at the folded maps.
    The window-row work runs over tiles of whole windows (see "Tiles").

    With a `query_map` F (r x d), the query is r-wide rows z that the stage
    reads as z F: the score map P and the gate's W_b are folded through F
    on the tape, as F P and F W_b, so the query rows are never widened to
    d and F's gradient flows through those two products.

    Returns (stable, gate, attn): the (B*block) x d output node, the gate as
    window rows of plain values (None when ungated) and the B x block x
    block attention weights, a query-major view of the key-major scores
    (None for glu_fusion). Both are kept, and
    returned, only on the tape or with `diagnostics`; otherwise they are
    None. Matches the per-window reference stage on z F up to the order of
    floating-point sums.
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
    glu, gated = stage.glu is not None, gate_p.w_b is not None
    mix = stage.glu if glu else attn_p.wv  # d x d'
    n_node = ad.matmul(mix.tensor, gate_p.w_a.tensor)  # d x d
    n_fold = n_node.values
    x, y = query_st.values, kv_st.values
    dtype = np.result_type(x, y)
    per_tile = max(1, min(TILE_ROWS // block, n_blocks))  # windows
    tiles = [(w0, min(w0 + per_tile, n_blocks)) for w0 in range(0, n_blocks, per_tile)]
    tile_rows = per_tile * block
    whole = ad.grad_enabled() or diagnostics  # keep whole what the backward or diagnostics read

    def on_query(w):  # a d x d map as the r-wide query rows read it: F w, or w itself
        return w if query_map is None else ad.matmul(query_map, w)

    def buffer(width):  # window rows the backward or diagnostics read: all of them, else a tile's
        return np.empty((rows if whole else tile_rows, width), dtype)

    def by_key(s):  # a key-major block x (windows*block) tile as windows x key x query
        return s.reshape(block, -1, block).transpose(1, 0, 2)

    def by_query(s):  # the same tile as windows x query x key, the attention of each window
        return s.reshape(block, -1, block).transpose(1, 2, 0)

    def window_rows(values, idx, dst, w0, w1):  # one tile's window rows: a slice, or a gather
        if idx is None:
            return values[w0 * block : w1 * block]
        return np.take(values, idx[w0:w1].reshape(-1), axis=0, out=dst[: (w1 - w0) * block],
                       mode="clip")

    gate = gate_src = None
    if gated:
        wb_node = on_query(gate_p.w_b.tensor)  # r x d
        w_b = wb_node.values
        gate = buffer(d)
        if q_idx is not None:
            gate_src = x @ w_b
            gate_src += gate_p.b_b.values
            ad.sigmoid_values(gate_src, out=gate_src)
    # the kv maps, one GEMM each over the kv rows as given (source or window
    # rows); b_a rides on the value rows, since every attention row sums to 1
    yn = y @ n_fold
    yn += gate_p.b_a.values
    out = yn if glu and kv_idx is None else np.empty((rows, d), dtype)
    scores = None
    if not glu:
        p_node = on_query(ad.scale(
            ad.matmul(attn_p.wq.tensor, ad.transpose(attn_p.wk.tensor)), attn_p.score_scale
        ))  # r x d
        p_fold = p_node.values
        y_pt = y @ p_fold.T  # key rows y P^T
        # the key and value window rows: the maps themselves on window rows
        keys, values = (y_pt, yn) if kv_idx is None else (buffer(r), buffer(d))
        q_buf = None if q_idx is None else np.empty((tile_rows, r), dtype)
        col_buf = np.empty(tile_rows, dtype)  # a max or sum over the keys of each query row
        # key-major: scores[j, w*block + i] is query row i of window w on key j
        scores = np.empty((block, rows if whole else tile_rows), dtype)
    for w0, w1 in tiles:
        a, b = w0 * block, w1 * block
        at = slice(a, b) if whole else slice(0, b - a)  # the tile's rows in a buffer
        h = out[a:b]
        if glu:
            if kv_idx is not None:
                window_rows(yn, kv_idx, h, w0, w1)
        else:
            nw = w1 - w0
            k3, v3 = (window_rows(mapped, kv_idx, buf[at], w0, w1).reshape(nw, block, -1)
                      for mapped, buf in ((y_pt, keys), (yn, values)))
            s, m = scores[:, at], col_buf[: b - a]
            x3 = window_rows(x, q_idx, q_buf, w0, w1).reshape(nw, block, r)
            np.matmul(k3, x3.transpose(0, 2, 1), out=by_key(s))
            np.max(s, axis=0, out=m)
            s -= m
            np.exp(s, out=s)
            np.sum(s, axis=0, out=m)
            s /= m
            np.matmul(by_query(s), v3, out=h.reshape(nw, block, d))
        if gated:
            g_t = gate[at]
            if q_idx is None:
                np.matmul(x[a:b], w_b, out=g_t)
                g_t += gate_p.b_b.values
                ad.sigmoid_values(g_t, out=g_t)
            else:
                window_rows(gate_src, q_idx, g_t, w0, w1)
            h *= g_t

    def backward(g):
        # Tile by tile: the elementwise and per-window work, into whole
        # window-row gradients; then the scatters and GEMMs over all rows.
        d_pre = np.empty((rows, d), dtype) if gated else None
        d_yn = np.empty((rows, d), dtype)
        if not glu:
            d_h = np.empty((tile_rows, d), dtype)
            d_k = np.empty((rows, r), dtype)
            d_q = np.empty((rows, r), dtype) if query_st.requires_grad else None
            d_s, prod = (np.empty((block, tile_rows), dtype) for _ in range(2))  # as scores
        for w0, w1 in tiles:
            a, b = w0 * block, w1 * block
            nw, g_t = w1 - w0, g[a:b]
            dh_t = d_yn[a:b] if glu else d_h[: b - a]
            if gated:
                np.multiply(g_t, gate[a:b], out=dh_t)
                # g * h * gate * (1 - gate) = (g - g * gate) * out
                np.subtract(g_t, dh_t, out=d_pre[a:b])
                d_pre[a:b] *= out[a:b]
            else:
                dh_t[...] = g_t
            if glu:
                continue
            dh3, s, ds = dh_t.reshape(nw, block, d), scores[:, a:b], d_s[:, : b - a]
            np.matmul(values[a:b].reshape(nw, block, d), dh3.transpose(0, 2, 1), out=by_key(ds))
            np.matmul(by_key(s), dh3, out=d_yn[a:b].reshape(nw, block, d))
            dot = np.sum(np.multiply(ds, s, out=prod[:, : b - a]), axis=0, out=col_buf[: b - a])
            ds -= dot
            ds *= s
            if d_q is not None:
                np.matmul(by_query(ds), keys[a:b].reshape(nw, block, r),
                          out=d_q[a:b].reshape(nw, block, r))
            x3 = window_rows(x, q_idx, q_buf, w0, w1).reshape(nw, block, r)
            np.matmul(by_key(ds), x3, out=d_k[a:b].reshape(nw, block, r))
        if gated:
            ad.add_grad(gate_p.b_b.tensor, d_pre.sum(axis=0, keepdims=True))
            d_pre = _to_source(d_pre, q_idx, len(x))
            if query_st.requires_grad:
                ad.add_grad(query_st, d_pre @ w_b.T)
            ad.add_grad(wb_node, x.T @ d_pre)
        if not glu:
            if d_q is not None:
                ad.add_grad(query_st, _to_source(d_q, q_idx, len(x)))
            d_k = _to_source(d_k, kv_idx, len(y))
            ad.add_grad(p_node, d_k.T @ y)
        d_yn = _to_source(d_yn, kv_idx, len(y))
        ad.add_grad(gate_p.b_a.tensor, d_yn.sum(axis=0, keepdims=True))
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
    attn = by_query(scores) if whole and not glu else None  # B x block x block, a view
    return stable, Tensor(gate) if gated and whole else None, attn


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
