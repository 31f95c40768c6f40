"""Modality encoders mapping each input channel into the shared t x d space.

The indicator and document encoders are per-row affine maps, so the same
function serves a single window or a whole stacked calendar. The indicator
encoder has no activation, so its lifts and projection fold, on the tape,
into one 3 x d affine map that is the only node the rows meet. The graph
encoder runs multi-head attention over all stocks at one timestamp; the
model stacks it across timestamps with shared weights. Each layer stores
its K heads as two matrices: the projections W side by side (d x K*d, head
k in columns k*d .. (k+1)*d) and the score vectors a as columns (2d x K).
The heads keep separate softmaxes.

`block_gat_encode` is GAT's masked attention (Velickovic et al. 2018) in
edge-list form, over T timestamps at once; the per-timestamp reference that
masks a dense n x n score matrix lives in `tests/reference.py`. Each layer
is one tape node that scores and softmaxes only the neighbour pairs of all
timestamps, so its elementwise work grows with the edge count, not n^2.
The aggregation is dense per block: attention only mixes neighbours, so
whole connected components are packed into blocks of m nodes (m the
largest component, as Cluster-GCN batches clusters, Chiang et al. 2019),
and the edge weights are scattered into a zero-filled m x m matrix per
block, head and timestamp for one batched GEMM.
That costs n * m per head and timestamp instead of n^2, and moves fewer
values than gathering E neighbour rows of width d whenever E * d > n * m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import DataError, ShapeError

LEAKY_SLOPE = 0.2
NEG_MASK = -1e30


@dataclass
class IndicatorEncoderParams:
    """Per-indicator lifts plus the 3d -> d fusion projection."""

    w_close: Parameter  # 1 x d
    b_close: Parameter
    w_open: Parameter
    b_open: Parameter
    w_high: Parameter
    b_high: Parameter
    w_mix: Parameter  # 3d x d
    b_mix: Parameter


@dataclass
class DocEncoderParams:
    w: Parameter  # dim x d
    b: Parameter  # 1 x d


@dataclass
class GatParams:
    """Per layer, the K heads' projections W (d x K*d, head k in columns
    k*d .. (k+1)*d) and score vectors a (2d x K, column k for head k)."""

    layers: list  # [(w, a), ...layers]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_heads(self) -> int:
        return self.layers[0][1].values.shape[1]


def encode_indicators(x: Tensor, params: IndicatorEncoderParams) -> Tensor:
    """Lift each indicator column to width d, concat, and project to d.

    The map has no activation, so it folds into one affine map from the 3
    input columns: `x @ W + c`, where row k of W (3 x d) is `w_k @ W_mix[k]`
    for the lifts k = close, open, high and the matching d-row blocks of
    W_mix, and `c = b_mix + sum_k b_k @ W_mix[k]`. The fold is built on the
    tape from the d x d parameter blocks, so the rows meet one 3 x d affine
    node and backward chains into the eight stored parameters by itself.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.cols != 3:
        raise ShapeError(f"indicator input must be t x 3, got {x.shape}")
    if not np.all(np.isfinite(x.values)):
        raise DataError("indicator input contains non-finite values")
    lifts = [
        (params.w_close, params.b_close),
        (params.w_open, params.b_open),
        (params.w_high, params.b_high),
    ]
    d = params.w_mix.values.shape[1]
    mix = [ad.slice_rows(params.w_mix.tensor, k * d, (k + 1) * d) for k in range(3)]
    w_fold = ad.concat_rows([ad.matmul(w.tensor, m) for (w, _), m in zip(lifts, mix)])
    c_close, c_open, c_high = (ad.matmul(b.tensor, m) for (_, b), m in zip(lifts, mix))
    c_fold = ad.add(params.b_mix.tensor, ad.add(ad.add(c_close, c_open), c_high))
    return ad.affine(x, w_fold, c_fold)


def encode_documents(doc: Tensor, mask, params: DocEncoderParams) -> Tensor:
    """Project document vectors to width d; masked days stay exactly zero.

    The bias is suppressed on masked rows so absence keeps its zero-vector
    meaning downstream.
    """
    doc = doc if isinstance(doc, Tensor) else Tensor(doc)
    mask = np.asarray(mask, dtype=doc.values.dtype).reshape(-1, 1)
    if mask.shape[0] != doc.rows:
        raise ShapeError(f"mask length {mask.shape[0]} != doc rows {doc.rows}")
    projected = ad.affine(doc, params.w.tensor, params.b.tensor)
    return ad.mul(projected, Tensor(mask))


def block_gat_encode(features_st: Tensor, neighbors: np.ndarray, params: GatParams) -> Tensor:
    """Multi-head graph attention on T stacked node sets, per connected-component block.

    Input is T timestamps' node features stacked as (T*n) x d; each layer is
    one tape node doing all timestamps' attention at once: additive
    leaky-relu scores, one softmax per head over each row's neighbours,
    heads averaged, then ELU. Only the pairs
    (i, j) with `neighbors[i, j]` are scored: leaky-relu scores and the
    softmax over each row's neighbours run on K x T x E edge arrays, with
    segment reductions over the destination rows.

    Attention only mixes neighbours, so the layer factorises exactly over the
    weakly connected components of the mask. Whole components are packed,
    first-fit decreasing, into blocks of m nodes, m the size of the largest
    component, so no edge crosses a block. The edge weights are scattered into
    a zero-filled T x blocks x m x (m * K) matrix, the K heads side by side,
    and aggregated with one batched GEMM against the K head projections of
    the block's nodes: cost and saved memory grow with n * m, not n^2. Where
    packing would not shrink the matrix (blocks * m^2 >= n^2, as for a
    connected graph), all n nodes form one block in index order, which is
    the dense n x n aggregation.

    Matches the per-timestamp reference up to the order of floating-point
    sums. Every row needs at least one neighbour
    (`RelationalGraph.neighbor_mask` always sets the diagonal); a row
    without one raises ShapeError.
    """
    neighbors = np.asarray(neighbors, dtype=bool)
    n = neighbors.shape[0]
    if neighbors.shape != (n, n):
        raise ShapeError(f"neighbor mask {neighbors.shape} is not square")
    if features_st.rows % n:
        raise ShapeError(f"{features_st.rows} rows not divisible by {n} nodes")
    lonely = np.flatnonzero(~neighbors.any(axis=1))
    if lonely.size:
        raise ShapeError(f"GAT rows without a neighbour: {lonely[:10].tolist()}")
    edges = _GatEdges.from_mask(neighbors)
    n_dates = features_st.rows // n
    h = features_st
    for layer in params.layers:
        h = _block_gat_layer(h, layer, edges, n_dates)
    return h


def _components(neighbors: np.ndarray) -> np.ndarray:
    """Weakly connected component label per node: the smallest node index in it.

    Every row of `neighbors` must have an edge.
    """
    dst, src = np.nonzero(neighbors | neighbors.T)  # every row has an edge
    starts = np.searchsorted(dst, np.arange(neighbors.shape[0]))
    labels = np.arange(neighbors.shape[0])
    while True:
        new = np.minimum(labels, np.minimum.reduceat(labels[src], starts))
        new = new[new]  # jump to the label's label
        if np.array_equal(new, labels):
            return labels
        labels = new


def _pack_components(labels: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Block size m, block count and the slot (block * m + position) of each node.

    Components go first-fit decreasing into blocks of m nodes, m the largest
    component; nodes keep index order within a block. If that does not
    shrink blocks * m^2 below n^2, the one block of all n nodes is used.
    """
    n = labels.size
    _, comp, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    m = int(sizes.max())
    room = np.full(sizes.size, m)
    block = np.empty(sizes.size, dtype=np.intp)
    for c in np.argsort(-sizes, kind="stable"):
        k = block[c] = np.argmax(room >= sizes[c])  # first fit; an unused block always fits
        room[k] -= sizes[c]
    n_blocks = int(block.max()) + 1
    if n_blocks * m * m >= n * n:
        return n, 1, np.arange(n)
    node_block = block[comp]
    order = np.argsort(node_block, kind="stable")
    in_order = node_block[order]
    slot = np.empty(n, dtype=np.intp)
    slot[order] = in_order * m + np.arange(n) - np.searchsorted(in_order, in_order)
    return m, n_blocks, slot


@dataclass
class _GatEdges:
    """Edge list of an n x n neighbour mask: edge e scores its row with src[e].

    Edges are sorted by destination row (CSR), so `dst_starts` are the
    row segments for reduceat and `dst_counts` their lengths (every row has
    an edge). `by_src` is the stable permutation that sorts them by source;
    `src_nodes` are the sources that have an edge, and `src_starts` their
    segments in that order.

    The aggregation runs on `n_blocks` blocks of `m` nodes, no edge across
    two blocks: `slot_node` is the node in each of the n_blocks * m slots
    (padding repeats node 0; no edge reaches a padding slot), `node_slot` the
    slot of each node, and `flat` the position of each edge in a row-major
    n_blocks x m x m array. `slot_node` and `node_slot` are None when the
    layout is the identity (one block of all n nodes in index order).
    """

    n: int
    src: np.ndarray
    dst_starts: np.ndarray
    dst_counts: np.ndarray
    by_src: np.ndarray
    src_nodes: np.ndarray
    src_starts: np.ndarray
    m: int
    n_blocks: int
    slot_node: np.ndarray | None
    node_slot: np.ndarray | None
    flat: np.ndarray

    @classmethod
    def from_mask(cls, neighbors: np.ndarray) -> "_GatEdges":
        n = neighbors.shape[0]
        dst, src = np.nonzero(neighbors)
        by_src = np.argsort(src, kind="stable")
        src_nodes, src_starts = np.unique(src[by_src], return_index=True)
        m, n_blocks, node_slot = _pack_components(_components(neighbors))
        slot_node = np.zeros(n_blocks * m, dtype=np.intp)  # padding repeats node 0
        slot_node[node_slot] = np.arange(n)
        identity = slot_node.size == n and bool(np.all(node_slot == np.arange(n)))
        block, pos = np.divmod(node_slot, m)
        return cls(
            n=n,
            src=src,
            dst_starts=np.searchsorted(dst, np.arange(n)),
            dst_counts=np.bincount(dst, minlength=n),
            by_src=by_src,
            src_nodes=src_nodes,
            src_starts=src_starts,
            m=m,
            n_blocks=n_blocks,
            slot_node=None if identity else slot_node,
            node_slot=None if identity else node_slot,
            flat=(block[dst] * m + pos[dst]) * m + pos[src],
        )

    def sum_by_dst(self, e: np.ndarray) -> np.ndarray:
        """Sum a ... x E edge array over each destination row: ... x n."""
        return np.add.reduceat(e, self.dst_starts, axis=-1)

    def sum_by_src(self, e: np.ndarray) -> np.ndarray:
        """Sum a ... x E edge array over each source node: ... x n, 0 where none."""
        out = np.zeros(e.shape[:-1] + (self.n,), dtype=e.dtype)
        by_src = np.take(e, self.by_src, axis=-1)
        out[..., self.src_nodes] = np.add.reduceat(by_src, self.src_starts, axis=-1)
        return out

    def per_edge(self, rows: np.ndarray) -> np.ndarray:
        """... x n values per destination row -> ... x E, one per edge."""
        return np.repeat(rows, self.dst_counts, axis=-1)

    def to_blocks(self, a: np.ndarray) -> np.ndarray:
        """... x n x d node rows -> ... x n_blocks x m x d, laid out by block."""
        if self.slot_node is not None:
            a = a[..., self.slot_node, :]
        return a.reshape(a.shape[:-2] + (self.n_blocks, self.m, a.shape[-1]))

    def from_blocks(self, a: np.ndarray) -> np.ndarray:
        """... x n_blocks x m x d -> ... x n x d in node order, padding dropped."""
        a = a.reshape(a.shape[:-3] + (self.n_blocks * self.m, a.shape[-1]))
        return a if self.node_slot is None else a[..., self.node_slot, :]


def _block_gat_layer(x_st: Tensor, layer, edges: _GatEdges, n_dates: int) -> Tensor:
    w, a = layer
    k_heads = a.values.shape[1]
    n, m, n_blocks = edges.n, edges.m, edges.n_blocks
    d = x_st.cols
    x = x_st.values  # (T*n) x d
    w_cat = w.values  # d x K*d, head k at k*d
    w3 = w_cat.reshape(d, k_heads, d).swapaxes(0, 1)  # K x d x d, one W per head
    a3 = a.values.T.reshape(k_heads, 2, d).swapaxes(0, 1)  # 2 x K x d: a_src, a_dst per head
    # score projections: left = x W_k a_src_k (destination), right = x W_k a_dst_k (source)
    wa = (w3 @ a3[..., None]).reshape(2 * k_heads, d).T  # d x 2K
    lr = (wa.T @ x.T).reshape(2 * k_heads, n_dates, n)  # left rows, then right rows
    # edge arrays are K x T x E, built in place; repeat() and take() keep them
    # contiguous, where fancy indexing would return a transposed layout
    alpha = edges.per_edge(lr[:k_heads])
    alpha += np.take(lr[k_heads:], edges.src, axis=-1)
    slope = np.where(alpha > 0, alpha.dtype.type(1), alpha.dtype.type(LEAKY_SLOPE))
    alpha *= slope  # leaky relu; backward scales by the same factor
    alpha -= edges.per_edge(np.maximum.reduceat(alpha, edges.dst_starts, axis=-1))
    np.exp(alpha, out=alpha)
    # softmax over each row's edges, divided by K as well: the weights also
    # average the heads
    alpha /= edges.per_edge(edges.sum_by_dst(alpha) * k_heads)
    # aggregation by block, heads folded into the inner dimension: attention
    # column j*K + k of a block weighs row j*K + k of hw, slot j projected by head k
    x_b = edges.to_blocks(x.reshape(n_dates, n, d))  # T x blocks x m x d
    hw = (x_b.reshape(-1, d) @ w_cat).reshape(n_dates, n_blocks, m * k_heads, d)
    flat = edges.flat * k_heads + np.arange(k_heads)[:, None]  # K x E
    attn = np.zeros((n_dates, n_blocks * m * m * k_heads), dtype=hw.dtype)
    for tau, row in enumerate(attn):
        for f, weights in zip(flat, alpha[:, tau]):
            row[f] = weights  # 1-D scatters: faster than 2-D or 3-D indexing
    attn = attn.reshape(n_dates, n_blocks, m, m * k_heads)  # zero off the edges
    pre = edges.from_blocks(attn @ hw)  # T x n x d
    expm1 = np.expm1(np.minimum(pre, 0.0))
    out = np.maximum(pre, 0.0, out=pre)
    out += expm1  # elu, without a branch

    def backward(g):
        g3 = np.minimum(out, 0.0)
        g3 += 1.0
        g3 *= g.reshape(n_dates, n, d)  # through elu'
        gh = edges.to_blocks(g3)  # T x blocks x m x d
        d_attn = (gh @ hw.swapaxes(-1, -2)).reshape(n_dates, -1)
        d_s = np.empty_like(alpha)  # K x T x E, the gradient of the weights
        for f, out_k in zip(flat, d_s):
            np.take(d_attn, f, axis=1, out=out_k)
        d_hw = (attn.swapaxes(-1, -2) @ gh).reshape(-1, k_heads * d)  # as x_b @ w_cat
        # softmax backward; the weights are the softmax divided by K, which
        # puts a factor K on the row dot product
        dot = edges.sum_by_dst(d_s * alpha)
        dot *= k_heads
        d_s -= edges.per_edge(dot)
        d_s *= alpha
        d_s *= slope
        d_lr = np.concatenate([edges.sum_by_dst(d_s), edges.sum_by_src(d_s)])
        d_lr = d_lr.reshape(2 * k_heads, -1)  # as lr
        if x_st.requires_grad:
            gx = edges.from_blocks((d_hw @ w_cat.T).reshape(x_b.shape))
            ad.add_grad(x_st, gx.reshape(-1, d) + d_lr.T @ wa.T)
        d_w = x_b.reshape(-1, d).T @ d_hw  # padding slots have zero d_hw rows
        d_wa = (x.T @ d_lr.T).T.reshape(2, k_heads, d)  # the gradient of wa, laid out as a3
        # the score terms: head k's W gets g_src_k a_src_k^T + g_dst_k a_dst_k^T
        score = d_wa[0].T[:, :, None] * a3[0] + d_wa[1].T[:, :, None] * a3[1]
        d_w += score.reshape(d, -1)
        ad.add_grad(w.tensor, d_w)
        d_a = (w3.swapaxes(1, 2) @ d_wa[..., None])[..., 0]  # 2 x K x d: W_k^T g per half
        ad.add_grad(a.tensor, d_a.transpose(0, 2, 1).reshape(2 * d, k_heads))

    return ad.node(out.reshape(-1, d), (x_st, w.tensor, a.tensor), backward)

