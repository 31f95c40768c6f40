"""Modality encoders mapping each input channel into the shared t x d space.

The indicator and document encoders are per-row affine maps, so the same
function serves a single window or a whole stacked calendar. The graph
encoder runs multi-head attention over all stocks at one timestamp; the
model stacks it across timestamps with shared weights.

`gat_encode_graph` is the per-timestamp composition of tape ops; it masks a
dense n x n score matrix and is kept as the reference. The model runs
`block_gat_encode`, GAT's masked attention in edge-list form (Velickovic et
al. 2018): each layer is one tape node that scores and softmaxes only the
neighbour pairs of all timestamps, so its elementwise work grows with the
edge count, not with n^2. Only the aggregation is dense: the edge weights
are scattered into a zero-filled n x n matrix per head and timestamp for one
batched GEMM, which moves fewer values than gathering E neighbour rows of
width d whenever E * d > n^2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .data import RelationalGraph
from .errors import DataError, ShapeError

log = logging.getLogger(__name__)

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

    def all(self):
        return [
            self.w_close, self.b_close, self.w_open, self.b_open,
            self.w_high, self.b_high, self.w_mix, self.b_mix,
        ]


@dataclass
class DocEncoderParams:
    w: Parameter  # dim x d
    b: Parameter  # 1 x d

    def all(self):
        return [self.w, self.b]


@dataclass
class GatParams:
    """Per-layer, per-head projection W (d x d) and score vector a (2d x 1)."""

    layers: list  # [[(w, a), ...heads], ...layers]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_heads(self) -> int:
        return len(self.layers[0])

    def all(self):
        return [p for layer in self.layers for head in layer for p in head]


def encode_indicators(x: Tensor, params: IndicatorEncoderParams) -> Tensor:
    """Lift each indicator column to width d, concat, and project to d."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.cols != 3:
        raise ShapeError(f"indicator input must be t x 3, got {x.shape}")
    if not np.all(np.isfinite(x.values)):
        raise DataError("indicator input contains non-finite values")
    lifted = []
    for col, (w, b) in enumerate(
        [
            (params.w_close, params.b_close),
            (params.w_open, params.b_open),
            (params.w_high, params.b_high),
        ]
    ):
        s = ad.slice_cols(x, col, col + 1)
        lifted.append(ad.add(ad.matmul(s, w.tensor), b.tensor))
    stacked = ad.concat_cols(lifted)
    return ad.add(ad.matmul(stacked, params.w_mix.tensor), params.b_mix.tensor)


def encode_documents(doc: Tensor, mask, params: DocEncoderParams) -> Tensor:
    """Project document vectors to width d; masked days stay exactly zero.

    The bias is suppressed on masked rows so absence keeps its zero-vector
    meaning downstream.
    """
    doc = doc if isinstance(doc, Tensor) else Tensor(doc)
    mask = np.asarray(mask, dtype=doc.values.dtype).reshape(-1, 1)
    if mask.shape[0] != doc.rows:
        raise ShapeError(f"mask length {mask.shape[0]} != doc rows {doc.rows}")
    projected = ad.add(ad.matmul(doc, params.w.tensor), params.b.tensor)
    return ad.mul(projected, Tensor(mask))


def gat_encode_graph(
    features: Tensor,
    graph,
    params: GatParams,
    symbols: list[str] | None = None,
) -> Tensor:
    """One timestamp of multi-head graph attention over all stock nodes.

    `graph` is either a RelationalGraph (requires `symbols` for row order)
    or a precomputed boolean neighbor mask. Scores use the additive
    leaky-relu form; heads are averaged and passed through an ELU.
    """
    features = features if isinstance(features, Tensor) else Tensor(features)
    if isinstance(graph, RelationalGraph):
        if symbols is None:
            raise ShapeError("symbols required when passing a RelationalGraph")
        neighbors = graph.neighbor_mask(symbols)
    else:
        neighbors = np.asarray(graph, dtype=bool)
    n = features.rows
    if neighbors.shape != (n, n):
        raise ShapeError(f"neighbor mask {neighbors.shape} != ({n}, {n})")
    mask_bias = Tensor(np.where(neighbors, 0.0, NEG_MASK).astype(features.values.dtype))
    ones_row = Tensor(np.ones((1, n), dtype=features.values.dtype))
    ones_col = Tensor(np.ones((n, 1), dtype=features.values.dtype))
    h = features
    for layer in params.layers:
        head_outs = []
        for w, a in layer:
            d = w.values.shape[0]
            hw = ad.matmul(h, w.tensor)
            a_src = ad.slice_rows(a.tensor, 0, d)
            a_dst = ad.slice_rows(a.tensor, d, 2 * d)
            left = ad.matmul(ad.matmul(hw, a_src), ones_row)
            right = ad.matmul(ones_col, ad.transpose(ad.matmul(hw, a_dst)))
            scores = ad.leaky_relu(ad.add(left, right), LEAKY_SLOPE)
            alpha = ad.softmax_rows(ad.add(scores, mask_bias))
            head_outs.append(ad.matmul(alpha, hw))
        total = head_outs[0]
        for extra in head_outs[1:]:
            total = ad.add(total, extra)
        h = ad.elu(ad.scale(total, 1.0 / len(layer)))
    return h


def block_gat_encode(features_st: Tensor, neighbors: np.ndarray, params: GatParams) -> Tensor:
    """gat_encode_graph applied per block of n stacked node sets, scoring only edges.

    Input is T timestamps' node features stacked as (T*n) x d; each layer is
    one tape node doing all timestamps' attention at once. Only the pairs
    (i, j) with `neighbors[i, j]` are scored: leaky-relu scores and the
    softmax over each row's neighbours run on K x T x E edge arrays, with
    segment reductions over the destination rows. The attention weights are
    then scattered into a zero-filled K x T x n x n matrix for one batched
    aggregation GEMM. Matches looping gat_encode_graph per timestamp up to
    the order of floating-point sums. Every row needs at least one
    neighbour (`RelationalGraph.neighbor_mask` always sets the diagonal);
    a row without one raises ShapeError.
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
    n_blocks = features_st.rows // n
    h = features_st
    for layer in params.layers:
        h = _block_gat_layer(h, layer, edges, n_blocks)
    return h


@dataclass
class _GatEdges:
    """Edge list of an n x n neighbour mask: edge e scores pair (dst[e], src[e]).

    Edges are sorted by destination row (CSR), so `dst_starts` are the
    row segments for reduceat. `by_src` is the stable permutation that sorts
    them by source; `src_nodes` are the sources that have an edge, and
    `src_starts` their segments in that order.
    """

    n: int
    dst: np.ndarray
    src: np.ndarray
    flat: np.ndarray  # dst * n + src, the position in a row-major n x n matrix
    dst_starts: np.ndarray
    by_src: np.ndarray
    src_nodes: np.ndarray
    src_starts: np.ndarray

    @classmethod
    def from_mask(cls, neighbors: np.ndarray) -> "_GatEdges":
        n = neighbors.shape[0]
        dst, src = np.nonzero(neighbors)
        by_src = np.argsort(src, kind="stable")
        src_nodes, src_starts = np.unique(src[by_src], return_index=True)
        return cls(
            n=n,
            dst=dst,
            src=src,
            flat=dst * n + src,
            dst_starts=np.searchsorted(dst, np.arange(n)),
            by_src=by_src,
            src_nodes=src_nodes,
            src_starts=src_starts,
        )

    def sum_by_dst(self, e: np.ndarray) -> np.ndarray:
        """Sum a ... x E edge array over each destination row: ... x n."""
        return np.add.reduceat(e, self.dst_starts, axis=-1)

    def sum_by_src(self, e: np.ndarray) -> np.ndarray:
        """Sum a ... x E edge array over each source node: ... x n, 0 where none."""
        out = np.zeros(e.shape[:-1] + (self.n,), dtype=e.dtype)
        out[..., self.src_nodes] = np.add.reduceat(e[..., self.by_src], self.src_starts, axis=-1)
        return out


def _block_gat_layer(x_st: Tensor, layer, edges: _GatEdges, n_blocks: int) -> Tensor:
    k_heads = len(layer)
    n = edges.n
    d = x_st.cols
    x3 = x_st.values.reshape(n_blocks, n, d)
    w_all = np.stack([w.values for w, _ in layer])  # K x d x d
    a_src = np.stack([a.values[:d] for _, a in layer])  # K x d x 1
    a_dst = np.stack([a.values[d:] for _, a in layer])
    hw = x3[None] @ w_all[:, None]  # K x T x n x d
    left = (hw @ a_src[:, None])[..., 0]  # K x T x n, indexed by destination row
    right = (hw @ a_dst[:, None])[..., 0]  # indexed by source column
    s_raw = left[..., edges.dst] + right[..., edges.src]  # K x T x E
    s_leaky = np.maximum(s_raw, LEAKY_SLOPE * s_raw)  # leaky relu, as 0 < slope < 1
    ex = np.exp(s_leaky - np.maximum.reduceat(s_leaky, edges.dst_starts, axis=-1)[..., edges.dst])
    alpha = ex / edges.sum_by_dst(ex)[..., edges.dst]
    attn = np.zeros((k_heads * n_blocks, n * n), dtype=hw.dtype)
    for row, weights in zip(attn, alpha.reshape(-1, alpha.shape[-1])):
        row[edges.flat] = weights  # one row scatter per (head, date): faster than 2-D indexing
    attn = attn.reshape(hw.shape[:2] + (n, n))  # K x T x n x n, zero off the edges
    pre = (attn @ hw).mean(axis=0)  # T x n x d
    out = np.maximum(pre, 0.0) + np.expm1(np.minimum(pre, 0.0))  # elu, without a branch

    param_tensors = [p.tensor for pair in layer for p in pair]

    def backward(g):
        g3 = g.reshape(n_blocks, n, d) * (np.minimum(out, 0.0) + 1.0)  # elu'
        gh = (g3 / k_heads)[None]  # 1 x T x n x d, broadcast over heads
        d_alpha = (gh @ hw.transpose(0, 1, 3, 2)).reshape(attn.shape[:2] + (n * n,))
        d_alpha = d_alpha[..., edges.flat]  # K x T x E
        d_hw = attn.transpose(0, 1, 3, 2) @ np.broadcast_to(gh, hw.shape)
        dot = edges.sum_by_dst(d_alpha * alpha)
        d_s = alpha * (d_alpha - dot[..., edges.dst])
        d_s = np.where(s_raw > 0, d_s, LEAKY_SLOPE * d_s)
        d_left = edges.sum_by_dst(d_s)[..., None]  # K x T x n x 1
        d_right = edges.sum_by_src(d_s)[..., None]
        d_hw += d_left * a_src.transpose(0, 2, 1)[:, None]  # outer products, no GEMM
        d_hw += d_right * a_dst.transpose(0, 2, 1)[:, None]
        if x_st.requires_grad:
            x_st._ensure_grad()
            x_st.grad += (d_hw @ w_all.transpose(0, 2, 1)[:, None]).sum(axis=0).reshape(-1, d)
        for i, (w, a) in enumerate(layer):
            if w.tensor.requires_grad:
                w.tensor._ensure_grad()
                w.tensor.grad += np.tensordot(x3, d_hw[i], axes=([0, 1], [0, 1]))
            if a.tensor.requires_grad:
                a.tensor._ensure_grad()
                a.tensor.grad[:d] += np.tensordot(hw[i], d_left[i], axes=([0, 1], [0, 1]))
                a.tensor.grad[d:] += np.tensordot(hw[i], d_right[i], axes=([0, 1], [0, 1]))

    return ad.node(out.reshape(-1, d), (x_st, *param_tensors), backward)


def gat_attention_coefficients(
    features: Tensor, neighbors: np.ndarray, params: GatParams
) -> list[np.ndarray]:
    """First-layer attention matrices per head (diagnostic / invariants)."""
    features = features if isinstance(features, Tensor) else Tensor(features)
    out = []
    for w, a in params.layers[0]:
        d = w.values.shape[0]
        hw = features.values @ w.values
        left = hw @ a.values[:d]
        right = hw @ a.values[d:]
        scores = left + right.T
        scores = np.where(scores > 0, scores, LEAKY_SLOPE * scores)
        scores = np.where(neighbors, scores, NEG_MASK)
        shifted = scores - scores.max(axis=1, keepdims=True)
        ex = np.exp(shifted)
        out.append(ex / ex.sum(axis=1, keepdims=True))
    return out
