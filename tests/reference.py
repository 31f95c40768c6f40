"""The per-window reference path: the model's forward for one window, composed
from generic tape ops, the oracle that pins the batched block ops.

`forward_sample` encodes one window's t rows, runs GAT over all n stocks at
each of its dates (masked dense n x n scores), fuses the modalities stage by
stage and reduces the time axis one window at a time, so it shares no code
with `block_cross_attention`, `block_gat_encode` or `block_reduce_time`. The
tape ops only this path needs are defined here on `ad.node`/`ad.add_grad`;
`tests/test_autodiff.py` checks their gradients with the package's ops,
through `grad_check`'s central differences.

`load_embeddings` is the reference for the package's embeddings reader: the
stdlib `json` parser and one array per entry.

`build_panel` is the reference for the package's panel assembly: a loop over
stocks that labels each from its own close series (`compute_labels`) and
aligns its documents on its own dates (`align_documents`).
"""

from __future__ import annotations

import json
import logging
from dataclasses import fields, is_dataclass

import numpy as np

from stockfuse import autodiff as ad
from stockfuse.autodiff import Parameter, Tensor
from stockfuse.data import (
    DOWN, FLAT, NO_LABEL, UP, DocumentDay, EmbeddingTable, Panel, PriceSeries,
)
from stockfuse.encoders import LEAKY_SLOPE, encode_documents, fold_indicators
from stockfuse.errors import (
    ConfigError, DataError, MissingEmbeddingError, NumericError, ShapeError,
)
from stockfuse.predictor import aggregate_features

log = logging.getLogger("stockfuse.data")  # the warnings `build_panel` logs

NEG_MASK = -1e30  # score bias of a non-neighbour in `gat_encode`'s dense softmax


def params_of(obj) -> list[Parameter]:
    """Every Parameter in a params dataclass (nested ones and lists included), in field order."""
    if isinstance(obj, Parameter):
        return [obj]
    if is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in fields(obj)]
    if not isinstance(obj, (list, tuple)):
        return []
    return [p for item in obj for p in params_of(item)]


def grad_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `f` is a no-argument callable returning a scalar Tensor; it must read the
    parameter values afresh on every call. `params` is any iterable of
    Parameter. Relative error per entry is |analytic - fd| / max(1, |analytic|).
    Run it in float64 (the default dtype) so the comparison is meaningful.
    """
    params = list(params)
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-4]")
    for p in params:
        p.zero_grad()
    out = f()
    if out.values.size != 1:
        raise ShapeError("grad_check target must be scalar")
    out.backward()
    analytic = [
        p.tensor.grad.copy() if p.tensor.grad is not None else np.zeros_like(p.values)
        for p in params
    ]

    def probe() -> float:
        with ad.no_grad():
            val = f().item()
        return val

    max_rel = 0.0
    for p, an in zip(params, analytic):
        vals = p.tensor.values
        for i in range(vals.shape[0]):
            for j in range(vals.shape[1]):
                orig = vals[i, j]
                vals[i, j] = orig + eps
                f_plus = probe()
                vals[i, j] = orig - eps
                f_minus = probe()
                vals[i, j] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise NumericError(
                        f"non-finite objective while perturbing {p.name}[{i},{j}]"
                    )
                fd = (f_plus - f_minus) / (2.0 * eps)
                rel = abs(an[i, j] - fd) / max(1.0, abs(an[i, j]))
                if rel > max_rel:
                    max_rel = rel
    return max_rel


# ---------------------------------------------------------------------------
# tape ops


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    def backward(g):
        a._ensure_grad()
        a.grad[:, lo:hi] += g

    return ad.node(a.values[:, lo:hi].copy(), (a,), backward)


def concat_cols(parts: list[Tensor]) -> Tensor:
    offsets = np.cumsum([0] + [p.cols for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._ensure_grad()
                p.grad += g[:, lo:hi]

    return ad.node(np.concatenate([p.values for p in parts], axis=1), parts, backward)


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


def encode_indicators(x: Tensor, fold) -> Tensor:
    """Indicator rows (t x 3) to width d: the d-wide product x @ W + c of the
    fold, which the model only ever reads factored as [x, 1] and [W; c]."""
    return ad.affine(x, *fold)


def cross_attention(query: Tensor, kv: Tensor, attn) -> Tensor:
    """Shared-softmax multi-head cross-attention, t x d'."""
    q = ad.matmul(query, attn.wq.tensor)
    k = ad.matmul(kv, attn.wk.tensor)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), attn.score_scale)
    return ad.matmul(softmax_rows(scores), ad.matmul(kv, attn.wv.tensor))


def fuse_stage(query, kv, stage, variant="full", n_layers=1):
    """(unstable, stable, gate) of a gated cross-attention stage, stacked n_layers deep.

    The gate reads the query.
    """
    for _ in range(max(1, n_layers)):
        if variant == "glu_fusion":
            unstable = ad.matmul(kv, stage.glu.tensor)
        else:
            unstable = cross_attention(query, kv, stage.attn)
        h_a = ad.add(ad.matmul(unstable, stage.gate.w_a.tensor), stage.gate.b_a.tensor)
        if variant == "ca_fusion":  # the gate is forced to 1
            stable, gate = h_a, Tensor(np.ones_like(h_a.values))
        else:
            pre = ad.add(ad.matmul(query, stage.gate.w_b.tensor), stage.gate.b_b.tensor)
            gate = ad.sigmoid(pre)
            stable = ad.mul(h_a, gate)
        query = stable
    return unstable, stable, gate


def fuse_trimodal(v_i, v_d, v_g, stage1, stage2, variant="full", n_layers=1):
    """The variant wiring: (fused t x d, {"stage1"/"stage2": (unstable, stable, gate)}).

    A stage whose key/value modality the variant drops is skipped, and that
    modality is not read (pass None).
    """
    fused, stages = v_i, {}
    if variant != "drop_docs":
        query = v_d if variant == "drop_indicators" else v_i
        stages["stage1"] = fuse_stage(query, v_d, stage1, variant, n_layers)
        fused = stages["stage1"][1]
    if variant not in ("drop_graph", "drop_indicators"):
        stages["stage2"] = fuse_stage(fused, v_g, stage2, variant, n_layers)
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
        d, k_heads = a.values.shape[0] // 2, a.values.shape[1]  # W is h.cols x K*d
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
    return concat_cols([reduce_time(fused, pred), reduce_time(indicators, pred)])


def forward_sample(model, packed, stock: int, start: int):
    """(logits 1 x 3, stages) of one window of `model`, composed per window."""
    cfg, variant, n = model.cfg, model.variant, packed.n_stocks
    rows = (start + np.arange(cfg.ws)) * n + stock
    v_d = v_g = None
    if variant == "drop_indicators":
        v_i = Tensor(np.zeros((cfg.ws, cfg.d), dtype=cfg.dtype))
    else:
        fold = fold_indicators(model.ind)
        v_i = encode_indicators(Tensor(packed.ind[rows]), fold)
    if variant != "drop_docs":
        v_d = encode_documents(Tensor(packed.doc[rows]), packed.mask[rows], model.doc)
    if variant not in ("drop_graph", "drop_indicators"):
        per_date = []
        for tau in range(start, start + cfg.ws):
            nodes = encode_indicators(Tensor(packed.ind[tau * n : (tau + 1) * n]), fold)
            g_all = gat_encode(nodes, packed.neighbors, model.gat)
            per_date.append(ad.slice_rows(g_all, stock, stock + 1))
        v_g = ad.concat_rows(per_date)
    fused, stages = fuse_trimodal(v_i, v_d, v_g, *model.stages, variant, cfg.fusion_layers)
    return aggregate_features(aggregate_time(fused, v_i, model.pred), model.pred), stages


def load_embeddings(path, dim: int | None = None) -> EmbeddingTable:
    """An embeddings JSONL read line by line with `json.loads`, one array per entry."""
    table = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            vec = np.asarray(obj["vector"], dtype=np.float64)
            assert vec.ndim == 1
            if table is None:
                table = EmbeddingTable(dim=dim if dim is not None else len(vec))
            table.put(str(obj["symbol"]), str(obj["date"]), vec)
    return table if table is not None else EmbeddingTable(dim=dim if dim is not None else 1536)


def compute_labels(series: PriceSeries, lower: float, upper: float) -> np.ndarray:
    """Per-date trend classes from close-to-close returns.

    Entry t labels the move into date t: up if the return is >= upper, down
    if <= lower (both boundaries inclusive), flat in between. Entry 0 is
    NO_LABEL; series shorter than 2 yield all NO_LABEL.
    """
    if not lower < 0 < upper:
        raise ConfigError(f"thresholds must straddle zero, got ({lower}, {upper})")
    labels = np.full(len(series), NO_LABEL, dtype=np.int64)
    if len(series) < 2:
        return labels
    r = series.close[1:] / series.close[:-1] - 1.0
    labels[1:] = np.where(r >= upper, UP, np.where(r <= lower, DOWN, FLAT))
    return labels


def align_documents(
    series: PriceSeries, days: list[DocumentDay], table: EmbeddingTable
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trading-date embedding matrix and presence mask for one symbol.

    Dates with documents take the cached (already pooled) vector; dates
    without get the zero vector and mask 0. Documents on non-trading dates
    are dropped with a warning.
    """
    date_index = {d: i for i, d in enumerate(series.dates)}
    matrix = np.zeros((len(series), table.dim), dtype=np.float64)
    mask = np.zeros(len(series), dtype=np.int64)
    missing = []
    for day in days:
        if day.symbol != series.symbol or not day.texts:
            continue
        pos = date_index.get(day.date)
        if pos is None:
            log.warning(
                "dropping documents for (%s, %s): not a trading date", day.symbol, day.date
            )
            continue
        vec = table.get(day.symbol, day.date)
        if vec is None:
            missing.append((day.symbol, day.date))
            continue
        matrix[pos] = vec
        mask[pos] = 1
    if missing:
        raise MissingEmbeddingError(missing)
    return matrix, mask


def build_panel(series_list, doc_days, table: EmbeddingTable, label_spec) -> Panel:
    """The panel one stock at a time: scatter, fill, label and align each in turn.

    A stock's missing dates take its last observed prices, or its first ones
    before it was first observed. The missing embeddings of every stock are
    named together, after the last stock.
    """
    if not series_list:
        raise DataError("no price series to assemble")
    if any(len(s) == 0 for s in series_list):
        raise DataError("a price series has no rows")
    symbols = sorted(s.symbol for s in series_list)
    by_symbol = {s.symbol: s for s in series_list}
    calendar = sorted({d for s in series_list for d in s.dates})
    n, T = len(symbols), len(calendar)
    cal_index = {d: i for i, d in enumerate(calendar)}
    close, open_, high = np.zeros((n, T)), np.zeros((n, T)), np.zeros((n, T))
    observed = np.zeros((n, T), dtype=bool)
    doc_emb = np.zeros((n, T, table.dim))
    doc_mask = np.zeros((n, T), dtype=np.int64)
    labels = np.full((n, T), NO_LABEL, dtype=np.int64)
    days_by_symbol: dict[str, list[DocumentDay]] = {}
    for day in doc_days:
        days_by_symbol.setdefault(day.symbol, []).append(day)
    missing = []
    for i, sym in enumerate(symbols):
        ser = by_symbol[sym]
        pos = np.array([cal_index[d] for d in ser.dates])
        close[i, pos], open_[i, pos], high[i, pos] = ser.close, ser.open, ser.high
        observed[i, pos] = True
        last = np.maximum.accumulate(np.where(observed[i], np.arange(T), -1))
        last = np.where(last < 0, int(pos.min()), last)
        for arr in (close, open_, high):
            arr[i] = arr[i, last]
        labels[i, pos] = compute_labels(ser, *label_spec)
        try:
            mat, msk = align_documents(ser, days_by_symbol.get(sym, []), table)
        except MissingEmbeddingError as exc:
            missing += exc.keys
            continue
        doc_emb[i, pos] = mat
        doc_mask[i, pos] = msk
    if missing:
        raise MissingEmbeddingError(missing)
    if not observed.all():
        log.warning("forward-filled %d missing (stock, date) price cells", (~observed).sum())
    return Panel(
        symbols=symbols, calendar=calendar, close=close, open=open_, high=high,
        doc_emb=doc_emb, doc_mask=doc_mask, observed=observed, labels=labels,
    )
