"""Full trimodal model: parameters, batched forward pass, variant wiring.

The batched forward works on a date-major packing of the panel: all stocks'
feature rows for one calendar date sit together, so the encoders run once
over the calendar slab the batch spans (the graph encoder once per date),
and a window is a B x t row index into that slab. `encode_indicators`,
called once per forward on the slab, returns the rows [ind, 1] and one map
node F = [W; c], the indicator encoder folded, and each reader of the
indicators reads those rows through F: the graph encoder's first layer
reads the slab through F folded into its weight (the `lift` of its
`GatParams`), the stage whose query they are through F as its query map,
and the time reduction's indicator branch reads the batch's 4-wide window
rows, gathered off the tape, through the same node. So no d-wide indicator
feature is formed, gathered or scattered, of the slab or of the windows.
Windows are processed as row-stacked blocks. The row-level work of each
fusion stage layer is one tape node with a hand-derived backward,
`block_cross_attention`: attention (or the glu map), the gate's two affine
maps, sigmoid and product. Its d x d' weights are folded into d x d maps by
ordinary tape ops, which also carry the gradient back to the stored
factors. When the slab has fewer
rows than the batch's windows (overlapping windows, as in eval), the
stages read the slab's rows through the window index and run their
row-wise maps once per slab row; otherwise the windows are gathered first
(see the `fusion` module docstring). The time reduction of both branches,
the fused features and the indicator features, is one more such node,
`block_reduce_time`, which runs the time layers on every window's t x d
fused block and t x 4 indicator rows at once. The d'-wide pre-gate feature
is recomputed only for `diagnostics=True`, which also makes the stage op
keep its whole gate and attention off the tape. The per-window reference forward that pins this
path for every variant lives in `tests/reference.py`.

Each multi-head projection is one parameter, the heads side by side:
`fuse{k}.wq/wk/wv` are d x d', `gat.l{i}.w` is d x K*d and `gat.l{i}.a`
is 2d x K. At init every weight draws from its own generator, seeded by
the config seed and the parameter's name: a multi-head weight draws its
heads' glorot blocks in head order from that stream and concatenates them.

Variant wiring, and the parameter groups a variant does not hold (`DROPPED`):
  glu_fusion       attention replaced by a linear map of the kv modality
                   (`fuse{k}.glu.w`); no `attn` (every stage's wq/wk/wv)
  ca_fusion        gate forced to 1 (pure cross-attention); no sigmoid runs;
                   no `gate_b` (every stage's gate.wb/bb)
  drop_docs        no document features; stage 1 skipped; no `doc`, `fuse1`
  drop_graph       no graph features; stage 2 skipped; no `gat`, `fuse2`
  drop_indicators  indicator features zeroed, so the graph encoder has no
                   input and stage 2 is skipped; documents serve as the
                   stage-1 query; no `ind`, `gat`, `fuse2`. The zero branch
                   (one zero column through a constant zero 1 x d map)
                   still runs through the time layers: it feeds their bias
                   gradients, so dropping it would change training.

`TrimodalModel.__init__` resolves the variant once: it builds only the
groups the variant reads, and a dropped group is None. As each weight's
stream is keyed by its name, a held parameter starts as `full`'s
same-named one at the same seed, whatever the variant drops or adds (and
whatever `gat_layers` is). The forward branches only on those Nones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .config import VARIANTS, TrainConfig
from .data import Panel, RelationalGraph
from .encoders import (
    DocEncoderParams,
    GatParams,
    IndicatorEncoderParams,
    block_gat_encode,
    encode_documents,
    encode_indicators,
    fold_indicators,
)
from .errors import CheckpointError, ConfigError, DataError
from .fusion import (
    CrossAttnParams,
    FusionStageParams,
    GateParams,
    block_cross_attention,
    block_unstable,
)
from .predictor import (
    PredictorParams,
    aggregate_features,
    block_reduce_time,
    cross_entropy_loss,
    feature_mlp_widths,
    time_mlp_widths,
)


class ParamStore:
    """All learnable weights, addressable by stable names in creation order."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, values: np.ndarray) -> Parameter:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = Parameter(name=name, tensor=Tensor(values, requires_grad=True))
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name, p in self._params.items():
            out[f"param/{name}"] = p.values
            out[f"adam_m/{name}"] = p.adam_m
            out[f"adam_v/{name}"] = p.adam_v
        return out

    def read_arrays(self, arrays: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
        """Array `prefix/name` of every parameter, cast to its dtype.

        A missing array, or one of another shape, raises CheckpointError;
        arrays that name no parameter are ignored.
        """
        out = {}
        for name, p in self._params.items():
            key = f"{prefix}/{name}"
            if key not in arrays:
                raise CheckpointError(f"checkpoint missing array {key!r}; retrain the model")
            arr = arrays[key].astype(p.values.dtype)
            if arr.shape != p.values.shape:
                raise CheckpointError(
                    f"checkpoint array {key} has shape {arr.shape}, expected {p.values.shape}"
                )
            out[name] = arr
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Load values and Adam moments; nothing changes if an array is refused."""
        values, adam_m, adam_v = (
            self.read_arrays(arrays, prefix) for prefix in ("param", "adam_m", "adam_v")
        )
        for name, p in self._params.items():
            p.tensor.values, p.adam_m, p.adam_v = values[name], adam_m[name], adam_v[name]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.values.copy() for name, p in self._params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, p in self._params.items():
            p.tensor.values = snap[name].copy()


def glorot(rng: np.random.Generator, shape: tuple[int, int], dtype) -> np.ndarray:
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


@dataclass
class PackedPanel:
    """Date-major constants the batched forward consumes.

    Row (date, stock) lives at index date * n_stocks + stock.
    """

    symbols: list[str]
    n_stocks: int
    n_dates: int
    ind: np.ndarray  # (T*n) x 3
    doc: np.ndarray  # (T*n) x dim
    mask: np.ndarray  # (T*n) x 1
    neighbors: np.ndarray  # n x n bool
    close: np.ndarray  # n x T (diagnostics)
    calendar: list[str]

    @classmethod
    def from_panel(cls, panel: Panel, graph: RelationalGraph, dtype=np.float64) -> "PackedPanel":
        """Pack `panel`; a non-finite indicator value anywhere raises DataError.

        The model reads indicator rows outside every window too (the graph
        encoder reads every stock on each date a batch spans), so the whole
        panel is checked here, once.
        """
        n, T = panel.n_stocks, panel.n_dates
        bad = np.argwhere(~np.isfinite(panel.features).all(axis=2))
        if bad.size:
            stock, date = bad[0]
            raise DataError(
                f"indicator row of {panel.symbols[stock]} on {panel.calendar[date]} is not "
                f"finite ({len(bad)} such rows)"
            )
        ind = panel.features.transpose(1, 0, 2).reshape(T * n, 3).astype(dtype)
        doc = panel.doc_emb.transpose(1, 0, 2).reshape(T * n, panel.dim).astype(dtype)
        mask = panel.doc_mask.T.reshape(T * n, 1).astype(dtype)
        return cls(
            symbols=panel.symbols,
            n_stocks=n,
            n_dates=T,
            ind=ind,
            doc=doc,
            mask=mask,
            neighbors=graph.neighbor_mask(panel.symbols),
            close=panel.close,
            calendar=panel.calendar,
        )


DROPPED = {  # the parameter groups each variant does not read (see "Variant wiring")
    "full": (), "glu_fusion": ("attn",), "ca_fusion": ("gate_b",),
    "drop_graph": ("gat", "fuse2"), "drop_docs": ("doc", "fuse1"),
    "drop_indicators": ("ind", "gat", "fuse2"),
}


class TrimodalModel:
    """Parameter container plus forward passes for every variant."""

    def __init__(self, cfg: TrainConfig, doc_dim: int, variant: str = "full"):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        cfg.validate()
        self.cfg = cfg
        self.variant = variant
        self.doc_dim = doc_dim
        self.params = ParamStore()
        d, dt = cfg.d, cfg.dtype

        def weight(name, shape, n_heads=1):
            """Glorot draws from the parameter's own stream, the heads side by side."""
            rng = np.random.default_rng([cfg.seed, *name.encode()])
            heads = [glorot(rng, shape, dt) for _ in range(n_heads)]
            return self.params.add(name, np.concatenate(heads, axis=1))

        def bias(name, width):
            return self.params.add(name, np.zeros((1, width), dtype=dt))

        def reads(*groups):
            return not set(groups) & set(DROPPED[variant])

        self.ind = IndicatorEncoderParams(
            w_close=weight("ind.close.w", (1, d)), b_close=bias("ind.close.b", d),
            w_open=weight("ind.open.w", (1, d)), b_open=bias("ind.open.b", d),
            w_high=weight("ind.high.w", (1, d)), b_high=bias("ind.high.b", d),
            w_mix=weight("ind.mix.w", (3 * d, d)), b_mix=bias("ind.mix.b", d),
        ) if reads("ind") else None
        self.doc = DocEncoderParams(
            w=weight("doc.w", (doc_dim, d)), b=bias("doc.b", d)
        ) if reads("doc") else None
        self.gat = GatParams(layers=[
            (weight(f"gat.l{li}.w", (d, d), cfg.gat_heads),
             weight(f"gat.l{li}.a", (2 * d, 1), cfg.gat_heads))
            for li in range(cfg.gat_layers)
        ]) if reads("gat") else None
        dh = cfg.effective_head_dim
        d_prime = cfg.heads * dh
        self.stages = []
        for stage in ("fuse1", "fuse2"):
            if not reads(stage):
                self.stages.append(None)
                continue
            attn = glu = w_b = b_b = None
            if reads("attn"):
                qkv = (weight(f"{stage}.{m}", (d, dh), cfg.heads) for m in ("wq", "wk", "wv"))
                attn = CrossAttnParams(*qkv, n_heads=cfg.heads)
            else:  # glu_fusion's map stands in for the attention
                glu = weight(f"{stage}.glu.w", (d, d_prime))
            w_a, b_a = weight(f"{stage}.gate.wa", (d_prime, d)), bias(f"{stage}.gate.ba", d)
            if reads("gate_b"):
                w_b, b_b = weight(f"{stage}.gate.wb", (d, d)), bias(f"{stage}.gate.bb", d)
            self.stages.append(FusionStageParams(attn, GateParams(w_a, b_a, w_b, b_b), glu))
        time_layers, feat_layers = [], []
        t_in = cfg.ws
        for i, t_out in enumerate(time_mlp_widths(cfg.ws)):
            time_layers.append(
                (weight(f"pred.time.l{i}.w", (t_in, t_out)), bias(f"pred.time.l{i}.b", t_out))
            )
            t_in = t_out
        f_in = 2 * d
        for i, f_out in enumerate(feature_mlp_widths(d)):
            feat_layers.append(
                (weight(f"pred.feat.l{i}.w", (f_in, f_out)), bias(f"pred.feat.l{i}.b", f_out))
            )
            f_in = f_out
        self.pred = PredictorParams(time_layers=time_layers, feat_layers=feat_layers)

    # -- batched path --------------------------------------------------

    def _calendar_features(self, packed: PackedPanel, r_lo: int, r_hi: int):
        """The indicator rows [ind, 1] and map [W; c], and the encoded document
        and graph rows, of date-major rows [r_lo, r_hi); None where the model
        holds no encoder."""
        ind = vd_cal = vg_cal = None
        if self.ind is not None:
            ind = encode_indicators(packed.ind[r_lo:r_hi], fold_indicators(self.ind))
        if self.doc is not None:
            vd_cal = encode_documents(
                Tensor(packed.doc[r_lo:r_hi]), packed.mask[r_lo:r_hi], self.doc
            )
        if self.gat is not None:  # layer 1 reads the indicator rows through the map
            rows, ind_map = ind
            vg_cal = block_gat_encode(rows, packed.neighbors, GatParams(self.gat.layers, ind_map))
        return ind, vd_cal, vg_cal

    def _fuse_blocks(self, query, kv, stage: FusionStageParams, block: int, diagnostics):
        """Stable output of a stage; with diagnostics also (unstable, stable, gate).

        `query` is a (tensor, index, map) triple and `kv` a (tensor, index)
        pair: window rows with index None, or calendar rows read through the
        B x t window index (see `forward_batch`); the map, if not None, is
        the query map the first layer reads its rows through. Every layer
        reads `kv` as given; layers after the first read the previous
        layer's window rows as their query, unmapped. The diagnostics are
        window rows: the last layer's gate and attention, which the stage op
        keeps for them, and the unstable feature recomputed from the latter.
        """
        kv, kv_idx = kv
        for _ in range(max(1, self.cfg.fusion_layers)):
            q, q_idx, q_map = query
            stable, gate, attn = block_cross_attention(
                q, kv, stage, block, query_index=q_idx, kv_index=kv_idx, query_map=q_map,
                diagnostics=diagnostics,
            )
            query = (stable, None, None)
        if not diagnostics:
            return stable, None
        if gate is None:  # ungated: the gate is 1
            gate = Tensor(np.ones_like(stable.values))
        return stable, (block_unstable(kv, stage, attn, kv_idx), stable, gate)

    def forward_batch(
        self,
        packed: PackedPanel,
        stock_idx: np.ndarray,
        start: np.ndarray,
        diagnostics: bool = False,
    ):
        """Logits (B x 3) for B windows; optionally per-stage fusion tensors.

        The stages read the calendar features through the B x t window index
        when the calendar slab has fewer rows than the batch gathers, as it
        has when windows overlap (consecutive starts, as in eval); otherwise
        they read gathered window rows.
        """
        t = self.cfg.ws
        n = packed.n_stocks
        stock_idx = np.asarray(stock_idx, dtype=np.intp)
        start = np.asarray(start, dtype=np.intp)
        lo = int(start.min())
        hi = int(start.max()) + t
        ind, vd_cal, vg_cal = self._calendar_features(packed, lo * n, hi * n)
        idx = (start[:, None] - lo + np.arange(t)[None, :]) * n + stock_idx[:, None]  # B x t
        from_source = (hi - lo) * n < idx.size

        def operand(cal):  # a calendar feature as a stage reads it
            return (cal, idx) if from_source else (ad.gather_rows(cal, idx), None)

        fused = None
        if ind is None:  # drop_indicators: the indicator branch reads zeros
            dt = self.cfg.dtype
            z, z_map = Tensor(np.zeros((idx.size, 1), dt)), Tensor(np.zeros((1, self.cfg.d), dt))
        else:
            # raw rows [ind, 1] and the map [W; c], read by the indicator
            # query of a stage and by the time reduction's indicator branch
            rows, z_map = ind
            z = Tensor(np.take(rows.values, idx.reshape(-1), axis=0))
            fused = (rows, idx, z_map) if from_source else (z, None, z_map)
        diag = {}
        if vd_cal is not None:
            docs = operand(vd_cal)
            stable, diag["stage1"] = self._fuse_blocks(
                fused or (*docs, None), docs, self.stages[0], t, diagnostics
            )
            fused = (stable, None, None)
        if vg_cal is not None:
            stable, diag["stage2"] = self._fuse_blocks(
                fused, operand(vg_cal), self.stages[1], t, diagnostics
            )
            fused = (stable, None, None)
        logits = aggregate_features(block_reduce_time(fused[0], z, z_map, self.pred, t), self.pred)
        if diagnostics:
            return logits, diag
        return logits

    def loss_batch(self, packed: PackedPanel, refs: np.recarray):
        logits = self.forward_batch(packed, refs.stock_index, refs.start)
        return cross_entropy_loss(logits, refs.label), logits

    def predict_part(
        self, packed: PackedPanel, refs: np.recarray, batch_size: int = 4096
    ) -> np.ndarray:
        """Predicted classes for window refs, in their order (no tape)."""
        out = np.empty(len(refs), dtype=np.int64)
        with ad.no_grad():
            for b in range(0, len(refs), batch_size):
                batch = refs[b : b + batch_size]
                logits = self.forward_batch(packed, batch.stock_index, batch.start)
                out[b : b + batch_size] = logits.values.argmax(axis=1)
        return out
