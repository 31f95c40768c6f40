"""Full trimodal model: parameters, batched forward pass, variant wiring.

The batched forward works on a date-major packing of the panel: all stocks'
feature rows for one calendar date sit together, so the indicator encoder
runs once over the whole calendar, the graph encoder runs once per date, and
every window is just a row-gather. Windows are then processed as row-stacked
blocks. The row-level work of each fusion stage layer is one tape node with
a hand-derived backward, `block_cross_attention`: attention (or the glu
map), the gate's two affine maps, sigmoid and product. Its d x d' weights
are folded into d x d maps by ordinary tape ops, which also carry the
gradient back to the stored factors. The time reduction transposes each
window and runs the time layers as generic affine ops over (window,
feature) rows. The d'-wide pre-gate feature is recomputed only for
`diagnostics=True`. The per-window reference forward that pins this path
for every variant lives in `tests/reference.py`.

Each multi-head projection is one parameter, the heads side by side:
`fuse{k}.wq/wk/wv` are d x d', `gat.l{i}.w` is d x K*d and `gat.l{i}.a`
is 2d x K. At init each head's glorot block is drawn in head order and the
blocks are concatenated.

Variant wiring:
  glu_fusion       attention replaced by a linear map of the kv modality
  ca_fusion        gate forced to 1 (pure cross-attention); no sigmoid runs
  drop_docs        no document features; stage 1 skipped
  drop_graph       no graph features; stage 2 skipped
  drop_indicators  indicator features zeroed, so the graph encoder has no
                   input and stage 2 is skipped; documents serve as the
                   stage-1 query/guide

A variant builds and gathers only the modalities it reads.
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
)
from .errors import CheckpointError, ConfigError
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

        A missing array, or one of another shape, raises CheckpointError.
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
        n, T = panel.n_stocks, panel.n_dates
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
        rng = np.random.default_rng(cfg.seed)
        d, dt = cfg.d, cfg.dtype
        store = self.params

        def weight(name, shape):
            return store.add(name, glorot(rng, shape, dt))

        def bias(name, width, rows=1):
            return store.add(name, np.zeros((rows, width), dtype=dt))

        def heads(names, shapes, n_heads):
            """One matrix per name: the heads' glorot draws, head-major, side by side."""
            draws = [[glorot(rng, shape, dt) for shape in shapes] for _ in range(n_heads)]
            return [store.add(nm, np.concatenate(b, axis=1)) for nm, b in zip(names, zip(*draws))]

        self.ind = IndicatorEncoderParams(
            w_close=weight("ind.close.w", (1, d)), b_close=bias("ind.close.b", d),
            w_open=weight("ind.open.w", (1, d)), b_open=bias("ind.open.b", d),
            w_high=weight("ind.high.w", (1, d)), b_high=bias("ind.high.b", d),
            w_mix=weight("ind.mix.w", (3 * d, d)), b_mix=bias("ind.mix.b", d),
        )
        self.doc = DocEncoderParams(w=weight("doc.w", (doc_dim, d)), b=bias("doc.b", d))
        self.gat = GatParams(
            layers=[
                heads((f"gat.l{li}.w", f"gat.l{li}.a"), ((d, d), (2 * d, 1)), cfg.gat_heads)
                for li in range(cfg.gat_layers)
            ]
        )
        dh = cfg.effective_head_dim
        d_prime = cfg.heads * dh
        self.stages = []
        for si in (1, 2):
            names = (f"fuse{si}.wq", f"fuse{si}.wk", f"fuse{si}.wv")
            attn = CrossAttnParams(*heads(names, [(d, dh)] * 3, cfg.heads), n_heads=cfg.heads)
            gate = GateParams(
                w_a=weight(f"fuse{si}.gate.wa", (d_prime, d)),
                b_a=bias(f"fuse{si}.gate.ba", d),
                w_b=weight(f"fuse{si}.gate.wb", (d, d)),
                b_b=bias(f"fuse{si}.gate.bb", d),
            )
            glu = weight(f"fuse{si}.glu.w", (d, d_prime)) if variant == "glu_fusion" else None
            self.stages.append(FusionStageParams(attn=attn, gate=gate, glu=glu))
        t_widths = time_mlp_widths(cfg.ws)
        f_widths = feature_mlp_widths(d)
        time_layers, feat_layers = [], []
        t_in = cfg.ws
        for i, t_out in enumerate(t_widths):
            time_layers.append(
                (weight(f"pred.time.l{i}.w", (t_in, t_out)), bias(f"pred.time.l{i}.b", t_out))
            )
            t_in = t_out
        f_in = 2 * d
        for i, f_out in enumerate(f_widths):
            feat_layers.append(
                (weight(f"pred.feat.l{i}.w", (f_in, f_out)), bias(f"pred.feat.l{i}.b", f_out))
            )
            f_in = f_out
        self.pred = PredictorParams(time_layers=time_layers, feat_layers=feat_layers)

    # -- batched path --------------------------------------------------

    def _calendar_features(self, packed: PackedPanel, r_lo: int, r_hi: int):
        """Encoded features of date-major rows [r_lo, r_hi), None where the variant reads none."""
        vi_cal = vd_cal = vg_cal = None
        if self.variant != "drop_indicators":
            vi_cal = encode_indicators(Tensor(packed.ind[r_lo:r_hi]), self.ind)
        if self.variant != "drop_docs":
            vd_cal = encode_documents(
                Tensor(packed.doc[r_lo:r_hi]), packed.mask[r_lo:r_hi], self.doc
            )
        if self.variant not in ("drop_graph", "drop_indicators"):
            vg_cal = block_gat_encode(vi_cal, packed.neighbors, self.gat)
        return vi_cal, vd_cal, vg_cal

    def _fuse_blocks(self, query, kv, guide, stage: FusionStageParams, block: int, diagnostics):
        """Stable output of a stage; with diagnostics also (unstable, stable, gate)."""
        gated = self.variant != "ca_fusion"
        for _ in range(max(1, self.cfg.fusion_layers)):
            stable, gate, attn = block_cross_attention(query, kv, guide, stage, block, gated)
            query = guide = stable
        if not diagnostics:
            return stable, None
        if gate is None:
            gate = Tensor(np.ones_like(stable.values))
        return stable, (block_unstable(kv, stage, attn), stable, gate)

    def forward_batch(
        self,
        packed: PackedPanel,
        stock_idx: np.ndarray,
        start: np.ndarray,
        diagnostics: bool = False,
    ):
        """Logits (B x 3) for B windows; optionally per-stage fusion tensors."""
        t = self.cfg.ws
        n = packed.n_stocks
        stock_idx = np.asarray(stock_idx, dtype=np.intp)
        start = np.asarray(start, dtype=np.intp)
        lo = int(start.min())
        hi = int(start.max()) + t
        vi_cal, vd_cal, vg_cal = self._calendar_features(packed, lo * n, hi * n)
        idx = (start[:, None] - lo + np.arange(t)[None, :]) * n + stock_idx[:, None]  # B x t
        if vi_cal is None:  # drop_indicators: the indicator branch reads zeros
            q_i = Tensor(np.zeros((idx.size, self.cfg.d), dtype=self.cfg.dtype))
        else:
            q_i = ad.gather_rows(vi_cal, idx)
        fused, diag = q_i, {}
        if vd_cal is not None:
            d_w = ad.gather_rows(vd_cal, idx)
            query = d_w if vi_cal is None else q_i
            fused, diag["stage1"] = self._fuse_blocks(
                query, d_w, query, self.stages[0], t, diagnostics
            )
        if vg_cal is not None:
            g_w = ad.gather_rows(vg_cal, idx)
            fused, diag["stage2"] = self._fuse_blocks(
                fused, g_w, fused, self.stages[1], t, diagnostics
            )
        h_fused = block_reduce_time(fused, self.pred, t)
        h_ind = block_reduce_time(q_i, self.pred, t)
        logits = aggregate_features(ad.concat_cols([h_fused, h_ind]), self.pred)
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
