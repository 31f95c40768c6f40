"""Timed spans recorded from outside the `stockfuse` package.

`Tracer` keeps spans in memory: a name, a start and end on one clock, and
the index of the span that was open when it began. `instrumented` wraps the
package's public functions in spans for the length of a `with` block and
restores the originals afterwards, so an untraced run executes the package
exactly as shipped.

Backward time is attributed through `autodiff.node`: the wrapper tags each
backward closure with the innermost span open when its node was created, so
the closure runs under a `<creator>.bwd` span when `Tensor.backward` walks
the tape.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

BWD = ".bwd"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root


@dataclass
class Count:
    name: str
    value: float
    parent: int  # span open when the count was taken, -1 at the root


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: list[Count] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def count(self, name: str, value: float) -> None:
        self.counts.append(Count(name, float(value), self._stack[-1] if self._stack else -1))

    def close_all(self) -> None:
        """End every open span, innermost first (after an exception)."""
        while self._stack:
            self.end(self._stack[-1])


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def enclosing(spans: list[Span], idx: int, name: str) -> int:
    """Index of the nearest span named `name` at or above `idx`, else -1."""
    while idx >= 0:
        if spans[idx].name == name:
            return idx
        idx = spans[idx].parent
    return -1


@dataclass
class UnitTotals:
    """Span self time and counts summed over the spans inside unit spans."""

    units: int
    self_s: dict[str, float]
    counts: dict[str, float]

    def per_unit(self, name: str) -> float:
        return self.self_s.get(name, 0.0) / self.units if self.units else 0.0

    def count_per_unit(self, name: str) -> float:
        return self.counts.get(name, 0.0) / self.units if self.units else 0.0


def unit_totals(tracer: Tracer, unit: str) -> UnitTotals:
    """Sum self times and counts by name over everything inside `unit` spans.

    A unit is one training step or one eval batch; per-layer metrics are
    these sums divided by the number of units.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    inside = [enclosing(spans, i, unit) >= 0 for i in range(len(spans))]
    totals: dict[str, float] = {}
    for s, st, ok in zip(spans, selfs, inside):
        if ok:
            totals[s.name] = totals.get(s.name, 0.0) + st
    counts: dict[str, float] = {}
    for c in tracer.counts:
        if c.parent >= 0 and inside[c.parent]:
            counts[c.name] = counts.get(c.name, 0.0) + c.value
    n_units = sum(1 for s in spans if s.name == unit)
    return UnitTotals(units=n_units, self_s=totals, counts=counts)


def durations(tracer: Tracer, name: str) -> list[float]:
    return [s.end - s.start for s in tracer.spans if s.name == name]


def mean_duration(tracer: Tracer, name: str) -> float:
    d = durations(tracer, name)
    return statistics.fmean(d) if d else 0.0


def median_duration(tracer: Tracer, name: str) -> float:
    d = durations(tracer, name)
    return statistics.median(d) if d else 0.0


# ---------------------------------------------------------------------------
# instrumentation of the package's public functions


def _timed(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the package's layer entry points in spans inside the block."""
    from stockfuse import autodiff as ad
    from stockfuse import data, embed, model, training

    with contextlib.ExitStack() as restore:
        restore.callback(tracer.close_all)

        def patch(owner, attr, replacement):
            restore.callback(setattr, owner, attr, owner.__dict__[attr])
            setattr(owner, attr, replacement)

        def timed(owner, attr, name):
            patch(owner, attr, _timed(tracer, name, getattr(owner, attr)))

        # autodiff: tag every backward closure with the span that created it
        orig_node = ad.node

        def node(values, parents, backward):
            creator = tracer.current()
            if creator is not None and backward is not None:
                bwd_name = creator + BWD
                inner = backward

                def backward(g):
                    with tracer.span(bwd_name):
                        inner(g)

            out = orig_node(values, parents, backward)
            if out.requires_grad:
                tracer.count("autodiff.tape_nodes", 1)
                tracer.count("autodiff.tape_bytes", values.nbytes)
            return out

        patch(ad, "node", node)
        timed(ad, "gather_rows", "autodiff.gather_rows")
        timed(ad, "sigmoid", "autodiff.sigmoid")
        timed(ad.Tensor, "backward", "autodiff.backward")

        # model: forward_batch, with the fusion stages named by call order
        attn_calls = [0]
        orig_attn = model.block_cross_attention

        def block_cross_attention(*args, **kwargs):
            attn_calls[0] += 1
            with tracer.span(f"fusion.stage{attn_calls[0]}.attn"):
                return orig_attn(*args, **kwargs)

        patch(model, "block_cross_attention", block_cross_attention)

        orig_forward = model.TrimodalModel.forward_batch

        def forward_batch(self, packed, stock_idx, start, diagnostics=False):
            stock_idx = np.asarray(stock_idx, dtype=np.intp)
            start = np.asarray(start, dtype=np.intp)
            t, n = self.cfg.ws, packed.n_stocks
            lo = int(start.min())
            offsets = (start[:, None] - lo + np.arange(t)[None, :]) * n + stock_idx[:, None]
            gathered = np.unique(offsets).size
            encoded = (int(start.max()) + t - lo) * n
            with tracer.span("model.forward_batch"):
                tracer.count("model.rows_gathered", gathered)
                tracer.count("model.rows_encoded", encoded)
                attn_calls[0] = 0
                return orig_forward(self, packed, stock_idx, start, diagnostics)

        patch(model.TrimodalModel, "forward_batch", forward_batch)
        timed(model.TrimodalModel, "predict_part", "model.predict_part")

        orig_from_panel = model.PackedPanel.from_panel.__func__

        def from_panel(cls, *args, **kwargs):
            with tracer.span("model.packed_panel"):
                return orig_from_panel(cls, *args, **kwargs)

        patch(model.PackedPanel, "from_panel", classmethod(from_panel))

        # encoders and predictor, as the model module calls them
        timed(model, "encode_indicators", "encoders.indicators")
        timed(model, "encode_documents", "encoders.documents")
        orig_gat = model.block_gat_encode

        def block_gat_encode(features_st, neighbors, params):
            n = neighbors.shape[0]
            dates = features_st.rows // n
            heads = params.n_heads * params.n_layers
            with tracer.span("encoders.gat"):
                tracer.count("encoders.gat.scores", heads * dates * n * n)
                tracer.count("encoders.gat.edges", heads * dates * int(np.count_nonzero(neighbors)))
                return orig_gat(features_st, neighbors, params)

        patch(model, "block_gat_encode", block_gat_encode)
        timed(model, "block_reduce_time", "predictor.reduce_time")
        timed(model, "aggregate_features", "predictor.head")
        timed(model, "cross_entropy_loss", "predictor.loss")

        # training loop: a step runs from zero_grads to the end of adam_step
        orig_zero = model.ParamStore.zero_grads
        step_span = [-1]

        def zero_grads(self):
            if step_span[0] < 0:
                step_span[0] = tracer.begin("training.step")
            with tracer.span("training.zero_grads"):
                orig_zero(self)

        orig_adam = training.adam_step

        def adam_step(*args, **kwargs):
            with tracer.span("training.adam"):
                orig_adam(*args, **kwargs)
            if step_span[0] >= 0:
                tracer.end(step_span[0])
                step_span[0] = -1

        patch(model.ParamStore, "zero_grads", zero_grads)
        patch(training, "adam_step", adam_step)
        timed(training, "evaluate_part", "training.valid_eval")
        timed(training, "save_checkpoint", "container.save_checkpoint")
        timed(training, "load_checkpoint", "container.load_checkpoint")

        orig_batches = training.batch_iter

        def batch_iter(*args, **kwargs):
            gen = orig_batches(*args, **kwargs)
            while True:
                with tracer.span("data.batch_iter"):
                    batch = next(gen, None)
                if batch is None:
                    return
                yield batch

        patch(training, "batch_iter", batch_iter)

        # data and embed layers, as the benchmark and the package call them
        for attr in ("load_prices", "load_documents", "load_embeddings", "build_dataset",
                     "save_split", "load_split"):
            timed(data, attr, f"data.{attr}")
        timed(embed, "build_embedding_table", "embed.build_table")
        timed(embed, "embed_texts", "embed.embed_texts")
        yield tracer
