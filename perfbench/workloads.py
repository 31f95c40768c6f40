"""The four benchmark workloads and the metrics they report.

Each workload drives `stockfuse` only through its public functions, the way
`stockfuse train`, `stockfuse eval` and `stockfuse embed` do, one call at a
time (closed loop). Timed calls repeat until the run's measuring time is
spent; every call's output is checked, and a call whose check fails counts
as a failed operation.

Why these workloads:
  train_base   fusion attention dominates the training step (small n, GAT cheap)
  train_graph  dense n x n GAT over many stocks dominates; covers float32
  ingest_eval  embed, data and container layers plus a forward-only model
               with no tape; embeds only the latest day's documents
  embed_cache  the embed layer alone, every document-day embedded

BENCHMARK.json lists train_graph and ingest_eval. On a shared 2-vCPU
machine train_base runs take 40 s, more than the regression runs' time
budget allows, and embed_cache's pure-Python throughput swings by up to 2x
between runs; both stay runnable by name.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stockfuse import data, embed, metrics, model, training

from . import trace
from .inputs import EMBED_MODEL, Spec

WORKLOADS = {
    "train_base": Spec("train", n_stocks=50, n_days=560, n_sectors=5, dim=64),
    "train_graph": Spec("train", n_stocks=200, n_days=150, n_sectors=10, dim=64,
                        precision="float32"),
    "ingest_eval": Spec("ingest", n_stocks=100, n_days=250, n_sectors=10, dim=64),
    "embed_cache": Spec("embed", n_stocks=4, n_days=31, n_sectors=1, dim=256),
}

LABEL_SPEC = (-0.01, 0.01)
# Speed on a shared machine swings by up to 2x for seconds at a time, so the
# short calls are repeated and their median reported
SETUP_REPEATS = 3
EVAL_REPEATS = 5
EMBED_REPEATS = 7
MIB = float(1 << 20)

# (span, forward metric, backward metric); time per unit (training step or
# eval batch), self time only, so the layers partition the unit's time
LAYER_SPANS = [
    ("fusion.stage1.attn", "fusion.stage1.attn.fwd_s", "fusion.stage1.attn.bwd_s"),
    ("fusion.stage2.attn", "fusion.stage2.attn.fwd_s", "fusion.stage2.attn.bwd_s"),
    ("encoders.indicators", "encoders.indicators.fwd_s", "encoders.indicators.bwd_s"),
    ("encoders.documents", "encoders.documents.fwd_s", "encoders.documents.bwd_s"),
    ("encoders.gat", "encoders.gat.fwd_s", "encoders.gat.bwd_s"),
    ("autodiff.gather_rows", "autodiff.gather_rows.fwd_s", "autodiff.gather_rows.bwd_s"),
    ("autodiff.sigmoid", "autodiff.sigmoid.fwd_s", "autodiff.sigmoid.bwd_s"),
    ("model.forward_batch", "model.forward_batch.self_fwd_s", "model.forward_batch.self_bwd_s"),
    ("predictor.reduce_time", "predictor.reduce_time.fwd_s", "predictor.reduce_time.bwd_s"),
    ("predictor.head", "predictor.head.fwd_s", "predictor.head.bwd_s"),
    ("predictor.loss", "predictor.loss.fwd_s", "predictor.loss.bwd_s"),
]

# per-layer metrics that are not span pairs, with their units
OTHER_LAYER_METRICS = {
    "encoders.gat.scores": "count",
    "encoders.gat.edge_ratio": "ratio",
    "autodiff.backward.self_s": "s",
    "autodiff.tape_nodes": "count",
    "autodiff.tape_mb": "MiB",
    "model.packed_panel_s": "s",
    "model.calendar_row_use": "ratio",
    "training.step_s": "s",
    "training.steps": "count",
    "training.adam_s": "s",
    "training.zero_grads_s": "s",
    "training.valid_eval_s": "s",
    "training.step_peak_mb": "MiB",
    "data.load_prices_s": "s",
    "data.load_documents_s": "s",
    "data.load_embeddings_s": "s",
    "data.build_dataset_s": "s",
    "data.save_split_s": "s",
    "data.load_split_s": "s",
    "data.batch_iter_s": "s",
    "data.windows": "count",
    "container.save_checkpoint_s": "s",
    "container.load_checkpoint_s": "s",
    "container.checkpoint_bytes": "bytes",
    "container.split_bytes": "bytes",
    "embed.build_table_s": "s",
    "embed.embed_texts.calls": "count",
    "embed.embed_texts_s": "s",
    "trace.throughput_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, fwd, bwd in LAYER_SPANS:
        units[fwd] = "s"
        units[bwd] = "s"
    units.update(OTHER_LAYER_METRICS)
    return units


@dataclass
class Outcome:
    """What a run measured and whether its outputs were right."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, *checks: tuple[bool, str]) -> None:
        """Count one operation; it failed if any of its (ok, message) checks did."""
        failures = [what for ok, what in checks if not ok]
        self.attempted += 1
        self.failed += bool(failures)
        self.problems += failures

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _keep_going(started: float, seconds: float, last: float) -> bool:
    """Start another call only if it should end within the measuring time."""
    return time.perf_counter() - started + last <= seconds


# ---------------------------------------------------------------------------
# pipelines, composed from the package's public functions as the CLI does


def load_and_build(indir: Path, cfg, embeddings: Path | None = None):
    series = data.load_prices(indir / "prices.csv")
    docs = data.load_documents(indir / "documents.jsonl")
    table = data.load_embeddings(embeddings or indir / "embeddings.jsonl")
    graph = data.load_graph(indir / "graph.tsv", stocks=[s.symbol for s in series])
    split = data.build_dataset(series, docs, table, graph, ws=cfg.ws, label_spec=LABEL_SPEC)
    return split, graph


def evaluate_on_test(mdl, split, graph, dtype):
    packed = model.PackedPanel.from_panel(split.panel, graph, dtype)
    preds = mdl.predict_part(packed, split.test)
    labels = np.array([s.label for s in split.test], dtype=np.int64)
    cm = metrics.confusion_matrix(labels, preds)
    return metrics.accuracy(cm), metrics.mcc(cm), metrics.chance_band(labels)


def _train_once(split, graph, cfg, ckpt: Path):
    (mdl, history), seconds = _timed(
        training.train_model, split, graph, cfg, checkpoint_path=ckpt
    )
    return mdl, history, len(split.train) * cfg.epochs / seconds


def _check_training(out: Outcome, mdl, history, split, graph, cfg, reference):
    """Finite losses, better than chance on test, same history as `reference`.

    The chance-band check also catches a model whose single-unit time
    reduction ReLU is dead (at initialisation or after the first steps):
    its loss stays at ln 3 and it predicts one class, whatever the data.

    Returns (loss history, test MCC), the reference for later calls.
    """
    losses = [h.train_loss for h in history]
    acc, mcc, band = evaluate_on_test(mdl, split, graph, cfg.dtype)
    result = (losses, mcc)
    out.record(
        (all(math.isfinite(x) for x in losses), f"non-finite training loss: {losses}"),
        (acc > band, f"test accuracy {acc:.4f} not above chance band {band:.4f}"),
        (reference in (None, result), f"training not deterministic: {result} vs {reference}"),
    )
    return result


def run_train(name: str, spec: Spec, seed: int, seconds: float, indir: Path, work: Path,
              traced: bool) -> Outcome:
    out = Outcome()
    cfg = spec.train_config(seed)
    split_path, ckpt = work / "split.sfb", work / "checkpoint.sfb"
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        split, graph = load_and_build(indir, cfg)
        data.save_split(split_path, split, graph)
        setups.append(time.perf_counter() - t0)
    out.put("setup_s", statistics.median(setups), "s")
    started = time.perf_counter()
    rates, reference = [], None
    last = 0.0
    while not rates or _keep_going(started, seconds, last):
        t0 = time.perf_counter()
        mdl, history, rate = _train_once(split, graph, cfg, ckpt)
        last = time.perf_counter() - t0
        reference = _check_training(out, mdl, history, split, graph, cfg, reference)
        rates.append(rate)
    out.put("items_per_s", statistics.median(rates), "1/s")
    out.put("train_windows_per_s", statistics.median(rates), "1/s")
    out.put("test_mcc", reference[1], "1")
    if traced:
        _trace_train(out, split, graph, cfg, indir, work, statistics.median(rates), reference)
    out.put("peak_rss_mb", peak_rss_mb(), "MiB")
    return out


def _trace_train(out, split, graph, cfg, indir, work, untraced_rate, reference):
    tracer = trace.Tracer()
    split_path, ckpt = work / "split.sfb", work / "checkpoint.sfb"
    with trace.instrumented(tracer):
        data.save_split(split_path, *load_and_build(indir, cfg))
        mdl, history, rate = _train_once(split, graph, cfg, ckpt)
        training.model_from_checkpoint(ckpt)
    _check_training(out, mdl, history, split, graph, cfg, reference)
    extra = {
        "training.step_peak_mb": _step_peak_mb(mdl, split, graph, cfg),
        "data.batch_iter_s": sum(trace.durations(tracer, "data.batch_iter")) / cfg.epochs,
        "data.windows": len(split.train) + len(split.valid) + len(split.test),
        "container.checkpoint_bytes": ckpt.stat().st_size,
        "container.split_bytes": split_path.stat().st_size,
        "trace.throughput_ratio": rate / untraced_rate,
    }
    _put_layers(out, tracer, "training.step", extra)


def _step_peak_mb(mdl, split, graph, cfg) -> float:
    """Traced peak of one full training step (zero, forward, backward, Adam)."""
    packed = model.PackedPanel.from_panel(split.panel, graph, cfg.dtype)
    batch = next(data.batch_iter(split.train, cfg.batch_size, cfg.seed, 1))
    tracemalloc.start()
    try:
        mdl.params.zero_grads()
        loss, _ = mdl.loss_batch(packed, batch)
        loss.backward()
        training.adam_step(mdl.params, cfg.lr, 1)
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def _table_copy(indir: Path, work: Path) -> Path:
    """A fresh copy of the input embeddings table, for `_embed` to extend."""
    target = work / "embeddings.jsonl"
    shutil.copyfile(indir / "embeddings.jsonl", target)
    return target


def _embed(indir: Path, target: Path, spec: Spec):
    """`stockfuse embed`: add the documents' pooled vectors to `target`.

    Returns the documents and the seconds spent in build_embedding_table.
    """
    provider = embed.ProviderConfig(
        backend="file", endpoint=str(indir / "text_cache.jsonl"), dim=spec.dim, model=EMBED_MODEL
    )
    days = data.load_documents(indir / "documents.jsonl")
    _, seconds = _timed(embed.build_embedding_table, days, provider, out_path=target)
    return days, seconds


def expected_vectors(indir: Path, days) -> dict[tuple[str, str], np.ndarray]:
    """The pooled vector of every document-day whose texts are in the cache."""
    cache = {}
    with open(indir / "text_cache.jsonl") as fh:
        for line in fh:
            obj = json.loads(line)
            cache[obj["key"]] = np.asarray(obj["vector"], dtype=np.float64)
    keys = {(d.symbol, d.date): [embed.text_cache_key(EMBED_MODEL, t) for t in d.texts]
            for d in days}
    return {day: np.mean([cache[k] for k in ks], axis=0)
            for day, ks in keys.items() if ks and all(k in cache for k in ks)}


def _ingest_cycle(indir: Path, work: Path, cfg, spec: Spec):
    """Files on disk to a ready split and model, timed.

    Embeds the documents the input table lacks, then loads, builds, saves
    and reloads the split and the checkpoint. Returns the reloaded split,
    model and packed panel, the in-memory split and graph they were saved
    from, the documents and the time taken.
    """
    target = _table_copy(indir, work)
    t0 = time.perf_counter()
    days, _ = _embed(indir, target, spec)
    split, graph = load_and_build(indir, cfg, embeddings=target)
    data.save_split(work / "split.sfb", split, graph)
    loaded, loaded_graph = data.load_split(work / "split.sfb")
    mdl, ckpt = training.model_from_checkpoint(indir / "init.ckpt")
    packed = model.PackedPanel.from_panel(loaded.panel, loaded_graph, ckpt.config.dtype)
    return loaded, mdl, packed, (split, graph), days, time.perf_counter() - t0


def _panel_holds(panel, vectors) -> bool:
    """Whether the panel's document rows equal `vectors`, by (symbol, date)."""
    stock = {s: i for i, s in enumerate(panel.symbols)}
    date = {d: t for t, d in enumerate(panel.calendar)}
    return bool(vectors) and all(
        np.array_equal(panel.doc_emb[stock[s], date[d]], v) for (s, d), v in vectors.items()
    )


def _eval_rates(mdl, packed, part, out: Outcome, expected, embedded: bool) -> list[float]:
    rates = []
    for _ in range(EVAL_REPEATS):
        preds, dt = _timed(mdl.predict_part, packed, part)
        out.record(
            (np.array_equal(preds, expected),
             "predictions from the reloaded split and checkpoint differ from in-memory ones"),
            (embedded, "newly embedded document vectors differ from the text cache"),
        )
        rates.append(len(part) / dt)
    return rates


def _in_memory_predictions(split, graph, cfg) -> np.ndarray:
    """Test predictions of a fresh model on a split that never touched disk."""
    mdl = model.TrimodalModel(cfg, doc_dim=split.panel.dim)
    packed = model.PackedPanel.from_panel(split.panel, graph, cfg.dtype)
    return mdl.predict_part(packed, split.test)


def run_ingest(name: str, spec: Spec, seed: int, seconds: float, indir: Path, work: Path,
               traced: bool) -> Outcome:
    out = Outcome()
    cfg = spec.train_config(seed)
    expected = vectors = None
    setups, rates = [], []
    started = time.perf_counter()
    last = 0.0
    while len(setups) < SETUP_REPEATS or _keep_going(started, seconds, last):
        t0 = time.perf_counter()
        split, mdl, packed, in_memory, days, setup = _ingest_cycle(indir, work, cfg, spec)
        if expected is None:
            expected = _in_memory_predictions(*in_memory, cfg)
            vectors = expected_vectors(indir, days)
        setups.append(setup)
        embedded = _panel_holds(split.panel, vectors)
        rates += _eval_rates(mdl, packed, split.test, out, expected, embedded)
        last = time.perf_counter() - t0
    out.put("setup_s", statistics.median(setups), "s")
    out.put("items_per_s", statistics.median(rates), "1/s")
    out.put("eval_windows_per_s", statistics.median(rates), "1/s")
    if traced:
        tracer = trace.Tracer()
        with trace.instrumented(tracer):
            split, mdl, packed, _, _, _ = _ingest_cycle(indir, work, cfg, spec)
            embedded = _panel_holds(split.panel, vectors)
            traced_rates = _eval_rates(mdl, packed, split.test, out, expected, embedded)
        extra = {
            "data.windows": len(split.train) + len(split.valid) + len(split.test),
            "container.checkpoint_bytes": (indir / "init.ckpt").stat().st_size,
            "container.split_bytes": (work / "split.sfb").stat().st_size,
            "trace.throughput_ratio": statistics.median(traced_rates) / statistics.median(rates),
        }
        _put_layers(out, tracer, "model.forward_batch", extra)
    out.put("peak_rss_mb", peak_rss_mb(), "MiB")
    return out


def _embed_cycle(indir: Path, work: Path, spec: Spec):
    """Documents to a reloaded table; returns it, the documents and times."""
    target = _table_copy(indir, work)
    t0 = time.perf_counter()
    days, build = _embed(indir, target, spec)
    table = data.load_embeddings(target, dim=spec.dim)
    return table, days, build, time.perf_counter() - t0


def _table_holds(table, vectors) -> bool:
    return table.entries.keys() == vectors.keys() and all(
        np.array_equal(v, vectors[k]) for k, v in table.entries.items()
    )


def run_embed(name: str, spec: Spec, seed: int, seconds: float, indir: Path, work: Path,
              traced: bool) -> Outcome:
    out = Outcome()
    vectors = None
    setups, rates = [], []
    started = time.perf_counter()
    last = 0.0
    while len(setups) < EMBED_REPEATS or _keep_going(started, seconds, last):
        t0 = time.perf_counter()
        table, days, build, setup = _embed_cycle(indir, work, spec)
        last = time.perf_counter() - t0
        vectors = vectors or expected_vectors(indir, days)
        out.record((_table_holds(table, vectors), "written embeddings table differs from cache"))
        setups.append(setup)
        rates.append(len(vectors) / build)
    out.put("setup_s", statistics.median(setups), "s")
    out.put("items_per_s", statistics.median(rates), "1/s")
    out.put("embed_days_per_s", statistics.median(rates), "1/s")
    if traced:
        tracer = trace.Tracer()
        with trace.instrumented(tracer):
            table, _, build, _ = _embed_cycle(indir, work, spec)
        out.record((_table_holds(table, vectors), "traced embeddings table differs from cache"))
        extra = {"trace.throughput_ratio": len(vectors) / build / statistics.median(rates)}
        _put_layers(out, tracer, None, extra)
    out.put("peak_rss_mb", peak_rss_mb(), "MiB")
    return out


RUNNERS = {"train": run_train, "ingest": run_ingest, "embed": run_embed}


def run(name: str, spec: Spec, seed: int, seconds: float, indir: Path, work: Path,
        traced: bool) -> Outcome:
    return RUNNERS[spec.kind](name, spec, seed, seconds, indir, work, traced)


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run


def layer_metrics(tracer: trace.Tracer, unit: str | None, extra: dict) -> dict[str, float]:
    """Every per-layer metric; a layer that did not run reads 0."""
    totals = trace.unit_totals(tracer, unit) if unit else trace.UnitTotals(0, {}, {})
    values: dict[str, float] = {}
    for span, fwd, bwd in LAYER_SPANS:
        values[fwd] = totals.per_unit(span)
        values[bwd] = totals.per_unit(span + trace.BWD)
    scores = totals.counts.get("encoders.gat.scores", 0.0)
    encoded = totals.counts.get("model.rows_encoded", 0.0)
    embed_builds = len(trace.durations(tracer, "embed.build_table"))
    values.update({
        "encoders.gat.scores": totals.count_per_unit("encoders.gat.scores"),
        "encoders.gat.edge_ratio": totals.counts.get("encoders.gat.edges", 0.0) / scores
        if scores else 0.0,
        "autodiff.backward.self_s": totals.per_unit("autodiff.backward"),
        "autodiff.tape_nodes": totals.count_per_unit("autodiff.tape_nodes"),
        "autodiff.tape_mb": totals.count_per_unit("autodiff.tape_bytes") / MIB,
        "model.packed_panel_s": trace.mean_duration(tracer, "model.packed_panel"),
        "model.calendar_row_use": totals.counts.get("model.rows_gathered", 0.0) / encoded
        if encoded else 0.0,
        "training.step_s": trace.median_duration(tracer, "training.step"),
        "training.steps": len(trace.durations(tracer, "training.step")),
        "training.adam_s": totals.per_unit("training.adam"),
        "training.zero_grads_s": totals.per_unit("training.zero_grads"),
        "training.valid_eval_s": trace.mean_duration(tracer, "training.valid_eval"),
        "container.save_checkpoint_s": trace.mean_duration(tracer, "container.save_checkpoint"),
        "container.load_checkpoint_s": trace.mean_duration(tracer, "container.load_checkpoint"),
        "embed.build_table_s": trace.mean_duration(tracer, "embed.build_table"),
        "embed.embed_texts.calls": len(trace.durations(tracer, "embed.embed_texts"))
        / embed_builds if embed_builds else 0.0,
        "embed.embed_texts_s": trace.median_duration(tracer, "embed.embed_texts"),
    })
    for attr in ("load_prices", "load_documents", "load_embeddings", "build_dataset",
                 "save_split", "load_split"):
        values[f"data.{attr}_s"] = trace.mean_duration(tracer, f"data.{attr}")
    units = per_layer_units()
    for key in units:
        values.setdefault(key, 0.0)
    values.update(extra)
    return {key: float(values[key]) for key in units}


def _put_layers(out: Outcome, tracer, unit, extra) -> None:
    units = per_layer_units()
    for key, value in layer_metrics(tracer, unit, extra).items():
        out.put(key, value, units[key])
