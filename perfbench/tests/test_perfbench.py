"""The benchmark's own tests: tiny workloads, span arithmetic, traced metrics.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import trace, workloads
from perfbench.inputs import file_hashes, make_inputs

SEED = 1
TINY = {
    "train_base": dataclasses.replace(
        workloads.WORKLOADS["train_base"], n_stocks=30, n_days=150, n_sectors=10, dim=8, d=8,
        batch_size=64, epochs=3,
    ),
    "train_graph": dataclasses.replace(
        workloads.WORKLOADS["train_graph"], n_stocks=40, n_days=100, n_sectors=10, dim=8, d=8,
        batch_size=64, epochs=3,
    ),
    "ingest_eval": dataclasses.replace(
        workloads.WORKLOADS["ingest_eval"], n_stocks=6, n_days=50, n_sectors=2, dim=8, d=8,
    ),
    "embed_cache": dataclasses.replace(
        workloads.WORKLOADS["embed_cache"], n_stocks=2, n_days=10, dim=16,
    ),
}
TRAIN_LAYERS = ("fusion.", "encoders.", "autodiff.", "model.", "predictor.", "training.")


def run_tiny(name: str, tmp_path: Path, traced: bool) -> workloads.Outcome:
    spec = TINY[name]
    indir = tmp_path / "inputs"
    make_inputs(name, spec, SEED, indir)
    return workloads.run(name, spec, SEED, 0.0, indir, tmp_path, traced)


def test_tiny_specs_cover_every_workload():
    assert TINY.keys() == workloads.WORKLOADS.keys()
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= workloads.WORKLOADS.keys()
    assert [m["name"] for m in bench["per_layer"]] == list(workloads.per_layer_units())


@pytest.mark.parametrize("name", ["ingest_eval", "embed_cache"])
def test_inputs_depend_only_on_workload_and_seed(name, tmp_path):
    spec = TINY[name]
    make_inputs(name, spec, SEED, tmp_path / "a")
    make_inputs(name, spec, SEED, tmp_path / "b")
    make_inputs(name, spec, SEED + 1, tmp_path / "c")
    first = file_hashes(tmp_path / "a")
    assert first == file_hashes(tmp_path / "b")
    assert first["prices.csv"] != file_hashes(tmp_path / "c")["prices.csv"]


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_runs_and_passes_checks(name, tmp_path):
    out = run_tiny(name, tmp_path, traced=False)
    assert out.problems == []
    assert out.attempted > 0 and out.failed == 0
    for metric in ("setup_s", "items_per_s", "peak_rss_mb"):
        assert out.metrics[metric][0] > 0


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_synthetic_span_tree():
    # step [0, 10] holds fwd [1, 4] (with leaf [2, 3]) and bwd [5, 9]
    # (with leaf [6, 8]); a second step [11, 12] has no children
    tracer = trace.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12]))
    with tracer.span("step"):
        with tracer.span("fwd"):
            with tracer.span("leaf"):
                tracer.count("nodes", 2)
        with tracer.span("bwd"):
            with tracer.span("leaf"):
                pass
    with tracer.span("step"):
        tracer.count("nodes", 1)
    tracer.count("nodes", 100)  # outside any step: not attributed
    names = [s.name for s in tracer.spans]
    assert names == ["step", "fwd", "leaf", "bwd", "leaf", "step"]
    assert trace.self_times(tracer.spans) == [3, 2, 1, 2, 2, 1]
    totals = trace.unit_totals(tracer, "step")
    assert totals.units == 2
    assert totals.self_s == {"step": 4, "fwd": 2, "leaf": 3, "bwd": 2}
    assert totals.per_unit("leaf") == 1.5
    assert totals.count_per_unit("nodes") == 1.5
    assert trace.durations(tracer, "step") == [10, 1]


def test_self_time_clips_children_to_parent():
    spans = [trace.Span("a", 0.0, 4.0, -1), trace.Span("b", 1.0, 2.0, 0),
             trace.Span("c", 1.5, 3.0, 0)]
    assert trace.self_times(spans) == [2.0, 1.0, 1.5]


def test_spans_must_close_in_order():
    tracer = trace.Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_instrumented_restores_the_package():
    from stockfuse import autodiff, model, training

    before = (autodiff.node, model.block_gat_encode, training.adam_step,
              model.PackedPanel.__dict__["from_panel"], model.TrimodalModel.forward_batch)
    with trace.instrumented(trace.Tracer()):
        assert autodiff.node is not before[0]
    after = (autodiff.node, model.block_gat_encode, training.adam_step,
             model.PackedPanel.__dict__["from_panel"], model.TrimodalModel.forward_batch)
    assert after == before


@pytest.fixture(scope="module")
def traced_train(tmp_path_factory):
    return run_tiny("train_graph", tmp_path_factory.mktemp("traced"), traced=True)


def test_traced_run_reports_every_layer_metric(traced_train):
    assert traced_train.problems == []
    metrics = traced_train.metrics
    for name, unit in workloads.per_layer_units().items():
        assert metrics[name][1] == unit
        runs_here = name.startswith(TRAIN_LAYERS) or name.startswith("container.") or (
            name.startswith("data.") and name != "data.load_split_s"
        )
        if runs_here:
            assert metrics[name][0] > 0, name
    assert metrics["encoders.gat.edge_ratio"][0] < 1
    assert 0 < metrics["model.calendar_row_use"][0] <= 1
    assert 0 < metrics["trace.throughput_ratio"][0]


def test_traced_ingest_reports_embed_data_and_container_layers(tmp_path):
    out = run_tiny("ingest_eval", tmp_path, traced=True)
    assert out.problems == []
    for name in ("embed.build_table_s", "embed.embed_texts.calls", "embed.embed_texts_s",
                 "data.load_split_s", "container.load_checkpoint_s", "model.packed_panel_s",
                 "fusion.stage1.attn.fwd_s", "encoders.gat.fwd_s"):
        assert out.metrics[name][0] > 0, name
    assert out.metrics["fusion.stage1.attn.bwd_s"][0] == 0
    assert out.metrics["autodiff.tape_nodes"][0] == 0


def test_layer_time_per_step_within_step_wall_time(tmp_path):
    spec = TINY["train_graph"]
    indir = tmp_path / "inputs"
    make_inputs("train_graph", spec, SEED, indir)
    cfg = spec.train_config(SEED)
    split, graph = workloads.load_and_build(indir, cfg)
    tracer = trace.Tracer()
    with trace.instrumented(tracer):
        workloads.training.train_model(split, graph, cfg)
    values = workloads.layer_metrics(tracer, "training.step", {})
    layer_sum = sum(values[m] for _, fwd, bwd in workloads.LAYER_SPANS for m in (fwd, bwd))
    layer_sum += sum(values[m] for m in
                     ("autodiff.backward.self_s", "training.adam_s", "training.zero_grads_s"))
    assert layer_sum > 0
    assert layer_sum <= trace.mean_duration(tracer, "training.step")
