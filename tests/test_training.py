import numpy as np
import numpy.testing as npt
import pytest

from perfbench.trace import Tracer, instrumented
from stockfuse.config import TrainConfig
from stockfuse.container import load_bundle, save_bundle
from stockfuse.data import build_dataset
from stockfuse.errors import CheckpointError
from stockfuse.model import TrimodalModel
from stockfuse.synth import synth_dataset
from stockfuse.training import load_checkpoint, model_from_checkpoint, save_checkpoint, train_model


@pytest.fixture(scope="module")
def tiny_split():
    series, days, table, graph, _ = synth_dataset(5, 60, 6, 4.0, 0.2, 0.1, 2, seed=4)
    split = build_dataset(series, days, table, graph, ws=6, label_spec=(-0.01, 0.01))
    return split, graph


def tiny_config():
    return TrainConfig(d=6, ws=6, heads=2, gat_heads=2, batch_size=64, lr=5e-3, epochs=1, seed=3)


def history_rows(history):
    return np.array([[h.train_loss, h.valid_acc, h.valid_mcc] for h in history])


def test_traced_training_records_benchmark_spans(tiny_split):
    """The benchmark's tracer patches these names; renaming one breaks it."""
    split, graph = tiny_split
    tracer = Tracer()
    with instrumented(tracer):
        _, traced = train_model(split, graph, tiny_config())
    names = {s.name for s in tracer.spans}
    for name in ("fusion.stage1.attn", "fusion.stage2.attn", "encoders.gat", "training.step",
                 "autodiff.gather_rows", "autodiff.gather_rows.bwd"):
        assert name in names, name
    _, untraced = train_model(split, graph, tiny_config())
    npt.assert_array_equal(history_rows(traced), history_rows(untraced))


def _save_fresh(path, cfg, doc_dim):
    model = TrimodalModel(cfg, doc_dim=doc_dim)
    save_checkpoint(
        path, model, epoch=0, step=0, best_valid_mcc=float("-inf"), best_epoch=0,
        best_snap=model.params.snapshot(), history=[],
    )
    return model


def test_checkpoint_records_head_version(tmp_path):
    cfg = tiny_config()
    model = _save_fresh(tmp_path / "ok.ckpt", cfg, doc_dim=6)
    arrays, meta = load_bundle(tmp_path / "ok.ckpt")
    assert meta["head_version"] == 2
    for name in ("fuse1.h0.wq", "fuse1.h1.wv", "fuse2.gate.wa", "fuse2.gate.bb"):
        assert f"param/{name}" in arrays
    loaded, _ = model_from_checkpoint(tmp_path / "ok.ckpt")
    for name, values in model.params.snapshot().items():
        npt.assert_array_equal(loaded.params[name].values, values)


def test_checkpoint_without_head_version_refused(tmp_path):
    path = tmp_path / "old.ckpt"
    _save_fresh(path, tiny_config(), doc_dim=6)
    arrays, meta = load_bundle(path)
    del meta["head_version"]
    save_bundle(path, arrays, meta)
    with pytest.raises(CheckpointError, match="head version 1"):
        load_checkpoint(path)
