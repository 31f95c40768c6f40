import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from perfbench.trace import Tracer, instrumented
from stockfuse.config import VARIANTS, TrainConfig, load_run_config
from stockfuse.container import load_bundle, save_bundle
from stockfuse.data import build_dataset
from stockfuse import autodiff as ad
from stockfuse.errors import CheckpointError, DataError, NumericError
from stockfuse import training
from stockfuse.model import PackedPanel, TrimodalModel
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


def test_nan_read_only_by_the_graph_encoder_is_a_data_error(tiny_split, nan_outside_windows):
    """A NaN on a training date, in a row no window covers, still stops
    training with a DataError instead of turning logits into NaN."""
    split, graph = tiny_split
    poisoned, _ = nan_outside_windows(split, graph, "train")
    with pytest.raises(DataError, match="not finite"):
        train_model(poisoned, graph, tiny_config())


def test_non_finite_parameter_after_an_epoch_is_a_numeric_error(tiny_split, monkeypatch):
    """An update that leaves a NaN weight stops training before validation
    can snapshot it, even in a one-batch epoch, where no later loss shows it."""
    split, graph = tiny_split
    monkeypatch.setattr(ad, "node", ad.node.__wrapped__)  # the loop's own check, not the tests'
    adam_step = training.adam_step

    def nan_step(params, *args):
        adam_step(params, *args)
        params["gat.l0.a"].values[0, 0] = np.nan

    monkeypatch.setattr(training, "adam_step", nan_step)
    cfg = tiny_config().replace(batch_size=len(split.train))
    with pytest.raises(NumericError, match="after epoch 1: gat.l0.a$"):
        train_model(split, graph, cfg)


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
    assert meta["head_version"] == 3
    for name in ("fuse1.wq", "fuse1.wv", "gat.l0.a", "fuse2.gate.wa", "fuse2.gate.bb"):
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


def test_checkpoint_of_the_per_head_layout_refused(tmp_path):
    """Version 2 stored each head as its own parameters; it is refused by version."""
    path = tmp_path / "v2.ckpt"
    _save_fresh(path, tiny_config(), doc_dim=6)
    arrays, meta = load_bundle(path)
    meta["head_version"] = 2
    save_bundle(path, arrays, meta)
    with pytest.raises(CheckpointError, match="head version 2.*retrain the model"):
        model_from_checkpoint(path)


@pytest.mark.parametrize("edit", [
    {"d": 2.5}, {"ws": True}, {"lr": "fast"}, {"precision": 32}, {"head_dim": "none"},
    {"variant": "no_such_variant"}, {"doc_dim": 0}, {"history": [[1, 2]]}, {"step": None},
])
def test_checkpoint_meta_of_wrong_type_refused(tmp_path, edit):
    path = tmp_path / "edited.ckpt"
    _save_fresh(path, tiny_config(), doc_dim=6)
    arrays, meta = load_bundle(path)
    for key, value in edit.items():
        if key in meta:
            meta[key] = value
        else:
            meta["config"][key] = value
    save_bundle(path, arrays, meta)
    with pytest.raises(CheckpointError, match="malformed header"):
        load_checkpoint(path)


def test_config_from_dict_keeps_well_typed_values():
    cfg = tiny_config().replace(lr=1, grad_clip=None, head_dim=4)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


# a value other than TrainConfig's default for every field, as an INI [train] line writes it
NON_DEFAULT_TRAIN = {
    "d": 8, "ws": 5, "heads": 3, "head_dim": 4, "gat_heads": 1, "gat_layers": 2,
    "fusion_layers": 3, "epochs": 7, "batch_size": 32, "lr": 0.003, "warmup_frac": 0.25,
    "seed": 11, "precision": "float32", "grad_clip": 1.5,
}


def test_every_train_field_round_trips_through_an_ini_line(tmp_path):
    assert set(NON_DEFAULT_TRAIN) == {f.name for f in dataclasses.fields(TrainConfig)}
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\n" + "".join(f"{k} = {v}\n" for k, v in NON_DEFAULT_TRAIN.items()))
    cfg = load_run_config(ini).train
    for name, value in NON_DEFAULT_TRAIN.items():
        assert getattr(TrainConfig(), name) != value, name
        assert getattr(cfg, name) == value and type(getattr(cfg, name)) is type(value), name
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def _csv_without_timing(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in ("seconds", "peak_mem_bytes")]
    return [[row[i] for i in keep] for row in rows]


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_training_is_deterministic(tiny_split, tmp_path, precision):
    split, graph = tiny_split
    cfg = tiny_config().replace(epochs=2, precision=precision)
    models = []
    for run in ("a", "b"):
        model, _ = train_model(split, graph, cfg, metrics_csv=tmp_path / f"{run}.csv")
        models.append(model.params.snapshot())
    table = _csv_without_timing(tmp_path / "a.csv")
    assert len(table) == 3 and table[0] == ["epoch", "train_loss", "valid_acc", "valid_mcc"]
    assert table == _csv_without_timing(tmp_path / "b.csv")
    for name, values in models[0].items():
        npt.assert_array_equal(models[1][name], values)


class Interrupted(Exception):
    pass


def interrupted_run(split, graph, cfg, path, monkeypatch, variant="full"):
    """Train until the second batch of epoch 2, leaving the epoch-1 checkpoint at `path`."""
    orig_batches = training.batch_iter

    def batches_until_epoch_2(samples, batch_size, seed, epoch):
        for i, batch in enumerate(orig_batches(samples, batch_size, seed, epoch)):
            if epoch == 2 and i == 1:
                raise Interrupted
            yield batch

    monkeypatch.setattr(training, "batch_iter", batches_until_epoch_2)
    with pytest.raises(Interrupted):
        train_model(split, graph, cfg, variant=variant, checkpoint_path=path)
    monkeypatch.setattr(training, "batch_iter", orig_batches)
    assert load_checkpoint(path).epoch == 1


def test_resume_after_interrupt_continues_the_exact_run(tiny_split, tmp_path, monkeypatch):
    """Interrupted in epoch 2, resumed from the epoch-1 checkpoint: the same
    history and the same final state as a run that was never interrupted."""
    split, graph = tiny_split
    cfg = tiny_config().replace(epochs=3, batch_size=16)
    whole_model, whole = train_model(split, graph, cfg, checkpoint_path=tmp_path / "whole.ckpt")
    path = tmp_path / "broken.ckpt"
    interrupted_run(split, graph, cfg, path, monkeypatch)
    resumed_model, resumed = train_model(split, graph, cfg, checkpoint_path=path, resume_from=path)

    assert [h.epoch for h in resumed] == [1, 2, 3]
    npt.assert_array_equal(history_rows(resumed), history_rows(whole))
    for name, values in whole_model.params.snapshot().items():
        npt.assert_array_equal(resumed_model.params[name].values, values)
    whole_arrays, whole_meta = load_bundle(tmp_path / "whole.ckpt")
    resumed_arrays, resumed_meta = load_bundle(path)
    assert sorted(resumed_arrays) == sorted(whole_arrays)  # last and best weights, Adam moments
    for key, values in whole_arrays.items():
        npt.assert_array_equal(resumed_arrays[key], values, err_msg=key)
    assert (resumed_meta["step"], resumed_meta["best_epoch"]) == (
        whole_meta["step"], whole_meta["best_epoch"]
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_checkpoint_with_unread_arrays_loads_and_resumes(tiny_split, tmp_path, monkeypatch,
                                                         variant):
    """Checkpoints written while every variant held all of the full model's
    parameters also carry arrays the variant never reads. Such a checkpoint
    gives the same logits and diagnostics as the variant's own, and a run
    resumed from it continues exactly as one resumed from its own."""
    split, graph = tiny_split
    cfg = tiny_config().replace(epochs=2, batch_size=16)
    own = tmp_path / "own.ckpt"
    interrupted_run(split, graph, cfg, own, monkeypatch, variant)
    arrays, meta = load_bundle(own)
    full = TrimodalModel(cfg, doc_dim=split.panel.dim)
    unread = [p for p in full.params if f"param/{p.name}" not in arrays]
    assert bool(unread) == (variant != "full")
    for p in unread:  # as such a checkpoint stored them: initial values, no Adam moments
        arrays[f"param/{p.name}"] = arrays[f"best/{p.name}"] = p.values
        arrays[f"adam_m/{p.name}"] = arrays[f"adam_v/{p.name}"] = np.zeros_like(p.values)
    wide = tmp_path / "wide.ckpt"
    save_bundle(wide, arrays, meta)

    packed = PackedPanel.from_panel(split.panel, graph, cfg.dtype)
    refs = split.test
    for use_best in (True, False):
        outs = [model_from_checkpoint(path, use_best)[0].forward_batch(
            packed, refs.stock_index, refs.start, diagnostics=True) for path in (own, wide)]
        (logits, diag), (want_logits, want_diag) = outs
        npt.assert_array_equal(logits.values, want_logits.values)
        assert sorted(diag) == sorted(want_diag)
        for name, stage in diag.items():
            for got, want in zip(stage, want_diag[name]):
                npt.assert_array_equal(got.values, want.values, err_msg=name)

    runs = {}
    for name, path in (("own", own), ("wide", wide)):
        out = tmp_path / f"{name}-resumed.ckpt"
        model, history = train_model(split, graph, cfg, variant=variant, checkpoint_path=out,
                                     resume_from=path)
        runs[name] = model.params.snapshot(), history_rows(history), load_bundle(out)[0]
    (params, history, saved), (want_params, want_history, want_saved) = runs.values()
    npt.assert_array_equal(history, want_history)
    assert sorted(params) == sorted(want_params)
    for name, values in want_params.items():
        npt.assert_array_equal(params[name], values, err_msg=name)
    assert sorted(saved) == sorted(want_saved)
    for key, values in want_saved.items():
        npt.assert_array_equal(saved[key], values, err_msg=key)
