import json

import numpy as np
import orjson
import pytest

from stockfuse.cli import run_command
from stockfuse.container import load_bundle, save_bundle
from stockfuse.data import load_split, save_split
from stockfuse.errors import FormatError
from stockfuse.evaluation import EvalReport, write_reports
from stockfuse.metrics import chance_band


def synth(out, dim):
    args = ["synth", "--out", str(out), "--stocks", "20", "--days", "100", "--dim", str(dim),
            "--sectors", "2", "--seed", "3"]
    assert run_command(args) == 0
    return out


def train_args(data, out, *extra):
    return ["train", "--prices", str(data / "prices.csv"), "--documents",
            str(data / "documents.jsonl"), "--embeddings", str(data / "embeddings.jsonl"),
            "--graph", str(data / "graph.tsv"), "--out", str(out), "--d", "8", "--ws", "5",
            "--heads", "1", "--epochs", "10", "--batch-size", "64", "--lr", "0.003",
            "--seed", "1", *extra]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A `full` model that learns: 10 epochs on 20 stocks x 100 days (about 1 s).

    Its 200 test windows come out at MCC 0.67 against a chance band of 0.61,
    so a broken eval path shows as a score at chance. `test_goldens.py`
    repeats this run at one BLAS thread against its committed results.
    """
    root = tmp_path_factory.mktemp("cli")
    data = synth(root / "data", dim=6)
    assert run_command(train_args(data, root / "run")) == 0
    return root


def test_train_writes_summary(trained):
    summary = json.loads((trained / "run" / "summary.json").read_text())
    assert summary["epochs"] == 10 and 0.0 <= summary["test_acc"] <= 1.0


def test_zero_epoch_summary_is_json_naming_no_checkpoint(trained, tmp_path):
    """With no epoch run there is no best validation MCC and no checkpoint file."""
    assert run_command(train_args(trained / "data", tmp_path / "run", "--epochs", "0")) == 0
    summary = orjson.loads((tmp_path / "run" / "summary.json").read_bytes())
    assert summary["epochs"] == 0 and summary["best_valid_mcc"] is None
    assert summary["checkpoint"] is None and not (tmp_path / "run" / "checkpoint.sfb").exists()
    assert json.loads((trained / "run" / "summary.json").read_text())["checkpoint"] == str(
        trained / "run" / "checkpoint.sfb"
    )


def test_report_json_writes_non_finite_as_null(tmp_path):
    nan = float("nan")
    report = EvalReport("full", [0], [nan], [0.5], nan, nan, 0.5, 0.0, 0.0, 0, 0)
    _, json_path = write_reports([report], tmp_path)
    (row,) = orjson.loads(json_path.read_bytes())
    assert row["acc_values"] == [None] and row["acc_mean"] is None and row["mcc_mean"] == 0.5


def test_eval_exit_0(trained, tmp_path):
    run = trained / "run"
    code = run_command(["eval", "--checkpoint", str(run / "checkpoint.sfb"),
                        "--splits", str(run / "splits.sfb"), "--out", str(tmp_path)])
    assert code == 0
    result = json.loads((tmp_path / "eval.json").read_text())
    summary = json.loads((run / "summary.json").read_text())
    assert result["test_acc"] == summary["test_acc"]


def test_eval_beats_chance(trained, tmp_path):
    """The trained model's test MCC is above the chance band of its labels
    and it predicts more than one class: a constant classifier fails both."""
    run = trained / "run"
    assert run_command(["eval", "--checkpoint", str(run / "checkpoint.sfb"),
                        "--splits", str(run / "splits.sfb"), "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "eval.json").read_text())
    split, _ = load_split(run / "splits.sfb")
    confusion = np.array(result["confusion"])
    assert result["test_mcc"] > chance_band(split.test.label)
    assert np.count_nonzero(confusion.sum(axis=0)) >= 2


@pytest.mark.parametrize("command", [["eval"], ["dump-features", "--out", "dump"]])
def test_split_of_other_document_width_is_a_data_error(trained, tmp_path, caplog, command):
    other = synth(tmp_path / "data8", dim=8)
    assert run_command(train_args(other, tmp_path / "run8", "--epochs", "0")) == 0
    command = [str(tmp_path / c) if c == "dump" else c for c in command]
    code = run_command(command + ["--checkpoint", str(trained / "run" / "checkpoint.sfb"),
                                  "--splits", str(tmp_path / "run8" / "splits.sfb")])
    assert code == 2
    assert "document width 8" in caplog.text and "width 6" in caplog.text


def test_eval_of_nan_outside_every_window_exit_2(trained, tmp_path, caplog, nan_outside_windows):
    """A split whose test dates hold a NaN in a row only the graph encoder
    reads is refused with exit 2, not scored from NaN logits."""
    run = trained / "run"
    split, graph = load_split(run / "splits.sfb")
    poisoned, _ = nan_outside_windows(split, graph, "test")
    save_split(tmp_path / "poisoned.sfb", poisoned, graph)
    code = run_command(["eval", "--checkpoint", str(run / "checkpoint.sfb"),
                        "--splits", str(tmp_path / "poisoned.sfb"), "--out", str(tmp_path)])
    assert code == 2
    assert "not finite" in caplog.text
    assert not (tmp_path / "eval.json").exists()


def test_unreadable_checkpoint_exit_2(trained, tmp_path):
    bad = tmp_path / "bad.sfb"
    bad.write_bytes(b"not a bundle")
    code = run_command(["eval", "--checkpoint", str(bad),
                        "--splits", str(trained / "run" / "splits.sfb")])
    assert code == 2


@pytest.mark.parametrize("damage", ["missing", "misshaped"])
def test_checkpoint_array_missing_or_misshaped_exit_2(trained, tmp_path, caplog, damage):
    arrays, meta = load_bundle(trained / "run" / "checkpoint.sfb")
    if damage == "missing":
        del arrays["param/doc.b"]
    else:
        arrays["param/doc.b"] = arrays["param/doc.b"].reshape(2, -1)
    save_bundle(tmp_path / "damaged.sfb", arrays, meta)
    code = run_command(["eval", "--checkpoint", str(tmp_path / "damaged.sfb"),
                        "--splits", str(trained / "run" / "splits.sfb"), "--out", str(tmp_path)])
    assert code == 2
    assert "param/doc.b" in caplog.text


def test_malformed_embedding_vector_exit_2(trained, tmp_path, caplog):
    data = trained / "data"
    embeddings = tmp_path / "embeddings.jsonl"
    lines = (data / "embeddings.jsonl").read_text().splitlines(keepends=True)
    bad = json.loads(lines[1])
    bad["vector"] = "abc"
    embeddings.write_text("".join([lines[0], json.dumps(bad) + "\n", *lines[2:]]))
    args = train_args(data, tmp_path / "out")
    args[args.index("--embeddings") + 1] = str(embeddings)
    assert run_command(args) == 2
    assert "embeddings.jsonl:2: bad embedding line" in caplog.text


def test_embedding_nan_literal_exit_2(trained, tmp_path, caplog):
    """`NaN` is not JSON, so the line is bad: the error names the line, and the exit is 2."""
    data = trained / "data"
    embeddings = tmp_path / "embeddings.jsonl"
    lines = (data / "embeddings.jsonl").read_text().splitlines(keepends=True)
    bad = json.loads(lines[1])
    bad["vector"][0] = float("nan")
    embeddings.write_text("".join([lines[0], json.dumps(bad) + "\n", *lines[2:]]))
    args = train_args(data, tmp_path / "out")
    args[args.index("--embeddings") + 1] = str(embeddings)
    assert run_command(args) == 2
    assert "embeddings.jsonl:2: bad embedding line" in caplog.text


@pytest.mark.parametrize("name", ["prices.csv", "documents.jsonl", "embeddings.jsonl",
                                  "graph.tsv"])
def test_input_not_utf8_exit_2(trained, tmp_path, caplog, name):
    """A byte that is not UTF-8 in any input file is a data error naming its line."""
    data = tmp_path / "data"
    data.mkdir()
    for f in ("prices.csv", "documents.jsonl", "embeddings.jsonl", "graph.tsv"):
        (data / f).write_bytes((trained / "data" / f).read_bytes())
    lines = (data / name).read_bytes().splitlines(keepends=True)
    lines[2] = b"\xff" + lines[2]
    (data / name).write_bytes(b"".join(lines))
    assert run_command(train_args(data, tmp_path / "out")) == 2
    assert f"{name}:3:" in caplog.text


def test_malformed_text_cache_vector_exit_2(trained, tmp_path, caplog):
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps({"key": "k", "vector": "abc"}) + "\n")
    code = run_command(["embed", "--documents", str(trained / "data" / "documents.jsonl"),
                        "--out", str(tmp_path / "e.jsonl"), "--endpoint", str(cache),
                        "--dim", "6"])
    assert code == 2
    assert "cache.jsonl:1: bad cache line" in caplog.text


def test_text_cache_not_utf8_exit_2(trained, tmp_path, caplog):
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(b'{"key": "k", "vector": [1.0]}\n\xff{"key": "l", "vector": [2.0]}\n')
    code = run_command(["embed", "--documents", str(trained / "data" / "documents.jsonl"),
                        "--out", str(tmp_path / "e.jsonl"), "--endpoint", str(cache),
                        "--dim", "6"])
    assert code == 2
    assert "cache.jsonl:2: not UTF-8" in caplog.text


def test_unknown_ini_key_exit_1(trained, tmp_path, caplog):
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\nepochs = 1\nlearning_rate = 0.1\n")
    data = trained / "data"
    assert run_command(train_args(data, tmp_path / "out", "--config", str(ini))) == 1
    assert "learning_rate" in caplog.text


def test_missing_inputs_and_bad_flags_exit_1(tmp_path):
    assert run_command(["train", "--out", str(tmp_path)]) == 1
    assert run_command(["train", "--epochs", "many"]) == 1
    assert run_command(["no-such-command"]) == 1


@pytest.mark.parametrize("flags,message", [
    (["train", "--thresholds", "0.1"], "bad command-line value"),
    (["train", "--thresholds", "x,y"], "bad command-line value"),
    (["train", "--ratios", "a,b,c"], "bad command-line value"),
    (["ablate", "--seeds", "1,x"], "bad command-line value"),
    (["train", "--seed", "-1"], "seed must be >= 0"),
    (["ablate", "--seeds", "0,-1"], "seeds must be >= 0"),
    (["synth", "--seed", "-1"], "seed must be >= 0"),
    (["synth", "--doc-missing", "2"], "--doc-missing must lie in [0, 1]"),
    (["synth", "--sectors", "0"], "--sectors must be >= 1"),
    (["synth", "--dim", "0"], "--dim must be >= 3"),
    (["train", "--grad-clip", "-1"], "grad_clip must be positive"),
    (["train", "--grad-clip", "0"], "grad_clip must be positive"),
    (["train", "--lr", "nan"], "lr must be positive"),
    (["train", "--lr", "inf"], "lr must be positive and finite"),
    (["train", "--grad-clip", "inf"], "grad_clip must be positive and finite"),
])
def test_bad_flag_value_exit_1(tmp_path, caplog, flags, message):
    assert run_command(flags + ["--out", str(tmp_path)]) == 1
    assert message in caplog.text


def test_ablate_prints_the_std_over_seeds(trained, tmp_path, capsys):
    """The ± after each mean is the std over seeds; report.json keeps the variance."""
    args = train_args(trained / "data", tmp_path, "--epochs", "1")
    args[0] = "ablate"
    assert run_command(args + ["--variants", "full", "--seeds", "0,1"]) == 0
    (report,) = json.loads((tmp_path / "report.json").read_text())
    acc, mcc = np.array(report["acc_values"]), np.array(report["mcc_values"])
    assert report["acc_var"] == pytest.approx(np.var(acc)) and np.std(acc) > 0
    line = f"full: ACC {acc.mean():.4f}±{np.std(acc):.5f} MCC {mcc.mean():.4f}±{np.std(mcc):.5f}"
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("section,line,message", [
    ("data", "thresholds = 0.1", "bad value in"),
    ("data", "thresholds = x,y", "bad value in"),
    ("data", "ratios = a,b,c", "bad value in"),
    ("eval", "seeds = 1,x", "bad value in"),
    ("train", "seed = -1", "seed must be >= 0"),
    ("eval", "seeds = 0,-1", "seeds must be >= 0"),
    ("train", "grad_clip = -1", "grad_clip must be positive"),
    ("train", "grad_clip = 0", "grad_clip must be positive"),
    ("train", "lr = nan", "lr must be positive"),
    ("train", "lr = inf", "lr must be positive and finite"),
    ("train", "grad_clip = inf", "grad_clip must be positive and finite"),
])
def test_bad_config_value_exit_1(tmp_path, caplog, section, line, message):
    """The config file's values parse and validate as the flags' do."""
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n{line}\n")
    assert run_command(["ablate", "--config", str(ini), "--out", str(tmp_path)]) == 1
    assert message in caplog.text


@pytest.mark.parametrize("damage", ["history_extra_key", "config_d_not_int", "no_epoch"])
def test_malformed_checkpoint_meta_exit_2(trained, tmp_path, caplog, damage):
    arrays, meta = load_bundle(trained / "run" / "checkpoint.sfb")
    if damage == "history_extra_key":
        meta["history"][0]["extra"] = 1
    elif damage == "config_d_not_int":
        meta["config"]["d"] = "x"
    else:
        del meta["epoch"]
    save_bundle(tmp_path / "damaged.sfb", arrays, meta)
    code = run_command(["eval", "--checkpoint", str(tmp_path / "damaged.sfb"),
                        "--splits", str(trained / "run" / "splits.sfb")])
    assert code == 2
    assert "malformed header" in caplog.text


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_diverging_training_exit_3(trained, tmp_path):
    data = trained / "data"
    assert run_command(train_args(data, tmp_path / "out", "--lr", "1e300")) == 3


def edited_split(trained, tmp_path, edit):
    arrays, meta = load_bundle(trained / "run" / "splits.sfb")
    edit(arrays, meta)
    save_bundle(tmp_path / "edited.sfb", arrays, meta)
    return tmp_path / "edited.sfb"


def on_split(trained, command, splits, *extra):
    return run_command([command, "--checkpoint", str(trained / "run" / "checkpoint.sfb"),
                        "--splits", str(splits), *extra])


@pytest.mark.parametrize("damage", ["past_calendar", "wrong_label"])
def test_split_ref_the_panel_cannot_serve_exit_2(trained, tmp_path, caplog, damage):
    def edit(arrays, meta):
        if damage == "past_calendar":
            arrays["test_refs"][0, 1] = len(meta["calendar"]) - meta["ws"]
        else:
            arrays["test_refs"][0, 2] = (arrays["test_refs"][0, 2] + 1) % 3

    splits = edited_split(trained, tmp_path, edit)
    with pytest.raises(FormatError, match="'test'"):
        load_split(splits)
    assert on_split(trained, "eval", splits) == 2
    assert "'test'" in caplog.text


def test_shape_error_exit_2(trained, tmp_path, caplog):
    """A stability dump of a single window cannot be projected: ShapeError, exit 2."""
    def edit(arrays, meta):
        arrays["test_refs"] = arrays["test_refs"][:1]

    splits = edited_split(trained, tmp_path, edit)
    assert on_split(trained, "dump-features", splits, "--out", str(tmp_path / "dump")) == 2
    assert "PCA input" in caplog.text


def test_dump_features_tie_goes_to_the_greatest_symbol(trained, tmp_path):
    split, _ = load_split(trained / "run" / "splits.sfb")
    symbols = split.panel.symbols
    assert len(set(np.bincount(split.test.stock_index).tolist())) == 1
    assert on_split(trained, "dump-features", trained / "run" / "splits.sfb",
                    "--out", str(tmp_path / "tie")) == 0
    assert json.loads((tmp_path / "tie" / "smoothness.json").read_text())["symbol"] == symbols[-1]

    def edit(arrays, meta):  # one test window fewer for the last stock
        refs = arrays["test_refs"]
        arrays["test_refs"] = np.delete(refs, np.flatnonzero(refs[:, 0] == len(symbols) - 1)[0], 0)

    splits = edited_split(trained, tmp_path, edit)
    assert on_split(trained, "dump-features", splits, "--out", str(tmp_path / "fewer")) == 0
    assert json.loads((tmp_path / "fewer" / "smoothness.json").read_text())["symbol"] == symbols[-2]


def test_split_of_other_window_size(trained, tmp_path, caplog):
    data = trained / "data"
    assert run_command(train_args(data, tmp_path / "ws6", "--ws", "6", "--epochs", "0")) == 0
    splits = tmp_path / "ws6" / "splits.sfb"
    assert on_split(trained, "eval", splits) == 2
    assert "windows of 6 dates" in caplog.text
    assert run_command(train_args(data, tmp_path / "out", "--splits", str(splits))) == 1
    assert "ws is 5" in caplog.text
