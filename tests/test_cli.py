import json

import numpy as np
import pytest

from stockfuse.cli import run_command
from stockfuse.container import load_bundle, save_bundle
from stockfuse.data import load_split
from stockfuse.errors import FormatError


def synth(out, dim):
    args = ["synth", "--out", str(out), "--stocks", "5", "--days", "60", "--dim", str(dim),
            "--sectors", "2", "--seed", "3"]
    assert run_command(args) == 0
    return out


def train_args(data, out, *extra):
    return ["train", "--prices", str(data / "prices.csv"), "--documents",
            str(data / "documents.jsonl"), "--embeddings", str(data / "embeddings.jsonl"),
            "--graph", str(data / "graph.tsv"), "--out", str(out), "--d", "4", "--ws", "5",
            "--heads", "1", "--epochs", "1", "--batch-size", "32", "--seed", "1", *extra]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = synth(root / "data", dim=6)
    assert run_command(train_args(data, root / "run")) == 0
    return root


def test_train_writes_summary(trained):
    summary = json.loads((trained / "run" / "summary.json").read_text())
    assert summary["epochs"] == 1 and 0.0 <= summary["test_acc"] <= 1.0


def test_eval_exit_0(trained, tmp_path):
    run = trained / "run"
    code = run_command(["eval", "--checkpoint", str(run / "checkpoint.sfb"),
                        "--splits", str(run / "splits.sfb"), "--out", str(tmp_path)])
    assert code == 0
    result = json.loads((tmp_path / "eval.json").read_text())
    summary = json.loads((run / "summary.json").read_text())
    assert result["test_acc"] == summary["test_acc"]


@pytest.mark.parametrize("command", [["eval"], ["dump-features", "--out", "dump"]])
def test_split_of_other_document_width_is_a_data_error(trained, tmp_path, caplog, command):
    other = synth(tmp_path / "data8", dim=8)
    assert run_command(train_args(other, tmp_path / "run8", "--epochs", "0")) == 0
    command = [str(tmp_path / c) if c == "dump" else c for c in command]
    code = run_command(command + ["--checkpoint", str(trained / "run" / "checkpoint.sfb"),
                                  "--splits", str(tmp_path / "run8" / "splits.sfb")])
    assert code == 2
    assert "document width 8" in caplog.text and "width 6" in caplog.text


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
