import json

import pytest

from stockfuse.cli import run_command


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
