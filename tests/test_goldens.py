"""Committed results of the CLI fixture's run, regenerated and compared.

    python tests/test_goldens.py tests/goldens   # rewrite the goldens

The run is the `trained` fixture's of `tests/test_cli.py`: `synth`, then
`train` (float64), then `eval` and `dump-features` on its checkpoint. It
writes `eval.json` and `smoothness.json` into the given directory, at one
BLAS thread (set before numpy loads), so every sum is taken in one order.
The test makes the run in a child process and compares both files with the
committed ones: strings and counts exactly, floats within a relative 1e-6
(absolute 1e-9). That leaves room for another CPU's rounding and none for a
change of the model, its initialisation or its training; a change that
moves these numbers on purpose regenerates the goldens and states the old
and new values.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

GOLDENS = Path(__file__).resolve().parent / "goldens"
FILES = ("eval.json", "smoothness.json")
RTOL, ATOL = 1e-6, 1e-9


def write_goldens(out: Path) -> None:
    from stockfuse.cli import run_command
    from test_cli import synth, train_args

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        run = work / "run"
        assert run_command(train_args(synth(work / "data", dim=6), run)) == 0
        on_run = ["--checkpoint", str(run / "checkpoint.sfb"), "--splits", str(run / "splits.sfb")]
        assert run_command(["eval", *on_run, "--out", str(out)]) == 0
        assert run_command(["dump-features", *on_run, "--out", str(work / "dump")]) == 0
        (out / "smoothness.json").write_text((work / "dump" / "smoothness.json").read_text())


def assert_close(got, want, path="$"):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=RTOL, abs=ATOL), path
    else:
        assert got == want, path


def test_cli_run_matches_goldens(tmp_path):
    done = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in FILES:
        got = json.loads((tmp_path / name).read_text())
        assert_close(got, json.loads((GOLDENS / name).read_text()), name)


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    write_goldens(target)
