"""Run one benchmark workload of `stockfuse` and print its metrics.

    python3 perfbench/run.py --workload train_base --seed 1 --seconds 5 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/`. Inputs are generated from the seed in a child process, into a
scratch directory under `.perfbench_runs/` that is removed afterwards. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced; with `--trace 1` they are its per-layer metrics, from a
run whose spans wrap the package's public functions. The lines before it
give the run manifest and every measured metric by name and unit; the same
record is written to `.perfbench_runs/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"


def blas_threads() -> int:
    """One BLAS thread per CPU this process may run on."""
    return len(os.sched_getaffinity(0))


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(workload: str, seed: int, spec, hashes: dict[str, str]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "dtype": spec.precision,
        "git_commit": _git_commit(),
        "spec": dataclasses.asdict(spec),
        "input_sha256": hashes,
    }


def _generate(workload: str, spec, seed: int, indir: Path) -> None:
    """Write the inputs in a child process, so this one's peak RSS is the run's own.

    `subprocess.run` waits for the child on every path out, and unlike
    `multiprocessing` it leaves no helper process (resource tracker) behind.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(SRC)]))
    cmd = [sys.executable, "-m", "perfbench.inputs", workload, str(seed), str(indir),
           json.dumps(dataclasses.asdict(spec))]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"input generation exited with code {done.returncode}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stockfuse" / "__init__.py").is_file():
        print(f"error: no stockfuse package under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads())
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.inputs import file_hashes
    from perfbench.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    indir = work / "inputs"
    try:
        indir.mkdir(parents=True)
        _generate(args.workload, spec, args.seed, indir)
        info = manifest(args.workload, args.seed, spec, file_hashes(indir))
        outcome = run(args.workload, spec, args.seed, args.seconds, indir, work, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1
    record = {
        "manifest": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
        "problems": outcome.problems,
    }
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print("manifest " + json.dumps(info, sort_keys=True))
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
