"""Deterministic benchmark inputs, keyed by workload name and seed.

Everything here runs before any timed region: the synthetic dataset files
from `stockfuse.synth`, the text cache the `file` embeddings backend reads,
and the checkpoint of a freshly initialised model. The package under test
only ever receives these files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from stockfuse.config import TrainConfig
from stockfuse.data import EmbeddingTable
from stockfuse.embed import text_cache_key
from stockfuse.model import TrimodalModel
from stockfuse.synth import synth_dataset, write_synth_files
from stockfuse.training import save_checkpoint

# `stockfuse synth` defaults for the planted signal
DOC_SIGNAL = 4.0
DOC_MISSING = 0.2
CONFLICT = 0.1
EMBED_MODEL = "generic-embedding"
# One epoch at 1e-3 leaves the model near chance on some seeds; 5e-3 clears
# the test chance band within the one epoch a run can afford. The rate does
# not change the cost of a step.
LR = 5e-3


@dataclass(frozen=True)
class Spec:
    """What one workload runs on, and how.

    `kind` selects the pipeline: "train" (load, build, save_split,
    train_model, test eval), "ingest" (load through predict_part on a
    freshly initialised checkpoint) or "embed" (build_embedding_table with
    the file backend).
    """

    kind: str
    n_stocks: int
    n_days: int
    n_sectors: int
    dim: int
    precision: str = "float64"
    epochs: int = 1
    d: int = 64
    ws: int = 20
    batch_size: int = 1024

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            d=self.d, ws=self.ws, heads=2, gat_heads=2, batch_size=self.batch_size,
            lr=LR, epochs=self.epochs, precision=self.precision, seed=seed,
        ).validate()


def synth_seed(workload: str, seed: int) -> int:
    """The synth generator seed for (workload, seed)."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def synth(workload: str, spec: Spec, seed: int):
    return synth_dataset(
        n_stocks=spec.n_stocks, n_days=spec.n_days, dim=spec.dim,
        doc_signal=DOC_SIGNAL, doc_missing_rate=DOC_MISSING, conflict_rate=CONFLICT,
        n_sectors=spec.n_sectors, seed=synth_seed(workload, seed),
    )


def make_inputs(workload: str, spec: Spec, seed: int, outdir) -> None:
    """Write every input file of one run into `outdir`.

    The documents still to be embedded go into `embeddings.jsonl` missing
    and into `text_cache.jsonl` with their vectors, which the `file`
    embeddings backend reads: all of them on "embed", the latest date's on
    "ingest", none on "train".
    """
    outdir = Path(outdir)
    series, days, table, graph, truth = synth(workload, spec, seed)
    if spec.kind == "embed":
        fresh = days
    elif spec.kind == "ingest":
        latest = max(day.date for day in days)
        fresh = [day for day in days if day.date == latest]
    else:
        fresh = []
    stored = EmbeddingTable(dim=table.dim, entries=dict(table.entries))
    for day in fresh:
        del stored.entries[(day.symbol, day.date)]
    write_synth_files(outdir, series, days, stored, graph, truth)
    if spec.kind == "ingest":
        model = TrimodalModel(spec.train_config(seed), doc_dim=spec.dim)
        save_checkpoint(
            outdir / "init.ckpt", model, epoch=0, step=0, best_valid_mcc=float("-inf"),
            best_epoch=0, best_snap=model.params.snapshot(), history=[],
        )
    if fresh:
        # one text per synth document-day, so the pooled vector is the cached one
        with open(outdir / "text_cache.jsonl", "w") as fh:
            for day in fresh:
                for text in day.texts:
                    vec = table.get(day.symbol, day.date)
                    fh.write(json.dumps({"key": text_cache_key(EMBED_MODEL, text),
                                         "vector": vec.tolist()}) + "\n")


def file_hashes(indir) -> dict[str, str]:
    """sha256 of every file in `indir`, by file name."""
    out = {}
    for path in sorted(Path(indir).iterdir()):
        if path.is_file():
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[path.name] = h.hexdigest()
    return out


if __name__ == "__main__":
    import sys

    name, seed_arg, out, spec_json = sys.argv[1:]
    make_inputs(name, Spec(**json.loads(spec_json)), int(seed_arg), out)
