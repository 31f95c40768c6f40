"""Command-line entrypoint.

Subcommands: synth, embed, train, eval, ablate, dump-features. Values come
from an INI config file plus flag overrides; the effective configuration is
echoed into the output directory. Exit codes: 0 success, 1 configuration
error, 2 data error, 3 numeric abort.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .config import LIST_KEYS, VARIANTS, RunConfig, echo_config, load_run_config, parse_list
from .data import (
    build_dataset,
    load_documents,
    load_embeddings,
    load_graph,
    load_prices,
    load_split,
    save_split,
)
from .embed import ProviderConfig, build_embedding_table
from .errors import CheckpointError, ConfigError, DataError, NumericError, ProviderError, ShapeError
from .evaluation import run_variant, stability_report, write_reports, write_stability
from .model import PackedPanel
from .synth import synth_dataset, write_synth_files
from .training import evaluate_part, model_from_checkpoint, score_part, train_model

log = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stockfuse",
        description="Trimodal stock trend prediction with gated cross-attention fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic planted-signal dataset")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--stocks", type=int, default=12)
    p_synth.add_argument("--days", type=int, default=120)
    p_synth.add_argument("--dim", type=int, default=16)
    p_synth.add_argument("--doc-signal", type=float, default=4.0)
    p_synth.add_argument("--doc-missing", type=float, default=0.2)
    p_synth.add_argument("--conflict", type=float, default=0.1)
    p_synth.add_argument("--sectors", type=int, default=3)
    p_synth.add_argument("--seed", type=int, default=0)

    p_embed = sub.add_parser("embed", help="build the embedding table for a document file")
    p_embed.add_argument("--documents", required=True)
    p_embed.add_argument("--out", required=True, help="embeddings.jsonl to create/extend")
    p_embed.add_argument("--backend", choices=["file", "http"], default="file")
    p_embed.add_argument("--endpoint", required=True, help="cache path (file) or URL (http)")
    p_embed.add_argument("--auth-env", default=None, help="env var holding the bearer token")
    p_embed.add_argument("--dim", type=int, default=1536)
    p_embed.add_argument("--max-batch", type=int, default=16)
    p_embed.add_argument("--max-parallel", type=int, default=4)
    p_embed.add_argument("--model", default="generic-embedding")

    def add_run_opts(p, with_train=True):
        p.add_argument("--config", default=None, help="INI run config; flags override it")
        p.add_argument("--prices", default=None)
        p.add_argument("--documents", default=None)
        p.add_argument("--embeddings", default=None)
        p.add_argument("--graph", default=None)
        p.add_argument("--splits", default=None, help="serialized split bundle")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--thresholds", default=None, help="lower,upper return thresholds")
        p.add_argument("--ratios", default=None, help="train,valid,test split ratios")
        if with_train:
            p.add_argument("--d", type=int, default=None)
            p.add_argument("--ws", type=int, default=None)
            p.add_argument("--heads", type=int, default=None)
            p.add_argument("--epochs", type=int, default=None)
            p.add_argument("--batch-size", type=int, default=None)
            p.add_argument("--lr", type=float, default=None)
            p.add_argument("--warmup-frac", type=float, default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--precision", choices=["float64", "float32"], default=None)
            p.add_argument("--grad-clip", type=float, default=None)

    p_train = sub.add_parser("train", help="train, checkpoint, and log metrics")
    add_run_opts(p_train)
    p_train.add_argument("--variant", choices=VARIANTS, default="full")
    p_train.add_argument("--resume", default=None, help="checkpoint to resume from")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--splits", required=True)
    p_eval.add_argument("--out", default=None, help="directory for eval.json")

    p_abl = sub.add_parser("ablate", help="run the variant matrix over seeds")
    add_run_opts(p_abl)
    p_abl.add_argument("--variants", default=None, help="comma-separated variant names")
    p_abl.add_argument("--seeds", default=None, help="comma-separated seeds")

    p_dump = sub.add_parser("dump-features", help="fusion-stability dump for one stock")
    p_dump.add_argument("--checkpoint", required=True)
    p_dump.add_argument("--splits", required=True)
    p_dump.add_argument("--symbol", default=None, help="default: test stock with most windows")
    p_dump.add_argument("--out", required=True)
    return parser


def _merge_run_config(args, with_train=True) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    for key in ("prices", "documents", "embeddings", "graph", "splits"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "out", None) is not None:
        cfg.outdir = args.out
    try:
        for key in LIST_KEYS:
            if getattr(args, key, None) is not None:
                setattr(cfg, key, parse_list(key, getattr(args, key)))
    except ValueError as exc:
        raise ConfigError(f"bad command-line value: {exc}") from exc
    if with_train:
        for flag, field in (
            ("d", "d"), ("ws", "ws"), ("heads", "heads"), ("epochs", "epochs"),
            ("batch_size", "batch_size"), ("lr", "lr"), ("warmup_frac", "warmup_frac"),
            ("seed", "seed"), ("precision", "precision"), ("grad_clip", "grad_clip"),
        ):
            val = getattr(args, flag, None)
            if val is not None:
                setattr(cfg.train, field, val)
    return cfg.validate()


def _load_or_build_dataset(cfg: RunConfig):
    if cfg.splits:
        split, graph = load_split(cfg.splits)
        if graph is None:
            raise DataError(f"{cfg.splits} carries no graph; rebuild it from raw files")
        return split, graph
    for name in ("prices", "embeddings", "graph"):
        if not getattr(cfg, name):
            raise ConfigError(f"either --splits or --{name} is required")
    series = load_prices(cfg.prices)
    docs = load_documents(cfg.documents) if cfg.documents else []
    table = load_embeddings(cfg.embeddings)
    graph = load_graph(cfg.graph, stocks=[s.symbol for s in series])
    split = build_dataset(
        series, docs, table, graph,
        ws=cfg.train.ws, label_spec=cfg.thresholds, ratios=cfg.ratios,
    )
    return split, graph


def _cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    # the documents draw three orthonormal class prototypes, so dim >= 3
    for flag, value, low in (("--stocks", args.stocks, 1), ("--days", args.days, 1),
                             ("--dim", args.dim, 3), ("--sectors", args.sectors, 1)):
        if value < low:
            raise ConfigError(f"{flag} must be >= {low}, got {value}")
    for flag, rate in (("--doc-missing", args.doc_missing), ("--conflict", args.conflict)):
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"{flag} must lie in [0, 1], got {rate}")
    series, days, table, graph, truth = synth_dataset(
        n_stocks=args.stocks, n_days=args.days, dim=args.dim,
        doc_signal=args.doc_signal, doc_missing_rate=args.doc_missing,
        conflict_rate=args.conflict, n_sectors=args.sectors, seed=args.seed,
    )
    paths = write_synth_files(args.out, series, days, table, graph, truth)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_embed(args) -> int:
    provider = ProviderConfig(
        backend=args.backend, endpoint=args.endpoint, auth_env=args.auth_env,
        dim=args.dim, max_batch=args.max_batch, max_parallel=args.max_parallel,
        model=args.model,
    )
    days = load_documents(args.documents)
    table = build_embedding_table(days, provider, out_path=args.out)
    print(f"embedding table: {len(table.entries)} entries -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _merge_run_config(args)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    echo_config(cfg, outdir)
    split, graph = _load_or_build_dataset(cfg)
    splits_path = outdir / "splits.sfb"
    save_split(splits_path, split, graph)
    model, history = train_model(
        split, graph, cfg.train, variant=args.variant,
        metrics_csv=outdir / "metrics.csv",
        checkpoint_path=outdir / "checkpoint.sfb",
        resume_from=args.resume,
    )
    packed = PackedPanel.from_panel(split.panel, graph, cfg.train.dtype)
    test_acc, test_mcc = evaluate_part(model, packed, split.test)
    best = max((h.valid_mcc for h in history), default=float("nan"))
    summary = {
        "variant": args.variant,
        "epochs": len(history),
        "best_valid_mcc": best,
        "test_acc": test_acc,
        "test_mcc": test_mcc,
        "splits": str(splits_path),
        "checkpoint": str(outdir / "checkpoint.sfb"),
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"best valid MCC {best:.4f}; test ACC {test_acc:.4f} MCC {test_mcc:.4f}")
    return 0


def _checkpoint_and_split(args):
    """The checkpoint's model and the split it runs on, checked against each other."""
    model, ckpt = model_from_checkpoint(args.checkpoint)
    split, graph = load_split(args.splits)
    if graph is None:
        raise DataError(f"{args.splits} carries no graph")
    if split.panel.dim != ckpt.doc_dim:
        raise DataError(
            f"{args.splits} has document width {split.panel.dim}, but the checkpoint "
            f"{args.checkpoint} was trained on width {ckpt.doc_dim}"
        )
    if split.ws != ckpt.config.ws:
        raise DataError(
            f"{args.splits} has windows of {split.ws} dates, but the checkpoint "
            f"{args.checkpoint} was trained on ws {ckpt.config.ws}"
        )
    packed = PackedPanel.from_panel(split.panel, graph, ckpt.config.dtype)
    return model, ckpt, split, packed


def _cmd_eval(args) -> int:
    model, ckpt, split, packed = _checkpoint_and_split(args)
    test_acc, test_mcc, cm = score_part(model, packed, split.test)
    result = {
        "variant": ckpt.variant,
        "n_test": len(split.test),
        "test_acc": test_acc,
        "test_mcc": test_mcc,
        "confusion": cm.tolist(),
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "eval.json", "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _merge_run_config(args)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    echo_config(cfg, outdir)
    split, graph = _load_or_build_dataset(cfg)
    reports = [
        run_variant(variant, split, graph, cfg.train, cfg.seeds) for variant in cfg.variants
    ]
    csv_path, json_path = write_reports(reports, outdir)
    for r in reports:
        print(
            f"{r.variant}: ACC {r.acc_mean:.4f}±{np.sqrt(r.acc_var):.5f} "
            f"MCC {r.mcc_mean:.4f}±{np.sqrt(r.mcc_var):.5f}"
        )
    print(f"reports: {csv_path}, {json_path}")
    return 0


def _cmd_dump_features(args) -> int:
    model, _, split, packed = _checkpoint_and_split(args)
    counts = np.bincount(split.test.stock_index, minlength=packed.n_stocks)
    if not counts.any():
        raise DataError("test split has no windows")
    # most test windows; a tie goes to the greatest symbol, as symbols are sorted
    symbol = args.symbol or packed.symbols[len(counts) - 1 - int(np.argmax(counts[::-1]))]
    if symbol not in packed.symbols or counts[packed.symbols.index(symbol)] == 0:
        raise DataError(f"symbol {symbol!r} has no test windows")
    stock = packed.symbols.index(symbol)
    report = stability_report(model, packed, split.test[split.test.stock_index == stock])
    csv_path, json_path, bundle_path = write_stability(report, args.out)
    for key, value in sorted(report.smoothness.items()):
        print(f"smoothness {key}: {value:.4f}")
    print(f"dumped: {csv_path}, {json_path}, {bundle_path}")
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "embed": _cmd_embed,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "dump-features": _cmd_dump_features,
}


def run_command(argv) -> int:
    """Parse argv (without the program name) and run one subcommand."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the config-error code
        return 0 if exc.code == 0 else 1
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 1
    except (DataError, CheckpointError, ProviderError, ShapeError) as exc:
        log.error("data error: %s", exc)
        return 2
    except NumericError as exc:
        log.error("numeric abort: %s", exc)
        return 3


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
