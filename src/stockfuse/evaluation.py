"""Multi-seed evaluation, the ablation/modality-drop matrix, and the
fusion-stability diagnostic.

`run_variant` trains one wiring variant once per seed and reports test
ACC/MCC mean and (population) variance plus timing/memory counters.
`stability_report` projects each fusion stage's pre-gate ("unstable") and
post-gate ("stable") features to one dimension per test window and compares
their smoothness along the stock's price timeline.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import VARIANTS, TrainConfig
from .container import save_bundle
from .data import DatasetSplit, RelationalGraph
from .errors import ConfigError
from .metrics import pca_project_1d, smoothness
from .model import PackedPanel, TrimodalModel
from .training import evaluate_part, train_model

log = logging.getLogger(__name__)


@dataclass
class EvalReport:
    variant: str
    seeds: list[int]
    acc_values: list[float]
    mcc_values: list[float]
    acc_mean: float
    acc_var: float
    mcc_mean: float
    mcc_var: float
    seconds_per_epoch: float
    peak_mem_bytes: int
    n_test: int

    def to_dict(self) -> dict:
        return asdict(self)


def run_variant(
    variant: str,
    split: DatasetSplit,
    graph: RelationalGraph,
    cfg: TrainConfig,
    seeds,
) -> EvalReport:
    """Train `variant` once per seed; report test metrics over seeds."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("at least one seed required")
    accs, mccs, secs, mems = [], [], [], []
    packed = None
    for seed in seeds:
        model, history = train_model(split, graph, cfg.replace(seed=seed), variant=variant)
        if packed is None:
            packed = PackedPanel.from_panel(split.panel, graph, cfg.dtype)
        acc, m = evaluate_part(model, packed, split.test)
        accs.append(acc)
        mccs.append(m)
        if history:
            secs.append(float(np.mean([h.seconds for h in history])))
            mems.append(max(h.peak_mem_bytes for h in history))
        log.info("variant %s seed %d: test acc %.4f mcc %.4f", variant, seed, acc, m)
    return EvalReport(
        variant=variant,
        seeds=seeds,
        acc_values=accs,
        mcc_values=mccs,
        acc_mean=float(np.mean(accs)),
        acc_var=float(np.var(accs)),
        mcc_mean=float(np.mean(mccs)),
        mcc_var=float(np.var(mccs)),
        seconds_per_epoch=float(np.mean(secs)) if secs else 0.0,
        peak_mem_bytes=max(mems) if mems else 0,
        n_test=len(split.test),
    )


def write_reports(reports: list[EvalReport], outdir) -> tuple[Path, Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "report.csv"
    json_path = outdir / "report.json"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["variant", "acc_mean", "acc_var", "mcc_mean", "mcc_var",
             "seconds_per_epoch", "peak_mem_bytes", "n_seeds", "n_test"]
        )
        for r in reports:
            writer.writerow(
                [r.variant, repr(r.acc_mean), repr(r.acc_var), repr(r.mcc_mean),
                 repr(r.mcc_var), repr(r.seconds_per_epoch), r.peak_mem_bytes,
                 len(r.seeds), r.n_test]
            )
    with open(json_path, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


# ---------------------------------------------------------------------------
# stability diagnostic


@dataclass
class StabilityReport:
    symbol: str
    dates: list[str]
    closes: np.ndarray
    series: dict[str, np.ndarray] = field(default_factory=dict)  # (stage, kind) key
    smoothness: dict[str, float] = field(default_factory=dict)

    def rows(self):
        for key, values in sorted(self.series.items()):
            stage, kind = key.split("/")
            for date, close, value in zip(self.dates, self.closes, values):
                yield date, repr(float(close)), stage, kind, repr(float(value))


def stability_report(
    model: TrimodalModel,
    packed: PackedPanel,
    refs: np.recarray,
) -> StabilityReport:
    """Per-stage 1-D feature series over one stock's windows.

    Each window contributes its final timestep's feature vector (the state
    the prediction is made from); the per-stage matrices are PCA-projected
    to one dimension and aligned with the close price on the window's last
    date. Smoothness is the mean squared first difference of the z-scored
    series.
    """
    if len(refs) == 0:
        raise ConfigError("stability report needs at least one window")
    stocks = np.unique(refs.stock_index)
    if len(stocks) != 1:
        raise ConfigError(f"stability report expects one stock, got {len(stocks)}")
    stock = int(stocks[0])
    t = model.cfg.ws
    refs = refs[np.argsort(refs.start, kind="stable")]
    from . import autodiff as ad

    with ad.no_grad():
        _, diag = model.forward_batch(packed, refs.stock_index, refs.start, diagnostics=True)
    if not diag:
        raise ConfigError(f"variant {model.variant!r} exposes no fusion stages")
    last = refs.start + t - 1
    report = StabilityReport(
        symbol=packed.symbols[stock],
        dates=[packed.calendar[i] for i in last],
        closes=packed.close[stock, last],
    )
    for stage_name, (unstable, stable, _) in sorted(diag.items()):
        for kind, tensor in (("unstable", unstable), ("stable", stable)):
            per_window = tensor.values.reshape(len(refs), t, -1)[:, -1, :]
            series, _ = pca_project_1d(per_window)
            key = f"{stage_name}/{kind}"
            report.series[key] = series
            report.smoothness[key] = smoothness(series)
    return report


def write_stability(report: StabilityReport, outdir) -> tuple[Path, Path, Path]:
    """CSV for plotting, JSON smoothness stats, and the raw feature bundle."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "stability.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "close", "stage", "kind", "value"])
        for row in report.rows():
            writer.writerow(row)
    json_path = outdir / "smoothness.json"
    with open(json_path, "w") as fh:
        json.dump(
            {"symbol": report.symbol, "smoothness": report.smoothness}, fh,
            indent=2, sort_keys=True,
        )
        fh.write("\n")
    bundle_path = outdir / "stability_features.sfb"
    arrays = {key.replace("/", "_"): values for key, values in report.series.items()}
    arrays["close"] = report.closes
    save_bundle(
        bundle_path, arrays,
        {"kind": "stability_dump", "symbol": report.symbol, "dates": report.dates},
    )
    return csv_path, json_path, bundle_path
