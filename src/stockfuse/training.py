"""Training loop: Adam with linear warmup, checkpointing, metric logging.

One run is fully determined by (seed, config, data): parameter init comes
from the config seed, batch order from (seed, epoch), and there is no other
randomness, so histories are bit-identical across reruns in the same
precision mode at the same BLAS thread count, and checkpoint resume
continues the exact trajectory under the same two conditions. On another
thread count, weight-gradient GEMMs whose inner dimension is the calendar
length may sum in another order, and the runs drift apart from the first
shuffled batch.
"""

from __future__ import annotations

import csv
import logging
import resource
import time
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Parameter
from .config import VARIANTS, TrainConfig
from .container import load_bundle, save_bundle
from .data import DatasetSplit, RelationalGraph, batch_iter
from .errors import CheckpointError, ConfigError, FormatError, NumericError
from .metrics import accuracy, confusion_matrix, mcc
from .model import PackedPanel, TrimodalModel
from .predictor import HEAD_VERSION

log = logging.getLogger(__name__)

CHECKPOINT_KIND = "checkpoint"


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_acc: float
    valid_mcc: float
    seconds: float
    peak_mem_bytes: int


@dataclass
class Checkpoint:
    config: TrainConfig
    variant: str
    doc_dim: int
    epoch: int
    step: int
    best_valid_mcc: float
    best_epoch: int
    history: list[EpochStats]
    arrays: dict[str, np.ndarray]


def lr_schedule(base_lr: float, step: int, total_steps: int, warmup_frac: float) -> float:
    """Linear 0 -> base_lr ramp over the warmup steps, constant afterwards."""
    warmup_steps = int(round(warmup_frac * total_steps))
    if warmup_steps <= 0 or step >= warmup_steps:
        return base_lr
    return base_lr * step / warmup_steps


def adam_step(
    params,
    lr_t: float,
    step: int,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam update in place; parameters without grads keep."""
    if step < 1:
        raise ConfigError(f"adam step index must be >= 1, got {step}")
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    for p in params:
        g = p.tensor.grad
        if g is None:
            continue
        p.adam_m *= beta1
        p.adam_m += (1.0 - beta1) * g
        p.adam_v *= beta2
        p.adam_v += (1.0 - beta2) * g * g
        m_hat = p.adam_m / bc1
        v_hat = p.adam_v / bc2
        p.tensor.values = p.tensor.values - lr_t * m_hat / (np.sqrt(v_hat) + eps)


def _clip_grads(params, max_norm: float) -> None:
    total = 0.0
    for p in params:
        if p.tensor.grad is not None:
            total += float((p.tensor.grad**2).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.tensor.grad is not None:
                p.tensor.grad *= factor


def _peak_mem_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _param_norm_report(params) -> str:
    norms = sorted(
        ((float(np.linalg.norm(p.values)), p.name) for p in params), reverse=True
    )
    total = float(np.sqrt(sum(n * n for n, _ in norms)))
    top = ", ".join(f"{name}={n:.3e}" for n, name in norms[:3])
    return f"total param norm {total:.3e}; largest: {top}"


def evaluate_part(model: TrimodalModel, packed: PackedPanel, refs) -> tuple[float, float]:
    if len(refs) == 0:
        return float("nan"), float("nan")
    cm = confusion_matrix(refs.label, model.predict_part(packed, refs))
    return accuracy(cm), mcc(cm)


def train_model(
    split: DatasetSplit,
    graph: RelationalGraph,
    cfg: TrainConfig,
    variant: str = "full",
    metrics_csv=None,
    checkpoint_path=None,
    resume_from=None,
) -> tuple[TrimodalModel, list[EpochStats]]:
    """Run the epoch/batch loop; returns the best-validation-MCC model.

    Per batch: encode the three modalities, run both fusion stages, aggregate,
    compute the loss, backpropagate, and take one Adam step at the scheduled
    rate. The checkpoint with the highest validation MCC is restored into the
    returned model; `checkpoint_path` (if given) additionally captures the
    last epoch's full state for resuming.
    """
    cfg.validate()
    if len(split.train) == 0:
        raise ConfigError("empty training split")
    if split.ws != cfg.ws:
        raise ConfigError(f"the split's windows span {split.ws} dates, the config's ws is {cfg.ws}")
    model = TrimodalModel(cfg, doc_dim=split.panel.dim, variant=variant)
    packed = PackedPanel.from_panel(split.panel, graph, cfg.dtype)
    n_batches = -(-len(split.train) // cfg.batch_size)
    total_steps = max(1, cfg.epochs * n_batches)
    history: list[EpochStats] = []
    step = 0
    start_epoch = 1
    best_mcc = -np.inf
    best_epoch = 0
    best_snap = model.params.snapshot()
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if ckpt.config.to_dict() != cfg.to_dict() or ckpt.variant != variant:
            raise CheckpointError("checkpoint config/variant does not match this run")
        model.params.load_state_arrays(ckpt.arrays)
        best_snap = model.params.read_arrays(ckpt.arrays, "best")
        history = list(ckpt.history)
        step = ckpt.step
        start_epoch = ckpt.epoch + 1
        best_mcc = ckpt.best_valid_mcc
        best_epoch = ckpt.best_epoch

    writer = None
    csv_fh = None
    if metrics_csv is not None:
        csv_fh = open(metrics_csv, "a" if resume_from is not None else "w", newline="")
        writer = csv.writer(csv_fh, lineterminator="\n")
        if resume_from is None:
            writer.writerow(
                ["epoch", "train_loss", "valid_acc", "valid_mcc", "seconds", "peak_mem_bytes"]
            )
    try:
        for epoch in range(start_epoch, cfg.epochs + 1):
            t0 = time.perf_counter()
            losses = []
            for bi, batch in enumerate(batch_iter(split.train, cfg.batch_size, cfg.seed, epoch)):
                model.params.zero_grads()
                loss, _ = model.loss_batch(packed, batch)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch} batch {bi}; "
                        + _param_norm_report(model.params)
                    )
                loss.backward()
                if cfg.grad_clip is not None:
                    _clip_grads(model.params, cfg.grad_clip)
                step += 1
                adam_step(model.params, lr_schedule(cfg.lr, step, total_steps, cfg.warmup_frac), step)
                losses.append(loss_val)
            valid_acc, valid_mcc = evaluate_part(model, packed, split.valid)
            row = EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                valid_acc=valid_acc,
                valid_mcc=valid_mcc,
                seconds=time.perf_counter() - t0,
                peak_mem_bytes=_peak_mem_bytes(),
            )
            history.append(row)
            if writer is not None:
                writer.writerow(
                    [row.epoch, repr(row.train_loss), repr(row.valid_acc),
                     repr(row.valid_mcc), repr(row.seconds), row.peak_mem_bytes]
                )
                csv_fh.flush()
            if np.isfinite(valid_mcc) and valid_mcc > best_mcc:
                best_mcc = valid_mcc
                best_epoch = epoch
                best_snap = model.params.snapshot()
            if checkpoint_path is not None:
                save_checkpoint(
                    checkpoint_path, model, epoch=epoch, step=step,
                    best_valid_mcc=best_mcc, best_epoch=best_epoch,
                    best_snap=best_snap, history=history,
                )
    finally:
        if csv_fh is not None:
            csv_fh.close()
    model.params.restore(best_snap)
    log.info(
        "training done: %d epochs, best valid MCC %.4f at epoch %d",
        len(history), best_mcc if history else float("nan"), best_epoch,
    )
    return model, history


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(
    path,
    model: TrimodalModel,
    epoch: int,
    step: int,
    best_valid_mcc: float,
    best_epoch: int,
    best_snap: dict[str, np.ndarray],
    history: list[EpochStats],
) -> None:
    arrays = model.params.state_arrays()
    for name, arr in best_snap.items():
        arrays[f"best/{name}"] = arr
    meta = {
        "kind": CHECKPOINT_KIND,
        "head_version": HEAD_VERSION,
        "config": model.cfg.to_dict(),
        "variant": model.variant,
        "doc_dim": model.doc_dim,
        "epoch": epoch,
        "step": step,
        "best_valid_mcc": float(best_valid_mcc) if np.isfinite(best_valid_mcc) else None,
        "best_epoch": best_epoch,
        "history": [asdict(h) for h in history],
    }
    save_bundle(path, arrays, meta)


def load_checkpoint(path) -> Checkpoint:
    try:
        arrays, meta = load_bundle(path)
    except FormatError as exc:
        raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
    if meta.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(f"{path} is not a checkpoint bundle")
    if meta.get("head_version") != HEAD_VERSION:
        raise CheckpointError(
            f"{path} was written for head version {meta.get('head_version', 1)}, this build "
            f"runs version {HEAD_VERSION} (head function and parameter layout); retrain the model"
        )
    try:
        best = meta["best_valid_mcc"]
        ckpt = Checkpoint(
            config=TrainConfig.from_dict(meta["config"]),
            variant=meta["variant"],
            doc_dim=int(meta["doc_dim"]),
            epoch=int(meta["epoch"]),
            step=int(meta["step"]),
            best_valid_mcc=-np.inf if best is None else float(best),
            best_epoch=int(meta["best_epoch"]),
            history=[EpochStats(**h) for h in meta["history"]],
            arrays=arrays,
        )
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise CheckpointError(f"{path} has a malformed header: {exc!r}") from exc
    if ckpt.variant not in VARIANTS or ckpt.doc_dim < 1:
        raise CheckpointError(
            f"{path} has a malformed header: variant {ckpt.variant!r}, doc_dim {ckpt.doc_dim}"
        )
    return ckpt


def model_from_checkpoint(path, use_best: bool = True) -> tuple[TrimodalModel, Checkpoint]:
    """Rebuild the model a checkpoint describes, loading best or last weights."""
    ckpt = load_checkpoint(path)
    model = TrimodalModel(ckpt.config, doc_dim=ckpt.doc_dim, variant=ckpt.variant)
    model.params.load_state_arrays(ckpt.arrays)
    if use_best:
        model.params.restore(model.params.read_arrays(ckpt.arrays, "best"))
    return model, ckpt
