"""Run and training configuration.

Config files are flat INI with one section per concern; every value can be
overridden from the command line. The effective config is echoed into the
output directory for provenance.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError

VARIANTS = ("full", "glu_fusion", "ca_fusion", "drop_graph", "drop_docs", "drop_indicators")


@dataclass
class TrainConfig:
    d: int = 64  # shared latent width
    ws: int = 20  # window size
    # heads and head_dim give d' = heads * head_dim, the width of the stored
    # d x d' query/key/value projections; heads also sets the score scale
    # 1/(heads * sqrt(d')), and head_dim the glorot bound of each head's block
    heads: int = 2  # cross-attention heads
    head_dim: int | None = None  # per-head width, defaults to d
    gat_heads: int = 2  # graph-attention heads, each with its own softmax
    gat_layers: int = 1
    fusion_layers: int = 1
    epochs: int = 200
    batch_size: int = 1024
    lr: float = 1e-4
    warmup_frac: float = 0.1
    seed: int = 0
    precision: str = "float64"
    grad_clip: float | None = None

    def validate(self) -> "TrainConfig":
        positives = {
            "d": self.d, "ws": self.ws, "heads": self.heads,
            "gat_heads": self.gat_heads, "gat_layers": self.gat_layers,
            "fusion_layers": self.fusion_layers, "batch_size": self.batch_size,
        }
        for name, value in positives.items():
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        for name, value in (("epochs", self.epochs), ("seed", self.seed)):
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if not 0 < self.lr < np.inf:  # NaN included
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.warmup_frac <= 0.5:
            raise ConfigError(f"warmup_frac must lie in [0, 0.5], got {self.warmup_frac}")
        if self.precision not in ("float64", "float32"):
            raise ConfigError(f"precision must be float64 or float32, got {self.precision!r}")
        if self.head_dim is not None and self.head_dim < 1:
            raise ConfigError(f"head_dim must be positive, got {self.head_dim}")
        if self.grad_clip is not None and not 0 < self.grad_clip < np.inf:
            raise ConfigError(f"grad_clip must be positive and finite, got {self.grad_clip}")
        return self

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32

    @property
    def effective_head_dim(self) -> int:
        return self.d if self.head_dim is None else self.head_dim

    def replace(self, **kw) -> "TrainConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
        for name, value in d.items():
            ftype = _TRAIN_TYPES[name].type  # "int", "float | None", ...
            kinds = {"int": (int,), "float": (int, float), "str": (str,)}[ftype.split(" |")[0]]
            if not (value is None and "None" in ftype) and (
                not isinstance(value, kinds) or isinstance(value, bool)
            ):
                raise ConfigError(f"train config {name} = {value!r} is not of type {ftype}")
        return cls(**d).validate()


@dataclass
class RunConfig:
    prices: str = ""
    documents: str = ""
    embeddings: str = ""
    graph: str = ""
    splits: str = ""  # serialized split bundle, used instead of raw files when set
    outdir: str = "out"
    thresholds: tuple[float, float] = (-0.01, 0.01)
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    variants: tuple[str, ...] = ("full",)
    seeds: tuple[int, ...] = (0,)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> "RunConfig":
        self.train.validate()
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r}; choose from {VARIANTS}")
        if not self.seeds:
            raise ConfigError("at least one seed required")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        if not self.thresholds[0] < 0 < self.thresholds[1]:
            raise ConfigError(f"thresholds must straddle zero, got {self.thresholds}")
        return self

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["train"] = self.train.to_dict()
        return d


_TRAIN_TYPES = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _parse_scalar(name: str, raw: str):
    raw = raw.strip()
    if name in ("head_dim", "grad_clip") and raw.lower() in ("", "none"):
        return None
    if name == "precision":
        return raw
    if name in ("lr", "warmup_frac", "grad_clip"):
        return float(raw)
    return int(raw)


LIST_KEYS = ("thresholds", "ratios", "seeds", "variants")


def parse_list(key: str, raw: str) -> tuple:
    """The comma-list value of option `key` (one of LIST_KEYS); a bad one raises ValueError."""
    items = [v.strip() for v in raw.split(",")]
    if key == "variants":
        return tuple(v for v in items if v)
    values = tuple((int if key == "seeds" else float)(v) for v in items)
    if key == "thresholds" and len(values) != 2:
        raise ValueError(f"thresholds takes two values, got {len(values)}")
    return values


def load_run_config(path) -> RunConfig:
    """Parse an INI run config; unknown keys are rejected."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    cfg = RunConfig()
    try:
        if parser.has_section("data"):
            sec = parser["data"]
            for key in sec:
                if key in ("prices", "documents", "embeddings", "graph", "splits"):
                    setattr(cfg, key, sec[key])
                elif key in ("thresholds", "ratios"):
                    setattr(cfg, key, parse_list(key, sec[key]))
                else:
                    raise ConfigError(f"unknown [data] key {key!r}")
        if parser.has_section("train"):
            for key in parser["train"]:
                if key not in _TRAIN_TYPES:
                    raise ConfigError(f"unknown [train] key {key!r}")
                setattr(cfg.train, key, _parse_scalar(key, parser["train"][key]))
        if parser.has_section("eval"):
            sec = parser["eval"]
            for key in sec:
                if key in ("variants", "seeds"):
                    setattr(cfg, key, parse_list(key, sec[key]))
                else:
                    raise ConfigError(f"unknown [eval] key {key!r}")
        if parser.has_section("out"):
            for key in parser["out"]:
                if key == "dir":
                    cfg.outdir = parser["out"][key]
                else:
                    raise ConfigError(f"unknown [out] key {key!r}")
    except ValueError as exc:
        raise ConfigError(f"bad value in {path}: {exc}") from exc
    return cfg.validate()


def echo_config(cfg: RunConfig, outdir) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "effective_config.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
