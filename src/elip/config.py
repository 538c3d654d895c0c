"""Configuration dataclasses and their typed reading from a JSON document
(storage.read_config reads the file; storage.write_json writes asdict of a
config)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from types import GenericAlias, UnionType
from typing import get_args, get_type_hints

from .errors import ConfigError

VARIANTS = ("C", "S", "B")

# Full-scale re-ranking depth per variant and benchmark family; desk-scale
# runs default to k=10. These are configuration echoes, not desk targets.
FULL_SCALE_K = {
    "C": {"standard": 100, "occluded": 500, "imagenet_r": 1000},
    "S": {"standard": 100, "occluded": 500, "imagenet_r": 200},
    "B": {"standard": 20, "occluded": 100, "imagenet_r": 200},
}

DESK_RERANK_K = 10


@dataclass
class DimsConfig:
    """Encoder geometry; defaults are the toy scale."""

    d_t: int = 24
    d_v: int = 32
    d_e: int = 32
    P: int = 16
    m: int = 8
    L_t: int = 2
    L_v: int = 2
    H: int = 4
    n: int = 10
    insert_layer: int = 0
    d_in: int = 12
    vocab: int = 64

    def validate(self) -> "DimsConfig":
        for name in ("d_t", "d_v", "d_e", "P", "m", "L_t", "L_v", "H", "d_in", "vocab"):
            if getattr(self, name) < 1:
                raise ConfigError(f"dims field {name} must be >= 1")
        if self.d_t % self.H or self.d_v % self.H:
            raise ConfigError(
                f"widths d_t={self.d_t}, d_v={self.d_v} must divide by H={self.H}"
            )
        if self.n < 0:
            raise ConfigError(f"prompt count n={self.n} must be >= 0")
        if not 0 <= self.insert_layer < self.L_v:
            raise ConfigError(
                f"insert_layer={self.insert_layer} outside [0, {self.L_v})"
            )
        return self


@dataclass
class MapperConfig:
    """Text-to-prompt MLP wiring: 3 linear layers, GELU between pairs; the
    prompt count is DimsConfig.n."""

    input_mode: str = "cls"  # cls | dense_mean
    hidden: int = 0  # 0 -> 4 * d_v, as hidden_width resolves it

    def hidden_width(self, d_v: int) -> int:
        """The mapper's hidden width for image width d_v: hidden, or 4 * d_v
        when hidden is 0."""
        return self.hidden or 4 * d_v

    def validate(self) -> "MapperConfig":
        if self.input_mode not in ("cls", "dense_mean"):
            raise ConfigError(f"unknown mapper input_mode {self.input_mode!r}")
        if self.hidden < 0:
            raise ConfigError(f"mapper hidden={self.hidden} must be >= 0")
        return self


@dataclass
class TrainConfig:
    variant: str = "C"
    lr: float | None = None  # None -> variant default (1e-3 for C/S, 1e-5 for B)
    steps: int = 100
    conditioning: str = "per_row"  # per_row | diagonal
    finetune_itm: bool = False
    jest_fraction: float = 0.0  # 0 -> no learnability selection
    seed: int = 7
    subset_fraction: float = 1.0
    grad_clip: float = 1.0
    ckpt_interval: int = 0  # 0 -> final checkpoint only

    def resolved_lr(self) -> float:
        if self.lr is not None:
            return self.lr
        return 1e-5 if self.variant == "B" else 1e-3

    def validate(self) -> "TrainConfig":
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr={self.lr} must be finite and non-negative")
        if self.steps < 1:
            raise ConfigError(f"steps={self.steps} must be >= 1")
        if self.conditioning not in ("per_row", "diagonal"):
            raise ConfigError(f"unknown conditioning {self.conditioning!r}")
        if not 0.0 <= self.jest_fraction <= 1.0:
            raise ConfigError("jest_fraction must lie in [0, 1]")
        if not 0.0 < self.subset_fraction <= 1.0:
            raise ConfigError("subset_fraction must lie in (0, 1]")
        if not (math.isfinite(self.grad_clip) and self.grad_clip > 0):
            raise ConfigError(f"grad_clip={self.grad_clip} must be finite and positive")
        if self.ckpt_interval < 0:
            raise ConfigError(f"ckpt_interval={self.ckpt_interval} must be >= 0")
        return self


@dataclass
class SynthSpec:
    N: int = 200
    clusters: int = 20
    signal_strength: float = 0.6
    P: int = DimsConfig.P
    d_in: int = DimsConfig.d_in
    m: int = DimsConfig.m

    def validate(self) -> "SynthSpec":
        if not self.N >= self.clusters >= 2:
            raise ConfigError(f"need N >= clusters >= 2, got N={self.N}, clusters={self.clusters}")
        if not (math.isfinite(self.signal_strength) and self.signal_strength > 0):
            raise ConfigError(
                f"signal_strength={self.signal_strength} must be finite and positive"
            )
        if self.P < 2 or self.d_in < 2:
            raise ConfigError("patch geometry too small to carve a signal region")
        return self


@dataclass
class RunConfig:
    """Everything a CLI run needs; serializes to one JSON document."""

    seed: int = 7
    dims: DimsConfig = field(default_factory=DimsConfig)
    mapper: MapperConfig = field(default_factory=MapperConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    rerank_k: int = DESK_RERANK_K
    variant: str = "C"
    # gen-synth's SynthSpec sizes; dims sets its patch geometry
    synth: dict = field(default_factory=dict)
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """A RunConfig from its JSON document; an unknown key or a wrongly
        typed value, at any level, is a ConfigError naming the field. The
        synth keys are the SynthSpec fields dims does not set, typed as there."""
        cfg = _from_doc(cls, doc, ())
        sizes = {f.name for f in fields(SynthSpec)} - {f.name for f in fields(DimsConfig)}
        extra = sorted(set(cfg.synth) - sizes)
        if extra:
            raise ConfigError(f"config field synth.{extra[0]} is not one of {sorted(sizes)}")
        _from_doc(SynthSpec, cfg.synth, ("synth",))
        return cfg


def _conforms(value, hint) -> bool:
    """value has the JSON shape of the field type hint, list[T] a list of
    T; a bool is no number."""
    if isinstance(hint, UnionType):
        return any(_conforms(value, h) for h in get_args(hint))
    if isinstance(hint, GenericAlias):
        item = get_args(hint)[0]
        return isinstance(value, list) and all(_conforms(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _from_doc(cls, doc, path: tuple):
    """cls from the JSON object doc found at the config key path."""
    if not isinstance(doc, dict):
        where = ".".join(path) or "document"
        raise ConfigError(f"config {where} must be a JSON object, got {doc!r}")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name not in doc:
            continue
        value, hint = doc[f.name], hints[f.name]
        if is_dataclass(hint):
            value = _from_doc(hint, value, (*path, f.name))
        elif not _conforms(value, hint):
            name = ".".join((*path, f.name))
            raise ConfigError(f"config field {name} must be {f.type}, got {value!r}")
        values[f.name] = value
    return cls(**values)
