"""Flat key = value configuration files and the pipeline configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .core import key, parse_key
from .errors import MissingArtifactError, ValidationError
from .simgen import WorldConfig


def parse_kv_file(path) -> dict[str, tuple[str, int]]:
    """Flat ``key = value`` text as key -> (value, line number); ``#`` starts
    a comment, blank lines ignored."""
    if not os.path.exists(path):
        raise MissingArtifactError(f"missing artifact: config file {path}")
    out: dict[str, tuple[str, int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise ValidationError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value, lineno
    return out


@dataclass(frozen=True)
class PipelineConfig(WorldConfig):
    """All knobs for the five-stage pipeline. Key names match the config file;
    the world keys and their domains are ``WorldConfig``'s, and ``seed`` is
    the pipeline's master seed."""

    episodes: int = key(1000, "[3, inf)")  # three-way split
    k: int = key(4, "[1, inf)")
    m: int = key(8, "[0, inf)")

    driver_lr: float = key(1e-3, "(0, inf)")
    driver_epochs: int = key(10, "[1, inf)")
    driver_batch_size: int = key(32, "[1, inf)")
    driver_dropout: float = key(0.1, "(0, 1)")  # > 0: eval runs the MC-dropout baseline
    loss_balance: float = key(1.0, "[0, inf)")

    hazard_lr: float = key(1e-3, "(0, inf)")
    hazard_epochs: int = key(10, "[1, inf)")
    hazard_batch_size: int = key(32, "[1, inf)")
    hazard_dropout: float = key(0.1, "[0, 1)")

    thresholds: str = key("middle", "{tight, middle, loose, all}")
    budgets: str = "0.01:1.0:0.01"
    mc_samples: int = key(20, "[2, inf)")
    count_unit: str = key("steps", "{steps, windows}")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.episode_length < self.k + self.m + 1:
            raise ValidationError(
                f"episode_length {self.episode_length} < k + m + 1 = {self.k + self.m + 1}"
            )
        parse_budgets(self.budgets)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """The config a ``parse_kv_file`` file sets, each key read and checked
        by ``parse_key``; an error about a key names its line."""
        located = parse_kv_file(path)
        raw = {name: value for name, (value, _) in located.items()}
        declared = {f.name: f for f in fields(cls)}
        unknown = [name for name in raw if name not in declared]
        if unknown:
            line = located[unknown[0]][1]
            raise ValidationError(f"{path}:{line}: unknown config keys: {', '.join(unknown)}")
        values = {name: parse_key(declared[name], raw, name, f"{path}:{line}: config key")
                  for name, (_, line) in located.items()}
        try:
            return cls(**values)
        except ValidationError as exc:  # a rule across keys
            raise ValidationError(f"{path}: {exc}") from None

    def to_mapping(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def world_config(self) -> WorldConfig:
        return WorldConfig(**{f.name: getattr(self, f.name) for f in fields(WorldConfig)})

    def threshold_names(self) -> list[str]:
        return ["tight", "middle", "loose"] if self.thresholds == "all" else [self.thresholds]


def parse_budgets(text: str) -> list[float]:
    """``start:stop:step`` inclusive grid, or a comma-separated list."""
    text = text.strip()
    try:
        if ":" in text:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if step <= 0 or start <= 0 or stop > 1 or start > stop:
                raise ValueError
            n = int(round((stop - start) / step))
            budgets = [round(start + i * step, 10) for i in range(n + 1)]
            budgets = [b for b in budgets if b <= stop + 1e-12]
        else:
            budgets = [float(v) for v in text.split(",") if v.strip()]
        if not budgets or any(not 0 < b <= 1 for b in budgets):
            raise ValueError
    except ValueError:
        raise ValidationError(
            f"budgets must be 'start:stop:step' or a comma list within (0, 1], got {text!r}"
        ) from None
    return budgets
