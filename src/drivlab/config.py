"""Flat key = value configuration files and the pipeline configuration."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Mapping

from .errors import MissingArtifactError, ValidationError
from .simgen import WorldConfig


def parse_kv_file(path) -> dict[str, str]:
    """Flat ``key = value`` text; ``#`` starts a comment, blank lines ignored."""
    if not os.path.exists(path):
        raise MissingArtifactError(f"missing artifact: config file {path}")
    out: dict[str, str] = {}
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
            out[key] = value
    return out


@dataclass
class PipelineConfig:
    """All knobs for the five-stage pipeline. Key names match the config file."""

    episodes: int = 1000
    episode_length: int = 300
    seed: int = 0
    k: int = 4
    m: int = 8
    obs_dim: int = 16

    curvature_sigma: float = 0.004
    curvature_rate: float = 0.08
    curvature_jump_prob: float = 0.015
    curvature_jump_scale: float = 0.02
    intersection_rate: float = 2.5
    congestion_level: float = 0.6
    visibility: float = 0.7
    obs_noise_scale: float = 0.5
    steer_gain: float = 400.0
    base_speed: float = 80.0

    driver_lr: float = 1e-3
    driver_epochs: int = 10
    driver_batch_size: int = 32
    driver_dropout: float = 0.1
    loss_balance: float = 1.0

    hazard_lr: float = 1e-3
    hazard_epochs: int = 10
    hazard_batch_size: int = 32
    hazard_dropout: float = 0.1

    thresholds: str = "middle"  # tight | middle | loose | all
    budgets: str = "0.01:1.0:0.01"
    mc_samples: int = 20
    count_unit: str = "steps"  # steps | windows

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValidationError(f"config key {f.name}: must be finite, got {getattr(self, f.name)!r}")
        if self.thresholds not in ("tight", "middle", "loose", "all"):
            raise ValidationError(
                f"thresholds must be tight, middle, loose or all, got {self.thresholds!r}"
            )
        if self.count_unit not in ("steps", "windows"):
            raise ValidationError(f"count_unit must be steps or windows, got {self.count_unit!r}")
        if self.episodes < 3:
            raise ValidationError("episodes must be >= 3 (three-way split)")
        if self.m < 0 or self.k < 1:
            raise ValidationError("need m >= 0 and k >= 1")
        if self.episode_length < self.k + self.m + 1:
            raise ValidationError(
                f"episode_length {self.episode_length} < k + m + 1 = {self.k + self.m + 1}"
            )
        if self.mc_samples < 2:
            raise ValidationError("mc_samples must be >= 2")
        parse_budgets(self.budgets)

    @classmethod
    def from_mapping(cls, raw: Mapping[str, str]) -> "PipelineConfig":
        known = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            text = raw[f.name]
            try:
                if f.type == "int":
                    kwargs[f.name] = int(text)
                elif f.type == "float":
                    kwargs[f.name] = float(text)
                else:
                    kwargs[f.name] = text
            except ValueError:
                raise ValidationError(f"config key {f.name}: cannot parse {text!r}") from None
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        return cls.from_mapping(parse_kv_file(path))

    def to_mapping(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def world_config(self, seed: int | None = None) -> WorldConfig:
        return WorldConfig(
            episode_length=self.episode_length,
            curvature_sigma=self.curvature_sigma,
            curvature_rate=self.curvature_rate,
            curvature_jump_prob=self.curvature_jump_prob,
            curvature_jump_scale=self.curvature_jump_scale,
            intersection_rate=self.intersection_rate,
            congestion_level=self.congestion_level,
            visibility=self.visibility,
            obs_noise_scale=self.obs_noise_scale,
            steer_gain=self.steer_gain,
            base_speed=self.base_speed,
            obs_dim=self.obs_dim,
            seed=self.seed if seed is None else seed,
        )

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
            budgets = [b for b in budgets if b <= 1.0 + 1e-12]
        else:
            budgets = [float(v) for v in text.split(",") if v.strip()]
        if not budgets or any(not 0 < b <= 1 for b in budgets):
            raise ValueError
    except ValueError:
        raise ValidationError(
            f"budgets must be 'start:stop:step' or a comma list within (0, 1], got {text!r}"
        ) from None
    return budgets
