"""Data model, windowing, normalization and the three-way dataset split.

Everything downstream (simulator, models, labeling, evaluation) speaks in the
types defined here. All types are immutable after construction; numpy buffers
are marked read-only so windows can safely share views of episode arrays.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArtifactVersionError, MissingArtifactError, ValidationError

SPEED_MIN, SPEED_MAX = 0.0, 180.0  # km/h
ANGLE_MIN, ANGLE_MAX = -720.0, 720.0  # degrees
SAMPLE_RATE_HZ = 4
DEFAULT_K = 4
DEFAULT_OBS_DIM = 16
STD_FLOOR = 1e-6

SPLIT_NAMES = ("D1", "D2", "D3")

EPISODE_FORMAT = "#drivlab-episodes v1"
SPLIT_FORMAT = "#drivlab-splits v1"


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest exact round-trip form
    return repr(float(x))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimedRecord:
    """One synchronized sample: observation vector, human speed and steering angle.

    Sampled at SAMPLE_RATE_HZ. Speed and angle carry the human oracle's
    maneuver at this step and must lie in the legal CAN value ranges.
    """

    step_index: int
    obs: np.ndarray
    speed: float
    angle: float

    def __post_init__(self) -> None:
        obs = _readonly(np.atleast_1d(self.obs))
        object.__setattr__(self, "obs", obs)
        if obs.ndim != 1:
            raise ValidationError(f"obs must be a vector, got shape {obs.shape}")
        if not np.all(np.isfinite(obs)):
            raise ValidationError(f"obs has non-finite entries at step {self.step_index}")
        if not (SPEED_MIN <= self.speed <= SPEED_MAX):
            raise ValidationError(f"speed {self.speed} outside [{SPEED_MIN}, {SPEED_MAX}]")
        if not (ANGLE_MIN <= self.angle <= ANGLE_MAX):
            raise ValidationError(f"angle {self.angle} outside [{ANGLE_MIN}, {ANGLE_MAX}]")


@dataclass(frozen=True)
class Episode:
    """An ordered run of records from one drive.

    ``meta`` holds generator bookkeeping (config digest, hidden difficulty
    traces). It exists for validation and tests only and must never feed a
    model input.
    """

    episode_id: str
    seed: int
    records: tuple[TimedRecord, ...]
    meta: Mapping[str, object]

    def __post_init__(self) -> None:
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        if not records:
            raise ValidationError(f"episode {self.episode_id} has no records")
        d = records[0].obs.shape[0]
        for i, r in enumerate(records):
            if r.step_index != records[0].step_index + i:
                raise ValidationError(
                    f"episode {self.episode_id}: step_index not contiguous at position {i}"
                )
            if r.obs.shape[0] != d:
                raise ValidationError(f"episode {self.episode_id}: inconsistent obs dim")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def obs_dim(self) -> int:
        return self.records[0].obs.shape[0]

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cached = self.__dict__.get("_array_cache")
        if cached is None:
            obs = _readonly(np.stack([r.obs for r in self.records]))
            speeds = _readonly(np.array([r.speed for r in self.records]))
            angles = _readonly(np.array([r.angle for r in self.records]))
            cached = (obs, speeds, angles)
            self.__dict__["_array_cache"] = cached
        return cached

    def obs_matrix(self) -> np.ndarray:
        """(len, obs_dim) read-only view of all observation vectors."""
        return self._arrays()[0]

    def speeds(self) -> np.ndarray:
        return self._arrays()[1]

    def angles(self) -> np.ndarray:
        return self._arrays()[2]


@dataclass(frozen=True)
class WindowSample:
    """Model input/target for one step ``t``: k+1 observation frames up to and
    including t, the k previous speeds/angles, and the current-step targets."""

    frames: np.ndarray  # (k+1, obs_dim)
    past_angles: np.ndarray  # (k,)
    past_speeds: np.ndarray  # (k,)
    target_angle: float
    target_speed: float
    origin: tuple[str, int]  # (episode_id, t)

    @property
    def k(self) -> int:
        return self.frames.shape[0] - 1


def make_windows(episode: Episode, k: int = DEFAULT_K, stride: int = 1) -> list[WindowSample]:
    """One WindowSample per t in [k, len-1] stepping by ``stride``.

    Windows never span episodes; an episode shorter than k+1 records yields
    an empty list.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    n = len(episode)
    if n < k + 1:
        return []
    obs, speeds, angles = episode._arrays()
    out = []
    for t in range(k, n, stride):
        out.append(
            WindowSample(
                frames=obs[t - k : t + 1],
                past_angles=angles[t - k : t],
                past_speeds=speeds[t - k : t],
                target_angle=float(angles[t]),
                target_speed=float(speeds[t]),
                origin=(episode.episode_id, t),
            )
        )
    return out


@dataclass(frozen=True)
class SplitSet:
    """Disjoint episode-id partition into the three dataset roles."""

    d1: tuple[str, ...]
    d2: tuple[str, ...]
    d3: tuple[str, ...]

    def __post_init__(self) -> None:
        groups = (set(self.d1), set(self.d2), set(self.d3))
        total = sum(len(g) for g in groups)
        union = set().union(*groups)
        if total != len(union):
            raise ValidationError("splits are not pairwise disjoint")
        sizes = sorted(len(g) for g in groups)
        if sizes[-1] - sizes[0] > 1:
            raise ValidationError(f"split sizes differ by more than 1: {sizes}")

    def split_of(self, episode_id: str) -> str:
        for name, ids in zip(SPLIT_NAMES, (self.d1, self.d2, self.d3)):
            if episode_id in ids:
                return name
        raise ValidationError(f"episode {episode_id} not in any split")

    def ids_of(self, split: str) -> tuple[str, ...]:
        try:
            return {"D1": self.d1, "D2": self.d2, "D3": self.d3}[split]
        except KeyError:
            raise ValidationError(f"unknown split {split!r}") from None


def split_dataset(episodes: Sequence[Episode], seed: int) -> SplitSet:
    """Shuffle episodes with ``seed`` and deal them into three near-equal splits.

    Deterministic for a fixed seed and independent of the input ordering.
    """
    ids = sorted(ep.episode_id for ep in episodes)
    if len(ids) != len(set(ids)):
        raise ValidationError("duplicate episode_ids")
    n = len(ids)
    if n < 3:
        raise ValidationError(f"insufficient episodes: need >= 3, got {n}")
    rng = np.random.default_rng(seed)
    perm = [ids[i] for i in rng.permutation(n)]
    base, rem = divmod(n, 3)
    sizes = [base + (1 if i < rem else 0) for i in range(3)]
    cuts = [0, sizes[0], sizes[0] + sizes[1], n]
    parts = [tuple(perm[cuts[i] : cuts[i + 1]]) for i in range(3)]
    return SplitSet(d1=parts[0], d2=parts[1], d3=parts[2])


@dataclass(frozen=True)
class Normalizer:
    """Per-channel z-score statistics, computed on the training split only."""

    mean_speed: float
    std_speed: float
    mean_angle: float
    std_angle: float
    obs_mean: np.ndarray  # (obs_dim,)
    obs_std: np.ndarray  # (obs_dim,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "obs_mean", _readonly(self.obs_mean))
        object.__setattr__(self, "obs_std", _readonly(self.obs_std))
        scalars = [self.mean_speed, self.std_speed, self.mean_angle, self.std_angle]
        if not np.all(np.isfinite(np.concatenate([scalars, self.obs_mean, self.obs_std]))):
            raise ValidationError("normalizer statistics must be finite")
        if self.std_speed <= 0 or self.std_angle <= 0 or np.any(self.obs_std <= 0):
            raise ValidationError("normalizer std values must be positive")

    def _stats(self, channel: str):
        if channel == "speed":
            return self.mean_speed, self.std_speed
        if channel == "angle":
            return self.mean_angle, self.std_angle
        if channel == "obs":
            return self.obs_mean, self.obs_std
        raise ValidationError(f"unknown channel {channel!r}")

    def normalize(self, x, channel: str):
        mean, std = self._stats(channel)
        return (np.asarray(x, dtype=np.float64) - mean) / std

    def denormalize(self, x, channel: str):
        mean, std = self._stats(channel)
        return np.asarray(x, dtype=np.float64) * std + mean


def _channel_stats(values: np.ndarray, name: str) -> tuple[float, float]:
    # population (divide-by-n) convention; floor guards constant channels
    mean = float(np.mean(values))
    std = float(np.std(values))
    if std < STD_FLOOR:
        warnings.warn(f"channel {name!r} is (near-)constant; std clamped to {STD_FLOOR}")
        std = STD_FLOOR
    return mean, std


def fit_normalizer(windows: Sequence[WindowSample]) -> Normalizer:
    """Population z-score statistics over all frames, past values and targets."""
    if not windows:
        raise ValidationError("cannot fit a normalizer on an empty window list")
    frames = np.concatenate([w.frames for w in windows], axis=0)
    speeds = np.concatenate(
        [np.concatenate([w.past_speeds, [w.target_speed]]) for w in windows]
    )
    angles = np.concatenate(
        [np.concatenate([w.past_angles, [w.target_angle]]) for w in windows]
    )
    mean_s, std_s = _channel_stats(speeds, "speed")
    mean_a, std_a = _channel_stats(angles, "angle")
    obs_mean = np.mean(frames, axis=0)
    obs_std = np.std(frames, axis=0)
    low = obs_std < STD_FLOOR
    if np.any(low):
        warnings.warn(
            f"obs channels {np.flatnonzero(low).tolist()} are (near-)constant; "
            f"std clamped to {STD_FLOOR}"
        )
        obs_std = np.where(low, STD_FLOOR, obs_std)
    return Normalizer(
        mean_speed=mean_s,
        std_speed=std_s,
        mean_angle=mean_a,
        std_angle=std_a,
        obs_mean=obs_mean,
        obs_std=obs_std,
    )


# ---------------------------------------------------------------------------
# Episode files and split manifests
# ---------------------------------------------------------------------------


def write_episodes(path, episodes: Sequence[Episode], provenance: Mapping[str, str] | None = None) -> None:
    """Line-delimited episode file; floats printed in shortest round-trip form."""
    if not episodes:
        raise ValidationError("no episodes to write")
    d = episodes[0].obs_dim
    lines = [f"{EPISODE_FORMAT} d={d} f={SAMPLE_RATE_HZ}"]
    for key, value in (provenance or {}).items():
        lines.append(f"# {key} {value}")
    for ep in episodes:
        if ep.obs_dim != d:
            raise ValidationError("episodes have inconsistent obs dims")
        for r in ep.records:
            obs = ",".join(_fmt(v) for v in r.obs)
            lines.append(f"{ep.episode_id},{r.step_index},{_fmt(r.speed)},{_fmt(r.angle)},{obs}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_episodes(path) -> list[Episode]:
    if not os.path.exists(path):
        raise MissingArtifactError(f"missing artifact: episode file {path}")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        parts = header.split()
        if not header.startswith("#drivlab-episodes"):
            raise ValidationError(f"{path}: not an episode file")
        if parts[0:2] != EPISODE_FORMAT.split():
            raise ArtifactVersionError(
                f"{path}: unsupported episode format {' '.join(parts[:2])!r}; "
                f"regenerate with `drivlab gen` ({EPISODE_FORMAT})"
            )
        try:
            d = int(dict(p.split("=") for p in parts[2:])["d"])
        except (KeyError, ValueError):
            raise ValidationError(f"{path}: malformed episode header {header!r}") from None

        episodes: list[Episode] = []
        cur_id: str | None = None
        cur: list[TimedRecord] = []

        def flush() -> None:
            if cur_id is not None:
                episodes.append(Episode(episode_id=cur_id, seed=0, records=tuple(cur), meta={}))

        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 4 + d:
                raise ValidationError(f"{path}:{lineno}: expected {4 + d} fields, got {len(fields)}")
            eid = fields[0]
            if eid != cur_id:
                flush()
                cur_id, cur = eid, []
            try:
                record = TimedRecord(
                    step_index=int(fields[1]),
                    obs=np.array([float(v) for v in fields[4:]]),
                    speed=float(fields[2]),
                    angle=float(fields[3]),
                )
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: malformed episode row: {exc}") from None
            cur.append(record)
        flush()
    if not episodes:
        raise ValidationError(f"{path}: no records")
    return episodes


def write_split_manifest(path, splits: SplitSet, provenance: Mapping[str, str] | None = None) -> None:
    lines = [SPLIT_FORMAT]
    for key, value in (provenance or {}).items():
        lines.append(f"# {key} {value}")
    for name in SPLIT_NAMES:
        for eid in splits.ids_of(name):
            lines.append(f"{eid}\t{name}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_split_manifest(path) -> SplitSet:
    if not os.path.exists(path):
        raise MissingArtifactError(f"missing artifact: split manifest {path}")
    groups: dict[str, list[str]] = {name: [] for name in SPLIT_NAMES}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != SPLIT_FORMAT:
            raise ArtifactVersionError(
                f"{path}: unsupported split manifest header {header!r}; "
                f"regenerate with `drivlab split` ({SPLIT_FORMAT})"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            try:
                eid, name = line.split("\t")
                groups[name].append(eid)
            except (ValueError, KeyError):
                raise ValidationError(f"{path}:{lineno}: malformed manifest line {line!r}") from None
    return SplitSet(d1=tuple(groups["D1"]), d2=tuple(groups["D2"]), d3=tuple(groups["D3"]))


def episodes_by_id(episodes: Iterable[Episode]) -> dict[str, Episode]:
    out = {}
    for ep in episodes:
        if ep.episode_id in out:
            raise ValidationError(f"duplicate episode_id {ep.episode_id}")
        out[ep.episode_id] = ep
    return out
