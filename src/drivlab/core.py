"""Data model, windowing, normalization and the three-way dataset split.

Everything downstream (simulator, models, labeling, evaluation) speaks in the
types defined here. All types are immutable after construction; numpy buffers
are marked read-only so slices of windows can safely share their columns.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
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


def _readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _bad_step(obs: np.ndarray, speed: np.ndarray, angle: np.ndarray) -> tuple[int, str] | None:
    """(step, reason) for the first step with non-finite obs or a speed or
    angle outside the legal CAN ranges; None when every step is valid."""
    bad_obs = ~np.all(np.isfinite(obs), axis=1)
    bad_speed = ~((speed >= SPEED_MIN) & (speed <= SPEED_MAX))
    bad = bad_obs | bad_speed | ~((angle >= ANGLE_MIN) & (angle <= ANGLE_MAX))
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if bad_obs[i]:
        return i, "obs has non-finite entries"
    if bad_speed[i]:
        return i, f"speed {speed[i]} outside [{SPEED_MIN}, {SPEED_MAX}]"
    return i, f"angle {angle[i]} outside [{ANGLE_MIN}, {ANGLE_MAX}]"


@dataclass(frozen=True)
class Episode:
    """One drive as read-only float64 columns sampled at SAMPLE_RATE_HZ:
    observation vectors ``obs`` (n, d) and the human oracle's maneuver,
    ``speed`` (n,) and ``angle`` (n,), which must lie in the legal CAN value
    ranges. Row i is step i.

    ``meta`` holds generator bookkeeping (config digest, hidden difficulty
    traces). It exists for validation and tests only and must never feed a
    model input.
    """

    episode_id: str
    seed: int
    obs: np.ndarray
    speed: np.ndarray
    angle: np.ndarray
    meta: Mapping[str, object]

    def __post_init__(self) -> None:
        for name in ("obs", "speed", "angle"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        n = len(self.obs)
        if self.obs.ndim != 2:
            raise ValidationError(f"episode {self.episode_id}: obs must be (n, d), got {self.obs.shape}")
        if n == 0:
            raise ValidationError(f"episode {self.episode_id} has no records")
        if self.speed.shape != (n,) or self.angle.shape != (n,):
            raise ValidationError(f"episode {self.episode_id}: speed and angle do not match {n} obs rows")
        bad = _bad_step(self.obs, self.speed, self.angle)
        if bad is not None:
            raise ValidationError(f"episode {self.episode_id}: {bad[1]} at step {bad[0]}")

    def __len__(self) -> int:
        return self.obs.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.obs.shape[1]


@dataclass(frozen=True)
class Windows:
    """Model inputs/targets as row indices into episode columns.

    ``obs``/``speed``/``angle`` concatenate the rows of the episodes the
    windows reference. Window i ends at row ``end[i]``, which is step
    ``t[i]`` of episode ``episode_ids[ep[i]]``: its k+1 observation frames are
    rows end-k..end, its past speeds/angles rows end-k..end-1 and its targets
    row end. Slicing selects windows and shares the columns.
    """

    obs: np.ndarray  # (rows, obs_dim)
    speed: np.ndarray  # (rows,)
    angle: np.ndarray  # (rows,)
    end: np.ndarray  # (W,)
    ep: np.ndarray  # (W,)
    t: np.ndarray  # (W,)
    episode_ids: tuple[str, ...]
    k: int

    def __len__(self) -> int:
        return self.end.shape[0]

    def __getitem__(self, idx) -> Windows:
        return replace(self, end=self.end[idx], ep=self.ep[idx], t=self.t[idx])

    @property
    def target_speed(self) -> np.ndarray:
        return self.speed[self.end]

    @property
    def target_angle(self) -> np.ndarray:
        return self.angle[self.end]


def windows_at(
    episodes: Mapping[str, Episode], positions: Sequence[tuple[str, int]], k: int
) -> Windows:
    """The windows ending at each (episode_id, t) position, in order.

    The only constructor of windows. Windows never span episodes: t must lie
    in [k, len-1] of its episode.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    codes = {eid: i for i, eid in enumerate(dict.fromkeys(eid for eid, _ in positions))}
    unknown = [eid for eid in codes if eid not in episodes]
    if unknown:
        raise ValidationError(f"scene references unknown episode {unknown[0]}")
    used = [episodes[eid] for eid in codes]
    ep = np.array([codes[eid] for eid, _ in positions], dtype=np.int64)
    t = np.array([t for _, t in positions], dtype=np.int64)
    lengths = np.array([len(e) for e in used], dtype=np.int64)
    bad = (t < k) | (t >= lengths[ep])
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"scene t={t[i]} out of window range for episode {positions[i][0]}")
    empty = {"obs": np.empty((0, 0)), "speed": np.empty(0), "angle": np.empty(0)}
    obs, speed, angle = (
        _readonly(np.concatenate([getattr(e, c) for e in used] or [empty[c]])) for c in empty
    )
    starts = np.cumsum(lengths) - lengths
    return Windows(obs, speed, angle, end=starts[ep] + t, ep=ep, t=t, episode_ids=tuple(codes), k=k)


def window_positions(episodes: Iterable[Episode], k: int, stride: int = 1) -> list[tuple[str, int]]:
    """(episode_id, t) for every t in [k, len-1] stepping by ``stride``, per
    episode in the given order; an episode shorter than k+1 steps has none."""
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    return [(ep.episode_id, t) for ep in episodes for t in range(k, len(ep), stride)]


def make_windows(*episodes: Episode, k: int = DEFAULT_K, stride: int = 1) -> Windows:
    """The windows of ``episodes`` at every t in [k, len-1] stepping by
    ``stride``, episode by episode in the given order."""
    return windows_at(episodes_by_id(episodes), window_positions(episodes, k, stride), k)


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


def fit_normalizer(windows: Windows) -> Normalizer:
    """Population z-score statistics over all frames, past values and targets,
    each window contributing its rows end-k..end."""
    if not windows:
        raise ValidationError("cannot fit a normalizer on an empty window list")
    rows = (windows.end[:, None] + np.arange(-windows.k, 1)).ravel()
    frames, speeds, angles = windows.obs[rows], windows.speed[rows], windows.angle[rows]
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
        # tolist() yields Python floats, whose repr is the shortest round-trip form
        rows = zip(ep.speed.tolist(), ep.angle.tolist(), ep.obs.tolist())
        for t, (speed, angle, obs) in enumerate(rows):
            lines.append(f"{ep.episode_id},{t},{speed!r},{angle!r},{','.join(map(repr, obs))}")
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
        seen: set[str] = set()
        cur_id: str | None = None
        values: list[list[float]] = []  # speed, angle, obs per row
        linenos: list[int] = []

        def flush() -> None:
            if cur_id is None:
                return
            cols = np.array(values)
            bad = _bad_step(cols[:, 2:], cols[:, 0], cols[:, 1])
            if bad is not None:
                raise ValidationError(f"{path}:{linenos[bad[0]]}: malformed episode row: {bad[1]}")
            episodes.append(
                Episode(cur_id, seed=0, obs=cols[:, 2:], speed=cols[:, 0], angle=cols[:, 1], meta={})
            )

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
                if eid in seen:
                    raise ValidationError(
                        f"{path}:{lineno}: malformed episode row: episode {eid} reappears after another episode"
                    )
                seen.add(eid)
                cur_id, values, linenos = eid, [], []
            try:
                step = int(fields[1])
                row = [float(v) for v in fields[2:]]
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: malformed episode row: {exc}") from None
            if step != len(values):
                raise ValidationError(
                    f"{path}:{lineno}: malformed episode row: step_index {step} is not the "
                    f"row's position {len(values)} in episode {eid}"
                )
            values.append(row)
            linenos.append(lineno)
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
