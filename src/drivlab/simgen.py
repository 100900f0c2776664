"""Procedural driving world with a deterministic human oracle.

Each episode draws a smooth curvature profile, intersection arrivals with a
hidden branch choice (left / straight / right), a lead-vehicle gap process,
and per-episode congestion/visibility levels. The oracle drives a simple
control law on the latent state; the observation vector exposes noisy
previews of the observable part of that state, while the branch choice stays
unobservable so that driving mistakes at intersections are unavoidable and
failure prediction has something real to learn.

All randomness flows from the episode seed through counter-based Philox
streams, one per concern, so changing one config knob never reshuffles
unrelated draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .core import ANGLE_MAX, ANGLE_MIN, SPEED_MAX, SPEED_MIN, Episode, _frozen, check_keys, key
from .errors import ValidationError

# stream ids for the per-concern Philox streams
_STREAM_CURVATURE = 0
_STREAM_ARRIVALS = 1
_STREAM_BRANCHES = 2
_STREAM_NOISE = 3
_STREAM_LEAD = 4
_STREAM_ENV = 5

_MASK64 = (1 << 64) - 1

# geometry of an intersection passage
ZONE_LENGTH = 8  # steps (2 s at 4 Hz)
APPROACH_WINDOW = 8  # steps over which the oracle slows before a zone
ZONE_SPEED_FACTOR = 0.45
ZONE_CURVATURE_DAMP = 0.05  # roads straighten through intersections
TURN_PEAK_DEG = 40.0
# sin(pi * progress) per zone step, from math.sin: np.sin need not give its bits
_TURN_SIN = np.array([math.sin(math.pi * (i / ZONE_LENGTH)) for i in range(ZONE_LENGTH)])
BRANCH_PROBS = (0.3, 0.4, 0.3)  # left, straight, right

FOLLOW_GAP_M = 25.0  # below this the oracle tracks the lead vehicle
_DIST_CAP = 40.0  # observation channel saturation for distance-to-zone
_GAP_CAP = 60.0

# signal scale per observation channel; measurement noise is proportional
_CHANNEL_SCALES = np.array(
    [0.01, 0.01, 0.01, 0.01, 0.15, 0.25, 0.2, 0.15, 0.15, 0.15, 0.25, 0.1]
)
N_SIGNAL_CHANNELS = len(_CHANNEL_SCALES)
N_NOISE_CHANNELS = 4  # pure-noise tail channels force the encoder to select
OBS_DIM = N_SIGNAL_CHANNELS + N_NOISE_CHANNELS


@dataclass(frozen=True)
class WorldConfig:
    """Generator knobs for one episode.

    ``congestion_level`` and ``visibility`` bound the per-episode draws:
    congestion is uniform on [0, congestion_level], visibility uniform on
    [visibility, 1]. ``intersection_rate`` is the expected number of
    intersections per 100 steps.
    """

    episode_length: int = key(300, "[1, inf)")
    curvature_sigma: float = key(0.004, "[0, inf)")
    curvature_rate: float = key(0.08, "[0, inf)")
    curvature_jump_prob: float = key(0.015, "[0, 1]")
    curvature_jump_scale: float = key(0.02, "[0, inf)")
    intersection_rate: float = key(2.5, "[0, 100]")
    congestion_level: float = key(0.6, "[0, 1]")
    visibility: float = key(0.7, "[0, 1]")
    obs_noise_scale: float = key(0.5, "[0, inf)")
    steer_gain: float = key(400.0)
    base_speed: float = key(80.0, f"(0, {SPEED_MAX}]")
    obs_dim: int = key(OBS_DIM, f"[{OBS_DIM}, {OBS_DIM}]")
    seed: int = key(0)

    def __post_init__(self) -> None:
        check_keys(self, "config key")


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    key = (seed & _MASK64) | (stream_id << 64)
    return np.random.Generator(np.random.Philox(key=key))


def oracle_action(latent: Mapping[str, object], config: WorldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic control law standing in for the human driver: the
    (angle, speed) columns of the hidden-state columns ``latent`` that
    ``simulate_episode`` returns.

    Angle tracks road curvature (damped through intersections) plus a
    sinusoidal turn ramp of +-TURN_PEAK_DEG for turning branches. Speed is
    the base speed scaled down by congestion, poor visibility, intersection
    approach/passage, and a short lead gap.
    """
    in_zone, dist = latent["zone_mask"], latent["dist_next"]
    curv = np.where(in_zone, latent["curvature"] * ZONE_CURVATURE_DAMP, latent["curvature"])
    ramp = _TURN_SIN[np.rint(latent["zone_progress"] * ZONE_LENGTH).astype(np.int64)]
    turn = np.where(in_zone, latent["branch"] * TURN_PEAK_DEG * ramp, 0.0)
    angle = np.clip(config.steer_gain * curv + turn, ANGLE_MIN, ANGLE_MAX)

    approach = ZONE_SPEED_FACTOR + (1.0 - ZONE_SPEED_FACTOR) * (dist / APPROACH_WINDOW)
    zone_factor = np.where(in_zone, ZONE_SPEED_FACTOR, np.where(dist < APPROACH_WINDOW, approach, 1.0))
    gap_factor = np.minimum(latent["lead_gap"] / FOLLOW_GAP_M, 1.0)
    vis_factor = 0.6 + 0.4 * latent["visibility"]
    speed = (
        config.base_speed
        * (1.0 - 0.5 * latent["congestion"])
        * vis_factor
        * zone_factor
        * gap_factor
    )
    return angle, np.clip(speed, SPEED_MIN, SPEED_MAX)


def _curvature_path(config: WorldConfig, n: int) -> np.ndarray:
    rng = _stream(config.seed, _STREAM_CURVATURE)
    eps = rng.standard_normal(n)
    jump_u = rng.random(n)
    jump_mag = rng.uniform(0.5, 1.5, size=n) * config.curvature_jump_scale
    jump_sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    c = np.empty(n)
    cur = 0.0
    for t in range(n):
        cur += -config.curvature_rate * cur + config.curvature_sigma * eps[t]
        if jump_u[t] < config.curvature_jump_prob:
            cur += jump_sign[t] * jump_mag[t]
        c[t] = cur
    return c


def _zone_schedule(
    config: WorldConfig, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Zone mask, branch sign, distance-to-next-zone-start and zone progress.

    Arrivals are an independent Bernoulli(rate/100) draw per step; an arrival
    while a zone is active is queued and opens its own zone right after, so
    the arrival count stays exactly Binomial(n, rate/100) and zones never
    overlap.
    """
    p = config.intersection_rate / 100.0
    rng_arrivals = _stream(config.seed, _STREAM_ARRIVALS)
    rng_branches = _stream(config.seed, _STREAM_BRANCHES)
    arrivals = rng_arrivals.random(n) < p

    in_zone = np.zeros(n, dtype=bool)
    branch = np.zeros(n, dtype=np.int64)
    progress = np.zeros(n)
    pending = 0
    zone_left = 0
    zone_pos = 0
    for t in range(n):
        if arrivals[t]:
            pending += 1
        if zone_left == 0 and pending > 0:
            pending -= 1
            zone_left = ZONE_LENGTH
            zone_pos = 0  # progress restarts even for back-to-back zones
            sign = int(rng_branches.choice((1, 0, -1), p=BRANCH_PROBS))
            branch[t : t + ZONE_LENGTH] = sign
        if zone_left > 0:
            in_zone[t] = True
            progress[t] = zone_pos / ZONE_LENGTH
            zone_pos += 1
            zone_left -= 1

    # a zone starts where its progress is 0; no zone ahead leaves the distance at n
    steps = np.arange(n)
    starts = np.flatnonzero(in_zone & (progress == 0.0))
    ahead = np.append(starts, n)[np.searchsorted(starts, steps)]
    dist = np.where(in_zone, 0, np.where(ahead < n, ahead - steps, n))
    return in_zone, branch, dist, progress, int(arrivals.sum())


def _lead_gap_path(config: WorldConfig, congestion: float, n: int) -> np.ndarray:
    rng = _stream(config.seed, _STREAM_LEAD)
    mean_gap = 45.0 * (1.0 - 0.75 * congestion)
    eps = rng.standard_normal(n)
    g = np.empty(n)
    cur = mean_gap
    for t in range(n):
        cur += 0.15 * (mean_gap - cur) + 1.5 * eps[t]
        cur = max(cur, 0.0)
        g[t] = cur
    return g


def simulate_episode(config: WorldConfig, episode_id: str) -> tuple[Episode, dict[str, object]]:
    """(episode, latent) for ``config.seed``; see module docstring. ``latent``,
    the hidden state the oracle drove on (per-step columns, congestion,
    visibility, intersection count), stays out of the episode and its file."""
    n = config.episode_length
    lookahead = 8
    curvature = _curvature_path(config, n + lookahead)

    rng_env = _stream(config.seed, _STREAM_ENV)
    congestion = float(config.congestion_level * rng_env.random())
    visibility = float(config.visibility + (1.0 - config.visibility) * rng_env.random())

    in_zone, branch, dist, zone_progress, n_arrivals = _zone_schedule(config, n)
    gap = _lead_gap_path(config, congestion, n)

    rng_noise = _stream(config.seed, _STREAM_NOISE)
    eps = rng_noise.standard_normal((n, config.obs_dim))
    noise_mult = 0.25 + 0.75 * (1.0 - visibility)

    signals = np.column_stack(
        [
            curvature[1 : n + 1],
            curvature[2 : n + 2],
            curvature[4 : n + 4],
            curvature[:n],
            np.minimum(dist, _DIST_CAP) / _DIST_CAP,
            in_zone.astype(np.float64),
            zone_progress,
            np.minimum(gap, _GAP_CAP) / _GAP_CAP,
            np.full(n, congestion),
            np.full(n, visibility),
            (dist <= APPROACH_WINDOW).astype(np.float64),
            np.concatenate([[0.0], np.diff(gap)]) / 5.0,
        ]
    )
    obs = np.empty((n, config.obs_dim))
    obs[:, :N_SIGNAL_CHANNELS] = (
        signals + config.obs_noise_scale * noise_mult * _CHANNEL_SCALES * eps[:, :N_SIGNAL_CHANNELS]
    )
    obs[:, N_SIGNAL_CHANNELS:] = eps[:, N_SIGNAL_CHANNELS:]  # pure noise channels

    latent = {
        "congestion": congestion,
        "visibility": visibility,
        "n_intersections": n_arrivals,
        "curvature": _frozen(curvature[:n]),  # 1/m
        "zone_mask": _frozen(in_zone),
        "branch": _frozen(branch),  # +1 left, 0 straight, -1 right; 0 outside zones
        "dist_next": _frozen(dist),  # steps to the next zone start: 0 inside, n with none ahead
        "zone_progress": _frozen(zone_progress),  # [0, 1) inside a zone, 0 outside
        "lead_gap": _frozen(gap),  # m
    }
    angles, speeds = oracle_action(latent, config)
    return Episode(episode_id, obs=_frozen(obs), speed=_frozen(speeds), angle=_frozen(angles)), latent


def generate_episode(config: WorldConfig, episode_id: str) -> Episode:
    """The episode of ``simulate_episode``, without its latent state."""
    return simulate_episode(config, episode_id)[0]


def generate_dataset(config: WorldConfig, n_episodes: int, base_seed: int) -> list[Episode]:
    """n episodes with ids ep000000..; episode i uses seed base_seed + i."""
    if n_episodes < 1:
        raise ValidationError("n_episodes must be >= 1")
    out = []
    for i in range(n_episodes):
        cfg = replace(config, seed=base_seed + i)
        out.append(generate_episode(cfg, episode_id=f"ep{i:06d}"))
    return out
