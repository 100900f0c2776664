"""Takeover study: rank scenes by hazard, hand the top budget share to the
human, and measure how many model-induced failure steps disappear.

Scenes are non-overlapping spans of m+1 labeled steps (one alert covers
exactly the horizon it was trained to predict), so the fraction of scenes
driven manually equals the fraction of driving time. A selected scene
silences the per-step failures inside its span; failure reduction is the
fraction of baseline failure steps silenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import Column, Episode, TableSchema, _frozen, read_table, windows_at, write_table
from .driver import DriverNet, mc_predict_batch
from .errors import ValidationError
from .failure import MAX_STEP, HazardNet, Labels, predict_hazard_batch

SCORE_TABLE = TableSchema(
    "#drivlab-scores v1", "score", ",",
    (Column("episode_id", str), Column("t", np.int64, "[0, inf)"), Column("score", np.float64)),
    column_line=True,
)
SCORES_FORMAT = SCORE_TABLE.magic
SCORES_HEADER = SCORE_TABLE.header

# budget grid for the safety-gain table
GAIN_BUDGETS = (0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)

_CEIL_EPS = 1e-9  # guards float dust in budget * n (0.3 * 10 -> 3, not 4)


def budget_count(budget: float, n: int) -> int:
    if not 0.0 < budget <= 1.0:
        raise ValidationError(f"budget must lie in (0, 1], got {budget}")
    return math.ceil(budget * n - _CEIL_EPS)


# Scenes as columns (episode_ids, ep, t): scene i is step t[i] of episode episode_ids[ep[i]]
Scenes = tuple[Sequence[str], np.ndarray, np.ndarray]


@dataclass(frozen=True)
class PolicyScoreTrace:
    """One score per scene for one policy, as read-only columns sorted by
    (episode_id, t): scene i is step ``t[i]`` of episode
    ``episode_ids[ep[i]]`` and scores ``score[i]``. The ids are sorted, so
    (ep, t) order is (episode_id, t) order; repeated scenes keep their order.
    ``t`` and ``score`` lie in the domains of their ``SCORE_TABLE`` columns."""

    policy: str
    episode_ids: tuple[str, ...]
    ep: np.ndarray
    t: np.ndarray
    score: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.episode_ids)
        object.__setattr__(self, "episode_ids", ids)
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValidationError(f"{self.policy}: trace episode ids must be sorted and unique")
        ep, t = np.asarray(self.ep, dtype=np.int64), np.asarray(self.t, dtype=np.int64)
        score = np.asarray(self.score, dtype=np.float64)
        if ep.ndim != 1 or not ep.shape == t.shape == score.shape or ((ep < 0) | (ep >= len(ids))).any():
            raise ValidationError(f"{self.policy}: trace needs equal-length 1-D columns, ep indexing the ids")
        bad = SCORE_TABLE.first_bad({"t": t, "score": score})
        if bad is not None:
            raise ValidationError(f"{self.policy}: {bad[1]} at row {bad[0]}")
        order = np.lexsort((t, ep))
        for name, column in (("ep", ep), ("t", t), ("score", score)):
            object.__setattr__(self, name, _frozen(column[order]))

    def __len__(self) -> int:
        return self.t.shape[0]

    def covers(self, scenes: Scenes) -> bool:
        """Whether the trace scores exactly ``scenes``, given in (episode_id, t) order."""
        ids, ep, t = scenes
        return np.array_equal(self.t, t) and np.array_equal(
            np.array(self.episode_ids, dtype=str)[self.ep], np.array(ids, dtype=str)[ep]
        )


@dataclass(frozen=True)
class TakeoverResult:
    """Failure-reduction curve over manual-driving budgets for one policy."""

    policy: str
    points: tuple[tuple[float, float], ...]  # (budget, reduction)

    def reduction_at(self, budget: float) -> float:
        key = round(budget, 6)
        for b, r in self.points:
            if round(b, 6) == key:
                return r
        raise ValidationError(f"{self.policy}: no point at budget {budget}")


def scene_rows(rows: Labels, m: int) -> np.ndarray:
    """Row index of each scene anchor: every (m+1)-th labeled step of each
    episode, from its first."""
    first = np.searchsorted(rows.ep, rows.ep, side="left")
    return np.flatnonzero((np.arange(len(rows)) - first) % (m + 1) == 0)


def build_scenes(rows: Labels, m: int) -> Scenes:
    """Scene anchors every m+1 labeled steps within each episode."""
    anchors = scene_rows(rows, m)
    return rows.episode_ids, rows.ep[anchors], rows.t[anchors]


_T_SPAN = 2 * MAX_STEP  # (ep, t) packs into the int64 key ep * _T_SPAN + t


def _spans(rows: Labels, scenes: Scenes, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row range [lo, hi) of the labeled steps in each scene's span [t, t+m],
    searched on the sorted (ep, t) key; empty for an episode without rows."""
    ids, ep, t = scenes
    code = {eid: i for i, eid in enumerate(rows.episode_ids)}
    ep = np.array([code.get(eid, -1) for eid in ids], dtype=np.int64)[ep]
    key = rows.ep * _T_SPAN + rows.t
    # clipping to [-1, _T_SPAN - 1] keeps each query between its episode's neighbours
    lo = np.searchsorted(key, ep * _T_SPAN + np.clip(t, -1, _T_SPAN - 1), side="left")
    hi = np.searchsorted(key, ep * _T_SPAN + np.clip(t + m, -1, _T_SPAN - 1), side="right")
    return lo, hi


def simulate_takeover(
    rows: Labels,
    trace: PolicyScoreTrace,
    budget: float,
    m: int,
    unit: str = "steps",
) -> float:
    """The failure reduction of silencing the spans [t, t+m] of the top
    budget share of scenes: the fraction of baseline failures silenced.

    ``unit`` selects what gets counted: "steps" counts per-step failures g,
    "windows" counts labeled windows whose horizon fails (g_horizon).
    Selection ties break by (episode_id, t) ascending. With no baseline
    failures the reduction is defined as 1.0.
    """
    if unit not in ("steps", "windows"):
        raise ValidationError(f"unit must be 'steps' or 'windows', got {unit!r}")
    k_sel = budget_count(budget, len(trace))
    # the trace is sorted by (episode_id, t), so a stable sort breaks score ties by them
    top = np.argsort(-trace.score, kind="stable")[:k_sel]
    lo, hi = _spans(rows, (trace.episode_ids, trace.ep[top], trace.t[top]), m)
    n = len(rows)
    silenced = np.cumsum(np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1))[:n] > 0
    fail = rows.g if unit == "steps" else rows.g_horizon
    baseline = int(fail.sum())
    if baseline == 0:
        return 1.0
    return 1.0 - int(fail[~silenced].sum()) / baseline


def reduction_curve(
    rows: Labels,
    trace: PolicyScoreTrace,
    budgets: Sequence[float],
    m: int,
    unit: str = "steps",
) -> TakeoverResult:
    points = tuple((float(b), simulate_takeover(rows, trace, b, m, unit)) for b in budgets)
    return TakeoverResult(policy=trace.policy, points=points)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def score_learned(net: HazardNet, episodes: Mapping[str, Episode], scenes: Scenes) -> PolicyScoreTrace:
    """Score = predicted probability of the Hazardous class."""
    probs = predict_hazard_batch(net, windows_at(episodes, *scenes, net.arch.k))
    return PolicyScoreTrace("learned", *scenes, probs)


def score_uncertainty(
    net: DriverNet,
    episodes: Mapping[str, Episode],
    scenes: Scenes,
    n_samples: int = 20,
    seed: int = 0,
) -> PolicyScoreTrace:
    """Dropout-at-inference uncertainty: per-scene variance of the angle and
    speed predictions over stochastic forward passes, each scaled by its
    population std over the evaluation set before summing (keeps the score
    non-negative while making the two channels commensurate)."""
    windows = windows_at(episodes, *scenes, net.arch.k)
    rng = np.random.default_rng(seed)
    angles, speeds = mc_predict_batch(net, windows, n_samples=n_samples, rng=rng)
    var_a = angles.var(axis=0)
    var_s = speeds.var(axis=0)
    std_a = float(np.std(var_a))
    std_s = float(np.std(var_s))
    score = var_a / (std_a if std_a > 0 else 1.0) + var_s / (std_s if std_s > 0 else 1.0)
    return PolicyScoreTrace("uncertainty", *scenes, score)


def score_interval(scenes: Scenes, budget: float) -> PolicyScoreTrace:
    """No learning: mark evenly spaced scenes within each episode, exactly
    the budget count overall. Marked scenes score 1, the rest 0. Scenes are
    distinct (episode_id, t) pairs."""
    trace = PolicyScoreTrace("interval", *scenes, np.zeros(len(scenes[2])))
    k_sel = budget_count(budget, len(trace))
    _, first, sizes = np.unique(trace.ep, return_index=True, return_counts=True)
    # largest-remainder apportionment of k_sel by scene count, ties by episode id
    exact = k_sel * sizes / len(trace)
    quotas = np.floor(exact + _CEIL_EPS).astype(np.int64)
    # the floors fall short by less than the number of positive remainders,
    # and an episode with one still has room, so no second pass is needed
    by_remainder = np.argsort(-(exact - quotas), kind="stable")
    has_room = by_remainder[quotas[by_remainder] < sizes[by_remainder]]
    quotas[has_room[: max(k_sel - int(quotas.sum()), 0)]] += 1
    ep = np.repeat(np.arange(len(sizes)), quotas)
    j = np.arange(len(ep)) - (np.cumsum(quotas) - quotas)[ep]
    marked = np.zeros(len(trace))
    marked[first[ep] + np.floor((j + 0.5) * sizes[ep] / quotas[ep]).astype(np.int64)] = 1.0
    return replace(trace, score=marked)


def interval_curve(
    rows: Labels,
    scenes: Scenes,
    budgets: Sequence[float],
    m: int,
    unit: str = "steps",
) -> TakeoverResult:
    points = tuple(
        (float(b), simulate_takeover(rows, score_interval(scenes, b), b, m, unit)) for b in budgets
    )
    return TakeoverResult(policy="interval", points=points)


def score_oracle(rows: Labels, scenes: Scenes, m: int) -> PolicyScoreTrace:
    """True-label oracle: score = number of failing steps inside the scene's
    span. On non-overlapping scenes, ranking by this count is the optimal
    selection for every budget."""
    lo, hi = _spans(rows, scenes, m)
    failing = np.concatenate([[0], np.cumsum(rows.g)])
    return PolicyScoreTrace("oracle", *scenes, failing[hi] - failing[lo])


def safety_gain(ours: TakeoverResult, base: TakeoverResult, budget: float) -> float | None:
    """Percent improvement of ``ours`` over ``base`` at one budget; None when
    the baseline achieved no reduction (gain undefined)."""
    r_ours = ours.reduction_at(budget)
    r_base = base.reduction_at(budget)
    if r_base <= 0.0:
        return None
    return 100.0 * (r_ours - r_base) / r_base


def auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Rank-based ROC AUC with tie-averaged ranks; None if one class is absent."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]  # 1-based, ties averaged
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# Score trace files
# ---------------------------------------------------------------------------


def write_scores_csv(path, trace: PolicyScoreTrace, provenance: Mapping[str, str] | None = None) -> None:
    meta = {"policy": trace.policy, **(provenance or {})}
    ids = np.array(trace.episode_ids, dtype=str)[trace.ep]
    write_table(path, SCORE_TABLE, meta, [{"episode_id": ids, "t": trace.t, "score": trace.score}])


def read_scores_csv(path) -> tuple[PolicyScoreTrace, dict[str, str]]:
    meta, cols = read_table(path, SCORE_TABLE)
    policy = meta.pop("policy", "unknown")
    ids, ep = np.unique(cols["episode_id"], return_inverse=True)
    return PolicyScoreTrace(policy, tuple(ids.tolist()), ep, cols["t"], cols["score"]), meta
