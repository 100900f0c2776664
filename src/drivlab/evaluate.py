"""Takeover study: rank scenes by hazard, hand the top budget share to the
human, and measure how many model-induced failure steps disappear.

Scenes are non-overlapping spans of m+1 labeled steps (one alert covers
exactly the horizon it was trained to predict), so the fraction of scenes
driven manually equals the fraction of driving time. A selected scene
silences the per-step failures inside its span; failure reduction is the
fraction of baseline failure steps silenced.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Episode, windows_at
from .driver import DriverNet, mc_predict_batch
from .errors import ArtifactVersionError, MissingArtifactError, ValidationError
from .failure import HazardNet, LabeledStep, Thresholds, predict_hazard_batch

SCORES_FORMAT = "#drivlab-scores v1"
SCORES_HEADER = "episode_id,t,score"

# budget grid for the safety-gain table
GAIN_BUDGETS = (0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)

_CEIL_EPS = 1e-9  # guards float dust in budget * n (0.3 * 10 -> 3, not 4)


def budget_count(budget: float, n: int) -> int:
    if not 0.0 < budget <= 1.0:
        raise ValidationError(f"budget must lie in (0, 1], got {budget}")
    return math.ceil(budget * n - _CEIL_EPS)


@dataclass(frozen=True)
class PolicyScoreTrace:
    """One score per scene for one policy, ordered by (episode_id, t)."""

    policy: str
    entries: tuple[tuple[str, int, float], ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries, key=lambda e: (e[0], e[1])))
        object.__setattr__(self, "entries", entries)
        if any(not np.isfinite(e[2]) for e in entries):
            raise ValidationError(f"{self.policy}: non-finite score in trace")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class TakeoverOutcome:
    reduction: float
    baseline_failures: int
    remaining_failures: int
    n_selected: int
    no_failures: bool


@dataclass(frozen=True)
class TakeoverResult:
    """Failure-reduction curve over manual-driving budgets for one policy."""

    policy: str
    points: tuple[tuple[float, float], ...]  # (budget, reduction)
    thresholds: Thresholds | None = None

    def reduction_at(self, budget: float) -> float:
        key = round(budget, 6)
        for b, r in self.points:
            if round(b, 6) == key:
                return r
        raise ValidationError(f"{self.policy}: no point at budget {budget}")


def build_scenes(rows: Sequence[LabeledStep], m: int) -> list[tuple[str, int]]:
    """Scene anchors every m+1 labeled steps within each episode."""
    scenes: list[tuple[str, int]] = []
    by_ep: dict[str, list[int]] = {}
    for r in rows:
        by_ep.setdefault(r.episode_id, []).append(r.t)
    for eid in sorted(by_ep):
        ts = sorted(by_ep[eid])
        for i in range(0, len(ts), m + 1):
            scenes.append((eid, ts[i]))
    return scenes


def _index_rows(rows: Sequence[LabeledStep]):
    by_ep: dict[str, tuple[list[int], list[LabeledStep]]] = {}
    for r in sorted(rows, key=lambda r: (r.episode_id, r.t)):
        ts, rs = by_ep.setdefault(r.episode_id, ([], []))
        ts.append(r.t)
        rs.append(r)
    return by_ep


def simulate_takeover(
    rows: Sequence[LabeledStep],
    trace: PolicyScoreTrace,
    budget: float,
    m: int,
    unit: str = "steps",
) -> TakeoverOutcome:
    """Silence the spans [t, t+m] of the top budget share of scenes.

    ``unit`` selects what gets counted: "steps" counts per-step failures g,
    "windows" counts labeled windows whose horizon fails (g_horizon).
    Selection ties break by (episode_id, t) ascending. With no baseline
    failures the reduction is defined as 1.0 and flagged.
    """
    if unit not in ("steps", "windows"):
        raise ValidationError(f"unit must be 'steps' or 'windows', got {unit!r}")
    k_sel = budget_count(budget, len(trace))
    ranked = sorted(trace.entries, key=lambda e: (-e[2], e[0], e[1]))
    selected = ranked[:k_sel]

    by_ep = _index_rows(rows)
    silenced: dict[str, np.ndarray] = {
        eid: np.zeros(len(ts), dtype=bool) for eid, (ts, _) in by_ep.items()
    }
    for eid, t, _score in selected:
        if eid not in by_ep:
            continue
        ts, _ = by_ep[eid]
        lo = bisect.bisect_left(ts, t)
        hi = bisect.bisect_right(ts, t + m)
        silenced[eid][lo:hi] = True

    baseline = remaining = 0
    for eid, (ts, rs) in by_ep.items():
        mask = silenced[eid]
        for i, r in enumerate(rs):
            fail = r.g if unit == "steps" else r.g_horizon
            baseline += fail
            if not mask[i]:
                remaining += fail
    if baseline == 0:
        return TakeoverOutcome(1.0, 0, 0, k_sel, True)
    return TakeoverOutcome(
        reduction=1.0 - remaining / baseline,
        baseline_failures=baseline,
        remaining_failures=remaining,
        n_selected=k_sel,
        no_failures=False,
    )


def reduction_curve(
    rows: Sequence[LabeledStep],
    trace: PolicyScoreTrace,
    budgets: Sequence[float],
    m: int,
    thresholds: Thresholds | None = None,
    unit: str = "steps",
) -> TakeoverResult:
    points = tuple(
        (float(b), simulate_takeover(rows, trace, b, m, unit).reduction) for b in budgets
    )
    return TakeoverResult(policy=trace.policy, points=points, thresholds=thresholds)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def score_learned(
    net: HazardNet, episodes: Mapping[str, Episode], scenes: Sequence[tuple[str, int]]
) -> PolicyScoreTrace:
    """Score = predicted probability of the Hazardous class."""
    windows = windows_at(episodes, scenes, net.arch.k)
    probs = predict_hazard_batch(net, windows)
    entries = tuple((eid, t, float(p)) for (eid, t), p in zip(scenes, probs))
    return PolicyScoreTrace(policy="learned", entries=entries)


def score_uncertainty(
    net: DriverNet,
    episodes: Mapping[str, Episode],
    scenes: Sequence[tuple[str, int]],
    n_samples: int = 20,
    seed: int = 0,
) -> PolicyScoreTrace:
    """Dropout-at-inference uncertainty: per-scene variance of the angle and
    speed predictions over stochastic forward passes, each scaled by its
    population std over the evaluation set before summing (keeps the score
    non-negative while making the two channels commensurate)."""
    windows = windows_at(episodes, scenes, net.arch.k)
    rng = np.random.default_rng(seed)
    angles, speeds = mc_predict_batch(net, windows, n_samples=n_samples, rng=rng)
    var_a = angles.var(axis=0)
    var_s = speeds.var(axis=0)
    std_a = float(np.std(var_a))
    std_s = float(np.std(var_s))
    score = var_a / (std_a if std_a > 0 else 1.0) + var_s / (std_s if std_s > 0 else 1.0)
    entries = tuple((eid, t, float(s)) for (eid, t), s in zip(scenes, score))
    return PolicyScoreTrace(policy="uncertainty", entries=entries)


def score_interval(scenes: Sequence[tuple[str, int]], budget: float) -> PolicyScoreTrace:
    """No learning: mark evenly spaced scenes within each episode, exactly
    the budget count overall. Marked scenes score 1, the rest 0."""
    n = len(scenes)
    k_sel = budget_count(budget, n)
    by_ep: dict[str, list[tuple[str, int]]] = {}
    for s in sorted(scenes):
        by_ep.setdefault(s[0], []).append(s)
    eids = sorted(by_ep)
    quotas = {}
    fractional = []
    assigned = 0
    for eid in eids:
        exact = k_sel * len(by_ep[eid]) / n
        q = math.floor(exact + _CEIL_EPS)
        quotas[eid] = q
        assigned += q
        fractional.append((-(exact - q), eid))
    fractional.sort()
    for _, eid in fractional:
        if assigned >= k_sel:
            break
        if quotas[eid] < len(by_ep[eid]):
            quotas[eid] += 1
            assigned += 1
    if assigned < k_sel:  # leftover capacity, deterministic order
        for eid in eids:
            while assigned < k_sel and quotas[eid] < len(by_ep[eid]):
                quotas[eid] += 1
                assigned += 1
    marked: set[tuple[str, int]] = set()
    for eid in eids:
        group = by_ep[eid]
        q = quotas[eid]
        if q <= 0:
            continue
        for j in range(q):
            marked.add(group[math.floor((j + 0.5) * len(group) / q)])
    entries = tuple((eid, t, 1.0 if (eid, t) in marked else 0.0) for eid, t in sorted(scenes))
    return PolicyScoreTrace(policy="interval", entries=entries)


def interval_curve(
    rows: Sequence[LabeledStep],
    scenes: Sequence[tuple[str, int]],
    budgets: Sequence[float],
    m: int,
    thresholds: Thresholds | None = None,
    unit: str = "steps",
) -> TakeoverResult:
    points = []
    for b in budgets:
        trace = score_interval(scenes, b)
        points.append((float(b), simulate_takeover(rows, trace, b, m, unit).reduction))
    return TakeoverResult(policy="interval", points=tuple(points), thresholds=thresholds)


def score_oracle(
    rows: Sequence[LabeledStep], scenes: Sequence[tuple[str, int]], m: int
) -> PolicyScoreTrace:
    """True-label oracle: score = number of failing steps inside the scene's
    span. On non-overlapping scenes, ranking by this count is the optimal
    selection for every budget."""
    by_ep = _index_rows(rows)
    entries = []
    for eid, t in scenes:
        ts, rs = by_ep.get(eid, ([], []))
        lo = bisect.bisect_left(ts, t)
        hi = bisect.bisect_right(ts, t + m)
        entries.append((eid, t, float(sum(r.g for r in rs[lo:hi]))))
    return PolicyScoreTrace(policy="oracle", entries=tuple(entries))


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
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# Score trace files
# ---------------------------------------------------------------------------


def write_scores_csv(path, trace: PolicyScoreTrace, provenance: Mapping[str, str] | None = None) -> None:
    lines = [SCORES_FORMAT, f"# policy {trace.policy}"]
    for key, value in (provenance or {}).items():
        lines.append(f"# {key} {value}")
    lines.append(SCORES_HEADER)
    for eid, t, score in trace.entries:
        lines.append(f"{eid},{t},{score!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_scores_csv(path) -> tuple[PolicyScoreTrace, dict[str, str]]:
    if not os.path.exists(path):
        raise MissingArtifactError(f"missing artifact: score file {path}")
    entries = []
    meta: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != SCORES_FORMAT:
            raise ArtifactVersionError(
                f"{path}: unsupported score file header {header!r} ({SCORES_FORMAT})"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(" ")
                meta[key] = value
                continue
            if line == SCORES_HEADER or not line:
                continue
            try:
                eid, t, score = line.split(",")
                entries.append((eid, int(t), float(score)))
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: malformed score row {line!r}") from None
    policy = meta.pop("policy", "unknown")
    return PolicyScoreTrace(policy=policy, entries=tuple(entries)), meta
