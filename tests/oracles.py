"""Independent reference implementations used to verify the real ones.

These deliberately use naive algorithms (repeated max-scan selection,
nested-loop silencing, slice/any labeling, a per-gate autodiff graph for the
LSTM, per-step slicing of windows) so equivalence tests never share a code path with the implementations
they check.
"""

import math

import numpy as np

from drivlab.core import Normalizer
from drivlab.diffcore import Tensor, add, matmul, mul, narrow, sigmoid, tanh
from drivlab.errors import ShapeError


def brute_force_takeover(rows, trace, budget, m, unit="steps"):
    n = len(trace.entries)
    k = math.ceil(budget * n - 1e-9)
    remaining = list(trace.entries)
    selected = []
    for _ in range(k):
        best = None
        for e in remaining:
            if (
                best is None
                or e[2] > best[2]
                or (e[2] == best[2] and (e[0], e[1]) < (best[0], best[1]))
            ):
                best = e
        selected.append(best)
        remaining.remove(best)
    silenced = set()
    for eid, t, _score in selected:
        for r in rows:
            if r.episode_id == eid and t <= r.t <= t + m:
                silenced.add((r.episode_id, r.t))

    def fails(r):
        return r.g if unit == "steps" else r.g_horizon

    baseline = sum(fails(r) for r in rows)
    if baseline == 0:
        return 1.0
    rem = sum(fails(r) for r in rows if (r.episode_id, r.t) not in silenced)
    return 1.0 - rem / baseline


def brute_force_horizon(g_seq, t, m):
    return 1 if any(g_seq[t : t + m + 1]) else 0


def lstm_cell(x, h, c, wx, wh, b):
    """One LSTM step built from graph primitives (about 17 nodes), the slow
    reference for ``lstm_seq``. Gate layout along the 4H axis: input, forget,
    cell, output."""
    hidden = wh.data.shape[0]
    if wx.data.shape[1] != 4 * hidden or wh.data.shape[1] != 4 * hidden or b.data.shape != (4 * hidden,):
        raise ShapeError(
            f"lstm_cell: wx {wx.data.shape}, wh {wh.data.shape}, b {b.data.shape} "
            f"inconsistent with hidden size {hidden}"
        )
    gates = add(add(matmul(x, wx), matmul(h, wh)), b)
    i = sigmoid(narrow(gates, 1, 0, hidden))
    f = sigmoid(narrow(gates, 1, hidden, 2 * hidden))
    g = tanh(narrow(gates, 1, 2 * hidden, 3 * hidden))
    o = sigmoid(narrow(gates, 1, 3 * hidden, 4 * hidden))
    c2 = add(mul(f, c), mul(i, g))
    h2 = mul(o, tanh(c2))
    return h2, c2


def lstm_chain(x, steps, wx, wh, b):
    """``lstm_seq`` as a chain of graph cells over step-major ``x``."""
    batch = x.data.shape[0] // steps
    hidden = wh.data.shape[0]
    h = Tensor(np.zeros((batch, hidden)))
    c = Tensor(np.zeros((batch, hidden)))
    for t in range(steps):
        h, c = lstm_cell(narrow(x, 0, t * batch, (t + 1) * batch), h, c, wx, wh, b)
    return h


def sliced_windows(episode, k, stride):
    """(frames, past_speeds, past_angles, target_speed, target_angle) per t in
    [k, len-1] stepping by ``stride``, cut from the episode by slicing."""
    return [
        (
            episode.obs[t - k : t + 1],
            episode.speed[t - k : t],
            episode.angle[t - k : t],
            float(episode.speed[t]),
            float(episode.angle[t]),
        )
        for t in range(k, len(episode), stride)
    ]


def sliced_arrays(windows, normalizer):
    """Model arrays of ``sliced_windows``, stacked per window then normalized."""
    return {
        "vis": normalizer.normalize(np.stack([w[0] for w in windows]), "obs"),
        "spd": normalizer.normalize(np.stack([w[1] for w in windows]), "speed"),
        "ang": normalizer.normalize(np.stack([w[2] for w in windows]), "angle"),
        "tgt_s": normalizer.normalize(np.array([[w[3]] for w in windows]), "speed"),
        "tgt_a": normalizer.normalize(np.array([[w[4]] for w in windows]), "angle"),
    }


def sliced_normalizer(windows, floor):
    """Population statistics over each window's frames, then its past values
    followed by its target, window by window."""
    frames = np.concatenate([w[0] for w in windows], axis=0)
    speeds = np.concatenate([np.concatenate([w[1], [w[3]]]) for w in windows])
    angles = np.concatenate([np.concatenate([w[2], [w[4]]]) for w in windows])
    return Normalizer(
        mean_speed=float(np.mean(speeds)),
        std_speed=max(float(np.std(speeds)), floor),
        mean_angle=float(np.mean(angles)),
        std_angle=max(float(np.std(angles)), floor),
        obs_mean=np.mean(frames, axis=0),
        obs_std=np.maximum(np.std(frames, axis=0), floor),
    )
