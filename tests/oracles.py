"""Independent reference implementations used to verify the real ones.

These deliberately use naive algorithms (repeated max-scan selection,
nested-loop silencing and counting, per-step scalar and slice/any labeling, a
per-gate autodiff graph for the LSTM, per-step slicing of windows, the
frames of all windows gathered at once and encoded step-major, a
per-parameter Adam loop, the
two-branch sigmoid, MC dropout through the whole driver per sample, the human
oracle on one ``WorldState`` per step, a backward loop for zone distances, a
backward sweep that keeps its graph) so
equivalence tests never share a code path with the implementations they
check. The graph ops that only the references and the gradient checks use
(``mul``, ``matmul``, ``relu``, ``tanh``, ``sigmoid``, ``softmax``,
``narrow``, ``reshape``, ``tsum``) live here too.
"""

import math
from dataclasses import dataclass

import numpy as np

from drivlab import simgen
from drivlab.core import ANGLE_MAX, ANGLE_MIN, SPEED_MAX, SPEED_MIN, Normalizer
from drivlab.diffcore import Tensor, add, concat, dropout, linear, lstm_seq
from drivlab.driver import head_forward
from drivlab.diffcore.tensor import _accum, _out
from drivlab.errors import ShapeError, ValidationError


def sgn(x):
    """1 if x >= 0 else 0 (note: zero maps to 1)."""
    return 1 if x >= 0 else 0


def label_step(pred, truth, th):
    """(g_a, g_s, g) for one step; g is the OR of the two channel failures."""
    pred_angle, pred_speed = pred
    true_angle, true_speed = truth
    g_a = sgn(abs(true_angle - pred_angle) - th.t_angle)
    g_s = sgn(abs(true_speed - pred_speed) - th.t_speed)
    return g_a, g_s, g_a | g_s


def label_horizon(g_seq, t, m):
    """OR of g over steps t..t+m inclusive (m+1 terms)."""
    if m < 0:
        raise ValidationError(f"horizon m must be >= 0, got {m}")
    if t < 0 or t + m >= len(g_seq):
        raise ValidationError(f"horizon [{t}, {t + m}] out of bounds for length {len(g_seq)}")
    return 1 if any(g_seq[t : t + m + 1]) else 0


def trace_entries(trace):
    """(episode_id, t, score) of each scene of a score trace, in trace order."""
    ids = [trace.episode_ids[e] for e in trace.ep.tolist()]
    return tuple(zip(ids, trace.t.tolist(), trace.score.tolist()))


def brute_force_takeover(rows, trace, budget, m, unit="steps"):
    n = len(trace)
    k = math.ceil(budget * n - 1e-9)
    remaining = list(trace_entries(trace))
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
    eids = [rows.episode_ids[e] for e in rows.ep.tolist()]
    ts = rows.t.tolist()
    silenced = set()
    for eid, t, _score in selected:
        for i in range(len(ts)):
            if eids[i] == eid and t <= ts[i] <= t + m:
                silenced.add(i)
    fails = (rows.g if unit == "steps" else rows.g_horizon).tolist()
    baseline = sum(fails)
    if baseline == 0:
        return 1.0
    rem = sum(fails[i] for i in range(len(ts)) if i not in silenced)
    return 1.0 - rem / baseline


def brute_force_oracle(rows, scenes, m):
    """Failing steps of each scene's episode with t in [t, t+m]."""
    eids = [rows.episode_ids[e] for e in rows.ep.tolist()]
    ts, g = rows.t.tolist(), rows.g.tolist()
    return [
        float(sum(g[i] for i in range(len(ts)) if eids[i] == eid and t <= ts[i] <= t + m))
        for eid, t in scenes
    ]


def interval_entries(scenes, budget):
    """Interval-policy entries by per-episode quota loops: largest remainder
    first, then leftover capacity in episode order, then evenly spaced marks."""
    n = len(scenes)
    k_sel = math.ceil(budget * n - 1e-9)
    by_ep: dict[str, list[tuple[str, int]]] = {}
    for s in sorted(scenes):
        by_ep.setdefault(s[0], []).append(s)
    eids = sorted(by_ep)
    quotas = {}
    fractional = []
    assigned = 0
    for eid in eids:
        exact = k_sel * len(by_ep[eid]) / n
        q = math.floor(exact + 1e-9)
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
    return tuple((eid, t, 1.0 if (eid, t) in marked else 0.0) for eid, t in sorted(scenes))


def pairwise_auc(scores, labels):
    """Share of (positive, negative) pairs ranked correctly, ties counting half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def brute_force_horizon(g_seq, t, m):
    return 1 if any(g_seq[t : t + m + 1]) else 0


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: {a.data.shape} * {b.data.shape}")

    def backward(out):
        _accum(a, out.grad * b.data)
        _accum(b, out.grad * a.data)

    return _out(a.data * b.data, (a, b), backward)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")

    def backward(out):
        if a.requires_grad:
            _accum(a, out.grad @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ out.grad)

    return _out(a.data @ b.data, (a, b), backward)


def relu(x):
    """The rectifier as a node of its own; ``linear(..., relu=True)`` fuses it."""
    def backward(out):
        _accum(x, out.grad * (x.data > 0.0))

    return _out(np.maximum(x.data, 0.0), (x,), backward)


def tanh(x):
    def backward(out):
        _accum(x, out.grad * (1.0 - out.data * out.data))

    return _out(np.tanh(x.data), (x,), backward)


def two_branch_sigmoid(x):
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so exp never overflows."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x):
    def backward(out):
        _accum(x, out.grad * out.data * (1.0 - out.data))

    return _out(two_branch_sigmoid(x.data), (x,), backward)


def softmax(x):
    """Row-wise softmax as a graph node; ``failure.softmax`` is its forward."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax: need a 2-D tensor, got {x.data.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)

    def backward(out):
        dot = (out.grad * out.data).sum(axis=1, keepdims=True)
        _accum(x, out.data * (out.grad - dot))

    return _out(e / e.sum(axis=1, keepdims=True), (x,), backward)


def narrow(x, axis, start, stop):
    if x.data.ndim != 2 or axis not in (0, 1):
        raise ShapeError(f"narrow: need a 2-D tensor and axis in (0, 1), got {x.data.shape}")
    if not (0 <= start < stop <= x.data.shape[axis]):
        raise ShapeError(f"narrow: [{start}, {stop}) out of bounds for axis {axis} of {x.data.shape}")
    data = x.data[start:stop] if axis == 0 else x.data[:, start:stop]

    def backward(out):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        if axis == 0:
            x.grad[start:stop] += out.grad
        else:
            x.grad[:, start:stop] += out.grad

    return _out(data.copy(), (x,), backward if x.requires_grad else None)


def reshape(x, shape):
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape: {x.data.shape} -> {shape}")

    def backward(out):
        _accum(x, out.grad.reshape(x.data.shape))

    return _out(x.data.reshape(shape), (x,), backward)


def tsum(x):
    def backward(out):
        _accum(x, np.broadcast_to(out.grad, x.data.shape).copy())

    return _out(np.array(x.data.sum()), (x,), backward)


def graph_nodes(root):
    """Every node that ``Tensor.backward`` visits from ``root``, in its
    topological order (inputs first)."""
    topo, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, post = stack.pop()
        if post:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return topo


def retained_backward(root):
    """``Tensor.backward`` as it was before it consumed its graph: the same
    order and accumulation, with every node left in place."""
    root.grad = np.ones_like(root.data)
    for node in reversed(graph_nodes(root)):
        if node._backward is not None:
            node._backward(node)


def adam_loop(data, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam as a loop over parameters: ``data``, ``m`` and
    ``v`` map names to arrays updated in place, ``grads`` maps names to
    gradients, and a missing gradient counts as zero. ``step`` is the
    1-based step number."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for name, param in data.items():
        g = grads.get(name, 0.0)
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * np.square(g)
        param -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def materialized_arrays(windows, normalizer):
    """Model inputs and targets of every window at once, the columns
    normalized whole and ``vis`` gathered as one (N, k+1, obs_dim) array:
    the reference for ``batch_inputs`` and ``batch_targets``, which gather
    and normalize one batch's rows."""
    obs, speed, angle = (normalizer.normalize(getattr(windows, c), c) for c in ("obs", "speed", "angle"))
    end = windows.end[:, None]
    frames = end + np.arange(-windows.k, 1)
    past = frames[:, :-1]
    return {"vis": obs[frames], "spd": speed[past], "ang": angle[past],
            "tgt_a": angle[end], "tgt_s": speed[end]}


def step_major(vis):
    """(frames, index) of gathered (B, k+1, obs_dim) frames, laid out as
    ``batch_inputs`` lays out a training batch: row ``t*B + b`` is frame
    ``t`` of window ``b``."""
    batch, steps, d = vis.shape
    frames = np.ascontiguousarray(vis.transpose(1, 0, 2)).reshape(steps * batch, d)
    return frames, np.arange(steps * batch).reshape(steps, batch).T


def gathered_backbone_forward(store, arch, vis, spd, ang, mode, rng=None):
    """``backbone_forward`` over every window's own copy of its frames, one
    (B, k+1, obs_dim) array: the copy is made step-major and encoded whole,
    and the LSTM reads its steps in order. The reference for the forward
    that encodes each distinct frame once."""
    batch, steps, d = vis.shape
    flat = Tensor(np.ascontiguousarray(vis.transpose(1, 0, 2)).reshape(steps * batch, d))
    enc = linear(store, "enc2", linear(store, "enc1", flat, relu=True), relu=True)
    h_vis = lstm_seq(enc, steps, store["vis.wx"], store["vis.wh"], store["vis.b"])
    signals = Tensor(np.stack([spd.T, ang.T]).reshape(2, arch.k * batch, 1))
    h_sig = lstm_seq(signals, arch.k, *([store[f"{n}.{w}"] for n in ("spd", "ang")] for w in ("wx", "wh", "b")))
    return dropout(concat([h_vis, h_sig]), arch.dropout_p, mode, rng)


def gathered_forward(store, arch, heads, vis, spd, ang, mode="eval", rng=None):
    """The outputs of ``heads`` (head prefixes) over ``gathered_backbone_forward``:
    ``("head_angle", "head_speed")`` is the driver, ``("cls",)`` the hazard net."""
    fused = gathered_backbone_forward(store, arch, vis, spd, ang, mode, rng)
    return tuple(head_forward(store, arch, prefix, fused, mode, rng) for prefix in heads)


def mc_predict_loop(net, windows, n_samples, rng, chunk=2048):
    """``mc_predict_batch`` as every sample running the whole driver, trunk
    included, in dropout mode over chunks of ``chunk`` rows."""
    data = materialized_arrays(windows, net.normalizer)
    n = len(windows)
    angles = np.empty((n_samples, n))
    speeds = np.empty((n_samples, n))
    for s in range(n_samples):
        for start in range(0, n, chunk):
            sl = slice(start, start + chunk)
            out_a, out_s = gathered_forward(
                net.params, net.arch, ("head_angle", "head_speed"),
                data["vis"][sl], data["spd"][sl], data["ang"][sl], mode="mc", rng=rng,
            )
            angles[s, sl] = net.normalizer.denormalize(out_a.data[:, 0], "angle")
            speeds[s, sl] = net.normalizer.denormalize(out_s.data[:, 0], "speed")
    return angles, speeds


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


def sliced_windows(episode, k):
    """(frames, past_speeds, past_angles, target_speed, target_angle) per t in
    [k, len-1], cut from the episode by slicing."""
    return [
        (
            episode.obs[t - k : t + 1],
            episode.speed[t - k : t],
            episode.angle[t - k : t],
            float(episode.speed[t]),
            float(episode.angle[t]),
        )
        for t in range(k, len(episode))
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


@dataclass(frozen=True)
class WorldState:
    """Latent state at one step; ``branch_sign`` is hidden from observations."""

    curvature: float  # 1/m
    dist_to_intersection: int  # steps until the next zone starts (0 inside)
    in_zone: bool
    zone_progress: float  # [0, 1) inside a zone, 0 outside
    branch_sign: int  # +1 left, 0 straight, -1 right; 0 outside zones
    lead_gap: float  # m
    congestion: float
    visibility: float


def oracle_action(state, config):
    """``simgen.oracle_action`` on one step, in Python floats."""
    if state.in_zone:
        curv = state.curvature * simgen.ZONE_CURVATURE_DAMP
        turn = state.branch_sign * simgen.TURN_PEAK_DEG * math.sin(math.pi * state.zone_progress)
    else:
        curv = state.curvature
        turn = 0.0
    angle = float(np.clip(config.steer_gain * curv + turn, ANGLE_MIN, ANGLE_MAX))

    if state.in_zone:
        zone_factor = simgen.ZONE_SPEED_FACTOR
    elif state.dist_to_intersection < simgen.APPROACH_WINDOW:
        zone_factor = simgen.ZONE_SPEED_FACTOR + (1.0 - simgen.ZONE_SPEED_FACTOR) * (
            state.dist_to_intersection / simgen.APPROACH_WINDOW
        )
    else:
        zone_factor = 1.0
    gap_factor = min(state.lead_gap / simgen.FOLLOW_GAP_M, 1.0)
    vis_factor = 0.6 + 0.4 * state.visibility
    speed = (
        config.base_speed
        * (1.0 - 0.5 * state.congestion)
        * vis_factor
        * zone_factor
        * gap_factor
    )
    return angle, float(np.clip(speed, SPEED_MIN, SPEED_MAX))


def zone_schedule(config, n):
    """``simgen._zone_schedule`` with the zone starts kept in a list and the
    distance to the next start filled by a backward loop."""
    p = config.intersection_rate / 100.0
    arrivals = simgen._stream(config.seed, simgen._STREAM_ARRIVALS).random(n) < p
    rng_branches = simgen._stream(config.seed, simgen._STREAM_BRANCHES)
    in_zone = np.zeros(n, dtype=bool)
    branch = np.zeros(n, dtype=np.int64)
    progress = np.zeros(n)
    starts = []
    pending = zone_left = zone_pos = 0
    for t in range(n):
        if arrivals[t]:
            pending += 1
        if zone_left == 0 and pending > 0:
            pending -= 1
            zone_left, zone_pos = simgen.ZONE_LENGTH, 0
            starts.append(t)
            branch[t : t + simgen.ZONE_LENGTH] = int(rng_branches.choice((1, 0, -1), p=simgen.BRANCH_PROBS))
        if zone_left > 0:
            in_zone[t] = True
            progress[t] = zone_pos / simgen.ZONE_LENGTH
            zone_pos += 1
            zone_left -= 1
    dist = np.full(n, n, dtype=np.int64)
    next_start = None
    for t in range(n - 1, -1, -1):
        if t in starts:
            next_start = t
        if in_zone[t]:
            dist[t] = 0
        elif next_start is not None:
            dist[t] = next_start - t
    return in_zone, branch, dist, progress, int(arrivals.sum())
