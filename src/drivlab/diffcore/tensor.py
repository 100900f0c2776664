"""Reverse-mode autodiff over float64 numpy buffers.

Ops build a DAG of Tensor nodes; ``Tensor.backward()`` runs a topological
sweep accumulating exact gradients of a scalar loss into every node with
``requires_grad``. Gradients sum across shared subexpressions.

A node's ``_backward`` takes the node itself as its argument instead of
capturing it, so a graph references only its inputs: it holds no reference
cycle and is freed as soon as its output is dropped, without waiting for the
cyclic garbage collector.

``backward()`` consumes the graph: each node that has a backward drops it,
its parents and its gradient as soon as the backward has run, so the tape is
gone when ``backward()`` returns. Leaves (parameters and input tensors) keep
their gradients. Inside ``no_grad()`` ops record nothing, so inference frees
each intermediate as soon as the next op has read it.

The tape keeps only what a backward reads. A node owns the gradient array
its consumers hand it and may overwrite it in its own backward, since the
node is consumed right after; so an op hands each parent an array no one
else holds (a fresh result, or disjoint views of its own consumed gradient).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import NumericalError, ShapeError, ValidationError

DROPOUT_MODES = ("train", "eval", "mc")


_recording = True  # False inside no_grad()


@contextmanager
def no_grad():
    """Context in which ops record no graph: outputs get no parents and no
    backward. The previous state comes back on exit, also after an error."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A float64 buffer and, for an op's output, its parents and backward.
    ``_parents`` is None once ``backward()`` has consumed the node."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValidationError(f"backward requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, post = stack.pop()
            if post:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise ValidationError("backward() through a graph that an earlier backward() consumed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            # popped, so each node is freed once its backward has run
            node = topo.pop()
            if node._backward is not None:
                node._backward(node)
                node._backward = node._parents = node.grad = None


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``; a first gradient is taken as is, not copied,
    so ``g`` must be an array its op hands to no other parent."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _out(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's output node; it records ``parents`` and ``backward`` (called
    with the node) only outside ``no_grad()``."""
    if not _recording:
        return Tensor(data)
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents), _parents=parents)
    out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    # same shape, or (B, n) + (n,) bias broadcast
    bias = b.data.ndim == 1 and a.data.ndim == 2 and a.data.shape[1] == b.data.shape[0]
    if a.data.shape != b.data.shape and not bias:
        raise ShapeError(f"add: {a.data.shape} + {b.data.shape}")

    def backward(out):
        # both parents get the whole gradient: ``a`` takes it, ``b`` a copy
        _accum(a, out.grad)
        _accum(b, out.grad.sum(axis=0) if bias else out.grad.copy())

    return _out(a.data + b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(out):
        _accum(a, out.grad * s)

    return _out(a.data * s, (a,), backward)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of ``x``, written to ``out`` when given, using
    ``work`` (same shape) as scratch; ``out`` may be ``x`` itself."""
    # exp(-|x|) never overflows; min(x, -x) is -|x| but passes NaN through
    # unchanged. The numerator exp(min(x, 0)) is 1 for x >= 0 and e below, so
    # this equals the two-branch 1/(1+e), e/(1+e) bit for bit
    e = np.negative(x, out=work)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    e += 1.0
    num = np.minimum(x, 0.0, out=out)
    np.exp(num, out=num)
    return np.divide(num, e, out=num)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    if not tensors:
        raise ValidationError("concat of an empty list")
    if axis not in (0, 1) or any(t.data.ndim != 2 for t in tensors):
        raise ShapeError(f"concat: need 2-D tensors and axis in (0, 1), got axis {axis}")
    other = 1 - axis
    if len({t.data.shape[other] for t in tensors}) != 1:
        raise ShapeError(f"concat: mismatched shapes {[t.data.shape for t in tensors]}")
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(out):
        # disjoint views of the consumed gradient, one per part
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accum(t, out.grad[lo:hi] if axis == 0 else out.grad[:, lo:hi])

    return _out(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def dropout(x: Tensor, p: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: train/mc sample a mask scaled by 1/(1-p) so the
    expected output equals the eval output; eval is the identity. ``mc``
    keeps sampling at inference for the uncertainty baseline."""
    if mode not in DROPOUT_MODES:
        raise ValidationError(f"dropout mode must be one of {DROPOUT_MODES}, got {mode!r}")
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"dropout p must lie in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ValidationError("dropout in train/mc mode needs an rng")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def backward(out):
        _accum(x, out.grad * mask)

    return _out(x.data * mask, (x,), backward)


def l2_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over all elements (mini-batch mean, lr stays
    batch-size-stable)."""
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ShapeError(f"l2_loss: pred {pred.data.shape} vs target {target.shape}")
    diff = pred.data - target
    value = np.array((diff * diff).mean())
    if not np.isfinite(value):
        raise NumericalError("non-finite loss")

    def backward(out):
        _accum(pred, out.grad * 2.0 * diff / diff.size)

    return _out(value, (pred,), backward)


def cross_entropy_loss(
    logits: Tensor, labels: np.ndarray, class_weights: np.ndarray | None = None
) -> Tensor:
    """Softmax cross entropy from logits, weighted mean over the batch.

    ``class_weights`` rescales each sample by the weight of its true class
    (inverse-frequency weighting for imbalanced labels); the loss divides by
    the total weight so the scale stays comparable to the unweighted mean.
    """
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise ShapeError(f"cross_entropy_loss: logits {logits.data.shape} vs labels {labels.shape}")
    n, c = logits.data.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValidationError(f"labels out of range for {c} classes")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    if class_weights is None:
        w = np.ones(n)
    else:
        class_weights = np.asarray(class_weights, dtype=np.float64)
        if class_weights.shape != (c,):
            raise ShapeError(f"cross_entropy_loss: weights {class_weights.shape} vs {c} classes")
        w = class_weights[labels]
    wsum = w.sum()
    value = np.array(-(w * logp[np.arange(n), labels]).sum() / wsum)
    if not np.isfinite(value):
        raise NumericalError("non-finite loss")

    def backward(out):
        probs = np.exp(logp)
        probs[np.arange(n), labels] -= 1.0
        _accum(logits, out.grad * probs * (w / wsum)[:, None])

    return _out(value, (logits,), backward)


def lstm_seq(x: Tensor, steps: int, wx, wh, b, rows: np.ndarray | None = None) -> Tensor:
    """Single-layer LSTMs over whole sequences as one node, one LSTM per
    track; returns every track's final hidden state from a zero initial
    state, side by side: ``(B, tracks * H)``.

    ``x`` is ``(tracks, R, n_in)``, or ``(R, n_in)`` for one track. Without
    ``rows`` each track is step-major: ``R = steps * B`` and rows
    ``[t*B, (t+1)*B)`` are step ``t``. ``rows``, ``(steps, B)``, names step
    ``t``'s rows of ``x`` instead, so sequences that share inputs share
    their rows; a recording forward accepts only the step-major rows
    (``rows[t, b] = t*B + b``). ``wx``, ``wh`` and ``b`` hold one tensor per
    track, or are a single tensor for one track. Tracks share their shapes,
    so the per-step loop runs once for all of them. Gate layout along the 4H
    axis: input, forget, cell, output. The input projection runs once over
    the rows of ``x``; the per-step arithmetic keeps the order of a chain of
    graph cells, so each track's forward is bit-identical to it. The
    backward is hand-written backpropagation through time.
    """
    wx, wh, b = (list(w) if isinstance(w, (list, tuple)) else [w] for w in (wx, wh, b))
    tracks, hidden = len(wx), wh[0].data.shape[0]
    xd = x.data if x.data.ndim == 3 else x.data[None]
    if xd.ndim != 3 or xd.shape[0] != tracks or steps < 1 or (rows is None and xd.shape[1] % steps):
        raise ShapeError(f"lstm_seq: x {x.data.shape} is not {tracks} track(s) of {steps} step-major blocks")
    batch = xd.shape[1] // steps if rows is None else rows.shape[-1]
    step_major = np.arange(steps * batch).reshape(steps, batch)
    rows = step_major if rows is None else rows
    if rows.shape != (steps, batch) or rows.size and (rows.min() < 0 or rows.max() >= xd.shape[1]):
        raise ShapeError(f"lstm_seq: rows of shape {rows.shape} do not index {steps} steps of x {x.data.shape}")
    if _recording and not (xd.shape[1] == rows.size and np.array_equal(rows, step_major)):
        raise ShapeError("lstm_seq: a recording forward takes step-major rows")
    n_in, g4 = xd.shape[2], 4 * hidden
    if len(wh) != tracks or len(b) != tracks or any(
        w.data.shape != (n_in, g4) or u.data.shape != (hidden, g4) or c.data.shape != (g4,)
        for w, u, c in zip(wx, wh, b)
    ):
        raise ShapeError(
            f"lstm_seq: x {x.data.shape}, wx {[w.data.shape for w in wx]}, "
            f"wh {[w.data.shape for w in wh]}, b {[w.data.shape for w in b]} "
            f"inconsistent with {tracks} track(s) of hidden size {hidden}"
        )
    wxs, whs = (np.stack([w.data for w in ws]) for ws in (wx, wh))
    bs = np.stack([w.data for w in b])[:, None]  # (tracks, 1, 4H): broadcast over the batch
    xw = xd @ wxs
    # A recording forward keeps every step for the backward: the activated
    # gates go over the input projection, each step after reading its own
    # slot. Without a tape only the running state is kept: one slot per
    # buffer, which each step reads and then overwrites in place, with the
    # same operations and bits, and each step gathers its rows of the
    # projection into the scratch buffer ``work``, which it then overwrites
    keep = _recording
    if keep:
        xw = xw.reshape(tracks, steps, batch, g4)
    span, states = (steps, steps + 1) if keep else (1, 1)
    # activated gates i, f, g, o
    acts = xw.reshape(tracks, steps, batch, 4, hidden) if keep else np.empty((tracks, 1, batch, 4, hidden))
    cs = np.zeros((tracks, states, batch, hidden))  # cs[:, t] is the cell state entering step t
    hs = np.zeros((tracks, states, batch, hidden))
    tcs = np.empty((tracks, span, batch, hidden))  # tanh of the cell state leaving step t
    # per-step work buffers, reused by every step; additions commute, so the
    # in-place order (h @ wh + xw) + b gives the cell chain's bits
    a = np.empty((tracks, batch, g4))
    a4 = a.reshape(tracks, batch, 4, hidden)
    work = np.empty_like(a4)
    gathered = work.reshape(tracks, batch, g4)
    ig = np.empty((tracks, batch, hidden))
    for t in range(steps):
        now, nxt = (t, t + 1) if keep else (0, 0)
        np.matmul(hs[:, now], whs, out=a)
        # mode="clip" gathers straight into ``gathered``; the rows are checked above
        a += xw[:, t] if keep else np.take(xw, rows[t], axis=1, out=gathered, mode="clip")
        a += bs
        act = acts[:, now]
        _sigmoid(a4, out=act, work=work)
        np.tanh(a4[:, :, 2], out=act[:, :, 2])
        np.multiply(act[:, :, 1], cs[:, now], out=cs[:, nxt])
        np.multiply(act[:, :, 0], act[:, :, 2], out=ig)
        cs[:, nxt] += ig
        np.tanh(cs[:, nxt], out=tcs[:, now])
        np.multiply(act[:, :, 3], tcs[:, now], out=hs[:, nxt])

    def backward(out):
        # local derivatives of every step at once, in place over the gates
        # they come from: dc -> the input, forget and cell gates and dh -> the
        # output gate (pre-activation). The loop scales them in place. ``tcs``
        # and then ``c`` are free once read, and hold one factor at a time;
        # ``d_cell`` is dh -> dc. No output overlaps another array's input, so
        # numpy makes no copy, and each product keeps the grouping of the
        # unbuffered expression, so the bits match it
        i, f, g, o = (acts[:, :, :, k] for k in range(4))
        f_kept = f.copy()  # dc -> dc of the step before
        d_cell = np.multiply(tcs, tcs)
        np.multiply(o, np.subtract(1.0, d_cell, out=d_cell), out=d_cell)  # o * (1 - tc * tc)
        np.multiply(tcs, o, out=tcs)
        np.multiply(tcs, np.subtract(1.0, o, out=o), out=o)  # d_o = (tc * o) * (1 - o)
        c = cs[:, :steps]
        np.multiply(c, f, out=tcs)
        np.multiply(tcs, np.subtract(1.0, f, out=f), out=f)  # d_f = (c * f) * (1 - f)
        np.multiply(g, i, out=c)
        np.multiply(g, g, out=tcs)
        np.multiply(i, np.subtract(1.0, tcs, out=tcs), out=tcs)  # d_g = i * (1 - g * g)
        np.multiply(c, np.subtract(1.0, i, out=i), out=i)  # d_i = (g * i) * (1 - i)
        g[...] = tcs
        dh = out.grad.reshape(batch, tracks, hidden).transpose(1, 0, 2)
        dc = np.zeros((tracks, batch, hidden))
        dc_step = np.empty_like(dc)
        dh_buf = np.empty_like(dc)
        wh_t = whs.transpose(0, 2, 1)
        for t in reversed(range(steps)):
            dc += np.multiply(dh, d_cell[:, t], out=dc_step)
            acts[:, t, :, :3] *= dc[:, :, None]
            o[:, t] *= dh  # d_o
            dc *= f_kept[:, t]
            if t:
                dh = np.matmul(acts[:, t].reshape(tracks, batch, g4), wh_t, out=dh_buf)
        # freed before the gradients below are allocated, which then reuse
        # their blocks instead of growing the heap
        del d_cell, f_kept
        d_gates = acts.reshape(tracks, steps * batch, g4)
        for k in range(tracks):
            if wh[k].requires_grad:
                _accum(wh[k], hs[k, :steps].reshape(steps * batch, hidden).T @ d_gates[k])
            if wx[k].requires_grad:
                _accum(wx[k], xd[k].T @ d_gates[k])
            _accum(b[k], d_gates[k].sum(axis=0))
        if x.requires_grad:
            _accum(x, (d_gates @ wxs.transpose(0, 2, 1)).reshape(x.data.shape))

    final = hs[:, -1].transpose(1, 0, 2).reshape(batch, tracks * hidden)
    return _out(final, (x, *wx, *wh, *b), backward)
