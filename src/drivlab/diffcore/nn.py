"""Initialization helpers and small layer compositions."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeError
from .optim import ParameterStore
from .tensor import Tensor, _accum, _out


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_linear(
    store: ParameterStore,
    name: str,
    n_in: int,
    n_out: int,
    rng: np.random.Generator,
) -> None:
    store.add(f"{name}.w", glorot_uniform(rng, n_in, n_out))
    store.add(f"{name}.b", np.zeros(n_out))


def linear(store: ParameterStore, name: str, x: Tensor, relu: bool = False) -> Tensor:
    """``x @ w + b`` for ``x`` (B, n_in) as one node, rectified in place when
    ``relu``. The rectified node keeps only its output and takes its backward
    mask from it: ``relu(y) > 0`` exactly where ``y > 0``, NaN included."""
    w, b = store[f"{name}.w"], store[f"{name}.b"]
    if x.data.ndim != 2 or w.data.shape != (x.data.shape[1], b.data.shape[0]):
        raise ShapeError(f"linear {name}: {x.data.shape} @ {w.data.shape} + {b.data.shape}")

    def backward(out):
        g = out.grad
        if relu:
            g *= out.data > 0.0  # the node's own gradient, consumed with it
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    y = x.data @ w.data
    y += b.data  # in place: the sum's bits, one (B, n_out) array fewer
    if relu:
        np.maximum(y, 0.0, out=y)
    return _out(y, (x, w, b), backward)


def init_lstm(
    store: ParameterStore, name: str, n_in: int, hidden: int, rng: np.random.Generator
) -> None:
    store.add(f"{name}.wx", glorot_uniform(rng, n_in, 4 * hidden))
    store.add(f"{name}.wh", glorot_uniform(rng, hidden, 4 * hidden))
    store.add(f"{name}.b", np.zeros(4 * hidden))

