"""Initialization helpers and small layer compositions."""

from __future__ import annotations

import math

import numpy as np

from .optim import ParameterStore
from .tensor import Tensor, add, matmul


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


def linear(store: ParameterStore, name: str, x: Tensor) -> Tensor:
    return add(matmul(x, store[f"{name}.w"]), store[f"{name}.b"])


def init_lstm(
    store: ParameterStore, name: str, n_in: int, hidden: int, rng: np.random.Generator
) -> None:
    store.add(f"{name}.wx", glorot_uniform(rng, n_in, 4 * hidden))
    store.add(f"{name}.wh", glorot_uniform(rng, hidden, 4 * hidden))
    store.add(f"{name}.b", np.zeros(4 * hidden))

