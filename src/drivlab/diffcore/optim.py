"""Named parameter tensors over flat buffers, and Adam over those buffers."""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .tensor import Tensor


class ParameterStore:
    """Ordered name -> Tensor map plus Adam moment buffers.

    All parameters live in one flat float64 buffer, in insertion order, and
    each parameter's ``data`` is a view into it. Adding a parameter grows the
    buffer and rebinds every parameter's view. The Adam moments are flat
    buffers of the same layout, allocated by the first ``adam_step``, so a
    store that only predicts holds none. The step count is shared per store
    (one optimizer instance).
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._spans: list[tuple[Tensor, int, int]] = []  # (param, lo, hi) in the flat buffers
        self._flat = np.zeros(0)
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self.step_count = 0

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValidationError(f"duplicate parameter {name!r}")
        data = np.asarray(data, dtype=np.float64)
        lo = self._flat.size
        self._flat = np.concatenate([self._flat, data.reshape(-1)])
        for p, a, b in self._spans:
            p.data = self._flat[a:b].reshape(p.data.shape)
        t = Tensor(self._flat[lo:].reshape(data.shape), requires_grad=True)
        self._params[name] = t
        self._spans.append((t, lo, self._flat.size))
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ValidationError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def free_moments(self) -> None:
        """End the optimizer's run: drop the Adam moments and the step count,
        so a net that only predicts holds no optimizer state."""
        self._m = self._v = None
        self.step_count = 0

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def any_grad(self) -> bool:
        return any(t.grad is not None for t in self._params.values())

    def flat_grad(self) -> np.ndarray:
        """Every parameter's gradient in the flat layout; zero where None."""
        g = np.zeros_like(self._flat)
        for t, lo, hi in self._spans:
            if t.grad is not None:
                g[lo:hi] = t.grad.reshape(-1)
        return g


def adam_step(
    store: ParameterStore,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam update; gradients are zeroed afterwards.

    Parameters whose gradient is None (unreached by the loss) are treated as
    having zero gradient, so untouched parameters with zero moments stay put.
    The update is elementwise, so running it over the flat buffers gives
    every parameter the same bits as a per-parameter loop.
    """
    if not store.any_grad():
        raise ValidationError("adam_step called with no gradients; run backward() first")
    g = store.flat_grad()
    if store._m is None:
        store._m, store._v = np.zeros_like(store._flat), np.zeros_like(store._flat)
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m, v = store._m, store._v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * np.square(g)
    store._flat -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    store.zero_grads()
