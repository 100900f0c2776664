"""Named parameter tensors with per-parameter Adam state."""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .tensor import Tensor


class ParameterStore:
    """Ordered name -> Tensor map plus Adam moment buffers.

    The step count is shared per store (one optimizer instance); moment
    buffers always match their parameter's shape.
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValidationError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        self._m[name] = np.zeros_like(t.data)
        self._v[name] = np.zeros_like(t.data)
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

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def any_grad(self) -> bool:
        return any(t.grad is not None for t in self._params.values())


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
    """
    if not store.any_grad():
        raise ValidationError("adam_step called with no gradients; run backward() first")
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, param in store.items():
        g = param.grad if param.grad is not None else 0.0
        m = store._m[name]
        v = store._v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        param.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    store.zero_grads()
