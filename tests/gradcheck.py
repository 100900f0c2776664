"""Central finite-difference verification of analytic gradients (C1 and the
diffcore tests)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from drivlab.diffcore import ParameterStore, Tensor

# rel-error denominator floor: below this scale central differences are
# dominated by float64 cancellation noise, so tiny gradients compare absolutely
_DENOM_FLOOR = 1e-6


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    n_checked: int
    per_param: dict[str, float]

    def passed(self, tol: float) -> bool:
        return self.max_rel_error < tol


def grad_check(
    loss_fn: Callable[[], Tensor],
    store: ParameterStore,
    h: float = 1e-5,
    tol: float = 1e-4,
    param_names: list[str] | None = None,
) -> GradCheckReport:
    """Compare backward() gradients against central differences on every
    element of every parameter. ``loss_fn`` must rebuild the graph each call
    and be deterministic (fix dropout masks via a reseeded rng)."""
    names = param_names if param_names is not None else store.names()

    store.zero_grads()
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (store[name].grad.copy() if store[name].grad is not None else np.zeros_like(store[name].data))
        for name in names
    }
    store.zero_grads()

    per_param: dict[str, float] = {}
    worst, worst_name, checked = 0.0, "", 0
    for name in names:
        param = store[name]
        flat = param.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        worst_here = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            rel = abs(a_flat[i] - fd) / max(abs(a_flat[i]), abs(fd), _DENOM_FLOOR)
            worst_here = max(worst_here, rel)
            checked += 1
        per_param[name] = worst_here
        if worst_here > worst:
            worst, worst_name = worst_here, name
    return GradCheckReport(
        max_rel_error=worst, worst_param=worst_name, n_checked=checked, per_param=per_param
    )
