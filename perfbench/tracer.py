"""Span tracer that instruments drivlab from outside the package.

Each target function is wrapped by identity: every attribute of every loaded
``drivlab.*`` module that *is* the original function is rebound to the
wrapper, so names imported with ``from .x import f`` are traced too. Methods
are patched on their class. Spans (name, start, end, parent, extras) are kept
in memory and summarised when the run ends.

A target that no longer exists (a later refactor removed or renamed it) is
reported as absent with a warning; its metrics are then missing from the
summary instead of crashing the run.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable

MB = float(1 << 20)


def _size_mb(path) -> float:
    return os.path.getsize(path) / MB


@dataclass(frozen=True)
class Target:
    """One traced callable. ``span`` may contain ``{0}``, filled from the
    first positional argument (``pipeline.{0}`` names one span per stage)."""

    span: str
    module: str
    attr: str  # "func" or "Class.method"
    note: Callable | None = None  # (args, kwargs, result) -> {key: number}
    keys: tuple[str, ...] = ()  # the keys ``note`` returns


TARGETS = (
    Target("pipeline.{0}", "drivlab.pipeline", "run_stage"),
    Target("pipeline.file_digest", "drivlab.pipeline", "file_digest",
           lambda a, k, r: {"mb": _size_mb(a[0])}, ("mb",)),
    Target("simgen.generate_dataset", "drivlab.simgen", "generate_dataset",
           lambda a, k, r: {"steps": sum(len(ep) for ep in r)}, ("steps",)),
    Target("core.write_episodes", "drivlab.core", "write_episodes",
           lambda a, k, r: {"mb": _size_mb(a[0])}, ("mb",)),
    Target("core.read_episodes", "drivlab.core", "read_episodes",
           lambda a, k, r: {"mb": _size_mb(a[0])}, ("mb",)),
    Target("core.make_windows", "drivlab.core", "make_windows",
           lambda a, k, r: {"windows": len(r)}, ("windows",)),
    Target("core.read_split_manifest", "drivlab.core", "read_split_manifest"),
    Target("core.fit_normalizer", "drivlab.core", "fit_normalizer"),
    Target("diffcore.backward", "drivlab.diffcore.tensor", "Tensor.backward"),
    Target("diffcore.adam_step", "drivlab.diffcore.optim", "adam_step"),
    Target("diffcore.checkpoint.save", "drivlab.diffcore.checkpoint", "save_checkpoint"),
    Target("diffcore.checkpoint.load", "drivlab.diffcore.checkpoint", "load_checkpoint"),
    Target("driver.train", "drivlab.driver", "train_driver",
           lambda a, k, r: {"windows": len(a[0]) * a[1].epochs}, ("windows",)),
    Target("driver.forward", "drivlab.driver", "driver_forward"),
    Target("driver.predict", "drivlab.driver", "predict_batch",
           lambda a, k, r: {"windows": len(a[1])}, ("windows",)),
    Target("driver.mc_predict", "drivlab.driver", "mc_predict_batch"),
    Target("failure.label", "drivlab.failure", "build_failure_dataset"),
    Target("failure.labels_csv.write", "drivlab.failure", "write_labels_csv"),
    Target("failure.labels_csv.read", "drivlab.failure", "read_labels_csv"),
    Target("failure.train", "drivlab.failure", "train_failure",
           lambda a, k, r: {"windows": len(a[0]) * a[2].epochs}, ("windows",)),
    Target("failure.forward", "drivlab.failure", "hazard_forward"),
    Target("failure.predict_hazard", "drivlab.failure", "predict_hazard_batch"),
    Target("evaluate.simulate_takeover", "drivlab.evaluate", "simulate_takeover"),
    Target("evaluate.reduction_curve", "drivlab.evaluate", "reduction_curve"),
    Target("evaluate.interval_curve", "drivlab.evaluate", "interval_curve"),
    Target("evaluate.score_learned", "drivlab.evaluate", "score_learned"),
    Target("evaluate.score_uncertainty", "drivlab.evaluate", "score_uncertainty"),
    Target("evaluate.windows_at", "drivlab.evaluate", "windows_at"),
)

# Constructions of this class are counted (no span: there are ~10^5 per run).
NODE_CLASS = ("drivlab.diffcore.tensor", "Tensor")

# Time spent inside these child spans is reported per parent, so a training
# step splits into forward, backward and Adam.
BREAKDOWN = {
    "driver.train": {"forward_s": "driver.forward", "backward_s": "diffcore.backward",
                     "adam_s": "diffcore.adam_step"},
    "failure.train": {"forward_s": "failure.forward", "backward_s": "diffcore.backward",
                      "adam_s": "diffcore.adam_step"},
}

# Extras whose per-second rate is reported as ``<span>.<key>_per_s``.
RATES = {"windows", "steps"}


def tail_level(n: int) -> float | None:
    """Highest percentile, to 0.1, with at least ten of ``n`` samples beyond
    it; None below 20 samples, where that percentile would be under p50."""
    if n < 20:
        return None
    return math.floor(1000.0 * (n - 10) / n) / 10.0


def percentile(sorted_values: list[float], level: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * level // 100))
    return sorted_values[int(rank) - 1]


def _resolve(target_module: str, attr: str):
    owner = importlib.import_module(target_module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Collects spans and counters for one process. Install once, after
    ``drivlab`` is imported; spans accumulate until ``summary()``."""

    def __init__(self, targets=TARGETS, node_class=NODE_CLASS) -> None:
        self.targets = targets
        self.node_class = node_class
        self.spans: list[list] = []  # [name, start, end, parent index, extras]
        self.absent: list[str] = []
        self.absent_spans: set[str] = set()
        self.installed: dict[str, tuple[str, ...]] = {}  # static span -> extra keys
        self.tensor_nodes = 0
        self.gc_collections = 0
        self.gc_collected = 0
        self.gc_pause_s = 0.0
        self.bad_notes: set[str] = set()
        self._stack: list[int] = []
        self._gc_start = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            try:
                owner, name, original = _resolve(target.module, target.attr)
            except (ImportError, AttributeError):
                self._absent(f"{target.module}.{target.attr}")
                self.absent_spans.add(target.span)
                continue
            wrapper = self._wrap(target, original)
            if "{" not in target.span:
                self.installed[target.span] = target.keys
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
            else:
                self._rebind(original, wrapper)
        self._count_nodes()
        gc.callbacks.append(self._on_gc)

    def _absent(self, what: str) -> None:
        self.absent.append(what)
        warnings.warn(f"trace target {what} not found; its metrics are absent", stacklevel=3)

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "drivlab" or mod_name.startswith("drivlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, target: Target, fn):
        tracer, spans, stack, clock = self, self.spans, self._stack, time.perf_counter
        span, note = target.span, target.note
        dynamic = "{" in span

        def traced(*args, **kwargs):
            idx = len(spans)
            name = span.format(*args) if dynamic else span
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if note is not None:
                try:
                    spans[idx][4] = note(args, kwargs, result)
                except (TypeError, IndexError, AttributeError, OSError) as exc:
                    if span not in tracer.bad_notes:
                        tracer.bad_notes.add(span)
                        warnings.warn(f"trace extras for {span} unavailable: {exc!r}")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _count_nodes(self) -> None:
        try:
            _, _, cls = _resolve(*self.node_class)
        except (ImportError, AttributeError):
            self._absent(".".join(self.node_class))
            return
        original = cls.__init__
        tracer = self

        def counted_init(obj, *args, **kwargs):
            tracer.tensor_nodes += 1
            original(obj, *args, **kwargs)

        cls.__init__ = counted_init

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self.gc_collected += info.get("collected", 0)

    # -- summary ------------------------------------------------------------

    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """(metrics, tail percentile level per span) from the recorded spans.

        Per span name: ``.calls``, ``.s`` (total), ``.self_s`` (total less the
        time covered by child spans), ``.p50_ms`` and ``.tail_ms``, one
        ``.<key>`` per summed extra, and ``.<key>_per_s`` for RATES.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        per_name: dict[str, dict] = {}
        for i, (name, start, end, parent, extras) in enumerate(spans):
            agg = per_name.setdefault(name, {"durs": [], "self": 0.0, "extras": {}, "under": {}})
            dur = end - start
            agg["durs"].append(dur)
            agg["self"] += dur - child_s[i]
            for key, value in (extras or {}).items():
                agg["extras"][key] = agg["extras"].get(key, 0.0) + value
            if parent >= 0:  # a parent opens, and is appended, before its children
                under = per_name[spans[parent][0]]["under"]
                under[name] = under.get(name, 0.0) + dur
        metrics: dict[str, float] = {}
        tails: dict[str, float] = {}
        for name, agg in per_name.items():
            durs = sorted(agg["durs"])
            total = sum(durs)
            metrics[f"{name}.calls"] = float(len(durs))
            metrics[f"{name}.s"] = total
            metrics[f"{name}.self_s"] = agg["self"]
            metrics[f"{name}.p50_ms"] = 1e3 * percentile(durs, 50.0)
            level = tail_level(len(durs))
            if level is not None:
                metrics[f"{name}.tail_ms"] = 1e3 * percentile(durs, level)
                tails[name] = level
            for key, value in agg["extras"].items():
                metrics[f"{name}.{key}"] = value
                if key in RATES and total > 0:
                    metrics[f"{name}.{key}_per_s"] = value / total
            for label, child in BREAKDOWN.get(name, {}).items():
                if child not in self.absent_spans:
                    metrics[f"{name}.{label}"] = agg["under"].get(child, 0.0)
        for name, keys in self.installed.items():
            if name not in per_name:  # installed but never called
                for key in ("calls", "s", "self_s") + keys:
                    metrics[f"{name}.{key}"] = 0.0
        if ".".join(self.node_class) not in self.absent:
            metrics["diffcore.tensor_nodes"] = float(self.tensor_nodes)
        metrics["proc.gc.collections"] = float(self.gc_collections)
        metrics["proc.gc.collected"] = float(self.gc_collected)
        metrics["proc.gc.pause_s"] = self.gc_pause_s
        return metrics, tails
