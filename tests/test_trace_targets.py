"""The benchmark's tracer names functions of drivlab by module and attribute.
A renamed or moved target would silently drop its per-layer metrics from a
traced benchmark run, so every target must resolve here first."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    """perfbench/tracer.py as a module, read only: nothing is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module, attr", [(t.module, t.attr) for t in tracer.TARGETS] + [tracer.NODE_CLASS], ids=str
)
def test_trace_target_resolves_in_src(module, attr):
    _, _, found = tracer._resolve(module, attr)
    source = Path(inspect.getsourcefile(found)).resolve()
    assert ROOT / "src" / "drivlab" in source.parents, f"{module}.{attr} is defined in {source}"
