"""The benchmark reaches into drivlab from outside. Its tracer names
functions by module and attribute: a renamed or moved target would silently
drop its per-layer metrics from a traced run, so every target must resolve
here first. Its child process reads the hazard class of each label row by
field position: a label format change would only show as a collapsed
``ok_frac``, so the reader must agree with ``write_labels_csv`` here first."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from drivlab.failure import CANONICAL_THRESHOLDS, FailureDataset, write_labels_csv

from conftest import labels_of

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    """perfbench/<name>.py as a module, read only: nothing is installed."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _load_perfbench("tracer")


@pytest.mark.parametrize(
    "module, attr", [(t.module, t.attr) for t in tracer.TARGETS] + [tracer.NODE_CLASS], ids=str
)
def test_trace_target_resolves_in_src(module, attr):
    _, _, found = tracer._resolve(module, attr)
    source = Path(inspect.getsourcefile(found)).resolve()
    assert ROOT / "src" / "drivlab" in source.parents, f"{module}.{attr} is defined in {source}"


@pytest.mark.parametrize("g, g_horizon", [([0, 0, 0], [1, 1, 1]), ([1, 0, 0], [1, 1, 0])])
def test_benchmark_reads_the_hazard_classes_of_a_label_file(tmp_path, g, g_horizon):
    child = _load_perfbench("child")
    rows = labels_of([("ep0", t, flag, hazard) for t, flag, hazard in zip((4, 5, 6), g, g_horizon)])
    path = tmp_path / "labels.csv"
    write_labels_csv(path, FailureDataset(rows, CANONICAL_THRESHOLDS["middle"], 8, "D3", 0), {"driver": "0" * 64})
    assert child._label_classes(str(path)) == set(g_horizon)
