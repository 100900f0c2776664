"""Print a sha256 manifest of every artifact the pipeline writes.

    python3 tools/artifact_digests.py <checkout>/src [--work DIR]

Imports drivlab from the given ``src`` directory and, for each reference
config, runs ``run_all`` once and the seven stages as uncached ``run_stage``
calls once, in fresh directories. The configs are the C8 config of
``tests/test_acceptance.py`` and the ``WORKLOADS`` configs of
``perfbench/run.py``, read from the checkout that holds ``src``. Both files
are parsed, not imported. Each output line is ``<sha256>  <config>/<mode>/<file>``,
so running this on two checkouts and diffing the output shows every artifact
whose bytes differ.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _literal(path: Path, name: str):
    """The literal value assigned to module-level ``name`` in ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"{path}: no literal assignment to {name}")


def reference_configs(checkout: Path) -> dict[str, object]:
    """Config name -> PipelineConfig: C8 first, then the benchmark workloads."""
    from drivlab.config import PipelineConfig

    with tempfile.TemporaryDirectory() as tmp:
        c8 = Path(tmp) / "c8.txt"
        c8.write_text(_literal(checkout / "tests" / "test_acceptance.py", "DETERMINISM_CONFIG"))
        configs = {"C8": PipelineConfig.from_file(c8)}
    for name, workload in _literal(checkout / "perfbench" / "run.py", "WORKLOADS").items():
        configs[name] = PipelineConfig(**workload["config"])
    return configs


def digests(out: Path) -> list[tuple[str, str]]:
    return [
        (hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out.parent.parent).as_posix())
        for path in sorted(out.iterdir())
        if path.is_file()
    ]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", help="the src directory of a drivlab checkout")
    ap.add_argument("--work", default=None, help="directory for the runs (default: a temporary one)")
    args = ap.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from drivlab import pipeline

    with tempfile.TemporaryDirectory(dir=args.work) as work:
        for name, cfg in reference_configs(src.parent).items():
            run_all, staged = Path(work, name, "run_all"), Path(work, name, "staged")
            pipeline.run_all(cfg, run_all)
            staged.mkdir(parents=True)
            for stage in pipeline.STAGES:
                pipeline.run_stage(stage, cfg, staged, cache=None)
            for digest, rel in digests(run_all) + digests(staged):
                print(f"{digest}  {rel}", flush=True)


if __name__ == "__main__":
    main()
