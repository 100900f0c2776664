"""Print the peak RSS after each stage of ``run_all`` at one reference config.

    python3 tools/stage_peaks.py <checkout>/src [--config NAME] [--work DIR]

Imports drivlab from the given ``src`` directory and runs the stages of
``run_all`` in this process, in order and with one shared memo, as
``run_all`` does, in a fresh output directory. After the imports and after
each stage it prints ``ru_maxrss``, the process's peak resident set so far,
in MiB, and the stage's wall time. Run it once per config and checkout: each
run is its own process, so its peaks start from the import floor.

The configs are those of ``tools/artifact_digests.py`` (``C8`` and the
benchmark workloads ``small``, ``bulk`` and ``staged``), plus ``default``:
``PipelineConfig()`` with one driver and one hazard epoch, since a stage's
peak does not grow with the epoch count, and ten epochs of 1,000 episodes
take long.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import time
from pathlib import Path

from artifact_digests import reference_configs


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", help="the src directory of a drivlab checkout")
    ap.add_argument("--config", default="default", choices=("C8", "small", "bulk", "staged", "default"))
    ap.add_argument("--work", default=None, help="directory for the run (default: a temporary one)")
    args = ap.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from drivlab import pipeline
    from drivlab.config import PipelineConfig

    if args.config == "default":
        cfg = PipelineConfig(driver_epochs=1, hazard_epochs=1)
    else:
        cfg = reference_configs(src.parent)[args.config]
    print(f"# {args.config} config, drivlab from {src}")
    print(f"{'stage':<14} {'ru_maxrss_mib':>13} {'wall_s':>8}")
    print(f"{'import':<14} {peak_mib():>13.1f} {'':>8}", flush=True)
    with tempfile.TemporaryDirectory(dir=args.work) as work:
        cache: dict = {}
        for stage in pipeline.STAGES:
            start = time.perf_counter()
            pipeline.run_stage(stage, cfg, work, cache)
            print(f"{stage:<14} {peak_mib():>13.1f} {time.perf_counter() - start:>8.2f}", flush=True)


if __name__ == "__main__":
    main()
