"""One repetition of a benchmark workload, in a fresh process.

Started by ``run.py`` with the BLAS/OpenMP thread variables pinned to 1 and
``src`` on ``PYTHONPATH``. It becomes ready (drivlab and numpy imported,
config built, output directory empty), stamps the monotonic clock, runs the
pipeline, checks the outputs and writes one JSON result file.

    python3 perfbench/child.py --mode run_all|staged|setup --config JSON \
        --out DIR --result FILE [--trace]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time

import numpy as np

from drivlab import pipeline
from drivlab.config import PipelineConfig, parse_budgets

MB = float(1 << 20)
QUALITY_THRESHOLD = "middle"
TOL = 1e-12
# The interval policy picks a fresh evenly spaced set of scenes per budget, so
# its sets are not nested and its curve may dip by design; policies that rank
# scenes once select nested sets, so their curves must not decrease.
UNNESTED_POLICIES = {"interval"}


def _threads() -> int:
    """Threads of this process after numpy is loaded (BLAS pools show here)."""
    np.ones((64, 64)) @ np.ones((64, 64))
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def _failing_stage(exc: BaseException) -> str | None:
    """Name of the innermost ``run_stage`` call on the traceback."""
    name = None
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_name == "run_stage":
            name = tb.tb_frame.f_locals.get("name", name)
        tb = tb.tb_next
    return name


def run_pipeline(mode: str, cfg: PipelineConfig, out: str) -> tuple[int, dict[str, str]]:
    """Run the workload; return (stage calls attempted, {failed stage: reason})."""
    try:
        if mode == "run_all":
            pipeline.run_all(cfg, out)
        else:
            for name in pipeline.STAGES:
                pipeline.run_stage(name, cfg, out, cache=None)
    except Exception as exc:  # a failed stage is a result, not a crash
        stage = _failing_stage(exc) or pipeline.STAGES[0]
        attempted = pipeline.STAGES.index(stage) + 1 if stage in pipeline.STAGES else 1
        return attempted, {stage: f"{type(exc).__name__}: {exc}"}
    return len(pipeline.STAGES), {}


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _label_classes(path: str) -> set[int]:
    classes: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line[0].isalnum() and not line.startswith("episode_id"):
                classes.add(int(line.split(",", 6)[5]))
    return classes


def check_outputs(cfg: PipelineConfig, out: str) -> tuple[dict[str, str], dict[str, float]]:
    """Benchmark checks on a finished run: ({stage: reason}, quality metrics)."""
    bad: dict[str, str] = {}
    quality: dict[str, float] = {}
    with open(os.path.join(out, pipeline.ART_DRIVER_METRICS), encoding="utf-8") as fh:
        dm = json.load(fh)
    if not (_finite(dm.get("mae_speed")) and _finite(dm.get("mae_angle"))):
        bad["train-driver"] = "driver MAE not finite"
    quality["mae_speed_kmh"], quality["mae_angle_deg"] = dm.get("mae_speed"), dm.get("mae_angle")
    budgets = parse_budgets(cfg.budgets)
    for th in cfg.threshold_names():
        for split in ("D2", "D3"):
            classes = _label_classes(os.path.join(out, pipeline.art_labels(split, th)))
            if classes != {0, 1}:
                bad["label"] = f"labels {split}/{th}: hazard classes {sorted(classes)}"
        with open(os.path.join(out, pipeline.art_eval(th)), encoding="utf-8") as fh:
            ev = json.load(fh)
        curves = {name: [(p["budget"], p["reduction"]) for p in pts]
                  for name, pts in ev["curves"].items()}
        for name, pts in curves.items():
            xs = [b for b, _ in pts]
            ys = [r for _, r in pts]
            if xs != budgets:
                bad["eval"] = f"{th}/{name}: budgets differ from the config"
            elif any(not (-TOL <= y <= 1 + TOL) for y in ys):
                bad["eval"] = f"{th}/{name}: reduction outside [0, 1]"
            elif name not in UNNESTED_POLICIES and any(b < a - TOL for a, b in zip(ys, ys[1:])):
                bad["eval"] = f"{th}/{name}: reduction decreases with budget"
            elif name != "oracle" and any(
                y > o + TOL for (_, y), (_, o) in zip(pts, curves["oracle"])
            ):
                bad["eval"] = f"{th}/{name}: beats the oracle"
        gains = ev["gains_vs_interval_pct"]
        if not _finite(ev.get("auc_learned")) or not all(_finite(g) for g in gains.values()):
            bad["eval"] = f"{th}: AUC or a safety gain is not finite"
        if th == QUALITY_THRESHOLD:
            quality["auc_learned"] = ev.get("auc_learned")
            quality["gain25_pct"] = gains.get("25")
    return bad, quality


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("run_all", "staged", "setup"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    cfg = PipelineConfig(**json.loads(args.config))
    shutil.rmtree(args.out, ignore_errors=True)
    os.makedirs(args.out)
    ready = time.monotonic()
    result: dict = {"ready_mono": ready}
    if args.mode != "setup":
        result["threads"] = _threads()
        result["numpy"] = np.__version__
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        attempted, failed = run_pipeline(args.mode, cfg, args.out)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=wall,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024.0,
            attempted=attempted,
        )
        if tracer is not None:
            result["trace"], result["tail_levels"] = tracer.summary()
            result["absent"] = tracer.absent
        if not failed:
            result["artifact_mb"] = _dir_bytes(args.out) / MB
            report = os.path.join(args.out, pipeline.ART_REPORT)
            try:
                result["report_digest"] = pipeline.file_digest(report)
                with open(report, encoding="utf-8") as fh:
                    result["artifacts"] = json.load(fh)["artifacts"]
                bad, result["quality"] = check_outputs(cfg, args.out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                bad = {"report": f"outputs unreadable: {exc!r}"}
            failed.update(bad)
        result["failed"] = failed
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
