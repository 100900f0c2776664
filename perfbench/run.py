"""drivlab benchmark: three pipeline workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload small|bulk|staged --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is taken from
``src/`` next to this directory, never from an installed copy. Every
repetition is a fresh ``child.py`` process with the BLAS/OpenMP thread
variables pinned to 1. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json from untraced repetitions; ``--trace 1`` alternates untraced
and traced repetitions and reports the per-layer metrics. The last line of
standard output is the JSON result; the lines before it give sample counts,
percentiles and the machine. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import percentile, tail_level

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

STAGE_COUNT = 7  # gen, split, train-driver, label, train-failure, eval, report

WORKLOADS = {
    # run_all at batch 32: graph building, backward() and Adam dominate.
    "small": {"mode": "run_all", "config": {
        "episodes": 40, "episode_length": 200, "driver_epochs": 3, "hazard_epochs": 3}},
    # run_all at batch 512: generation, writing, windowing, inference and the
    # 100-budget curves dominate, and memory shows. The learning rates scale
    # with the batch so the few Adam steps still train both nets.
    "bulk": {"mode": "run_all", "config": {
        "episodes": 60, "episode_length": 300, "driver_epochs": 1, "hazard_epochs": 1,
        "driver_batch_size": 512, "hazard_batch_size": 512,
        "driver_lr": 0.006, "hazard_lr": 0.006}},
    # Seven run_stage calls without a cache: every stage re-reads its inputs,
    # and three thresholds triple labeling and hazard training.
    "staged": {"mode": "staged", "config": {
        "episodes": 30, "episode_length": 300, "driver_epochs": 2, "hazard_epochs": 1,
        "driver_batch_size": 256, "hazard_batch_size": 256,
        "driver_lr": 0.004, "hazard_lr": 0.004,
        "thresholds": "all", "budgets": "0.05:1.0:0.05"}},
}

# Quality metrics come from a repetition on this fixed seed in every run, so
# they repeat exactly across runs; timings come from all repetitions.
QUALITY_SEED = 0
QUALITY_KEYS = ("mae_speed_kmh", "mae_angle_deg", "auc_learned", "gain25_pct")
# Set-up-only children spawned before each untraced repetition, so that the
# set-up samples spread over the whole run instead of one burst at its start.
SETUPS_PER_REP = 2
MIN_REPS = 3
RUN_LIMIT_S = 165.0  # start no repetition that could end past this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# Counts that must repeat exactly between traced repetitions of one seed.
EXACT_COUNTS = ("diffcore.tensor_nodes", "diffcore.backward.calls",
                "evaluate.simulate_takeover.calls", "core.read_episodes.calls",
                "pipeline.file_digest.calls")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, config: dict, trace: bool, tag: str, timeout: float) -> dict:
    """Run one child process; return its result plus ``setup_s``."""
    out = WORK / f"out-{os.getpid()}-{tag}"
    result_path = WORK / f"result-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--config", json.dumps(config), "--out", str(out), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
        if proc.returncode != 0:
            res = {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        else:
            with open(result_path, encoding="utf-8") as fh:
                res = json.load(fh)
            res["setup_s"] = res["ready_mono"] - started
            if proc.stderr.strip():
                res["stderr"] = proc.stderr.strip()[-2000:]
    except subprocess.TimeoutExpired:
        res = {"crashed": f"timed out after {timeout:.0f} s"}
    except (OSError, ValueError, KeyError) as exc:
        res = {"crashed": f"no result: {exc!r}"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if result_path.exists():
            result_path.unlink()
    res["elapsed_s"] = time.monotonic() - started
    return res


def code_hash(config: dict) -> str:
    """Digest of the workload config and every source file of the package."""
    h = hashlib.sha256(json.dumps(config, sort_keys=True).encode())
    for path in sorted((SRC / "drivlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Ledger:
    """report.json digests by (workload, seed, code), kept across runs so a
    run that disagrees with an earlier run of the same code is caught (C8)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.digests = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.digests = {}

    def check(self, key: str, digest: str) -> bool:
        known = self.digests.setdefault(key, digest)
        return known == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def describe(values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    vals = sorted(values)
    text = f"median {statistics.median(vals):.6g}"
    level = tail_level(len(vals))
    if level is None:
        text += f", n={len(vals)} (too few samples for a tail percentile)"
    else:
        text += f", p{level:g} {percentile(vals, level):.6g}, n={len(vals)}"
    return text


def machine_info(children: list[dict]) -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "threads_env": {var: "1" for var in THREAD_VARS}}
    if hasattr(os, "sched_getaffinity"):
        info["cpus_usable"] = len(os.sched_getaffinity(0))
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), platform.processor())
        with open("/proc/meminfo", encoding="ascii") as fh:
            kib = next(int(ln.split()[1]) for ln in fh if ln.startswith("MemTotal:"))
        info["ram_gb"] = round(kib / 2**20, 2)
    except (OSError, StopIteration, ValueError):
        pass
    numpys = {c["numpy"] for c in children if "numpy" in c}
    info["numpy"] = ",".join(sorted(numpys)) or "unknown"
    info["child_threads_max"] = max((c.get("threads", -1) for c in children), default=-1)
    return info


def run_reps(args, workload: dict, start: float) -> tuple[list[dict], list[dict]]:
    """(repetitions, set-up-only children), run back to back while the next
    repetition is expected to end no more than half a repetition past
    ``--seconds``. At least MIN_REPS, or one untraced/traced pair with
    ``--trace 1``; none that could end past RUN_LIMIT_S."""
    mode, base = workload["mode"], workload["config"]
    reps: list[dict] = []
    setups: list[dict] = []
    longest = 0.0  # of one repetition with its set-up children
    deadline = start + RUN_LIMIT_S + 10.0
    while True:
        now = time.monotonic()
        elapsed = now - start
        enough = len(reps) >= (2 if args.trace else MIN_REPS)
        if enough and elapsed + reps[-1]["elapsed_s"] / 2 >= args.seconds:
            break
        if reps and elapsed + longest > RUN_LIMIT_S:
            break
        i = len(reps)
        if args.trace:
            seed, traced = args.seed, i % 2 == 1
        else:
            seed, traced = (QUALITY_SEED if i == 0 else args.seed), False
            for j in range(SETUPS_PER_REP):
                setups.append(spawn("setup", dict(base, seed=seed), False, f"setup{i}-{j}",
                                    timeout=min(60.0, deadline - time.monotonic())))
        res = spawn(mode, dict(base, seed=seed), traced, f"rep{i}",
                    timeout=deadline - time.monotonic())
        res.update(seed=seed, traced=traced)
        reps.append(res)
        longest = max(longest, time.monotonic() - now)
    return reps, setups


def score(args, reps: list[dict], config: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): stage calls, failed ones, and why."""
    ledger = Ledger(WORK / "digests.json")
    attempted = failed = 0
    problems: list[str] = []
    first_digest: dict[int, str] = {}
    first_counts: dict[str, float] = {}
    code = code_hash(config)
    for i, rep in enumerate(reps):
        if "crashed" in rep:
            attempted += STAGE_COUNT
            failed += STAGE_COUNT
            problems.append(f"rep {i}: child failed: {rep['crashed']}")
            continue
        attempted += rep["attempted"]
        bad = dict(rep["failed"])
        digest = rep.get("report_digest")
        if digest is not None:
            key = f"{args.workload}|{rep['seed']}|{code}"
            if first_digest.setdefault(rep["seed"], digest) != digest:
                bad["report"] = "report.json differs from an earlier repetition"
            elif not ledger.check(key, digest):
                bad["report"] = "report.json differs from an earlier run of this code"
        if rep["traced"]:
            for name in EXACT_COUNTS:
                value = rep["trace"].get(name)
                if first_counts.setdefault(name, value) != value:
                    bad["trace"] = f"count {name} differs between traced repetitions"
        failed += len(bad)
        problems += [f"rep {i} stage {stage}: {why}" for stage, why in bad.items()]
    ledger.save()
    return attempted, failed, problems


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, dict]:
    ok = [r for r in reps if "crashed" not in r and not r["failed"]]
    samples = {"setup_s": setups + [r["setup_s"] for r in reps if "setup_s" in r]}
    for key in ("wall_s", "cpu_s", "peak_rss_mb", "artifact_mb"):
        samples[key] = [r[key] for r in ok]
    values = {k: statistics.median(v) for k, v in samples.items() if v}
    quality = next((r["quality"] for r in ok if r["seed"] == QUALITY_SEED), {})
    for key in QUALITY_KEYS:
        if isinstance(quality.get(key), (int, float)):
            values[key] = float(quality[key])
            samples[key] = [values[key]]
    return values, samples


def per_layer(reps: list[dict]) -> tuple[dict, dict, dict]:
    traced = [r for r in reps if r["traced"] and "trace" in r]
    plain = [r["wall_s"] for r in reps if not r["traced"] and "wall_s" in r]
    values: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    for key in sorted({k for r in traced for k in r["trace"]}):
        samples[key] = [r["trace"][key] for r in traced if key in r["trace"]]
        values[key] = statistics.median(samples[key])
    if traced and plain:
        samples["trace.wall_s"] = [r["wall_s"] for r in traced]
        values["trace.wall_s"] = statistics.median(samples["trace.wall_s"])
        base = statistics.median(plain)
        values["trace.overhead_pct"] = 100.0 * (values["trace.wall_s"] - base) / base
        samples["trace.overhead_pct"] = [values["trace.overhead_pct"]]
    tails = traced[0].get("tail_levels", {}) if traced else {}
    return values, samples, tails


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "drivlab" / "pipeline.py").is_file() or not spec_path.is_file():
        print(f"error: no drivlab source under {SRC} (or no BENCHMARK.json); "
              "run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)

    reps, setup_runs = run_reps(args, workload, start)
    setups = [r["setup_s"] for r in setup_runs if "setup_s" in r]
    attempted, failed, problems = score(args, reps, workload["config"])
    crashed_setups = [r["crashed"] for r in setup_runs if "crashed" in r]
    problems += [f"set-up child failed: {why}" for why in crashed_setups]

    if args.trace:
        values, samples, tails = per_layer(reps)
        declared = spec["per_layer"]
    else:
        values, samples = end_to_end(reps, setups)
        values["ok_frac"] = 1.0 - failed / attempted if attempted else 0.0
        samples["ok_frac"] = [values["ok_frac"]]
        tails = {}
        declared = spec["end_to_end"]
    machine = machine_info(reps)
    if machine["child_threads_max"] > 1:
        print(f"warning: a child ran {machine['child_threads_max']} threads after loading "
              "numpy; BLAS may not be pinned to one thread", file=sys.stderr)

    metrics = {}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetitions, {len(setups)} set-up spawns")
    for m in declared:
        name = m["name"]
        if name not in values:
            print(f"warning: metric {name} absent", file=sys.stderr)
            continue
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        span = name.rsplit(".", 1)[0]
        level = f" (tail = p{tails[span]:g})" if name.endswith(".tail_ms") and span in tails else ""
        print(f"  {name} [{m['unit']}]: {describe(samples[name])}{level}")
    for reason in problems:
        print(f"  {reason}", file=sys.stderr)
    print("machine " + json.dumps(machine, sort_keys=True))
    for target in sorted({t for rep in reps for t in rep.get("absent", [])}):
        print(f"warning: trace target {target} absent", file=sys.stderr)

    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "config": workload["config"], "machine": machine, "problems": problems,
              "samples": samples, "tail_levels": tails,
              "reps": [{k: v for k, v in r.items() if k not in ("trace", "tail_levels")}
                       for r in reps]}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")

    correct = failed == 0 and not crashed_setups and all(m["name"] in metrics for m in declared
                                                         if not args.trace)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
