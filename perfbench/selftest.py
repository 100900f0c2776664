"""Self-test of the benchmark harness on a tiny config (about half a minute).

    python3 perfbench/selftest.py

Checks, through the same child processes the benchmark uses:
  1. the staged path (seven uncached ``run_stage`` calls) writes artifacts
     byte-identical to ``run_all``'s;
  2. two traced runs agree exactly on the counts in ``run.EXACT_COUNTS``, and
     their per-stage spans add up to the traced wall time;
  3. a trace target that does not exist is reported absent with a warning,
     and the run goes on.
Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import sys
import warnings

import run
from tracer import Target, Tracer

TINY = {"episodes": 30, "episode_length": 120, "driver_epochs": 2, "hazard_epochs": 1,
        "thresholds": "all", "budgets": "0.1:1.0:0.1", "seed": 7}
# Time inside run_all but outside its run_stage calls (makedirs, the cache).
UNCOVERED_S = 0.05


def _spawn(mode: str, trace: bool, tag: str) -> dict:
    res = run.spawn(mode, TINY, trace, f"selftest-{tag}", timeout=120.0)
    if "crashed" in res or res["failed"]:
        raise SystemExit(f"FAIL {mode} run: {res.get('crashed') or res['failed']}")
    return res


def check_staged_matches_run_all() -> list[str]:
    cached, staged = _spawn("run_all", False, "all"), _spawn("staged", False, "staged")
    errors = [f"{name} differs" for name in sorted(set(cached["artifacts"]) | set(staged["artifacts"]))
              if cached["artifacts"].get(name) != staged["artifacts"].get(name)]
    if cached["report_digest"] != staged["report_digest"]:
        errors.append("report.json differs")
    return errors


def check_traced_counts() -> list[str]:
    first, second = _spawn("run_all", True, "trace1"), _spawn("run_all", True, "trace2")
    errors = []
    for name in run.EXACT_COUNTS:
        a, b = first["trace"].get(name), second["trace"].get(name)
        if a is None or a != b:
            errors.append(f"{name}: {a} vs {b}")
    for res in (first, second):
        stages = sum(res["trace"][f"pipeline.{s}.s"] for s in
                     ("gen", "split", "train-driver", "label", "train-failure", "eval", "report"))
        gap = res["wall_s"] - stages
        if not 0.0 <= gap <= UNCOVERED_S + 0.02 * res["wall_s"]:
            errors.append(f"stage spans sum to {stages:.3f} s, traced wall {res['wall_s']:.3f} s")
    if first["report_digest"] != second["report_digest"]:
        errors.append("traced runs wrote different report.json")
    return errors


def check_missing_target() -> list[str]:
    sys.path.insert(0, str(run.SRC))
    from drivlab import core, simgen

    tracer = Tracer(
        targets=(Target("core.make_windows", "drivlab.core", "make_windows"),
                 Target("gone.function", "drivlab.core", "no_such_function"),
                 Target("gone.module", "drivlab.no_such_module", "anything")),
        node_class=("drivlab.diffcore.tensor", "NoSuchClass"),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install()
    ep = simgen.generate_episode(simgen.WorldConfig(episode_length=20, seed=1), "ep0")
    core.make_windows(ep, k=4)
    metrics, _ = tracer.summary()
    errors = []
    if len(tracer.absent) != 3 or len(caught) != 3:
        errors.append(f"expected 3 absent targets and warnings, got {tracer.absent}")
    if metrics.get("core.make_windows.calls") != 1.0:
        errors.append("the surviving target was not traced")
    if any(k.startswith("gone.") or k == "diffcore.tensor_nodes" for k in metrics):
        errors.append("an absent target reported metrics")
    return errors


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    ok = True
    for check in (check_staged_matches_run_all, check_traced_counts, check_missing_target):
        errors = check()
        ok &= not errors
        print(f"{'PASS' if not errors else 'FAIL'} {check.__name__}")
        for error in errors:
            print(f"  {error}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
