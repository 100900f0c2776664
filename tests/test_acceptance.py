"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with -s to see them on passing runs).

The two expensive fixtures are session-scoped and run the shipped pipeline:
``full_run`` runs gen through label at the default synthetic config (1,000
episodes x 300 steps), ``study`` runs ``run_all`` for ten independent seeds
at the middle threshold for the takeover comparison. Both assert their stated
runtime caps.
"""

import json
import shutil
import time

import numpy as np
import pytest

from drivlab import evaluate
from drivlab.cli import main as cli_main
from drivlab.config import PipelineConfig
from drivlab.driver import load_driver, predict_batch, save_driver
from drivlab.failure import (
    CANONICAL_THRESHOLDS,
    build_failure_dataset,
    horizon_failures,
    load_hazard,
    predict_hazard_batch,
    read_labels_csv,
    save_hazard,
    split_predictions,
    step_failures,
)
from drivlab.pipeline import ART_DRIVER_METRICS, art_eval, art_labels, run_all, run_stage
from conftest import label_windows, labels_of, row_positions, trace_of
from gradcheck import grad_check
from oracles import brute_force_horizon, brute_force_takeover, label_horizon, label_step, lstm_cell


def _ok(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS - {detail}")


# ---------------------------------------------------------------------------
# Heavy shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    """Default config through gen, split, train-driver and label: driver
    competence + hazard-rate band."""
    cfg = PipelineConfig()  # 1,000 episodes x 300 steps, 10 epochs
    out = tmp_path_factory.mktemp("full_run")
    t0 = time.monotonic()
    cache: dict = {}
    for name in ("gen", "split", "train-driver", "label"):
        run_stage(name, cfg, out, cache)
    runtime = time.monotonic() - t0
    metrics = json.loads((out / ART_DRIVER_METRICS).read_text())
    rows, _ = read_labels_csv(out / art_labels("D2", "middle"))
    shutil.rmtree(out)  # a 100 MB episode file
    return {
        "cfg": cfg,
        "mae_speed": metrics["mae_speed"],
        "mae_angle": metrics["mae_angle"],
        "base_speed": metrics["baseline_mae_speed"],
        "base_angle": metrics["baseline_mae_angle"],
        "hazard_fraction_middle": float(rows.g_horizon.mean()),
        "runtime": runtime,
    }


STUDY_BUDGETS = list(evaluate.GAIN_BUDGETS)  # {10, 15, 20, 25, 30, 35, 40} percent
STUDY_SEEDS = 10
STUDY_WORLD = dict(episodes=150, episode_length=200, driver_epochs=6, hazard_epochs=6)
NESTED_POLICIES = ("learned", "uncertainty", "oracle")  # rank once, so curves never dip


@pytest.fixture(scope="session")
def study(tmp_path_factory):
    """``run_all`` at the middle threshold for each seed; curves from eval_middle.json."""
    t0 = time.monotonic()
    per_policy = {"learned": [], "interval": [], "uncertainty": [], "oracle": []}
    budgets = ",".join(str(b) for b in STUDY_BUDGETS)
    for seed in range(STUDY_SEEDS):
        out = tmp_path_factory.mktemp(f"study{seed}")
        run_all(PipelineConfig(seed=seed, budgets=budgets, **STUDY_WORLD), out)
        curves = json.loads((out / art_eval("middle")).read_text())["curves"]
        for name in per_policy:
            per_policy[name].append([p["reduction"] for p in curves[name]])
        shutil.rmtree(out)
    means = {name: np.mean(np.array(vals), axis=0) for name, vals in per_policy.items()}
    monotone = all(
        a <= b + 1e-12
        for name in NESTED_POLICIES for values in per_policy[name]
        for a, b in zip(values, values[1:])
    )
    return {
        "budgets": STUDY_BUDGETS,
        "means": means,
        "per_seed": per_policy,
        "curves_monotone": monotone,
        "runtime": time.monotonic() - t0,
    }


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_c1_gradient_correctness():
    from drivlab.diffcore import (
        ParameterStore, Tensor, add, concat, cross_entropy_loss, dropout, l2_loss, linear,
        lstm_seq, scale,
    )
    from oracles import matmul, mul, narrow, relu, reshape, sigmoid, softmax, step_major, tanh, tsum
    from drivlab.driver import BackboneArch, driver_forward, init_driver_params
    from drivlab.failure import hazard_forward, init_hazard_params

    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0

    def weighted(t):
        w = Tensor(np.linspace(0.2, 1.9, t.data.size).reshape(t.data.shape))
        return tsum(mul(t, w))

    # every primitive, checked through a weighted scalar readout
    cases = []
    store = ParameterStore()
    a = store.add("a", rng.standard_normal((3, 4)) + 0.4)
    b = store.add("b", rng.standard_normal((4, 3)))
    bias = store.add("bias", rng.standard_normal(4))
    pair = store.add("pair", rng.standard_normal((3, 4)))
    cases.append(lambda: weighted(matmul(a, b)))
    cases.append(lambda: weighted(add(a, bias)))
    cases.append(lambda: weighted(mul(a, pair)))
    cases.append(lambda: weighted(relu(a)))
    cases.append(lambda: weighted(tanh(a)))
    cases.append(lambda: weighted(sigmoid(a)))
    cases.append(lambda: weighted(softmax(a)))
    cases.append(lambda: weighted(concat([a, pair])))
    cases.append(lambda: weighted(narrow(a, 1, 1, 3)))
    cases.append(lambda: weighted(reshape(a, (4, 3))))
    cases.append(lambda: weighted(scale(a, -1.7)))
    cases.append(lambda: weighted(dropout(a, 0.35, "train", np.random.default_rng(11))))
    cases.append(lambda: l2_loss(a, np.full((3, 4), 0.25)))
    cases.append(
        lambda: cross_entropy_loss(
            narrow(matmul(a, b), 1, 0, 2), np.array([0, 1, 1]), np.array([0.6, 1.4])
        )
    )

    h = 3
    x = store.add("x", rng.standard_normal((2, 4)))
    h0 = store.add("h0", rng.standard_normal((2, h)))
    c0 = store.add("c0", rng.standard_normal((2, h)))
    wx = store.add("wx", rng.standard_normal((4, 4 * h)) * 0.5)
    wh = store.add("wh", rng.standard_normal((h, 4 * h)) * 0.5)
    bg = store.add("bg", rng.standard_normal(4 * h) * 0.5)

    def lstm_case():
        h2, c2 = lstm_cell(x, h0, c0, wx, wh, bg)
        return add(weighted(h2), weighted(c2))

    cases.append(lstm_case)
    # own stream, so the network checks below keep their inputs
    xs = store.add("xs", np.random.default_rng(8).standard_normal((3 * 2, 4)))
    cases.append(lambda: weighted(lstm_seq(xs, 3, wx, wh, bg)))
    for fn in cases:
        report = grad_check(fn, store)
        worst = max(worst, report.max_rel_error)
    # the linear node on its own store and stream, so the cases above keep theirs
    lin_rng = np.random.default_rng(9)
    lin = ParameterStore()
    xl = lin.add("x", lin_rng.standard_normal((3, 4)))
    lin.add("lin.w", lin_rng.standard_normal((4, 2)))
    lin.add("lin.b", lin_rng.standard_normal(2))
    worst = max(worst, grad_check(lambda: weighted(linear(lin, "lin", xl)), lin).max_rel_error)
    # the fused rectifier; two of its six pre-activations are positive, none within 0.4 of the kink
    worst = max(worst, grad_check(lambda: weighted(linear(lin, "lin", xl, relu=True)), lin).max_rel_error)
    assert worst < 1e-4

    # both full networks at width 8
    arch = BackboneArch(obs_dim=16, k=4, enc_hidden=8, enc_out=8, vis_hidden=8,
                        sig_hidden=4, head_hidden=8, dropout_p=0.1)
    vis = rng.standard_normal((3, 5, 16))
    spd = rng.standard_normal((3, 4))
    ang = rng.standard_normal((3, 4))
    d_params = init_driver_params(arch, np.random.default_rng(1))

    def driver_loss():
        out_a, out_s = driver_forward(
            d_params, arch, *step_major(vis), spd, ang, mode="train", rng=np.random.default_rng(5)
        )
        return add(l2_loss(out_a, np.full((3, 1), 0.3)), l2_loss(out_s, np.full((3, 1), -0.2)))

    rep_d = grad_check(driver_loss, d_params)
    h_params = init_hazard_params(arch, np.random.default_rng(2))

    def hazard_loss():
        logits = hazard_forward(
            h_params, arch, *step_major(vis), spd, ang, mode="train", rng=np.random.default_rng(6)
        )
        return cross_entropy_loss(logits, np.array([0, 1, 0]), np.array([0.8, 1.2]))

    rep_h = grad_check(hazard_loss, h_params)
    runtime = time.monotonic() - t0
    assert rep_d.passed(1e-4), f"driver: {rep_d.worst_param} {rep_d.max_rel_error}"
    assert rep_h.passed(1e-4), f"hazard: {rep_h.worst_param} {rep_h.max_rel_error}"
    assert runtime < 60.0
    _ok(
        "C1",
        f"max rel err: primitives {worst:.2e}, driver {rep_d.max_rel_error:.2e}, "
        f"hazard {rep_h.max_rel_error:.2e}; {rep_d.n_checked + rep_h.n_checked} net params "
        f"in {runtime:.1f}s",
    )


def test_c2_labeling_oracle_equivalence():
    rng = np.random.default_rng(202)
    n_cases = 10_000
    for _ in range(n_cases):
        length = int(rng.integers(1, 30))
        g = rng.integers(0, 2, size=length).tolist()
        m = int(rng.integers(0, 12))
        t = int(rng.integers(0, max(length - m, 1)))
        if t + m >= length:
            continue
        rows, g_h = horizon_failures(np.array(g, dtype=np.int64), np.zeros(length, dtype=np.int64), m)
        assert rows.tolist() == list(range(length - m))
        assert g_h.tolist() == [brute_force_horizon(g, i, m) for i in range(length - m)]
        assert g_h[t] == label_horizon(g, t, m)

    def flags(pred, th):  # the vectorised labeler on one step, truth (0, 0)
        out = step_failures(np.array([pred]).T, np.zeros((2, 1)), th)
        assert tuple(int(f[0]) for f in out) == label_step(pred, (0.0, 0.0), th)
        return tuple(int(f[0]) for f in out)

    # boundary: deviation exactly equal to the threshold fails (sgn(0) = 1)
    for th in CANONICAL_THRESHOLDS.values():
        ga, gs, g = flags((th.t_angle, 0.0), th)
        assert (ga, g) == (1, 1)
        ga, gs, g = flags((0.0, th.t_speed), th)
        assert (gs, g) == (1, 1)
        just_under = (th.t_angle * (1 - 1e-12), 0.0)
        assert flags(just_under, th)[0] == 0
    _ok("C2", f"{n_cases} fuzzed horizon sequences exact; threshold-boundary cases fail as required")


def test_c3_threshold_nesting(tiny_pipeline):
    predictions = split_predictions(tiny_pipeline["driver"], tiny_pipeline["d3"])
    step_sets, horizon_sets, fractions = {}, {}, {}
    for name in ("tight", "middle", "loose"):
        ds = build_failure_dataset(predictions, "D3", CANONICAL_THRESHOLDS[name], 8)
        step_sets[name] = set(row_positions(ds.rows, ds.rows.g == 1))
        horizon_sets[name] = set(row_positions(ds.rows, ds.rows.g_horizon == 1))
        fractions[name] = ds.hazard_fraction
    assert step_sets["loose"] <= step_sets["middle"] <= step_sets["tight"]
    assert horizon_sets["loose"] <= horizon_sets["middle"] <= horizon_sets["tight"]
    _ok(
        "C3",
        "hazardous sets nest exactly across (5,2) >= (7,3) >= (10,5); horizon fractions "
        + ", ".join(f"{k}={v:.3f}" for k, v in fractions.items()),
    )


def test_c4_takeover_simulator_oracle_equivalence():
    rng = np.random.default_rng(404)
    ghosts = np.random.default_rng(405)  # scenes of an episode without rows, on their own stream
    n_cases = 10_000
    checked_curves = with_ghosts = 0
    for case in range(n_cases):
        n_eps = int(rng.integers(1, 4))
        rows, entries = [], []
        total_scenes = 0
        for e in range(n_eps):
            n_rows = int(rng.integers(1, 8))
            for t in range(n_rows):
                g = int(rng.random() < 0.4)
                rows.append((f"e{e}", t, g))
            n_scenes = int(rng.integers(1, min(n_rows, 6) + 1))
            total_scenes += n_scenes
            for s in range(n_scenes):
                entries.append((f"e{e}", int(rng.integers(0, n_rows)), float(rng.choice([0.0, 0.5, 0.5, 1.0]))))
        if total_scenes > 20:
            continue
        n_ghosts = int(ghosts.integers(0, 3))
        entries += [("ghost", int(ghosts.integers(0, 8)), float(ghosts.choice([0.0, 0.5, 1.0])))
                    for _ in range(n_ghosts)]
        with_ghosts += n_ghosts > 0
        trace = trace_of("fuzz", entries)
        rows = labels_of(rows)
        m = int(rng.integers(0, 4))
        budget = float(rng.uniform(0.05, 1.0))
        ours = evaluate.simulate_takeover(rows, trace, budget, m)
        ref = brute_force_takeover(rows, trace, budget, m)
        assert ours == pytest.approx(ref, abs=1e-12), f"case {case}"
        if case % 50 == 0:
            curve = evaluate.reduction_curve(rows, trace, [i / 10 for i in range(1, 11)], m)
            values = [r for _, r in curve.points]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
            checked_curves += 1
    _ok("C4", f"{n_cases} fuzzed instances match brute force exactly ({with_ghosts} with scenes of an "
              f"episode without rows, repeated positions allowed); {checked_curves} curves monotone")


def test_c5_driving_model_competence(full_run):
    r = full_run
    improv_speed = 1.0 - r["mae_speed"] / r["base_speed"]
    improv_angle = 1.0 - r["mae_angle"] / r["base_angle"]
    assert improv_speed >= 0.30, f"speed improvement {improv_speed:.1%}"
    assert improv_angle >= 0.30, f"angle improvement {improv_angle:.1%}"
    assert r["runtime"] < 20 * 60
    assert 0.10 <= r["hazard_fraction_middle"] <= 0.45
    _ok(
        "C5",
        f"default config: mae_speed {r['mae_speed']:.3f} vs baseline {r['base_speed']:.3f} "
        f"({improv_speed:.0%} better), mae_angle {r['mae_angle']:.3f} vs {r['base_angle']:.3f} "
        f"({improv_angle:.0%} better); hazard fraction (7,3) = "
        f"{r['hazard_fraction_middle']:.3f} in [0.10, 0.45]; runtime {r['runtime']:.0f}s < 20min",
    )


def test_c6_learned_policy_beats_interval(study):
    means = study["means"]
    gaps = []
    for i, b in enumerate(study["budgets"]):
        assert means["learned"][i] > means["interval"][i], (
            f"budget {b}: learned {means['learned'][i]:.3f} <= interval {means['interval'][i]:.3f}"
        )
        gaps.append(means["learned"][i] - means["interval"][i])
    i25 = study["budgets"].index(0.25)
    gain25 = 100.0 * (means["learned"][i25] - means["interval"][i25]) / means["interval"][i25]
    assert gain25 >= 15.0, f"gain at 25% budget: {gain25:.1f}%"
    assert study["curves_monotone"]
    assert study["runtime"] < 30 * 60
    _ok(
        "C6",
        f"{STUDY_SEEDS} seeds: learned > interval at all budgets "
        f"{[round(100 * b) for b in study['budgets']]}% (min gap {min(gaps):.3f}); "
        f"safety gain at 25% = +{gain25:.1f}% (>= +15%); runtime {study['runtime']:.0f}s < 30min",
    )


def test_c7_learned_policy_beats_uncertainty(study):
    means = study["means"]
    i25 = study["budgets"].index(0.25)
    learned, unc = means["learned"][i25], means["uncertainty"][i25]
    assert learned > unc, f"learned {learned:.3f} <= uncertainty {unc:.3f} at 25%"
    _ok(
        "C7",
        f"mean reduction at 25% budget over {STUDY_SEEDS} seeds: learned {learned:.3f} > "
        f"dropout-uncertainty {unc:.3f}",
    )


DETERMINISM_CONFIG = """
episodes = 24
episode_length = 100
seed = 9
driver_epochs = 4
hazard_epochs = 2
budgets = 0.05:1.0:0.05
mc_samples = 4
thresholds = all
"""


def test_c8_run_all_byte_identical(tmp_path):
    cfg = tmp_path / "config.txt"
    cfg.write_text(DETERMINISM_CONFIG)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["run-all", "--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert set(report["thresholds"]) == {"tight", "middle", "loose"}
    _ok(
        "C8",
        f"run-all twice with seed 9 (thresholds=all): report.json byte-identical "
        f"({len(outs[0])} bytes, three hazard models)",
    )


def test_c9_checkpoint_round_trip(tiny_pipeline, tmp_path):
    driver = tiny_pipeline["driver"]
    hazard = tiny_pipeline["hazard"]
    windows = label_windows(tiny_pipeline["eval_labels"].rows, tiny_pipeline["d3"])[:50]
    # provenance entries must survive the round trip too
    driver.provenance = {"episodes": "0" * 64, "pipeline_seed": "0"}
    hazard.provenance = {"labels": "1" * 64}

    p1, p2 = tmp_path / "d1.ckpt", tmp_path / "d2.ckpt"
    before_a, before_s = predict_batch(driver, windows)
    save_driver(p1, driver)
    loaded = load_driver(p1)
    save_driver(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    after_a, after_s = predict_batch(loaded, windows)
    max_diff = max(np.max(np.abs(after_a - before_a)), np.max(np.abs(after_s - before_s)))
    assert max_diff <= 1e-15

    h1, h2 = tmp_path / "h1.ckpt", tmp_path / "h2.ckpt"
    before_p = predict_hazard_batch(hazard, windows)
    save_hazard(h1, hazard)
    hloaded = load_hazard(h1)
    save_hazard(h2, hloaded)
    assert h1.read_bytes() == h2.read_bytes()
    after_p = predict_hazard_batch(hloaded, windows)
    hmax = float(np.max(np.abs(after_p - before_p)))
    assert hmax <= 1e-15
    _ok(
        "C9",
        f"driver and hazard checkpoints: save-load-save byte-identical; prediction "
        f"drift {max(max_diff, hmax):.1e} <= 1e-15",
    )
