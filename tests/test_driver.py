import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import drivlab
from drivlab import core
from drivlab import driver as driver_mod
from drivlab.diffcore import adam_step, add, l2_loss, scale
from drivlab.driver import (
    BackboneArch,
    TrainConfig,
    _eval_loss,
    _predict_normalized,
    batch_inputs,
    constant_mean_mae,
    driver_forward,
    eval_mae,
    init_driver_params,
    load_driver,
    mc_predict_batch,
    predict_batch,
    save_driver,
    train_driver,
    windows_to_arrays,
)
from drivlab.errors import NumericalError, ValidationError
from drivlab.failure import (
    CANONICAL_THRESHOLDS,
    DEFAULT_HORIZON,
    HazardNet,
    hazard_forward,
    init_hazard_params,
    predict_hazard_batch,
    train_failure,
)

from conftest import all_windows, small_world, windows_of_rows
from drivlab import simgen
from oracles import gathered_forward, materialized_arrays, mc_predict_loop


def _constant_windows(n=40, angle=5.0, speed=50.0, d=16, k=4):
    # separable sub-problem: constant targets, constant frames
    rng = np.random.default_rng(0)
    frames, speeds, angles = [], [], []
    for _ in range(n):
        frames.append(rng.normal(0.0, 1.0, size=(k + 1, d)))
        angles.append([*np.full(k, angle), angle + float(rng.normal(0, 1e-6))])
        speeds.append([*np.full(k, speed), speed + float(rng.normal(0, 1e-6))])
    return windows_of_rows(np.array(frames), np.array(speeds), np.array(angles))


@pytest.fixture(scope="module")
def trained(small_windows_module):
    net, history = train_driver(small_windows_module, TrainConfig(epochs=2, seed=3))
    return net, history


@pytest.fixture(scope="module")
def small_windows_module():
    return all_windows(simgen.generate_dataset(small_world(), 6, base_seed=500))


class TestPredictContracts:
    def test_zero_heads_predict_channel_means(self, small_windows_module):
        windows = small_windows_module
        net, _ = train_driver(windows[:100], TrainConfig(epochs=1, seed=0))
        for prefix in ("head_angle", "head_speed"):
            for part in ("1", "2"):
                net.params[f"{prefix}{part}.w"].data[:] = 0.0
                net.params[f"{prefix}{part}.b"].data[:] = 0.0
        angle, speed = predict_batch(net, windows[:1])
        assert angle[0] == pytest.approx(net.normalizer.mean_angle, abs=1e-12)
        assert speed[0] == pytest.approx(net.normalizer.mean_speed, abs=1e-12)

    def test_outputs_clipped_to_legal_ranges(self, small_windows_module):
        windows = small_windows_module[:50]
        net, _ = train_driver(windows, TrainConfig(epochs=1, seed=1))
        # blow up a head so raw outputs exceed the ranges
        net.params["head_speed2.w"].data[:] = 1e6
        net.params["head_angle2.w"].data[:] = -1e6
        angle, speed = predict_batch(net, windows)
        assert np.all((core.SPEED_MIN <= speed) & (speed <= core.SPEED_MAX))
        assert np.all((core.ANGLE_MIN <= angle) & (angle <= core.ANGLE_MAX))

    def test_dimension_mismatch_rejected(self, trained):
        net, _ = trained
        bad = windows_of_rows(np.zeros((1, 3, 16)), np.zeros((1, 3)), np.zeros((1, 3)))  # wrong k
        with pytest.raises(ValidationError):
            predict_batch(net, bad)

    def test_no_double_normalization(self, trained, small_windows_module):
        # predictions must equal denormalize(raw head output) exactly
        net, _ = trained
        w = small_windows_module[7:8]
        data = windows_to_arrays(w, net.normalizer)
        out_a, out_s = driver_forward(net.params, net.arch, *batch_inputs(data, slice(None)))
        angle, speed = predict_batch(net, w)
        assert angle[0] == float(net.normalizer.denormalize(out_a.data[0, 0], "angle"))
        assert speed[0] == float(net.normalizer.denormalize(out_s.data[0, 0], "speed"))

    def test_trained_on_noiseless_separable_problem_within_one_degree(self):
        # zero-noise world: the target angle is a clean linear readout of one
        # observation channel; training to convergence must nail the oracle
        rng = np.random.default_rng(3)
        frames, speeds, angles = [], [], []
        for _ in range(300):
            frames.append(rng.normal(0.0, 1.0, size=(5, 16)))
            angles.append([*rng.normal(0.0, 10.0, size=4), 10.0 * frames[-1][-1, 0]])
            past_speeds = np.full(4, 50.0) + rng.normal(0.0, 1.0, size=4)
            speeds.append([*past_speeds, 50.0 + float(rng.normal(0.0, 1.0))])
        windows = windows_of_rows(np.array(frames), np.array(speeds), np.array(angles))
        net, _ = train_driver(
            windows, TrainConfig(epochs=60, batch_size=32, seed=2, dropout_p=0.0)
        )
        pred_angle, _ = predict_batch(net, windows[:100])
        truth = windows[:100].target_angle
        assert float(np.mean(np.abs(pred_angle - truth))) < 1.0


class TestInferenceChunks:
    """Inference runs in chunks of ``PREDICT_BATCH`` rows, and the MC-dropout
    masks are drawn over all rows at once. BLAS gives a row the same bits
    when chunks start at multiples of its row block and none has a single
    row (one row is a matrix-vector product). Other chunk sizes move rows to
    another kernel path, which reorders dot-product sums by a few ulps."""

    @staticmethod
    def _outputs(pipe, windows):
        net = pipe["driver"]
        return (
            *predict_batch(net, windows),
            predict_hazard_batch(pipe["hazard"], windows),
            *mc_predict_batch(net, windows, 4, np.random.default_rng(5)),
            np.array(_eval_loss(net, windows_to_arrays(windows, net.normalizer), 1.0)),
        )

    def test_results_do_not_depend_on_chunk_size(self, tiny_pipeline, monkeypatch):
        windows = all_windows(tiny_pipeline["d3"])[:603]
        assert len(windows) == 603  # two chunks at 512, one at 2048
        want = self._outputs(tiny_pipeline, windows)
        for chunk in (1, 7, 8, 64, 512, 2048):
            monkeypatch.setattr(driver_mod, "PREDICT_BATCH", chunk)
            got = self._outputs(tiny_pipeline, windows)
            for g, w in zip(got, want):
                if chunk % 8:
                    np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-9)
                else:
                    assert np.array_equal(g.view(np.int64), w.view(np.int64)), chunk

    def test_one_row_remainder_joins_the_chunk_before_it(self, tiny_pipeline, monkeypatch):
        windows = all_windows(tiny_pipeline["d3"])[:513]
        assert len(windows) == 513  # 512 + 1: no chunk may be the last row alone
        got = self._outputs(tiny_pipeline, windows)
        monkeypatch.setattr(driver_mod, "PREDICT_BATCH", 2048)
        for g, w in zip(got, self._outputs(tiny_pipeline, windows)):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    @pytest.mark.parametrize("n", [1, 601, 2048])
    def test_mc_matches_whole_driver_per_sample(self, tiny_pipeline, n):
        # up to 2048 rows the reference draws its masks in the same order
        net = tiny_pipeline["driver"]
        windows = all_windows(tiny_pipeline["episodes"])[:n]
        got = mc_predict_batch(net, windows, 3, np.random.default_rng(8))
        want = mc_predict_loop(net, windows, 3, np.random.default_rng(8))
        for g, w in zip(got, want):
            assert g.shape == (3, n)
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    def test_empty_windows_give_empty_results(self, tiny_pipeline):
        one_step = core.Episode("e", np.zeros((1, 16)), np.array([50.0]), np.array([0.0]), {})
        empty = core.make_windows(one_step, k=1)
        angles, speeds = mc_predict_batch(tiny_pipeline["driver"], empty, 3, np.random.default_rng(0))
        assert angles.shape == speeds.shape == (3, 0)
        assert all(a.shape == (0,) for a in predict_batch(tiny_pipeline["driver"], empty))
        assert predict_hazard_batch(tiny_pipeline["hazard"], empty).shape == (0,)


class TestDistinctFrames:
    """Inference encodes each distinct frame of a chunk once and runs the
    LSTM over their rows. Its outputs must be those of
    ``oracles.gathered_forward``, which copies every window's frames, bit for
    bit at ``PREDICT_BATCH`` and within rounding for 1- and 7-row chunks (see
    ``TestInferenceChunks``)."""

    @staticmethod
    def _windows(tiny_pipeline, subset):
        windows = all_windows(tiny_pipeline["d3"])
        if subset == "dense":  # consecutive windows of one episode
            return windows[windows.ep == 0]
        if subset == "scenes":  # one window per horizon, as eval scores them: no frame shared
            return windows[:: DEFAULT_HORIZON + 1]
        if subset == "shuffled":
            return windows[np.random.default_rng(4).permutation(len(windows))[:600]]
        return windows[100:700]  # the first 512-row chunk crosses episode boundaries

    @pytest.mark.parametrize("chunk", [1, 7, 512])
    @pytest.mark.parametrize("subset", ["dense", "scenes", "shuffled", "episode-boundary"])
    def test_outputs_match_the_gathered_forward(self, tiny_pipeline, subset, chunk, monkeypatch):
        windows = self._windows(tiny_pipeline, subset)
        frames = windows.end[:, None] + np.arange(-windows.k, 1)
        assert len(windows) >= 100 and (len(set(windows.ep[:512].tolist())) == 1) == (subset == "dense")
        assert (len(np.unique(frames)) == frames.size) == (subset == "scenes")
        monkeypatch.setattr(driver_mod, "PREDICT_BATCH", chunk)
        driver, hazard = tiny_pipeline["driver"], tiny_pipeline["hazard"]
        runs = (
            (driver, ("head_angle", "head_speed"), lambda *inputs: driver_forward(driver.params, driver.arch, *inputs)),
            (hazard, ("cls",), lambda *inputs: (hazard_forward(hazard.params, hazard.arch, *inputs),)),
        )
        for net, heads, forward in runs:
            got = driver_mod.forward_chunks(forward, windows_to_arrays(windows, net.normalizer))
            ref = materialized_arrays(windows, net.normalizer)
            want = gathered_forward(net.params, net.arch, heads, ref["vis"], ref["spd"], ref["ang"])
            for g, w in zip(got, want):
                if chunk % 8:
                    np.testing.assert_allclose(g, w.data, rtol=1e-9, atol=1e-9)
                else:
                    assert np.array_equal(g.view(np.int64), w.data.view(np.int64)), heads


class TestFrameGather:
    """``windows_to_arrays`` keeps the obs column and a frame-row index;
    ``batch_inputs`` gathers a batch's frames, step-major or each distinct
    frame once. Every batch must get the bits of the whole-set gather in
    ``oracles.materialized_arrays``."""

    @pytest.mark.parametrize("subset", ["all", "shuffled-half", "middle"])
    def test_ragged_batches_match_the_materialized_gather(self, small_windows_module, subset):
        rng = np.random.default_rng(9)
        windows = small_windows_module
        if subset == "shuffled-half":  # rows out of order, sharing the columns with gaps
            windows = windows[rng.permutation(len(windows))[: len(windows) // 2]]
        if subset == "middle":  # a slice whose rows start past the columns' first row
            windows = windows[150:420]
        normalizer = core.fit_normalizer(small_windows_module)
        data, want = windows_to_arrays(windows, normalizer), materialized_arrays(windows, normalizer)
        for key in ("tgt_a", "tgt_s"):
            assert np.array_equal(data[key], want[key])
        span = windows.end.max() - windows.end.min() + 5  # only the rows the windows span
        assert data["obs"].shape == (span, 16) and data["frames"].min() == 0
        n = len(windows)
        cuts = np.cumsum(rng.integers(1, 97, size=n))
        bounds = [0, *cuts[cuts < n].tolist(), n]  # ragged sizes, one-row batches possible
        order = rng.permutation(n)
        batches = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]  # chunks, as in inference
        batches += [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]  # shuffled, as in training
        batches += [slice(n - 1, n), order[:1], order[:0]]
        for rows in batches:
            b = len(want["spd"][rows])
            step_major = batch_inputs(data, rows)
            distinct = batch_inputs(data, rows, distinct=True)
            assert np.array_equal(step_major[1].T.reshape(-1), np.arange(b * 5))
            spans = data["frames"][rows]
            assert len(distinct[0]) == len(np.unique(spans))  # no frame gathered twice
            for frames, index, *signals in (step_major, distinct):
                assert index.shape == (b, 5)
                for got, key in zip((frames[index], *signals), ("vis", "spd", "ang")):
                    assert got.shape == want[key][rows].shape
                    assert np.array_equal(got.view(np.int64), want[key][rows].view(np.int64)), key


MIB = float(1 << 20)


class TestMemory:
    """A training step's tape is freed by backward(), inference records none,
    and the allocator reuses freed blocks instead of mapping them afresh."""

    @staticmethod
    def _traced(fn, base):
        """(peak and end of ``fn()``'s traced memory above ``base``, in MiB;
        its result)."""
        tracemalloc.reset_peak()
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
        return (peak - base) / MIB, (current - base) / MIB, result

    def test_batch_512_training_step(self, small_windows_module):
        windows = small_windows_module
        assert len(windows) >= 512
        arch = BackboneArch(obs_dim=windows.obs.shape[1], k=windows.k)
        params = init_driver_params(arch, np.random.default_rng(0))
        data = windows_to_arrays(windows, core.fit_normalizer(windows))
        inputs = batch_inputs(data, slice(0, 512))
        rng = np.random.default_rng(1)

        def step():
            out_a, out_s = driver_forward(params, arch, *inputs, mode="train", rng=rng)
            loss = add(l2_loss(out_a, data["tgt_a"][:512]), scale(l2_loss(out_s, data["tgt_s"][:512]), 1.0))
            loss.backward()
            adam_step(params, 1e-3)
            return loss

        # as in the training loop, each step's loss stays bound into the next step
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            first_peak, first_left, loss = self._traced(step, base)
            second_peak, second_left, loss = self._traced(step, base)
        finally:
            tracemalloc.stop()
        assert first_peak <= 13.0 and first_left < 0.1
        # the second step may add only the first one's bound scalar loss
        assert second_peak <= first_peak + 0.01 and second_left < 0.1

    def test_inference_over_2048_rows(self, trained, small_windows_module):
        net, _ = trained
        rows = np.arange(2048) % len(small_windows_module)  # the windows three times over, cut at 2048
        data = windows_to_arrays(small_windows_module[rows], net.normalizer)
        assert data["frames"].shape[0] == 2048
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            peak, _, _ = self._traced(lambda: _predict_normalized(net, data), base)
        finally:
            tracemalloc.stop()
        assert peak < 4.0

    def test_no_frame_copy_beyond_one_batch_or_chunk(self):
        """Fitting the normalizer, training, validation, ``eval_mae`` and the
        three predictors gather the frames of one block, batch or chunk at a
        time. Over 6,144 windows of 64-wide frames, one copy of every window's
        frames is 15 MiB, more than any of their traced peaks may reach."""
        rng = np.random.default_rng(11)
        episodes = [core.Episode(f"e{i}", rng.standard_normal((1540, 64)), rng.uniform(20, 100, 1540),
                                 rng.uniform(-30, 30, 1540), {}) for i in range(4)]
        windows = core.make_windows(*episodes, k=4)
        frame_copy = len(windows) * 5 * 64 * 8 / MIB
        assert len(windows) == 6144 and frame_copy == 15.0
        normalizer = core.fit_normalizer(windows)
        arch = BackboneArch(obs_dim=64, k=4, enc_hidden=8, enc_out=8, vis_hidden=8, sig_hidden=4, head_hidden=8)
        net = driver_mod.DriverNet(arch, init_driver_params(arch, rng), normalizer, "D1", 0)
        middle = CANONICAL_THRESHOLDS["middle"]
        hazard = HazardNet(arch, init_hazard_params(arch, rng), normalizer, "D2", middle, 8, 0)
        labels = np.arange(len(windows)) % 2
        paths = {
            "fit_normalizer": lambda: core.fit_normalizer(windows),
            "train": lambda: train_failure(windows, labels, TrainConfig(epochs=1, batch_size=32), normalizer, middle),
            "validate": lambda: _eval_loss(net, windows_to_arrays(windows, normalizer), 1.0),
            "eval_mae": lambda: driver_mod.eval_mae(windows, predict_batch(net, windows)),
            "predict": lambda: predict_batch(net, windows),
            "mc_predict": lambda: mc_predict_batch(net, windows, 2, np.random.default_rng(0)),
            "predict_hazard": lambda: predict_hazard_batch(hazard, windows),
        }
        peaks = {}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for name, fn in paths.items():
                peaks[name] = self._traced(fn, base)[0]
        finally:
            tracemalloc.stop()
        assert all(peak < frame_copy for peak in peaks.values()), peaks

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
    def test_freed_blocks_are_reused(self):
        # 50 blocks of 4 MiB (1024 pages), each a page larger than the last, in
        # a fresh process: glibc's default threshold follows the last freed
        # block, so each would be mapped and faulted in afresh
        code = (
            "import resource, numpy as np, drivlab\n"
            "assert drivlab._malloc_tuned\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for i in range(50):\n"
            "    block = np.empty((1 << 19) + 512 * i)\n"
            "    block.fill(1.0)\n"
            "    del block\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(drivlab.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 2 * 1024


class TestTraining:
    def test_lambda_zero_speed_head_gets_no_gradient(self, small_windows_module):
        windows = small_windows_module[:64]
        cfg = TrainConfig(epochs=1, seed=4, lam=0.0)
        normalizer = core.fit_normalizer(windows)
        arch = BackboneArch(obs_dim=16, k=4, dropout_p=cfg.dropout_p)
        rng = np.random.default_rng(0)
        params = init_driver_params(arch, rng)
        data = windows_to_arrays(windows, normalizer)
        from drivlab.diffcore import l2_loss

        out_a, out_s = driver_forward(
            params, arch, *batch_inputs(data, slice(None)), mode="train", rng=np.random.default_rng(1),
        )
        loss = l2_loss(out_a, data["tgt_a"])  # lam = 0 drops the speed term
        loss.backward()
        for name in params.names():
            grad = params[name].grad
            if name.startswith("head_speed"):
                assert grad is None or np.all(grad == 0.0)
            elif name.startswith("head_angle"):
                assert grad is not None and np.any(grad != 0.0)

    def test_one_step_touches_both_heads_and_all_tracks(self, small_windows_module):
        windows = small_windows_module[:64]
        net, _ = train_driver(windows, TrainConfig(epochs=1, batch_size=64, seed=5))
        fresh = init_driver_params(
            BackboneArch(obs_dim=16, k=4, dropout_p=0.1),
            np.random.default_rng(np.random.SeedSequence(5).spawn(3)[0]),
        )
        for prefix in ("head_angle1", "head_speed1", "vis", "spd", "ang"):
            moved = any(
                not np.array_equal(net.params[n].data, fresh[n].data)
                for n in net.params.names()
                if n.startswith(prefix)
            )
            assert moved, f"no update reached {prefix}"

    def test_seeded_determinism(self, small_windows_module):
        windows = small_windows_module[:200]
        h1 = train_driver(windows, TrainConfig(epochs=2, seed=6))[1]
        h2 = train_driver(windows, TrainConfig(epochs=2, seed=6))[1]
        assert h1 == h2

    def test_loss_decreases_on_subsample(self, small_windows_module):
        windows = small_windows_module[::10]
        _, history = train_driver(windows, TrainConfig(epochs=2, seed=7))
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostics(self, small_windows_module):
        windows = small_windows_module[:40]
        cfg = TrainConfig(epochs=1, seed=8, lr=1e300)
        with pytest.raises(NumericalError, match=r"lr=1e\+300"):
            # first step explodes the params; second batch sees inf loss
            train_driver(windows, cfg)

    def test_empty_training_set(self):
        with pytest.raises(ValidationError):
            train_driver([], TrainConfig())

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            TrainConfig(lam=-1.0)


class TestEvalMae:
    def test_identity_predictions(self, small_windows_module):
        windows = small_windows_module[:30]
        assert eval_mae(windows, (windows.target_angle, windows.target_speed)) == (0.0, 0.0)

    def test_single_window_angle_off_by_two(self):
        w = _constant_windows(n=1)
        assert eval_mae(w, (w.target_angle + 2.0, w.target_speed)) == (0.0, 2.0)

    def test_baseline_is_mean_predictor(self, trained, small_windows_module):
        net, _ = trained
        windows = small_windows_module[:30]
        base_s, base_a = constant_mean_mae(net.normalizer, windows)
        true_s, true_a = windows.target_speed, windows.target_angle
        assert base_s == pytest.approx(np.mean(np.abs(true_s - net.normalizer.mean_speed)))
        assert base_a == pytest.approx(np.mean(np.abs(true_a - net.normalizer.mean_angle)))


class TestDriverCheckpoint:
    def test_round_trip_bit_exact_predictions(self, trained, small_windows_module, tmp_path):
        net, _ = trained
        windows = small_windows_module[:20]
        before_a, before_s = predict_batch(net, windows)
        p1, p2 = tmp_path / "d1.ckpt", tmp_path / "d2.ckpt"
        save_driver(p1, net)
        loaded = load_driver(p1)
        save_driver(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        after_a, after_s = predict_batch(loaded, windows)
        assert np.max(np.abs(after_a - before_a)) <= 1e-15
        assert np.max(np.abs(after_s - before_s)) <= 1e-15
        assert loaded.trained_on == net.trained_on

    def test_kind_mismatch(self, trained, tmp_path):
        from drivlab.failure import load_hazard

        net, _ = trained
        path = tmp_path / "d.ckpt"
        save_driver(path, net)
        with pytest.raises(ValidationError, match="hazard"):
            load_hazard(path)
