from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivlab import core, failure
from drivlab.driver import TrainConfig, predict_batch
from drivlab.errors import ValidationError
from drivlab.failure import (
    CANONICAL_THRESHOLDS,
    Labels,
    Thresholds,
    build_failure_dataset,
    horizon_failures,
    predict_hazard_batch,
    read_labels_csv,
    split_predictions,
    step_failures,
    train_failure,
    write_labels_csv,
)

from conftest import all_windows, label_windows, labels_of, row_positions, windows_of_rows
from oracles import brute_force_horizon, label_horizon, label_step, sgn


def _step(pred, truth, th):
    """(g_a, g_s, g) of one step from the vectorised labeler."""
    out = step_failures(np.array([pred]).T, np.array([truth]).T, th)
    return tuple(int(flag[0]) for flag in out)


def _horizon(g, t, m):
    """g_horizon of step t of one episode from the vectorised labeler; None
    when t's horizon runs past the episode's end."""
    rows, g_h = horizon_failures(np.array(g, dtype=np.int64), np.zeros(len(g), dtype=np.int64), m)
    hit = np.flatnonzero(rows == t)
    return int(g_h[hit[0]]) if len(hit) else None


class TestSgn:
    # the labeler's angle flag at a deviation of t_angle + x is sgn(x)
    TH = Thresholds(5.0, 2.0)

    def _angle_flag(self, x):
        return _step((self.TH.t_angle + x, 0.0), (0.0, 0.0), self.TH)[0]

    def test_zero_maps_to_one(self):
        assert self._angle_flag(0.0) == sgn(0.0) == 1

    def test_negative(self):
        assert self._angle_flag(-0.001) == sgn(-0.001) == 0

    def test_positive(self):
        assert self._angle_flag(3.7) == sgn(3.7) == 1


class TestLabelStep:
    TH = Thresholds(5.0, 2.0)

    def _check(self, pred, truth, expected):
        assert _step(pred, truth, self.TH) == label_step(pred, truth, self.TH) == expected

    def test_angle_failure_only(self):
        self._check((6.0, 30.0), (0.0, 30.0), (1, 0, 1))

    def test_no_deviation(self):
        self._check((10.0, 50.0), (10.0, 50.0), (0, 0, 0))

    def test_boundary_equality_is_failure(self):
        # deviation exactly at the threshold fails, forced by sgn(0) = 1
        assert _step((5.0, 0.0), (0.0, 0.0), self.TH)[0] == 1
        assert _step((0.0, 2.0), (0.0, 0.0), self.TH)[1] == 1

    def test_or_combination(self):
        self._check((6.0, 10.0), (0.0, 0.0), (1, 1, 1))

    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValidationError):
            Thresholds(0.0, 1.0)


class TestLabelHorizon:
    def test_example(self):
        assert _horizon([0, 0, 1, 0], 0, 3) == label_horizon([0, 0, 1, 0], 0, 3) == 1

    def test_all_zero(self):
        assert _horizon([0, 0, 0, 0], 0, 3) == 0

    def test_m_zero_equals_step(self):
        assert _horizon([0, 1, 0], 1, 0) == 1
        assert _horizon([0, 1, 0], 2, 0) == 0

    def test_out_of_bounds(self):
        assert _horizon([0, 1], 1, 1) is None
        with pytest.raises(ValidationError):
            label_horizon([0, 1], 1, 1)
        with pytest.raises(ValidationError):
            horizon_failures(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64), -1)

    @given(
        g=st.lists(st.integers(0, 1), min_size=1, max_size=40),
        t=st.integers(0, 39),
        m=st.integers(0, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_any(self, g, t, m):
        if t + m >= len(g):
            assert _horizon(g, t, m) is None
        else:
            assert _horizon(g, t, m) == label_horizon(g, t, m) == (1 if any(g[t : t + m + 1]) else 0)

    @given(g=st.lists(st.integers(0, 1), min_size=14, max_size=30), t=st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_m(self, g, t):
        values = [_horizon(g, t, m) for m in range(0, 10)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(
        gs=st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=12), min_size=1, max_size=4),
        m=st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_episodes_match_per_episode_reference(self, gs, m):
        # horizons never cross into the next episode
        g = np.array([v for seq in gs for v in seq], dtype=np.int64)
        ep = np.repeat(np.arange(len(gs)), [len(seq) for seq in gs])
        rows, g_h = horizon_failures(g, ep, m)
        expected = [
            (start + t, brute_force_horizon(seq, t, m))
            for start, seq in zip(np.cumsum([0] + [len(seq) for seq in gs]).tolist(), gs)
            for t in range(len(seq) - m)
        ]
        assert list(zip(rows.tolist(), g_h.tolist())) == expected


class TestLabels:
    def test_rejects_duplicate_and_out_of_order_rows(self):
        labels = labels_of([("a", 0, 0), ("a", 1, 0), ("b", 0, 0)])
        for t in ([0, 0, 0], [1, 0, 0]):
            with pytest.raises(ValidationError, match=r"repeats or is out of order at row 1"):
                replace(labels, t=t)
        with pytest.raises(ValidationError, match=r"repeats or is out of order at row 2"):
            replace(labels, ep=[1, 1, 0])

    def test_rejects_unsorted_ids_and_ragged_columns(self):
        labels = labels_of([("a", 0, 0), ("b", 0, 1)])
        with pytest.raises(ValidationError, match="sorted and unique"):
            replace(labels, episode_ids=("b", "a"))
        with pytest.raises(ValidationError, match="equal length"):
            replace(labels, t=labels.t[:1])

    def test_rejects_bad_flags_and_non_finite_values(self):
        labels = labels_of([("a", 0, 0), ("a", 1, 1)])
        with pytest.raises(ValidationError, match=r"g_horizon 2, must be in \[0, 1\] at row 0"):
            replace(labels, g_horizon=[2, 1])
        with pytest.raises(ValidationError, match=r"g must equal g_a \| g_s at row 1"):
            replace(labels, g_a=[0, 0])
        with pytest.raises(ValidationError, match="finite at row 1"):
            replace(labels, true_speed=[0.0, np.inf])
        with pytest.raises(ValidationError, match="episode code out of range at row 0"):
            replace(labels, ep=[-1, 0])
        with pytest.raises(ValidationError, match=r"t 2147483648, must be in \[0, 2147483648\) at row 1"):
            replace(labels, t=[0, 1 << 31])

    def test_columns_are_read_only(self):
        labels = labels_of([("a", 0, 1)])
        with pytest.raises(ValueError):
            labels.g[0] = 0


class _StubDriver:
    """predict_batch stand-in with controllable outputs."""

    def __init__(self, mode):
        self.mode = mode
        self.trained_on = "D1"
        from drivlab.driver import BackboneArch

        self.arch = BackboneArch(obs_dim=16, k=4)


class TestBuildFailureDataset:
    def _episodes(self, n=3, length=40):
        from conftest import small_world
        from drivlab import simgen

        return simgen.generate_dataset(small_world(episode_length=length), n, base_seed=40)

    def test_perfect_oracle_all_safe(self, tiny_pipeline, monkeypatch):
        net = tiny_pipeline["driver"]

        def perfect(net_, windows):
            return windows.target_angle, windows.target_speed

        monkeypatch.setattr(failure, "predict_batch", perfect)
        ds = build_failure_dataset(split_predictions(net, self._episodes()), "D2",
                                   CANONICAL_THRESHOLDS["middle"], 8)
        assert len(ds.rows) > 0
        assert ds.hazard_fraction == 0.0
        assert not ds.rows.g.any() and not ds.rows.g_horizon.any()

    def test_constant_far_predictor_all_hazardous(self, tiny_pipeline, monkeypatch):
        net = tiny_pipeline["driver"]

        def far(net_, windows):
            n = len(windows)
            return np.full(n, 700.0), np.full(n, 0.0)

        monkeypatch.setattr(failure, "predict_batch", far)
        ds = build_failure_dataset(split_predictions(net, self._episodes()), "D2",
                                   CANONICAL_THRESHOLDS["middle"], 8)
        assert ds.hazard_fraction == 1.0

    def test_drop_count_and_row_range(self, tiny_pipeline):
        net = tiny_pipeline["driver"]
        eps = self._episodes(n=2, length=30)
        m = 8
        ds = build_failure_dataset(split_predictions(net, eps), "D2", CANONICAL_THRESHOLDS["middle"], m)
        # windows exist at t in [4, 29]; horizon rows stop at t = 29 - m
        assert ds.n_dropped == 2 * m
        assert np.all((4 <= ds.rows.t) & (ds.rows.t <= 29 - m))

    def test_g_consistency(self, tiny_pipeline):
        ds = tiny_pipeline["eval_labels"]
        assert np.array_equal(ds.rows.g, ds.rows.g_a | ds.rows.g_s)
        assert np.all(ds.rows.g_horizon >= ds.rows.g)

    def test_matches_scalar_reference(self, tiny_pipeline):
        net, ds = tiny_pipeline["driver"], tiny_pipeline["eval_labels"]
        # the same single prediction call over every window, then scalar labels per step
        ws = all_windows(sorted(tiny_pipeline["d3"], key=lambda e: e.episode_id), net.arch.k)
        pred_a, pred_s = predict_batch(net, ws)
        steps = {}  # episode id -> (t, (g_a, g_s, g)) of every window, in order
        for i, (e, t) in enumerate(zip(ws.ep.tolist(), ws.t.tolist())):
            truth = (ws.target_angle[i], ws.target_speed[i])
            flags = label_step((pred_a[i], pred_s[i]), truth, ds.thresholds)
            steps.setdefault(ws.episode_ids[e], []).append((t, flags))
        expected = [
            (eid, t, *flags, label_horizon([f[2] for _, f in seq], j, ds.m))
            for eid, seq in sorted(steps.items())
            for j, (t, flags) in enumerate(seq[: len(seq) - ds.m])
        ]
        rows = ds.rows
        eids, ts = zip(*row_positions(rows))
        got = list(zip(eids, ts, rows.g_a.tolist(), rows.g_s.tolist(), rows.g.tolist(),
                       rows.g_horizon.tolist()))
        assert got == expected


class TestThresholdNesting:
    def test_hazard_sets_nest_across_canonical_triples(self, tiny_pipeline):
        predictions = split_predictions(tiny_pipeline["driver"], tiny_pipeline["d3"])
        sets = {}
        for name in ("tight", "middle", "loose"):
            ds = build_failure_dataset(predictions, "D3", CANONICAL_THRESHOLDS[name], 8)
            sets[name] = {
                "step": set(row_positions(ds.rows, ds.rows.g == 1)),
                "horizon": set(row_positions(ds.rows, ds.rows.g_horizon == 1)),
            }
        for kind in ("step", "horizon"):
            assert sets["loose"][kind] <= sets["middle"][kind] <= sets["tight"][kind]


class TestLabelsCsv:
    def test_round_trip(self, tiny_pipeline, tmp_path):
        ds = tiny_pipeline["eval_labels"]
        path = tmp_path / "labels.csv"
        write_labels_csv(path, ds, provenance={"seed": "0"})
        rows, meta = read_labels_csv(path)
        assert meta["split"] == "D3"
        assert meta["t_angle"] == "7.0"
        assert rows.episode_ids == ds.rows.episode_ids
        for name in ("ep", "t", "g_a", "g_s", "g", "g_horizon",
                     "pred_angle", "pred_speed", "true_angle", "true_speed"):
            assert np.array_equal(getattr(rows, name), getattr(ds.rows, name)), name

    def test_labels_share_the_columns_their_builders_make(self, tiny_pipeline, tmp_path, monkeypatch):
        # the labeler and the reader freeze the columns they build, so Labels
        # takes every one of them as is and copies none
        copied = []

        def spy(a, dtype=np.float64):
            out = core._readonly(a, dtype)
            if out is not a:
                copied.append(out.dtype)
            return out

        predictions = split_predictions(tiny_pipeline["driver"], tiny_pipeline["d3"])
        monkeypatch.setattr(failure, "_readonly", spy)
        ds = build_failure_dataset(predictions, "D3", CANONICAL_THRESHOLDS["middle"], 8)
        assert len(ds.rows) > 0 and copied == []
        path = tmp_path / "labels.csv"
        write_labels_csv(path, ds)
        rows, _ = read_labels_csv(path)
        assert len(rows) == len(ds.rows) and copied == []

    def test_header_version_check(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("#drivlab-labels v7\n")
        from drivlab.errors import ArtifactVersionError

        with pytest.raises(ArtifactVersionError):
            read_labels_csv(path)


def _planted_windows(n, seed, d=16, k=4):
    # hazard label is exactly "channel 3 of the current frame is positive"
    rng = np.random.default_rng(seed)
    frames, speeds, angles, labels = [], [], [], []
    for _ in range(n):
        frames.append(rng.normal(0.0, 1.0, size=(k + 1, d)))
        angles.append([*rng.normal(0.0, 5.0, size=k), 0.0])
        speeds.append([*np.abs(rng.normal(50.0, 5.0, size=k)), 50.0])
        labels.append(1 if frames[-1][-1, 3] > 0 else 0)
    windows = windows_of_rows(np.array(frames), np.array(speeds), np.array(angles))
    return windows, np.array(labels, dtype=np.int64)


class TestHazardNet:
    def test_single_class_rejected(self, tiny_pipeline):
        windows, _ = _planted_windows(20, seed=0)
        norm = core.fit_normalizer(windows)
        with pytest.raises(ValidationError, match="degenerate label distribution"):
            train_failure(
                windows, np.zeros(20, dtype=np.int64), TrainConfig(epochs=1, seed=0),
                normalizer=norm, thresholds=CANONICAL_THRESHOLDS["middle"], m=8,
            )

    def test_uniform_logits_give_half_probability(self):
        from drivlab.failure import softmax

        assert softmax(np.zeros((1, 2)))[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_probabilities_valid(self, tiny_pipeline):
        net = tiny_pipeline["hazard"]
        windows = label_windows(tiny_pipeline["eval_labels"].rows, tiny_pipeline["d3"])
        probs = predict_hazard_batch(net, windows[:50])
        assert np.all((0.0 <= probs) & (probs <= 1.0))

    def test_class_probabilities_sum_to_one(self, tiny_pipeline):
        from drivlab.driver import batch_inputs
        from drivlab.failure import hazard_forward, softmax

        net = tiny_pipeline["hazard"]
        windows = label_windows(tiny_pipeline["eval_labels"].rows, tiny_pipeline["d3"])
        logits = hazard_forward(net.params, net.arch, *batch_inputs(windows[:40], net.normalizer, slice(None)))
        probs = softmax(logits.data)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)

    def test_planted_signal_reaches_high_auc(self):
        from drivlab.evaluate import auc

        train_w, train_y = _planted_windows(600, seed=1)
        test_w, test_y = _planted_windows(300, seed=2)
        norm = core.fit_normalizer(train_w)
        net, _ = train_failure(
            train_w, train_y, TrainConfig(epochs=14, seed=3, dropout_p=0.0),
            normalizer=norm, thresholds=CANONICAL_THRESHOLDS["middle"], m=8,
        )
        probs = predict_hazard_batch(net, test_w)
        assert auc(probs, test_y) >= 0.95
