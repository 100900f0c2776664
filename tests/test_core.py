import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivlab import core
from drivlab.driver import batch_inputs, windows_to_arrays
from drivlab.errors import ArtifactVersionError, ValidationError
from drivlab.evaluate import PolicyScoreTrace
from drivlab.failure import Labels
from drivlab.simgen import WorldConfig, generate_dataset

from conftest import all_windows, windows_of_rows
from oracles import sliced_arrays, sliced_normalizer, sliced_windows


def _episode(n, d=3, eid="e0"):
    rng = np.random.default_rng(abs(hash(eid)) % 2**32)
    obs = rng.standard_normal((n, d))
    speed = rng.uniform(0, 120, size=n)
    angle = rng.uniform(-90, 90, size=n)
    return core.Episode(episode_id=eid, obs=obs, speed=speed, angle=angle, meta={})


def _columns(n=4, d=3):
    return np.zeros((n, d)), np.full(n, 10.0), np.zeros(n)


class TestEpisode:
    def test_rejects_out_of_range_speed(self):
        for bad in (181.0, -0.1):
            obs, speed, angle = _columns()
            speed[2] = bad
            with pytest.raises(ValidationError, match="speed .* at step 2"):
                core.Episode("e", obs, speed, angle, {})

    def test_rejects_out_of_range_angle(self):
        obs, speed, angle = _columns()
        angle[1] = 721.0
        with pytest.raises(ValidationError, match="angle .* at step 1"):
            core.Episode("e", obs, speed, angle, {})

    def test_rejects_non_finite_obs(self):
        obs, speed, angle = _columns()
        obs[3, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite .* at step 3"):
            core.Episode("e", obs, speed, angle, {})

    def test_columns_are_read_only(self):
        ep = core.Episode("e", *_columns(), {})
        for column in (ep.obs, ep.speed, ep.angle):
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_rejects_empty_and_misshapen_columns(self):
        with pytest.raises(ValidationError, match="no records"):
            core.Episode("e", *_columns(n=0), {})
        obs, speed, angle = _columns()
        with pytest.raises(ValidationError, match="obs must be"):
            core.Episode("e", speed, speed, angle, {})
        with pytest.raises(ValidationError, match="do not match"):
            core.Episode("e", obs, speed[:3], angle, {})

    def test_arrays_match_records(self):
        obs, speed, angle = _columns(n=5)
        obs[2] = [1.0, 2.0, 3.0]
        speed[4] = 33.5
        ep = core.Episode("e", obs, speed.astype(np.float32), angle.tolist(), {})
        assert len(ep) == 5 and ep.obs_dim == 3
        assert ep.speed.dtype == ep.angle.dtype == ep.obs.dtype == np.float64
        assert np.array_equal(ep.speed, speed)
        assert np.array_equal(ep.obs[2], [1.0, 2.0, 3.0])


class TestOwnership:
    def test_constructors_leave_the_callers_arrays_writeable_and_apart(self):
        """An array of the stored dtype and layout is the case a constructor
        could store without a copy; a later write to it must change nothing."""
        obs, speed, angle = _columns()
        labels = {"ep": np.array([0, 0], dtype=np.int64), "t": np.array([4, 5], dtype=np.int64),
                  "g_s": np.zeros(2, dtype=np.int64),
                  **{c: np.array([0, 1], dtype=np.int64) for c in ("g_a", "g", "g_horizon")},
                  **{c: np.zeros(2) for c in ("pred_angle", "pred_speed", "true_angle", "true_speed")}}
        score = {"ep": np.array([0, 0], dtype=np.int64), "t": np.array([4, 5], dtype=np.int64),
                 "score": np.array([0.5, 0.25])}
        normalizer = {"obs_mean": np.zeros(3), "obs_std": np.ones(3)}
        built = [
            (core.Episode("e", obs, speed, angle, {}), {"obs": obs, "speed": speed, "angle": angle}),
            (Labels(episode_ids=("e",), **labels), labels),
            (PolicyScoreTrace("p", ("e",), **score), score),
            (core.Normalizer(0.0, 1.0, 0.0, 1.0, **normalizer), normalizer),
        ]
        for obj, arrays in built:
            for name, array in arrays.items():
                assert array.flags.writeable, f"{type(obj).__name__}.{name}"
                stored = getattr(obj, name).copy()
                array[...] = 7
                assert np.array_equal(getattr(obj, name), stored), f"{type(obj).__name__}.{name}"

    def test_read_only_arrays_are_shared(self):
        obs, speed, angle = (core._frozen(a) for a in _columns())
        ep = core.Episode("e", obs, speed, angle, {})
        assert ep.obs is obs and ep.speed is speed and ep.angle is angle


_IDENTITY = core.Normalizer(0.0, 1.0, 0.0, 1.0, np.zeros(3), np.ones(3))
_PER_WINDOW = ("vis", "spd", "ang", "tgt_a", "tgt_s")


def _gathered(arrays):
    """``windows_to_arrays`` output with every window's frames gathered as ``vis``."""
    frames, index = batch_inputs(arrays, slice(None))[:2]
    return {**arrays, "vis": frames[index]}


class TestMakeWindows:
    def test_six_records_k4_two_windows(self):
        ws = core.make_windows(_episode(6), k=4)
        assert ws.t.tolist() == [4, 5]

    def test_five_records_k4_one_window(self):
        ws = core.make_windows(_episode(5), k=4)
        assert ws.t.tolist() == [4]

    def test_four_records_k4_empty(self):
        assert len(core.make_windows(_episode(4), k=4)) == 0

    def test_window_contents(self):
        ep = _episode(8)
        arrays = _gathered(windows_to_arrays(core.make_windows(ep, k=4), _IDENTITY))
        # window 1 ends at t = 5
        assert arrays["frames"][1].tolist() == [1, 2, 3, 4, 5]
        assert arrays["vis"][1].shape == (5, 3)
        assert np.array_equal(arrays["vis"][1][-1], ep.obs[5])
        assert np.array_equal(arrays["spd"][1], ep.speed[1:5])
        assert arrays["tgt_a"][1, 0] == ep.angle[5]

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            core.make_windows(_episode(6), k=0)

    @given(n=st.integers(1, 40), k=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_window_count_and_provenance(self, n, k):
        ep = _episode(n, eid=f"e{n}_{k}")
        ws = core.make_windows(ep, k=k)
        assert len(ws) == max(n - k, 0)
        assert ws.t.tolist() == list(range(k, n))
        assert all(ws.episode_ids[e] == ep.episode_id for e in ws.ep)
        assert ws.k == k

    @given(n=st.integers(1, 40), k=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_sliced_reference(self, n, k):
        ep = _episode(n, eid=f"r{n}_{k}")
        ws = core.make_windows(ep, k=k)
        ref = sliced_windows(ep, k)
        assert len(ws) == len(ref)
        if not ref:
            return
        norm = core.fit_normalizer(ws)
        expected = sliced_normalizer(ref, core.STD_FLOOR)
        for field in ("mean_speed", "std_speed", "mean_angle", "std_angle"):
            assert getattr(norm, field) == getattr(expected, field), field
        assert np.array_equal(norm.obs_mean, expected.obs_mean)
        assert np.array_equal(norm.obs_std, expected.obs_std)
        got, want = _gathered(windows_to_arrays(ws, norm)), sliced_arrays(ref, norm)
        for key in want:
            assert got[key].shape == want[key].shape and np.array_equal(got[key], want[key]), key

    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=4),
           k=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_several_episodes_match_per_episode_windows(self, lengths, k):
        eps = [_episode(n, eid=f"m{i}_{n}") for i, n in enumerate(lengths)]
        ws = core.make_windows(*eps, k=k)
        parts = [core.make_windows(ep, k=k) for ep in eps]
        assert ws.t.tolist() == [t for w in parts for t in w.t.tolist()]
        assert [ws.episode_ids[e] for e in ws.ep] == [ep.episode_id for w, ep in zip(parts, eps) for _ in range(len(w))]
        if not len(ws):
            return
        got = _gathered(windows_to_arrays(ws, _IDENTITY))
        for key in _PER_WINDOW:
            want = np.concatenate([_gathered(windows_to_arrays(w, _IDENTITY))[key] for w in parts if len(w)])
            assert np.array_equal(got[key], want), key

    def test_several_episodes_reject_duplicate_ids(self):
        with pytest.raises(ValidationError, match="duplicate episode_id"):
            core.make_windows(_episode(6, eid="a"), _episode(7, eid="a"), k=4)

    def test_windows_at_spans_episodes_and_slices_share_columns(self):
        a, b = _episode(7, eid="a"), _episode(6, eid="b")
        episodes = {"a": a, "b": b, "unused": _episode(9, eid="u")}
        ws = core.windows_at(episodes, ("b", "unused", "a"), [0, 2, 0], [5, 4, 4], k=4)
        assert ws.episode_ids == ("b", "a")  # only the ids the windows use
        assert ws.ep.tolist() == [0, 1, 0] and ws.t.tolist() == [5, 4, 4]
        assert ws.obs.shape == (13, 3)  # only the referenced episodes' rows
        arrays = _gathered(windows_to_arrays(ws, _IDENTITY))
        assert np.array_equal(arrays["vis"][1], a.obs[0:5])
        assert np.array_equal(arrays["ang"][2], b.angle[0:4])
        part = ws[1:]
        assert len(part) == 2 and part.obs is ws.obs
        assert np.array_equal(_gathered(windows_to_arrays(part, _IDENTITY))["vis"], arrays["vis"][1:])
        with pytest.raises(ValidationError, match="unknown episode z"):
            core.windows_at({"a": a}, ("a", "z"), [1], [4], k=4)
        with pytest.raises(ValidationError, match="out of window range"):
            core.windows_at({"a": a}, ("a",), [0, 0], [4, 3], k=4)
        for ep, t in (([1], [4]), ([-1], [4]), ([0, 0], [4])):
            with pytest.raises(ValidationError, match="ep indexing episode_ids"):
                core.windows_at({"a": a}, ("a",), ep, t, k=4)


class TestSplitDataset:
    def test_nine_episodes_even(self):
        eps = [_episode(6, eid=f"e{i}") for i in range(9)]
        s = core.split_dataset(eps, seed=0)
        assert (len(s.d1), len(s.d2), len(s.d3)) == (3, 3, 3)

    def test_ten_episodes_431(self):
        eps = [_episode(6, eid=f"e{i}") for i in range(10)]
        s = core.split_dataset(eps, seed=0)
        assert sorted((len(s.d1), len(s.d2), len(s.d3)), reverse=True) == [4, 3, 3]

    def test_deterministic(self):
        eps = [_episode(6, eid=f"e{i}") for i in range(10)]
        assert core.split_dataset(eps, seed=3) == core.split_dataset(eps, seed=3)

    def test_order_independent(self):
        eps = [_episode(6, eid=f"e{i}") for i in range(10)]
        assert core.split_dataset(eps, seed=3) == core.split_dataset(eps[::-1], seed=3)

    def test_too_few(self):
        with pytest.raises(ValidationError, match="insufficient episodes"):
            core.split_dataset([_episode(6, eid="a"), _episode(6, eid="b")], seed=0)

    @given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_exact_partition(self, n, seed):
        eps = [_episode(6, eid=f"e{i}") for i in range(n)]
        s = core.split_dataset(eps, seed=seed)
        all_ids = sorted(s.d1 + s.d2 + s.d3)
        assert all_ids == sorted(e.episode_id for e in eps)
        sizes = sorted(map(len, (s.d1, s.d2, s.d3)))
        assert sizes[-1] - sizes[0] <= 1


class TestNormalizer:
    def _windows_with(self, speeds, angles):
        # one window per value pair; frames/pasts carry the same value
        speeds = np.repeat(np.asarray(speeds, dtype=float)[:, None], 2, axis=1)
        angles = np.repeat(np.asarray(angles, dtype=float)[:, None], 2, axis=1)
        return windows_of_rows(np.repeat(speeds[:, :, None], 2, axis=2), speeds, angles)

    def test_population_convention(self):
        norm = core.fit_normalizer(self._windows_with([0.0, 10.0], [0.0, 10.0]))
        assert norm.mean_speed == 5.0
        assert norm.std_speed == 5.0
        assert norm.normalize(10.0, "speed") == 1.0

    def test_round_trip(self):
        norm = core.fit_normalizer(self._windows_with([0.0, 10.0, 3.0], [1.0, -4.0, 2.0]))
        for channel in ("speed", "angle"):
            x = norm.denormalize(norm.normalize(7.3, channel), channel)
            assert abs(x - 7.3) <= 1e-9 * 7.3

    def test_constant_channel_floored_with_warning(self):
        with pytest.warns(UserWarning, match="constant"):
            norm = core.fit_normalizer(self._windows_with([2.0, 2.0, 2.0], [0.0, 1.0, 2.0]))
        assert norm.std_speed == core.STD_FLOOR
        assert norm.normalize(2.0, "speed") == 0.0

    def test_unknown_channel(self):
        norm = core.fit_normalizer(self._windows_with([0.0, 1.0], [0.0, 1.0]))
        with pytest.raises(ValidationError):
            norm.normalize(1.0, "velocity")

    def test_empty_windows(self):
        with pytest.raises(ValidationError):
            core.fit_normalizer([])

    @pytest.mark.parametrize("field", ["mean_speed", "std_angle", "obs_mean"])
    def test_rejects_non_finite_statistics(self, field):
        stats = dict(mean_speed=50.0, std_speed=10.0, mean_angle=0.0, std_angle=5.0,
                     obs_mean=np.zeros(2), obs_std=np.ones(2))
        stats[field] = np.array([0.0, np.nan]) if field == "obs_mean" else float("nan")
        with pytest.raises(ValidationError, match="finite"):
            core.Normalizer(**stats)

    @pytest.mark.parametrize("width", [1, 2, 16, 64])
    @pytest.mark.parametrize("block", [1, 7, core.STATS_BLOCK])
    def test_streamed_statistics_match_whole_array_bit_for_bit(self, width, block, monkeypatch):
        rng = np.random.default_rng(width)
        n = 2 * core.STATS_BLOCK + 37  # a multiple of no block here
        monkeypatch.setattr(core, "STATS_BLOCK", block)
        values = rng.standard_normal((n // 3, width)) * rng.uniform(1e-3, 1e6, width) + rng.uniform(-1e4, 1e4, width)
        values[::5, 0] = -0.0
        if width > 2:
            values[:, 1] = -0.0  # a channel of negative zeros
            values[:, 2] = 0.1  # a constant channel
        rows = rng.integers(0, len(values), n)
        mean, std = core.row_stats(values, rows)
        gathered = values[rows]
        for got, want in ((mean, np.mean(gathered, axis=0)), (std, np.std(gathered, axis=0))):
            assert got.shape == (width,) and np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_train_only_stats_are_reused(self, small_episodes):
        # stats fitted on D1 must be reused verbatim on other splits
        splits = core.split_dataset(small_episodes, seed=2)
        by_id = core.episodes_by_id(small_episodes)
        d1_windows = all_windows([by_id[e] for e in splits.d1])
        norm = core.fit_normalizer(d1_windows)
        refit = core.fit_normalizer(d1_windows)
        assert norm.mean_speed == refit.mean_speed
        assert norm.std_angle == refit.std_angle
        assert np.array_equal(norm.obs_mean, refit.obs_mean)


class TestEpisodeFiles:
    def test_round_trip_exact(self, tmp_path):
        eps = generate_dataset(WorldConfig(episode_length=40, seed=9), 3, base_seed=77)
        path = tmp_path / "episodes.txt"
        core.write_episodes(path, eps)
        loaded = core.read_episodes(path)
        assert [e.episode_id for e in loaded] == [e.episode_id for e in eps]
        for a, b in zip(eps, loaded):
            assert np.array_equal(a.obs, b.obs)
            assert np.array_equal(a.speed, b.speed)
            assert np.array_equal(a.angle, b.angle)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#drivlab-episodes v99 d=3 f=4\n")
        with pytest.raises(ArtifactVersionError):
            core.read_episodes(path)

    def test_not_an_episode_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hello\n")
        with pytest.raises(ValidationError):
            core.read_episodes(path)

    def test_field_count_check(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#drivlab-episodes v1 d=3 f=4\ne0,0,1.0,2.0\n")
        with pytest.raises(ValidationError, match="fields"):
            core.read_episodes(path)


    def test_writer_memory_follows_one_episode(self, tmp_path):
        """The writer hands the codec one episode at a time, so it copies no
        more than one episode's columns: over four episodes of 64-wide frames
        (3.0 MiB of obs) its traced peak stays under the codec's 2 MiB gate."""
        rng = np.random.default_rng(3)
        episodes = [core.Episode(f"e{i}", rng.standard_normal((1536, 64)), rng.uniform(20, 100, 1536),
                                 rng.uniform(-30, 30, 1536), {}) for i in range(4)]
        assert sum(ep.obs.nbytes for ep in episodes) == 3 << 20
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            core.write_episodes(tmp_path / "e.txt", episodes)
            peak = (tracemalloc.get_traced_memory()[1] - base) / (1 << 20)
        finally:
            tracemalloc.stop()
        assert peak < 2.0
        back = core.read_episodes(tmp_path / "e.txt")
        assert all(np.array_equal(a.obs, b.obs) for a, b in zip(back, episodes))


class TestSplitManifest:
    def test_round_trip(self, tmp_path):
        eps = [_episode(6, eid=f"e{i}") for i in range(7)]
        s = core.split_dataset(eps, seed=5)
        path = tmp_path / "splits.tsv"
        core.write_split_manifest(path, s, provenance={"seed": "5"})
        loaded, meta = core.read_split_manifest(path)
        assert meta == {"seed": "5"}
        assert set(loaded.d1) == set(s.d1)
        assert set(loaded.d2) == set(s.d2)
        assert set(loaded.d3) == set(s.d3)

    def test_version_check(self, tmp_path):
        path = tmp_path / "splits.tsv"
        path.write_text("#drivlab-splits v9\n")
        with pytest.raises(ArtifactVersionError):
            core.read_split_manifest(path)
