import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivlab import core
from drivlab.errors import ArtifactVersionError, ValidationError
from drivlab.simgen import WorldConfig, generate_dataset


def _episode(n, d=3, eid="e0", start=0):
    rng = np.random.default_rng(abs(hash(eid)) % 2**32)
    records = tuple(
        core.TimedRecord(
            step_index=start + i,
            obs=rng.standard_normal(d),
            speed=float(rng.uniform(0, 120)),
            angle=float(rng.uniform(-90, 90)),
        )
        for i in range(n)
    )
    return core.Episode(episode_id=eid, seed=1, records=records, meta={})


class TestTimedRecord:
    def test_rejects_out_of_range_speed(self):
        with pytest.raises(ValidationError):
            core.TimedRecord(0, np.zeros(3), speed=181.0, angle=0.0)
        with pytest.raises(ValidationError):
            core.TimedRecord(0, np.zeros(3), speed=-0.1, angle=0.0)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValidationError):
            core.TimedRecord(0, np.zeros(3), speed=10.0, angle=721.0)

    def test_rejects_non_finite_obs(self):
        with pytest.raises(ValidationError):
            core.TimedRecord(0, np.array([1.0, np.nan]), speed=10.0, angle=0.0)

    def test_obs_is_read_only(self):
        r = core.TimedRecord(0, np.zeros(3), speed=10.0, angle=0.0)
        with pytest.raises(ValueError):
            r.obs[0] = 1.0


class TestEpisode:
    def test_rejects_non_contiguous_steps(self):
        ep = _episode(3)
        records = (ep.records[0], ep.records[2], ep.records[1])
        with pytest.raises(ValidationError):
            core.Episode("bad", 0, records, {})

    def test_arrays_match_records(self):
        ep = _episode(5)
        assert np.array_equal(ep.speeds(), [r.speed for r in ep.records])
        assert np.array_equal(ep.obs_matrix()[2], ep.records[2].obs)


class TestMakeWindows:
    def test_six_records_k4_two_windows(self):
        ws = core.make_windows(_episode(6), k=4, stride=1)
        assert [w.origin[1] for w in ws] == [4, 5]

    def test_five_records_k4_one_window(self):
        ws = core.make_windows(_episode(5), k=4)
        assert [w.origin[1] for w in ws] == [4]

    def test_four_records_k4_empty(self):
        assert core.make_windows(_episode(4), k=4) == []

    def test_window_contents(self):
        ep = _episode(8)
        w = core.make_windows(ep, k=4)[1]  # t = 5
        assert w.frames.shape == (5, 3)
        assert np.array_equal(w.frames[-1], ep.records[5].obs)
        assert np.array_equal(w.past_speeds, [r.speed for r in ep.records[1:5]])
        assert w.target_angle == ep.records[5].angle

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            core.make_windows(_episode(6), k=0)
        with pytest.raises(ValidationError):
            core.make_windows(_episode(6), k=4, stride=0)

    @given(n=st.integers(1, 40), k=st.integers(1, 6), stride=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_window_count_and_provenance(self, n, k, stride):
        ep = _episode(n, eid=f"e{n}_{k}_{stride}")
        ws = core.make_windows(ep, k=k, stride=stride)
        expected = 0 if n < k + 1 else (n - 1 - k) // stride + 1
        assert len(ws) == expected
        for w in ws:
            assert w.origin[0] == ep.episode_id
            assert w.frames.shape == (k + 1, 3)
            assert len(w.past_speeds) == k


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
        out = []
        for i, (s, a) in enumerate(zip(speeds, angles)):
            out.append(
                core.WindowSample(
                    frames=np.full((2, 2), float(s)),
                    past_angles=np.array([float(a)]),
                    past_speeds=np.array([float(s)]),
                    target_angle=float(a),
                    target_speed=float(s),
                    origin=("e", i + 1),
                )
            )
        return out

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

    def test_train_only_stats_are_reused(self, small_episodes):
        # stats fitted on D1 must be reused verbatim on other splits
        splits = core.split_dataset(small_episodes, seed=2)
        by_id = core.episodes_by_id(small_episodes)
        d1_windows = [w for e in splits.d1 for w in core.make_windows(by_id[e], 4)]
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
            assert np.array_equal(a.obs_matrix(), b.obs_matrix())
            assert np.array_equal(a.speeds(), b.speeds())
            assert np.array_equal(a.angles(), b.angles())

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


class TestSplitManifest:
    def test_round_trip(self, tmp_path):
        eps = [_episode(6, eid=f"e{i}") for i in range(7)]
        s = core.split_dataset(eps, seed=5)
        path = tmp_path / "splits.tsv"
        core.write_split_manifest(path, s, provenance={"seed": "5"})
        loaded = core.read_split_manifest(path)
        assert set(loaded.d1) == set(s.d1)
        assert set(loaded.d2) == set(s.d2)
        assert set(loaded.d3) == set(s.d3)

    def test_version_check(self, tmp_path):
        path = tmp_path / "splits.tsv"
        path.write_text("#drivlab-splits v9\n")
        with pytest.raises(ArtifactVersionError):
            core.read_split_manifest(path)
