import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from drivlab import core, simgen
from drivlab.errors import ValidationError

from conftest import assert_same_episodes, small_world
from oracles import WorldState, oracle_action, zone_schedule

# high curvature, dense intersections, full congestion, no visibility
EXTREME = dict(curvature_sigma=0.05, curvature_jump_prob=0.2, congestion_level=1.0, visibility=0.0)


def state_at(latent, t):
    """The WorldState at step t of a generated episode's latent state."""
    return WorldState(
        curvature=float(latent["curvature"][t]),
        dist_to_intersection=int(latent["dist_next"][t]),
        in_zone=bool(latent["zone_mask"][t]),
        zone_progress=float(latent["zone_progress"][t]),
        branch_sign=int(latent["branch"][t]),
        lead_gap=float(latent["lead_gap"][t]),
        congestion=latent["congestion"],
        visibility=latent["visibility"],
    )


class TestDeterminism:
    def test_same_seed_byte_identical_files(self, tmp_path):
        for name in ("a.txt", "b.txt"):
            eps = simgen.generate_dataset(small_world(seed=3), 4, base_seed=42)
            core.write_episodes(tmp_path / name, eps)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_dataset_holds_the_simulated_episodes(self, fleet):
        # generate_dataset and generate_episode keep the episode of simulate_episode, not its latent
        episodes = simgen.generate_dataset(small_world(episode_length=150), 100, base_seed=900)
        assert_same_episodes(episodes, [ep for ep, _ in fleet])
        assert_same_episodes([simgen.generate_episode(small_world(episode_length=150, seed=900), "ep000000")], episodes[:1])

    def test_knob_isolation(self):
        # changing congestion must not reshuffle the curvature stream
        _, a = simgen.simulate_episode(small_world(seed=5, congestion_level=0.0), "e")
        _, b = simgen.simulate_episode(small_world(seed=5, congestion_level=1.0), "e")
        assert np.array_equal(a["curvature"], b["curvature"])
        assert np.array_equal(a["zone_mask"], b["zone_mask"])


class TestOracleClosedForm:
    CFG = dict(intersection_rate=0.0, congestion_level=0.0, visibility=1.0, obs_noise_scale=0.0)

    def test_angle_equals_curvature_tracking_law(self):
        cfg = small_world(seed=13, **self.CFG)
        ep, latent = simgen.simulate_episode(cfg, "e")
        curvature = np.array(latent["curvature"])
        expected = np.clip(cfg.steer_gain * curvature, core.ANGLE_MIN, core.ANGLE_MAX)
        assert np.array_equal(ep.angle, expected)

    def test_pure_noise_channels_untouched_by_noise_scale(self):
        a = simgen.generate_episode(small_world(seed=4, obs_noise_scale=0.0), "e")
        b = simgen.generate_episode(small_world(seed=4, obs_noise_scale=2.0), "e")
        tail = slice(simgen.N_SIGNAL_CHANNELS, None)
        assert np.array_equal(a.obs[:, tail], b.obs[:, tail])


class TestIntersectionProcess:
    def test_count_matches_poisson_mean(self):
        # rate 2 per 100 steps over 200 steps -> mean 4; sample mean over
        # 1000 seeds must land in the 99% interval for a Poisson(4) mean
        counts = []
        for seed in range(1000):
            cfg = simgen.WorldConfig(episode_length=200, intersection_rate=2.0, seed=seed)
            *_, n = simgen._zone_schedule(cfg, 200)
            counts.append(n)
        mean = np.mean(counts)
        half = 2.576 * np.sqrt(4.0 / len(counts))
        assert abs(mean - 4.0) < half

    def test_zones_never_overlap(self):
        _, latent = simgen.simulate_episode(small_world(seed=8, intersection_rate=8.0), "e")
        mask = np.array(latent["zone_mask"])
        starts = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(int)])) == 1)
        for s in starts:
            assert mask[s : s + simgen.ZONE_LENGTH].all() or s + simgen.ZONE_LENGTH > len(mask)

    def test_progress_resets_for_back_to_back_zones(self):
        # queued zones must restart the turn ramp, not continue it
        found_back_to_back = False
        for seed in range(30):
            _, latent = simgen.simulate_episode(small_world(seed=seed, intersection_rate=15.0), "e")
            progress = np.array(latent["zone_progress"])
            mask = np.array(latent["zone_mask"])
            assert np.all((0.0 <= progress) & (progress < 1.0))
            runs = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(int)])) == 1)
            for s in runs:
                span = mask[s:]
                if span[: 2 * simgen.ZONE_LENGTH].all() and len(span) >= 2 * simgen.ZONE_LENGTH:
                    found_back_to_back = True
                    assert progress[s + simgen.ZONE_LENGTH] == 0.0
        assert found_back_to_back


class TestOracleAction:
    @staticmethod
    def _latent(**kw):
        """Latent-state columns of one straight, empty, clear step, with ``kw`` replaced."""
        base = dict(
            curvature=np.zeros(1), dist_next=np.array([50]), zone_mask=np.zeros(1, dtype=bool),
            zone_progress=np.zeros(1), branch=np.zeros(1, dtype=np.int64), lead_gap=np.array([50.0]),
            congestion=0.0, visibility=1.0,
        )
        return {**base, **kw}

    def test_straight_road_zero_angle(self):
        angle, _ = simgen.oracle_action(self._latent(), simgen.WorldConfig())
        assert angle.tolist() == [0.0]

    def test_speed_monotone_to_zero_with_gap(self):
        cfg = simgen.WorldConfig()
        gaps = np.linspace(60.0, 0.0, 25)
        _, speeds = simgen.oracle_action(self._latent(lead_gap=gaps), cfg)
        assert np.all(speeds[:-1] >= speeds[1:])
        assert speeds[-1] == 0.0

    def test_matches_generated_records(self):
        # every step, bit for bit, against the scalar oracle on one WorldState
        # per step and the zone schedule with a backward distance loop
        worlds = ({}, {**EXTREME, "intersection_rate": 20.0}, {**EXTREME, "intersection_rate": 100.0})
        for world, seed in itertools.product(worlds, range(8)):
            cfg = simgen.WorldConfig(seed=seed, **world)
            ep, latent = simgen.simulate_episode(cfg, "e")
            reference = zone_schedule(cfg, len(ep))
            names = ("zone_mask", "branch", "dist_next", "zone_progress")
            for name, want in zip(names, reference):
                assert latent[name].dtype == want.dtype and np.array_equal(latent[name], want), name
            assert latent["n_intersections"] == reference[-1]
            angle, speed = np.array([oracle_action(state_at(latent, t), cfg) for t in range(len(ep))]).T
            assert np.array_equal(ep.angle.view(np.int64), angle.view(np.int64))
            assert np.array_equal(ep.speed.view(np.int64), speed.view(np.int64))

    def test_ranges_always_legal(self):
        # Episode construction enforces the ranges; cover an extreme config
        cfg = small_world(seed=2, curvature_sigma=0.05, curvature_jump_prob=0.2,
                          congestion_level=1.0, visibility=0.0, intersection_rate=20.0)
        ep = simgen.generate_episode(cfg, "e")
        assert np.all(ep.speed >= core.SPEED_MIN) and np.all(ep.speed <= core.SPEED_MAX)
        assert np.all(ep.angle >= core.ANGLE_MIN) and np.all(ep.angle <= core.ANGLE_MAX)


class TestStraightBranchPassage:
    def test_angle_stays_small(self):
        checked = 0
        for seed in range(40):
            ep, latent = simgen.simulate_episode(small_world(seed=seed, intersection_rate=6.0), "e")
            mask = np.array(latent["zone_mask"])
            branch = np.array(latent["branch"])
            angles = ep.angle
            inside_straight = mask & (branch == 0)
            if inside_straight.any():
                checked += 1
                assert np.all(np.abs(angles[inside_straight]) <= 5.0)
        assert checked >= 10


@pytest.fixture(scope="module")
def fleet():
    """(episode, latent) pairs of the 100 episodes ``generate_dataset`` makes from seed 900."""
    cfg = small_world(episode_length=150)
    return [simgen.simulate_episode(replace(cfg, seed=900 + i), f"ep{i:06d}") for i in range(100)]


class TestPlantedDifficulty:

    def test_zone_speed_strictly_lower(self, fleet):
        inside, outside = [], []
        for ep, latent in fleet:
            mask = np.array(latent["zone_mask"])
            speeds = ep.speed
            inside.extend(speeds[mask])
            outside.extend(speeds[~mask])
        assert np.mean(inside) < np.mean(outside)

    def test_branch_not_observable_before_zone(self, fleet):
        # obs 4 steps before the zone start, split by eventual branch choice;
        # channel means must be indistinguishable (Welch test, Bonferroni at 0.01)
        lead = 4
        left, right = [], []
        for ep, latent in fleet:
            mask = np.array(latent["zone_mask"], dtype=bool)
            branch = np.array(latent["branch"])
            starts = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(int)])) == 1)
            for s in starts:
                if s - lead < 0:
                    continue
                sign = branch[s]
                if sign == 1:
                    left.append(ep.obs[s - lead])
                elif sign == -1:
                    right.append(ep.obs[s - lead])
        left, right = np.array(left), np.array(right)
        assert len(left) > 20 and len(right) > 20
        d = left.shape[1]
        _, pvals = stats.ttest_ind(left, right, equal_var=False)
        assert np.min(pvals) > 0.01 / d


class TestConfigValidation:
    def test_too_short_episode(self):
        with pytest.raises(ValidationError):
            simgen.WorldConfig(episode_length=0)

    def test_bad_probability(self):
        with pytest.raises(ValidationError):
            simgen.WorldConfig(visibility=1.5)

    def test_negative_rate(self):
        with pytest.raises(ValidationError):
            simgen.WorldConfig(intersection_rate=-1.0)

    def test_state_invariants(self):
        # distances and gaps never go negative; with no zone ahead the distance is the length
        for world in ({}, {**EXTREME, "intersection_rate": 60.0}, {"intersection_rate": 0.0}):
            for seed in range(5):
                ep, latent = simgen.simulate_episode(small_world(seed=seed, **world), "e")
                dist, mask = latent["dist_next"], latent["zone_mask"]
                assert dist.min() >= 0 and latent["lead_gap"].min() >= 0
                last_start = np.flatnonzero(mask & (latent["zone_progress"] == 0))[-1:]
                after = slice(last_start[0] + 1 if len(last_start) else 0, None)
                assert np.all(dist[after][~mask[after]] == len(ep))
