import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivlab import core, evaluate
from drivlab.errors import ValidationError
from drivlab.evaluate import (
    PolicyScoreTrace,
    budget_count,
    build_scenes,
    interval_curve,
    reduction_curve,
    safety_gain,
    score_interval,
    score_oracle,
    score_uncertainty,
    simulate_takeover,
)

from conftest import label_windows, labels_of, positions, scenes_of, trace_of as _trace
from oracles import brute_force_oracle, brute_force_takeover, interval_entries, pairwise_auc, trace_entries


def _row(eid, t, g, gh=None):
    return (eid, t, g) if gh is None else (eid, t, g, gh)


def _first(scenes, n):
    ids, ep, t = scenes
    return ids, ep[:n], t[:n]


class TestBudgetCount:
    def test_float_dust_guard(self):
        assert budget_count(0.3, 10) == 3
        assert budget_count(0.25, 8) == 2
        assert budget_count(0.21, 10) == 3
        assert budget_count(1.0, 7) == 7

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(ValidationError, match="budget"):
                budget_count(bad, 10)


class TestSimulateTakeover:
    def test_spec_example_perfect_scores(self):
        labels = [1, 0, 1, 0, 0, 0, 0, 1, 0, 0]
        rows = labels_of([_row("e", t, g) for t, g in enumerate(labels)])
        trace = _trace("x", [("e", t, float(g)) for t, g in enumerate(labels)])
        # a 0.3 budget selects three scenes, the three failures; 0.2 selects two of them
        assert budget_count(0.3, len(trace)) == 3
        assert simulate_takeover(rows, trace, budget=0.3, m=0) == 1.0
        assert simulate_takeover(rows, trace, budget=0.2, m=0) == pytest.approx(2 / 3, abs=1e-15)

    def test_all_zero_labels_reduce_fully(self):
        rows = labels_of([_row("e", t, 0) for t in range(5)])
        trace = _trace("x", [("e", t, 0.5) for t in range(5)])
        assert not rows.g.any()
        assert simulate_takeover(rows, trace, budget=0.2, m=0) == 1.0

    def test_full_budget_silences_everything(self):
        rows = labels_of([_row("e", t, 1) for t in range(6)])
        trace = _trace("x", [("e", t, 0.0) for t in range(6)])
        assert simulate_takeover(rows, trace, budget=1.0, m=0) == 1.0

    def test_budget_validation(self):
        rows = labels_of([_row("e", 0, 1)])
        trace = _trace("x", [("e", 0, 1.0)])
        with pytest.raises(ValidationError):
            simulate_takeover(rows, trace, budget=0.0, m=0)

    def test_horizon_silencing(self):
        rows = labels_of([_row("e", t, 1 if t in (3, 4) else 0) for t in range(8)])
        trace = _trace("x", [("e", 0, 1.0), ("e", 4, 0.5)])
        # only ('e', 0) selected; silences t in [0, 2]; both failures remain
        assert simulate_takeover(rows, trace, budget=0.5, m=2) == 0.0

    def test_window_unit_counts_horizon_rows(self):
        rows = labels_of([_row("e", 0, 0, gh=1), _row("e", 1, 1, gh=1), _row("e", 2, 0, gh=0)])
        trace = _trace("x", [("e", 0, 1.0), ("e", 1, 0.0), ("e", 2, 0.0)])
        # one of the two g_horizon rows is silenced; the one g row is not
        assert rows.g_horizon.sum() == 2 and rows.g.sum() == 1
        assert simulate_takeover(rows, trace, budget=1 / 3, m=0, unit="windows") == 0.5
        assert simulate_takeover(rows, trace, budget=1 / 3, m=0, unit="steps") == 0.0

    @given(
        n_eps=st.integers(1, 3),
        rows_per=st.integers(1, 7),
        m=st.integers(0, 3),
        budget=st.floats(0.05, 1.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_brute_force(self, n_eps, rows_per, m, budget, seed):
        rng = np.random.default_rng(seed)
        rows, entries = [], []
        for e in range(n_eps):
            for t in range(rows_per):
                rows.append(_row(f"e{e}", t, int(rng.random() < 0.4)))
                entries.append((f"e{e}", t, float(rng.choice([0.0, 0.3, 0.3, 0.9]))))
        trace, rows = _trace("fuzz", entries), labels_of(rows)
        ours = simulate_takeover(rows, trace, budget, m)
        ref = brute_force_takeover(rows, trace, budget, m)
        assert ours == pytest.approx(ref, abs=1e-12)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_curve_monotone_for_ranked_traces(self, seed):
        rng = np.random.default_rng(seed)
        rows = labels_of([_row("e", t, int(rng.random() < 0.3)) for t in range(30)])
        trace = _trace("r", [("e", t, float(rng.random())) for t in range(30)])
        res = reduction_curve(rows, trace, [i / 20 for i in range(1, 21)], m=2)
        reductions = [r for _, r in res.points]
        assert all(a <= b + 1e-12 for a, b in zip(reductions, reductions[1:]))


class TestAgainstReference:
    """simulate_takeover and score_oracle against the nested-loop references,
    on rows with gaps in t, scenes with tied scores and overlapping spans, and
    scenes naming episodes that have no rows."""

    @given(
        steps=st.dictionaries(
            st.tuples(st.sampled_from("abc"), st.integers(0, 15)),
            st.tuples(st.integers(0, 1), st.integers(0, 1)),  # (g, g_horizon)
            max_size=30,
        ),
        scenes=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "zz"]), st.integers(0, 15),
                      st.sampled_from([0.0, 0.5, 1.0])),
            min_size=1, max_size=24,
        ),
        m=st.integers(0, 4),
        budget=st.floats(0.05, 1.0),
        unit=st.sampled_from(["steps", "windows"]),
        no_failures=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_simulator_and_oracle_match_reference(self, steps, scenes, m, budget, unit, no_failures):
        rows = labels_of([
            (eid, t, 0, 0) if no_failures else (eid, t, g, g_h)
            for (eid, t), (g, g_h) in steps.items()
        ])
        trace = _trace("fuzz", scenes)
        out = simulate_takeover(rows, trace, budget, m, unit)
        assert out == brute_force_takeover(rows, trace, budget, m, unit)
        pairs = [(eid, t) for eid, t, _ in scenes]
        counts = brute_force_oracle(rows, pairs, m)
        expected = sorted((eid, t, s) for (eid, t), s in zip(pairs, counts))
        assert trace_entries(score_oracle(rows, scenes_of(pairs), m)) == tuple(expected)


class TestPolicyScoreTrace:
    def test_sorted_read_only_columns_keep_repeated_scenes_in_order(self):
        trace = _trace("x", [("b", 2, 0.1), ("a", 5, 0.2), ("b", 1, 0.3), ("b", 2, 0.4)])
        assert trace_entries(trace) == (("a", 5, 0.2), ("b", 1, 0.3), ("b", 2, 0.1), ("b", 2, 0.4))
        for column in (trace.ep, trace.t, trace.score):
            assert not column.flags.writeable

    def test_covers_exactly_its_scenes(self):
        trace = _trace("x", [("b", 2, 0.1), ("a", 5, 0.2)])
        assert trace.covers((("a", "b", "c"), np.array([0, 1]), np.array([5, 2])))
        assert not trace.covers((("a", "b"), np.array([0, 1]), np.array([5, 3])))
        assert not trace.covers((("a", "c"), np.array([0, 1]), np.array([5, 2])))
        assert not trace.covers((("a",), np.array([0]), np.array([5])))

    @pytest.mark.parametrize("ids, ep, match", [
        (("b", "a"), [0, 1], "sorted and unique"),
        (("a", "a"), [0, 1], "sorted and unique"),
        (("a", "b"), [0, 2], "ep indexing the ids"),
        (("a", "b"), [0, -1], "ep indexing the ids"),
        (("a", "b"), [0], "equal-length"),
    ])
    def test_rejects_bad_columns(self, ids, ep, match):
        with pytest.raises(ValidationError, match=match):
            PolicyScoreTrace("x", ids, ep, [1, 2], [0.5, 0.5])


class TestIntervalPolicy:
    def test_half_budget_every_other(self):
        trace = score_interval(scenes_of([("e", t) for t in range(10)]), 0.5)
        assert trace.t[trace.score == 1.0].tolist() == [1, 3, 5, 7, 9]

    def test_full_budget_marks_all(self):
        trace = score_interval(scenes_of([("e", t) for t in range(10)]), 1.0)
        assert np.all(trace.score == 1.0)

    def test_exact_count_across_episodes(self):
        scenes = [(f"e{i}", t) for i in range(3) for t in range(7)]
        for budget in (0.1, 0.33, 0.5, 0.77):
            trace = score_interval(scenes_of(scenes), budget)
            assert int(trace.score.sum()) == budget_count(budget, len(scenes))

    @given(
        scenes=st.sets(st.tuples(st.sampled_from("abcd"), st.integers(0, 40)), min_size=1, max_size=60),
        budget=st.one_of(st.floats(0.01, 1.0), st.integers(1, 20).map(lambda i: i / 20)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_quota_loop_reference(self, scenes, budget):
        trace = score_interval(scenes_of(list(scenes)), budget)
        assert trace_entries(trace) == interval_entries(list(scenes), budget)

    def test_uniform_random_labels_reduce_by_budget(self):
        # Monte-Carlo oracle: expected reduction equals the budget
        rng = np.random.default_rng(0)
        n, budget = 200, 0.3
        trace = score_interval(scenes_of([("e", t) for t in range(n)]), budget)
        base = np.zeros(n, dtype=int)
        base[: n // 2] = 1
        reductions = []
        for _ in range(1000):
            labels = rng.permutation(base)
            rows = labels_of([_row("e", t, int(g)) for t, g in enumerate(labels)])
            reductions.append(simulate_takeover(rows, trace, budget, m=0))
        assert abs(np.mean(reductions) - budget) < 0.02


class TestUncertaintyPolicy:
    def test_requires_dropout(self, tiny_pipeline):
        net = tiny_pipeline["driver"]
        ds = tiny_pipeline["eval_labels"]
        scenes = _first(build_scenes(ds.rows, ds.m), 5)
        eps = core.episodes_by_id(tiny_pipeline["d3"])
        from dataclasses import replace

        disabled = replace(net, arch=replace(net.arch, dropout_p=0.0))
        with pytest.raises(ValidationError, match="uncertainty undefined"):
            score_uncertainty(disabled, eps, scenes, n_samples=4)

    def test_minimum_two_samples(self, tiny_pipeline):
        net = tiny_pipeline["driver"]
        ds = tiny_pipeline["eval_labels"]
        scenes = _first(build_scenes(ds.rows, ds.m), 5)
        eps = core.episodes_by_id(tiny_pipeline["d3"])
        with pytest.raises(ValidationError, match="at least 2"):
            score_uncertainty(net, eps, scenes, n_samples=1)

    def test_scores_finite_nonnegative(self, tiny_pipeline):
        net = tiny_pipeline["driver"]
        ds = tiny_pipeline["eval_labels"]
        scenes = _first(build_scenes(ds.rows, ds.m), 40)
        eps = core.episodes_by_id(tiny_pipeline["d3"])
        trace = score_uncertainty(net, eps, scenes, n_samples=8, seed=3)
        assert np.all(np.isfinite(trace.score)) and np.all(trace.score >= 0.0)

    def test_duplicate_windows_near_identical_scores(self, tiny_pipeline):
        # independent mc estimates of the same window must agree within
        # sampling noise: sd of a variance estimate is about var*sqrt(2/(n-1))
        from dataclasses import replace

        from drivlab.driver import mc_predict_batch

        net = replace(tiny_pipeline["driver"], arch=replace(tiny_pipeline["driver"].arch, dropout_p=0.5))
        windows = label_windows(tiny_pipeline["eval_labels"].rows, tiny_pipeline["d3"])
        n = 400
        rng = np.random.default_rng(17)
        angles, speeds = mc_predict_batch(net, windows[[10, 10]], n_samples=n, rng=rng)
        for arr in (angles, speeds):
            v1, v2 = arr.var(axis=0)
            bound = 3.0 * math.sqrt(2.0) * math.sqrt(2.0 / (n - 1)) * max(v1, v2)
            assert abs(v1 - v2) <= bound

    def test_learned_scoring_rerun_identical(self, tiny_pipeline):
        ds = tiny_pipeline["eval_labels"]
        scenes = _first(build_scenes(ds.rows, ds.m), 30)
        eps = core.episodes_by_id(tiny_pipeline["d3"])
        t1 = evaluate.score_learned(tiny_pipeline["hazard"], eps, scenes)
        t2 = evaluate.score_learned(tiny_pipeline["hazard"], eps, scenes)
        assert trace_entries(t1) == trace_entries(t2)


class TestOraclePolicy:
    def test_score_is_failing_step_count(self):
        rows = labels_of([_row("e", t, 1 if t < 3 else 0) for t in range(9)])
        trace = score_oracle(rows, scenes_of([("e", 0), ("e", 3), ("e", 6)]), m=2)
        assert trace.score.tolist() == [3.0, 0.0, 0.0]

    def test_upper_bounds_other_policies_on_pipeline_run(self, tiny_pipeline):
        ds = tiny_pipeline["eval_labels"]
        scenes = build_scenes(ds.rows, ds.m)
        eps = core.episodes_by_id(tiny_pipeline["d3"])
        budgets = [i / 10 for i in range(1, 11)]
        oracle = reduction_curve(ds.rows, score_oracle(ds.rows, scenes, ds.m), budgets, ds.m)
        learned = reduction_curve(
            ds.rows, evaluate.score_learned(tiny_pipeline["hazard"], eps, scenes), budgets, ds.m
        )
        interval = interval_curve(ds.rows, scenes, budgets, ds.m)
        for b in budgets:
            assert oracle.reduction_at(b) >= learned.reduction_at(b) - 1e-12
            assert oracle.reduction_at(b) >= interval.reduction_at(b) - 1e-12


class TestScenes:
    def test_non_overlapping_tiles(self):
        rows = labels_of([_row("e", t, 0) for t in range(4, 30)])
        assert positions(*build_scenes(rows, m=8)) == [("e", 4), ("e", 13), ("e", 22)]

    def test_per_episode(self):
        rows = labels_of([_row(e, t, 0) for e in ("a", "b") for t in range(4, 10)])
        assert positions(*build_scenes(rows, m=2)) == [("a", 4), ("a", 7), ("b", 4), ("b", 7)]


class TestSafetyGain:
    def _result(self, policy, pairs):
        from drivlab.evaluate import TakeoverResult

        return TakeoverResult(policy=policy, points=tuple(pairs))

    def test_plus_25_percent(self):
        ours = self._result("learned", [(0.25, 0.5)])
        base = self._result("interval", [(0.25, 0.4)])
        assert safety_gain(ours, base, 0.25) == pytest.approx(25.0)

    def test_equal_is_zero(self):
        ours = self._result("learned", [(0.25, 0.4)])
        base = self._result("interval", [(0.25, 0.4)])
        assert safety_gain(ours, base, 0.25) == pytest.approx(0.0)

    def test_zero_baseline_undefined(self):
        ours = self._result("learned", [(0.25, 0.5)])
        base = self._result("interval", [(0.25, 0.0)])
        assert safety_gain(ours, base, 0.25) is None

    def test_missing_budget(self):
        ours = self._result("learned", [(0.25, 0.5)])
        with pytest.raises(ValidationError):
            ours.reduction_at(0.3)


class TestAuc:
    def test_perfect_scorer(self):
        labels = np.array([0, 1, 0, 1, 1])
        assert evaluate.auc(labels.astype(float), labels) == 1.0

    def test_constant_scores_give_half(self):
        labels = np.array([0, 1, 0, 1])
        assert evaluate.auc(np.ones(4), labels) == pytest.approx(0.5)

    def test_single_class_undefined(self):
        assert evaluate.auc(np.array([0.1, 0.2]), np.array([1, 1])) is None

    @given(
        pairs=st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 1)),
                       min_size=2, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_reference(self, pairs):
        scores, labels = (np.array(column) for column in zip(*pairs))
        if labels.min() == labels.max():
            assert evaluate.auc(scores, labels) is None
        else:
            assert evaluate.auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


class TestScoresCsv:
    def test_round_trip(self, tmp_path):
        trace = _trace("learned", [("e1", 4, 0.25), ("e0", 9, 0.75)])
        path = tmp_path / "scores.csv"
        evaluate.write_scores_csv(path, trace, provenance={"split": "D3"})
        loaded, meta = evaluate.read_scores_csv(path)
        assert loaded.policy == "learned"
        assert meta["split"] == "D3"
        assert trace_entries(loaded) == trace_entries(trace) == (("e0", 9, 0.75), ("e1", 4, 0.25))

    def test_version_check(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("#drivlab-scores v3\n")
        from drivlab.errors import ArtifactVersionError

        with pytest.raises(ArtifactVersionError):
            evaluate.read_scores_csv(path)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            _trace("x", [("e", 0, float("nan"))])
