import numpy as np
import pytest

from drivlab import core, simgen
from drivlab.driver import TrainConfig, train_driver
from drivlab.evaluate import PolicyScoreTrace
from drivlab.failure import CANONICAL_THRESHOLDS, Labels, build_failure_dataset, train_failure


def small_world(**overrides) -> simgen.WorldConfig:
    kwargs = dict(episode_length=120, seed=0)
    kwargs.update(overrides)
    return simgen.WorldConfig(**kwargs)


def all_windows(episodes, k=4):
    """Every window of ``episodes``, in the given order."""
    return core.make_windows(*episodes, k=k)


def windows_of_rows(frames, speeds, angles):
    """One window per free-standing (k+1)-row episode: ``frames`` (n, k+1, d),
    ``speeds`` and ``angles`` (n, k+1), the last row holding the targets."""
    n, steps, _ = np.shape(frames)
    eps = {f"w{i}": core.Episode(f"w{i}", frames[i], speeds[i], angles[i], {}) for i in range(n)}
    return core.windows_at(eps, list(eps), np.arange(n), np.full(n, steps - 1), steps - 1)


def label_windows(rows, episodes, k=4):
    """The windows of label rows ``rows`` over ``episodes``, built as the pipeline builds them."""
    return core.windows_at(core.episodes_by_id(episodes), rows.episode_ids, rows.ep, rows.t, k)


def scenes_of(pairs):
    """Position columns (episode_ids, ep, t) of (episode_id, t) pairs, in the
    given order, with the ids sorted."""
    ids = sorted({eid for eid, _ in pairs})
    code = {eid: i for i, eid in enumerate(ids)}
    return (tuple(ids), np.array([code[eid] for eid, _ in pairs], dtype=np.int64),
            np.array([t for _, t in pairs], dtype=np.int64))


def positions(ids, ep, t):
    """(episode_id, t) pairs of position columns."""
    return [(ids[e], step) for e, step in zip(ep.tolist(), t.tolist())]


def row_positions(rows, mask=slice(None)):
    """(episode_id, t) of the label rows selected by ``mask``, all by default."""
    return positions(rows.episode_ids, rows.ep[mask], rows.t[mask])


def trace_of(policy, entries):
    """A score trace of (episode_id, t, score) tuples in any order."""
    return PolicyScoreTrace(policy, *scenes_of([e[:2] for e in entries]), [e[2] for e in entries])


def labels_of(rows):
    """Labels from (episode_id, t, g) or (episode_id, t, g, g_horizon) tuples
    in any order: g_horizon defaults to g, g_a is g, g_s is 0 and the four
    floats are 0."""
    rows = sorted((r[0], r[1], r[2], r[-1]) for r in rows)
    ids = sorted({r[0] for r in rows})
    code = {eid: i for i, eid in enumerate(ids)}
    g, zeros = [r[2] for r in rows], np.zeros(len(rows))
    return Labels(
        episode_ids=ids, ep=[code[r[0]] for r in rows], t=[r[1] for r in rows],
        g_a=g, g_s=np.zeros(len(rows), dtype=np.int64), g=g, g_horizon=[r[3] for r in rows],
        pred_angle=zeros, pred_speed=zeros, true_angle=zeros, true_speed=zeros,
    )


@pytest.fixture(scope="session")
def small_episodes():
    return simgen.generate_dataset(small_world(), 30, base_seed=500)


@pytest.fixture(scope="session")
def small_windows(small_episodes):
    return all_windows(small_episodes[:6])


@pytest.fixture(scope="session")
def tiny_pipeline(small_episodes):
    """One in-memory pipeline pass on a small world, shared by integration
    tests: driver on D1, labels + hazard net at the middle threshold, labels
    on D3 for evaluation."""
    splits = core.split_dataset(small_episodes, seed=11)
    by_id = core.episodes_by_id(small_episodes)
    d1 = [by_id[e] for e in splits.d1]
    d2 = [by_id[e] for e in splits.d2]
    d3 = [by_id[e] for e in splits.d3]
    train_w = all_windows(sorted(d1, key=lambda e: e.episode_id))
    net, _ = train_driver(train_w, TrainConfig(epochs=3, seed=21), trained_on="D1")
    th = CANONICAL_THRESHOLDS["middle"]
    ds_train = build_failure_dataset(net, d2, split="D2", th=th, m=8)
    ds_eval = build_failure_dataset(net, d3, split="D3", th=th, m=8)
    hazard, _ = train_failure(
        label_windows(ds_train.rows, d2), ds_train.rows.g_horizon, TrainConfig(epochs=3, seed=31),
        normalizer=net.normalizer, thresholds=th, m=8, trained_on="D2",
    )
    return {
        "episodes": small_episodes,
        "splits": splits,
        "driver": net,
        "hazard": hazard,
        "train_labels": ds_train,
        "eval_labels": ds_eval,
        "d1": d1, "d2": d2, "d3": d3,
    }
