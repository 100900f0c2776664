"""Five-stage pipeline: gen -> train-driver -> label -> train-failure -> eval.

Each stage function takes explicit input and output paths and is the only
code that does its job: ``run_stage``/``run_all`` and the per-stage CLI both
call it, so the two write the same bytes. Every stage records provenance
(format version, pipeline seed, upstream digests) and is idempotent for
identical inputs and seeds. ``run_all`` chains the stages in one output
directory and emits a deterministic report.json.

Stages share a ``memo`` dict keyed by absolute path: it holds what a stage
loaded or wrote, so each input is parsed at most once per memo. ``run_all``
passes one memo through every stage.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import logging
import os
from typing import Mapping

from . import core, simgen
from .config import PipelineConfig, parse_budgets
from .driver import (
    TrainConfig,
    constant_mean_mae,
    eval_mae,
    load_driver,
    save_driver,
    train_driver,
)
from .errors import MissingArtifactError, SplitLeakageError, ValidationError
from .failure import (
    CANONICAL_THRESHOLDS,
    Labels,
    LabelSplit,
    Thresholds,
    build_failure_dataset,
    flag_error,
    horizon_from_meta,
    load_hazard,
    read_labels_csv,
    save_hazard,
    split_predictions,
    train_failure,
    write_labels_csv,
)
from .evaluate import (
    GAIN_BUDGETS,
    auc,
    build_scenes,
    interval_curve,
    read_scores_csv,
    reduction_curve,
    safety_gain,
    score_learned,
    score_oracle,
    score_uncertainty,
    scene_rows,
    write_scores_csv,
)

log = logging.getLogger("drivlab.pipeline")

STAGES = ("gen", "split", "train-driver", "label", "train-failure", "eval", "report")
VAL_WINDOWS = 2048  # the D3 windows train-driver validates on after each epoch

ART_EPISODES = "episodes.txt"
ART_SPLITS = "splits.tsv"
ART_DRIVER = "driver.ckpt"
ART_DRIVER_METRICS = "driver_metrics.json"
ART_REPORT = "report.json"


def art_labels(split: str, name: str) -> str:
    return f"labels_{split}_{name}.csv"


def art_hazard(name: str) -> str:
    return f"hazard_{name}.ckpt"


def art_scores(policy: str, name: str | None = None) -> str:
    return f"scores_{policy}.csv" if name is None else f"scores_{policy}_{name}.csv"


def art_eval(name: str) -> str:
    return f"eval_{name}.json"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def derived_seed(base: int, tag: str) -> int:
    """Stable 63-bit sub-seed per pipeline concern."""
    digest = hashlib.sha256(f"{base}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _memo(memo: dict, path, load, *key):
    """``load(path)``, run once per memo. ``key`` extends the path for a
    result derived from that file rather than read from it."""
    k = (os.path.abspath(path), *key)
    if k not in memo:
        memo[k] = load(path)
    return memo[k]


def _keep(memo: dict, path, value) -> None:
    """Record what a stage wrote to ``path``, so later stages skip reading it."""
    memo[(os.path.abspath(path),)] = value


def _predictions_key(driver, episodes, splits, split_name: str) -> tuple:
    """Memo key of the windows of a split and the driver's predictions of
    them, which train-driver leaves for label."""
    return tuple(os.path.abspath(p) for p in (driver, episodes, splits)) + ("predictions", split_name)


def _split_episodes(memo: dict, episodes, splits, split_name: str) -> list[core.Episode]:
    """The split's episodes, sorted by id. The manifest must record the
    digest of ``episodes`` and name only episodes in it."""
    split_set, meta = _memo(memo, splits, core.read_split_manifest)
    recorded = meta.get("episodes", "(not recorded)")
    if recorded != _memo(memo, episodes, file_digest, "digest"):
        raise ValidationError(f"{splits}: splits were made from episodes {recorded}, not from {episodes}")
    by_id = {ep.episode_id: ep for ep in _memo(memo, episodes, core.read_episodes)}
    unknown = [eid for eid in split_set.d1 + split_set.d2 + split_set.d3 if eid not in by_id]
    if unknown:
        raise ValidationError(f"{splits}: episode {unknown[0]} is not in {episodes}")
    return [by_id[eid] for eid in sorted(split_set.ids_of(split_name))]


def _driver_digest(driver, labels, meta: Mapping[str, str]) -> str:
    """Digest of ``driver``, which must be the driver the label file records."""
    digest = file_digest(driver)
    if meta.get("driver") != digest:
        raise ValidationError(
            f"{labels}: labels were made by driver {meta.get('driver', '(not recorded)')}, not by {driver}"
        )
    return digest


def _read_labels(memo: dict, path) -> tuple[Labels, dict[str, str], str, str, Thresholds, int]:
    """(rows, meta, split, threshold name, thresholds, m) of a label file,
    whose flags must follow from its values (``flag_error``)."""
    rows, meta = _memo(memo, path, read_labels_csv)
    try:
        split, (th, m) = core.parse_keys(LabelSplit, meta, "meta").split, horizon_from_meta(meta)
    except ValidationError as exc:
        raise ValidationError(f"{path}: label file lacks a valid split, t_angle, t_speed or m: {exc}") from None
    names = [name for name, canon in CANONICAL_THRESHOLDS.items() if canon == th]
    if not names:
        raise ValidationError(f"{path}: thresholds {th} are not a canonical operating point")
    bad = flag_error(rows, th, m)
    if bad is not None:
        row, reason = bad
        raise ValidationError(f"{path}: episode {rows.episode_ids[rows.ep[row]]} step {rows.t[row]}: {reason}")
    return rows, meta, split, names[0], th, m


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_gen(cfg: PipelineConfig, episodes_out, memo: dict) -> str:
    episodes = simgen.generate_dataset(
        cfg.world_config(), cfg.episodes, base_seed=derived_seed(cfg.seed, "gen")
    )
    core.write_episodes(episodes_out, episodes, provenance={"seed": str(cfg.seed)})
    _keep(memo, episodes_out, episodes)
    log.info("gen: wrote %d episodes to %s", len(episodes), episodes_out)
    return episodes_out


def stage_split(cfg: PipelineConfig, episodes, splits_out, memo: dict) -> str:
    splits = core.split_dataset(
        _memo(memo, episodes, core.read_episodes), seed=derived_seed(cfg.seed, "split")
    )
    provenance = {"seed": str(cfg.seed), "episodes": _memo(memo, episodes, file_digest, "digest")}
    core.write_split_manifest(splits_out, splits, provenance)
    _keep(memo, splits_out, (splits, provenance))
    log.info("split: %d/%d/%d episodes", len(splits.d1), len(splits.d2), len(splits.d3))
    return splits_out


def stage_train_driver(
    cfg: PipelineConfig, episodes, splits, driver_out, metrics_out, memo: dict
) -> str:
    train_windows = core.make_windows(*_split_episodes(memo, episodes, splits, "D1"), k=cfg.k)
    d3 = _split_episodes(memo, episodes, splits, "D3")
    tc = TrainConfig(
        lr=cfg.driver_lr,
        epochs=cfg.driver_epochs,
        batch_size=cfg.driver_batch_size,
        lam=cfg.loss_balance,
        seed=derived_seed(cfg.seed, "driver"),
        dropout_p=cfg.driver_dropout,
    )
    # D3's first windows, a per-epoch diagnostic only, never model selection;
    # made from the episodes they reach, so the rest of D3 waits for the net
    reach = list(itertools.accumulate(max(len(e) - cfg.k, 0) for e in d3))
    val_windows = core.make_windows(*d3[: bisect.bisect_left(reach, VAL_WINDOWS) + 1], k=cfg.k)[:VAL_WINDOWS]
    net, _history = train_driver(train_windows, tc, val_windows=val_windows, trained_on="D1")
    n_train_windows = len(train_windows)
    del train_windows, val_windows  # freed before D3's windows are made
    net.provenance = {
        "pipeline_seed": str(cfg.seed),
        "episodes": _memo(memo, episodes, file_digest, "digest"),
        "splits": file_digest(splits),
    }
    save_driver(driver_out, net)
    _keep(memo, driver_out, net)
    predictions = split_predictions(net, d3)
    # label takes these from the memo, so a run predicts D3 once
    memo[_predictions_key(driver_out, episodes, splits, "D3")] = predictions
    eval_windows = predictions["windows"]
    mae_speed, mae_angle = eval_mae(eval_windows, predictions["pred"])
    base_speed, base_angle = constant_mean_mae(net.normalizer, eval_windows)
    metrics = {
        "format": "drivlab-driver-metrics v1",
        "mae_speed": mae_speed,
        "mae_angle": mae_angle,
        "baseline_mae_speed": base_speed,
        "baseline_mae_angle": base_angle,
        "epochs": cfg.driver_epochs,
        "seed": cfg.seed,
        "eval_split": "D3",
        "n_train_windows": n_train_windows,
        "n_eval_windows": len(eval_windows),
    }
    _write_json(metrics_out, metrics)
    log.info(
        "train-driver: mae_speed=%.3f (baseline %.3f), mae_angle=%.3f (baseline %.3f)",
        mae_speed, base_speed, mae_angle, base_angle,
    )
    return driver_out


def stage_label(
    cfg: PipelineConfig, episodes, splits, driver, split_name: str, out_dir, memo: dict,
    allow_leakage: bool = False,
) -> list[str]:
    """Label the driver's failures on one split at every configured
    threshold, writing ``labels_<split>_<threshold>.csv`` into ``out_dir``.
    Refuses the driver's own, too optimistic, training split unless ``allow_leakage``."""
    net = _memo(memo, driver, load_driver)
    if split_name == net.trained_on and not allow_leakage:
        raise SplitLeakageError(f"refusing to label split {split_name}: the driver was trained on it "
                                f"(pass --allow-leakage to override)")
    split_episodes = _split_episodes(memo, episodes, splits, split_name)
    provenance = {"seed": str(cfg.seed), "driver": file_digest(driver)}
    paths = []
    # one driver pass serves every threshold; train-driver may have made it
    predictions = (memo.pop(_predictions_key(driver, episodes, splits, split_name), None)
                   or split_predictions(net, split_episodes))
    for th_name in cfg.threshold_names():
        ds = build_failure_dataset(predictions, split_name, CANONICAL_THRESHOLDS[th_name], cfg.m)
        path = os.path.join(out_dir, art_labels(split_name, th_name))
        _keep(memo, path, (ds.rows, write_labels_csv(path, ds, provenance)))
        paths.append(path)
    return paths


def stage_train_failure(
    cfg: PipelineConfig, episodes, splits, driver, labels, hazard_out, memo: dict
) -> str:
    """Train the hazard net on one label file; its threshold names the seed."""
    driver_net = _memo(memo, driver, load_driver)
    rows, meta, split, th_name, th, m = _read_labels(memo, labels)
    if split == driver_net.trained_on:
        raise ValidationError("hazard training labels derive from the driver's split")
    driver_digest = _driver_digest(driver, labels, meta)
    by_id = core.episodes_by_id(_split_episodes(memo, episodes, splits, split))
    windows = core.windows_at(by_id, rows.episode_ids, rows.ep, rows.t, cfg.k)
    tc = TrainConfig(
        lr=cfg.hazard_lr,
        epochs=cfg.hazard_epochs,
        batch_size=cfg.hazard_batch_size,
        seed=derived_seed(cfg.seed, f"hazard-{th_name}"),
        dropout_p=cfg.hazard_dropout,
    )
    net, _history = train_failure(
        windows, rows.g_horizon, tc,
        normalizer=driver_net.normalizer, thresholds=th, m=m, trained_on=split,
    )
    net.provenance = {
        "pipeline_seed": str(cfg.seed),
        "labels": file_digest(labels),
        "driver": driver_digest,
    }
    save_hazard(hazard_out, net)
    _keep(memo, hazard_out, net)
    return hazard_out


def _checkpoint_scores(cfg, memo, labels, meta, horizon, scenes, hazard, driver, episodes):
    """Learned and dropout-uncertainty scores for the scenes of ``labels``,
    whose (thresholds, m) is ``horizon``, each with the provenance its score
    file records. The uncertainty scores depend on the driver and the scenes
    only, so thresholds sharing a memo share them."""
    split = meta["split"]
    hazard_net = _memo(memo, hazard, load_hazard)
    if hazard_net.trained_on == split:
        raise ValidationError("hazard net was trained on the evaluation split")
    if (hazard_net.thresholds, hazard_net.m) != horizon:
        raise ValidationError(f"{hazard}: the hazard net was trained at {hazard_net.thresholds}, "
                              f"m={hazard_net.m}; {labels} is at {horizon[0]}, m={horizon[1]}")
    driver_net = _memo(memo, driver, load_driver)
    driver_digest = _driver_digest(driver, labels, meta)
    recorded = driver_net.provenance.get("episodes", "(not recorded)")
    if recorded != _memo(memo, episodes, file_digest, "digest"):
        raise ValidationError(f"{driver}: the driver was trained on episodes {recorded}, not on {episodes}")
    by_id = core.episodes_by_id(_memo(memo, episodes, core.read_episodes))
    provenance = {"split": split, "seed": str(cfg.seed), "driver": driver_digest}

    def uncertainty(_driver_path):
        trace = score_uncertainty(
            driver_net, by_id, scenes,
            n_samples=cfg.mc_samples, seed=derived_seed(cfg.seed, "uncertainty"),
        )
        return trace, provenance

    ids, ep, t = scenes
    return {
        "learned": (
            score_learned(hazard_net, by_id, scenes),
            {**provenance, "hazard": file_digest(hazard)},
        ),
        "uncertainty": _memo(memo, driver, uncertainty, "uncertainty", ids, ep.tobytes(), t.tobytes()),
    }


def stage_eval(
    cfg: PipelineConfig, labels, eval_out, memo: dict,
    scores: Mapping[str, str] | None = None,
    hazard=None, driver=None, episodes=None,
    scores_out: Mapping[str, str] | None = None,
) -> str:
    """Takeover study on one label file, written as ``eval_out`` JSON.

    Policy scores come from ``scores`` files (policy -> path) or, without
    them, from the ``hazard`` and ``driver`` checkpoints over ``episodes``;
    ``scores_out`` (policy -> path) writes the computed scores. The interval
    and oracle policies are always computed, so ``scores`` may not name them.
    """
    computed = [policy for policy in ("interval", "oracle") if policy in (scores or {})]
    if computed:
        raise ValidationError(f"{computed[0]} scores: eval computes the interval and oracle policies itself")
    rows, meta, split, th_name, th, m = _read_labels(memo, labels)
    scenes = build_scenes(rows, m)
    if scores:
        traces = {policy: _memo(memo, path, read_scores_csv) for policy, path in scores.items()}
    elif hazard and driver and episodes:
        traces = _checkpoint_scores(cfg, memo, labels, meta, (th, m), scenes, hazard, driver, episodes)
    else:
        raise ValidationError("eval needs --scores files or --hazard/--driver/--data")
    for policy, (trace, trace_meta) in traces.items():
        if trace.policy != policy:
            raise ValidationError(f"{policy} scores: the score file holds {trace.policy} scores")
        if trace_meta.get("split", split) != split:
            raise ValidationError(
                f"{policy} scores come from split {trace_meta['split']}, labels from {split}"
            )
        if trace_meta.get("driver", "(not recorded)") != meta.get("driver"):
            raise ValidationError(
                f"{policy} scores come from driver {trace_meta.get('driver', '(not recorded)')}, "
                f"labels from driver {meta.get('driver', '(not recorded)')}"
            )
        if not trace.covers(scenes):
            raise ValidationError(f"{policy} scores do not cover exactly the scenes of {labels}")
    for policy, path in (scores_out or {}).items():
        # thresholds that share a memo share their uncertainty scores, and
        # the file that holds them is written once
        if memo.get((os.path.abspath(path),)) is not traces[policy]:
            write_scores_csv(path, *traces[policy])
            _keep(memo, path, traces[policy])

    budgets = parse_budgets(cfg.budgets)
    unit = cfg.count_unit
    curves = {
        policy: reduction_curve(rows, trace, budgets, m, unit)
        for policy, (trace, _) in traces.items()
    }
    curves["interval"] = interval_curve(rows, scenes, budgets, m, unit)
    curves["oracle"] = reduction_curve(rows, score_oracle(rows, scenes, m), budgets, m, unit)
    gains = {}
    if "learned" in curves:
        for b in GAIN_BUDGETS:
            if any(abs(b - x) < 1e-9 for x in budgets):
                g = safety_gain(curves["learned"], curves["interval"], b)
                # undefined when the baseline silenced nothing
                gains[f"{round(100 * b)}"] = g if g is not None else "no-failures"
    scene_labels = rows.g_horizon[scene_rows(rows, m)]
    learned_auc = None
    if "learned" in traces:
        learned_auc = auc(traces["learned"][0].score, scene_labels)
    report = {
        "format": "drivlab-eval v1",
        "thresholds": {"t_angle": th.t_angle, "t_speed": th.t_speed, "name": th_name},
        "m": m,
        "count_unit": unit,
        "n_rows": len(rows),
        "n_scenes": len(scene_labels),
        "hazard_fraction_windows": float(rows.g_horizon.mean()) if len(rows) else 0.0,
        "hazard_fraction_scenes": float(scene_labels.mean()) if len(scene_labels) else 0.0,
        "auc_learned": learned_auc,
        "curves": {
            name: [{"budget": b, "reduction": r} for b, r in res.points]
            for name, res in curves.items()
        },
        "gains_vs_interval_pct": gains,
        "seed": cfg.seed,
    }
    _write_json(eval_out, report)
    log.info("eval[%s]: auc=%s, gain@25%%=%s", th_name, learned_auc, gains.get("25"))
    return eval_out


def stage_report(cfg: PipelineConfig, out_dir) -> str:
    metrics_path = os.path.join(out_dir, ART_DRIVER_METRICS)
    if not os.path.exists(metrics_path):
        raise MissingArtifactError(f"missing artifact: {ART_DRIVER_METRICS} (run earlier stages first)")
    with open(metrics_path, "r", encoding="utf-8") as fh:
        driver_metrics = json.load(fh)
    per_threshold = {}
    for th_name in cfg.threshold_names():
        path = os.path.join(out_dir, art_eval(th_name))
        if not os.path.exists(path):
            raise MissingArtifactError(f"missing artifact: {art_eval(th_name)}")
        with open(path, "r", encoding="utf-8") as fh:
            per_threshold[th_name] = json.load(fh)
    artifacts = {}
    for name in sorted(os.listdir(out_dir)):
        if name == ART_REPORT or not os.path.isfile(os.path.join(out_dir, name)):
            continue
        artifacts[name] = file_digest(os.path.join(out_dir, name))
    report = {
        "format": "drivlab-report v1",
        "seed": cfg.seed,
        "config": cfg.to_mapping(),
        "driver": driver_metrics,
        "thresholds": per_threshold,
        "artifacts": artifacts,
    }
    path = os.path.join(out_dir, ART_REPORT)
    _write_json(path, report)
    return path


def run_stage(name: str, cfg: PipelineConfig, out_dir, cache: dict | None = None):
    """Run one stage on the fixed artifact names inside ``out_dir``.
    ``cache`` is a memo shared across calls; None gives the stage its own."""
    memo = {} if cache is None else cache
    path = functools.partial(os.path.join, out_dir)
    episodes, splits, driver = path(ART_EPISODES), path(ART_SPLITS), path(ART_DRIVER)
    names = cfg.threshold_names()
    if name == "gen":
        return stage_gen(cfg, episodes, memo)
    if name == "split":
        return stage_split(cfg, episodes, splits, memo)
    if name == "train-driver":
        return stage_train_driver(cfg, episodes, splits, driver, path(ART_DRIVER_METRICS), memo)
    if name == "label":
        return [
            # D3 first: its windows and predictions, which train-driver may
            # have left in the memo, are freed before D2 is windowed
            p for split in ("D3", "D2")
            for p in stage_label(cfg, episodes, splits, driver, split, out_dir, memo)
        ]
    if name == "train-failure":
        return [
            stage_train_failure(
                cfg, episodes, splits, driver, path(art_labels("D2", t)), path(art_hazard(t)), memo
            )
            for t in names
        ]
    if name == "eval":
        return [
            stage_eval(
                cfg, path(art_labels("D3", t)), path(art_eval(t)), memo,
                hazard=path(art_hazard(t)), driver=driver, episodes=episodes,
                scores_out={
                    "learned": path(art_scores("learned", t)),
                    "uncertainty": path(art_scores("uncertainty")),
                },
            )
            for t in names
        ]
    if name == "report":
        return stage_report(cfg, out_dir)
    raise ValidationError(f"unknown stage {name!r}; stages: {', '.join(STAGES)}")


def run_all(cfg: PipelineConfig, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    cache: dict = {}
    for name in STAGES:
        log.info("stage %s", name)
        run_stage(name, cfg, out_dir, cache)
    return os.path.join(out_dir, ART_REPORT)
