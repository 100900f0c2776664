"""Failure signals, horizon labels, and the Safe/Hazardous classifier.

A step fails when the driving model's angle or speed deviates from the human
oracle by at least the threshold (deviation exactly equal to the threshold
counts as failure). The hazard classifier is trained on horizon labels: the
OR of per-step failures from t through t+m, so an alert gives the driver
lead time.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field as dataclass_field
from typing import Mapping, Sequence

import numpy as np

from .core import Episode, Normalizer, Windows, episodes_by_id, window_positions, windows_at
from .diffcore import ParameterStore, adam_step, cross_entropy_loss, softmax
from .diffcore.checkpoint import load_checkpoint, save_checkpoint
from .driver import (
    PREDICT_BATCH,
    BackboneArch,
    DriverNet,
    TrainConfig,
    _normalizer_from_meta,
    _normalizer_meta,
    _provenance_from_meta,
    _provenance_meta,
    backbone_forward,
    head_forward,
    init_backbone,
    predict_batch,
    windows_to_arrays,
)
from .diffcore.nn import init_linear
from .errors import (
    ArtifactVersionError,
    MissingArtifactError,
    NumericalError,
    SplitLeakageError,
    ValidationError,
)

log = logging.getLogger("drivlab.failure")

DEFAULT_HORIZON = 8  # steps; 2 s of lookahead at 4 Hz

LABELS_FORMAT = "#drivlab-labels v1"
LABELS_HEADER = "episode_id,t,g_a,g_s,g,g_horizon,pred_angle,pred_speed,true_angle,true_speed"


@dataclass(frozen=True)
class Thresholds:
    """Failure thresholds: degrees for angle, km/h for speed."""

    t_angle: float
    t_speed: float

    def __post_init__(self) -> None:
        if self.t_angle <= 0 or self.t_speed <= 0:
            raise ValidationError(f"thresholds must be > 0, got {self}")


# the three canonical operating points, tight to loose
CANONICAL_THRESHOLDS: Mapping[str, Thresholds] = {
    "tight": Thresholds(5.0, 2.0),
    "middle": Thresholds(7.0, 3.0),
    "loose": Thresholds(10.0, 5.0),
}


def sgn(x: float) -> int:
    """1 if x >= 0 else 0 (note: zero maps to 1)."""
    return 1 if x >= 0 else 0


def label_step(
    pred: tuple[float, float], truth: tuple[float, float], th: Thresholds
) -> tuple[int, int, int]:
    """(g_a, g_s, g) for one step; g is the OR of the two channel failures."""
    pred_angle, pred_speed = pred
    true_angle, true_speed = truth
    g_a = sgn(abs(true_angle - pred_angle) - th.t_angle)
    g_s = sgn(abs(true_speed - pred_speed) - th.t_speed)
    return g_a, g_s, g_a | g_s


def label_horizon(g_seq: Sequence[int], t: int, m: int) -> int:
    """OR of g over steps t..t+m inclusive (m+1 terms)."""
    if m < 0:
        raise ValidationError(f"horizon m must be >= 0, got {m}")
    if t < 0 or t + m >= len(g_seq):
        raise ValidationError(f"horizon [{t}, {t + m}] out of bounds for length {len(g_seq)}")
    return 1 if any(g_seq[t : t + m + 1]) else 0


@dataclass(frozen=True)
class LabeledStep:
    """One labeled evaluation step, as written to the label CSV."""

    episode_id: str
    t: int
    g_a: int
    g_s: int
    g: int
    g_horizon: int
    pred_angle: float
    pred_speed: float
    true_angle: float
    true_speed: float


@dataclass
class FailureDataset:
    """Labeled windows for hazard training plus per-step rows and stats."""

    rows: list[LabeledStep]
    windows: Windows  # aligned with rows
    labels: np.ndarray  # (n,) horizon labels, aligned with rows
    thresholds: Thresholds
    m: int
    split: str
    n_dropped: int  # windows without a full future horizon

    @property
    def hazard_fraction(self) -> float:
        return float(self.labels.mean()) if len(self.labels) else 0.0


def build_failure_dataset(
    net: DriverNet,
    episodes: Sequence[Episode],
    split: str,
    th: Thresholds,
    m: int = DEFAULT_HORIZON,
    allow_leakage: bool = False,
) -> FailureDataset:
    """Run the driver over every window, label per-step failures, then OR
    each step's failures over the m-step future.

    Refuses to label the driver's own training split: its predictions there
    are too optimistic to reflect real failures.
    """
    if split == net.trained_on and not allow_leakage:
        raise SplitLeakageError(
            f"refusing to label split {split}: the driver was trained on it "
            f"(pass allow_leakage to override)"
        )
    ordered = sorted(episodes, key=lambda e: e.episode_id)
    windows = windows_at(episodes_by_id(ordered), window_positions(ordered, net.arch.k), net.arch.k)
    pred_a, pred_s = predict_batch(net, windows)
    true_a, true_s = windows.target_angle, windows.target_speed
    rows: list[LabeledStep] = []
    kept: list[int] = []
    # windows are grouped by episode; horizons never cross an episode's end
    firsts = np.flatnonzero(np.diff(windows.ep, prepend=-1)).tolist()
    for lo, hi in zip(firsts, [*firsts[1:], len(windows)]):
        g_list = [
            label_step((pred_a[i], pred_s[i]), (true_a[i], true_s[i]), th)
            for i in range(lo, hi)
        ]
        g_seq = [g for (_, _, g) in g_list]
        eid = windows.episode_ids[windows.ep[lo]]
        for j in range(hi - lo - m):
            i = lo + j
            g_a, g_s, g = g_list[j]
            rows.append(
                LabeledStep(
                    episode_id=eid,
                    t=int(windows.t[i]),
                    g_a=g_a,
                    g_s=g_s,
                    g=g,
                    g_horizon=label_horizon(g_seq, j, m),
                    pred_angle=float(pred_a[i]),
                    pred_speed=float(pred_s[i]),
                    true_angle=float(true_a[i]),
                    true_speed=float(true_s[i]),
                )
            )
            kept.append(i)
    n_dropped = len(windows) - len(rows)
    ds = FailureDataset(
        rows=rows,
        windows=windows[np.array(kept, dtype=np.int64)],
        labels=np.array([r.g_horizon for r in rows], dtype=np.int64),
        thresholds=th,
        m=m,
        split=split,
        n_dropped=n_dropped,
    )
    log.info(
        "labeled %d steps on %s at (%.1f deg, %.1f km/h): hazard fraction %.3f, %d dropped",
        len(rows), split, th.t_angle, th.t_speed, ds.hazard_fraction, n_dropped,
    )
    return ds


# ---------------------------------------------------------------------------
# Label CSV
# ---------------------------------------------------------------------------


def write_labels_csv(
    path, ds: FailureDataset, provenance: Mapping[str, str] | None = None
) -> dict[str, str]:
    """Write the label file; returns its metadata as ``read_labels_csv`` reads it back."""
    meta = {
        "split": ds.split,
        "t_angle": repr(ds.thresholds.t_angle),
        "t_speed": repr(ds.thresholds.t_speed),
        "m": str(ds.m),
        "dropped": str(ds.n_dropped),
        **{key: str(value) for key, value in (provenance or {}).items()},
    }
    lines = [LABELS_FORMAT, *(f"# {key} {value}" for key, value in meta.items()), LABELS_HEADER]
    for r in ds.rows:
        lines.append(
            f"{r.episode_id},{r.t},{r.g_a},{r.g_s},{r.g},{r.g_horizon},"
            f"{r.pred_angle!r},{r.pred_speed!r},{r.true_angle!r},{r.true_speed!r}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return meta


def read_labels_csv(path) -> tuple[list[LabeledStep], dict[str, str]]:
    if not os.path.exists(path):
        raise MissingArtifactError(f"missing artifact: label file {path}")
    rows: list[LabeledStep] = []
    meta: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != LABELS_FORMAT:
            raise ArtifactVersionError(
                f"{path}: unsupported label file header {header!r}; re-run "
                f"`drivlab label` ({LABELS_FORMAT})"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(" ")
                meta[key] = value
                continue
            if line == LABELS_HEADER or not line:
                continue
            try:
                eid, t, g_a, g_s, g, g_h, p_a, p_s, t_a, t_s = line.split(",")
                row = LabeledStep(
                    episode_id=eid, t=int(t), g_a=int(g_a), g_s=int(g_s),
                    g=int(g), g_horizon=int(g_h), pred_angle=float(p_a),
                    pred_speed=float(p_s), true_angle=float(t_a), true_speed=float(t_s),
                )
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: malformed label row {line!r}") from None
            flags = {row.g_a, row.g_s, row.g, row.g_horizon}
            values = (row.pred_angle, row.pred_speed, row.true_angle, row.true_speed)
            if not flags <= {0, 1} or row.g != row.g_a | row.g_s or not all(map(math.isfinite, values)):
                raise ValidationError(
                    f"{path}:{lineno}: malformed label row {line!r}: g_a, g_s, g and g_horizon "
                    f"must be 0 or 1 with g = g_a | g_s, and predictions and truths finite"
                )
            rows.append(row)
    return rows, meta


# ---------------------------------------------------------------------------
# Hazard classifier
# ---------------------------------------------------------------------------


@dataclass
class HazardNet:
    """Safe/Hazardous classifier: same backbone shape as the driver, with a
    two-way classification head. Trained from scratch on its own split."""

    arch: BackboneArch
    params: ParameterStore
    normalizer: Normalizer
    trained_on: str
    thresholds: Thresholds
    m: int
    seed: int
    provenance: dict[str, str] = dataclass_field(default_factory=dict)


def init_hazard_params(arch: BackboneArch, rng: np.random.Generator) -> ParameterStore:
    store = ParameterStore()
    init_backbone(store, arch, rng)
    init_linear(store, "cls1", arch.fused_dim, arch.head_hidden, rng)
    init_linear(store, "cls2", arch.head_hidden, 2, rng)
    return store


def hazard_forward(
    store: ParameterStore,
    arch: BackboneArch,
    vis: np.ndarray,
    spd: np.ndarray,
    ang: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
):
    fused = backbone_forward(store, arch, vis, spd, ang, mode, rng)
    return head_forward(store, arch, "cls", fused, mode, rng)


def train_failure(
    windows: Windows,
    labels: np.ndarray,
    cfg: TrainConfig,
    normalizer: Normalizer,
    thresholds: Thresholds,
    m: int = DEFAULT_HORIZON,
    trained_on: str = "D2",
) -> tuple[HazardNet, list[dict[str, float]]]:
    """Cross-entropy training with inverse-frequency class weights.

    The normalizer comes from the driver (fitted on D1) so both agents see
    identically scaled inputs.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(windows) == 0 or labels.shape != (len(windows),):
        raise ValidationError("windows and labels must align and be non-empty")
    counts = np.bincount(labels, minlength=2)
    if counts.min() == 0:
        raise ValidationError(
            f"degenerate label distribution: class counts {counts.tolist()}"
        )
    class_weights = counts.sum() / (2.0 * counts)
    arch = BackboneArch(obs_dim=windows.obs.shape[1], k=windows.k, dropout_p=cfg.dropout_p)
    init_rng, shuffle_rng, drop_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    params = init_hazard_params(arch, init_rng)
    data = windows_to_arrays(windows, normalizer)
    n = len(windows)
    history: list[dict[str, float]] = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        total, batches = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            try:
                logits = hazard_forward(
                    params, arch, data["vis"][idx], data["spd"][idx], data["ang"][idx],
                    mode="train", rng=drop_rng,
                )
                loss = cross_entropy_loss(logits, labels[idx], class_weights)
            except NumericalError as exc:
                raise NumericalError(
                    f"{exc} (lr={cfg.lr}, epoch={epoch}, batch={batches})"
                ) from exc
            loss.backward()
            adam_step(params, cfg.lr)
            total += float(loss.data)
            batches += 1
        history.append({"epoch": float(epoch), "train_loss": total / batches})
        log.info("hazard epoch %d: train_loss=%.6f", epoch, total / batches)
    net = HazardNet(
        arch=arch, params=params, normalizer=normalizer, trained_on=trained_on,
        thresholds=thresholds, m=m, seed=cfg.seed,
    )
    return net, history


def predict_hazard_batch(net: HazardNet, windows: Windows) -> np.ndarray:
    """Softmax probability of the Hazardous class per window."""
    if not windows:
        return np.empty(0)
    data = windows_to_arrays(windows, net.normalizer)
    out = []
    n = len(windows)
    for start in range(0, n, PREDICT_BATCH):
        sl = slice(start, start + PREDICT_BATCH)
        logits = hazard_forward(net.params, net.arch, data["vis"][sl], data["spd"][sl], data["ang"][sl])
        out.append(softmax(logits).data[:, 1])
    return np.concatenate(out)


def save_hazard(path, net: HazardNet) -> None:
    meta = dict(net.arch.meta())
    meta["trained_on"] = net.trained_on
    meta["seed"] = str(net.seed)
    meta["t_angle"] = repr(net.thresholds.t_angle)
    meta["t_speed"] = repr(net.thresholds.t_speed)
    meta["m"] = str(net.m)
    meta.update(_normalizer_meta(net.normalizer))
    meta.update(_provenance_meta(net.provenance))
    save_checkpoint(path, "hazard", meta, net.params)


def load_hazard(path) -> HazardNet:
    kind, meta, store = load_checkpoint(path)
    if kind != "hazard":
        raise ValidationError(f"{path}: expected a hazard checkpoint, found kind {kind!r}")
    return HazardNet(
        arch=BackboneArch.from_meta(meta),
        params=store,
        normalizer=_normalizer_from_meta(meta),
        trained_on=meta["trained_on"],
        thresholds=Thresholds(float(meta["t_angle"]), float(meta["t_speed"])),
        m=int(meta["m"]),
        seed=int(meta["seed"]),
        provenance=_provenance_from_meta(meta),
    )
