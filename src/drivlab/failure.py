"""Failure signals, horizon labels, and the Safe/Hazardous classifier.

A step fails when the driving model's angle or speed deviates from the human
oracle by at least the threshold (deviation exactly equal to the threshold
counts as failure). The hazard classifier is trained on horizon labels: the
OR of per-step failures from t through t+m, so an alert gives the driver
lead time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dataclass_field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    SPLITS,
    Column,
    Episode,
    Normalizer,
    TableSchema,
    Windows,
    _frozen,
    _readonly,
    check_keys,
    format_keys,
    key,
    make_windows,
    parse_keys,
    read_table,
    write_table,
)
from .diffcore import ParameterStore, cross_entropy_loss
from .driver import (
    BackboneArch,
    DriverNet,
    TrainConfig,
    backbone_forward,
    fit,
    forward_chunks,
    head_forward,
    init_backbone,
    load_net,
    predict_batch,
    save_net,
    windows_to_arrays,
)
from .errors import SplitLeakageError, ValidationError

log = logging.getLogger("drivlab.failure")

DEFAULT_HORIZON = 8  # steps; 2 s of lookahead at 4 Hz


@dataclass(frozen=True)
class Thresholds:
    """Failure thresholds: degrees for angle, km/h for speed."""

    t_angle: float = key(domain="(0, inf)")
    t_speed: float = key(domain="(0, inf)")

    def __post_init__(self) -> None:
        check_keys(self, "thresholds")


@dataclass(frozen=True)
class _Horizon(Thresholds):
    """The keys of ``horizon_meta``: the thresholds and the lookahead ``m``, in steps."""

    m: int = key(domain="[0, inf)")


# the three canonical operating points, tight to loose
CANONICAL_THRESHOLDS: Mapping[str, Thresholds] = {
    "tight": Thresholds(5.0, 2.0),
    "middle": Thresholds(7.0, 3.0),
    "loose": Thresholds(10.0, 5.0),
}


@dataclass(frozen=True)
class LabelSplit:
    """The ``split`` key of a label file: the split whose steps it labels."""

    split: str = key(domain=SPLITS)


def horizon_meta(th: Thresholds, m: int) -> dict[str, str]:
    """The ``t_angle``, ``t_speed`` and ``m`` metadata of label files and hazard checkpoints."""
    return format_keys(_Horizon(th.t_angle, th.t_speed, m))


def horizon_from_meta(meta: Mapping[str, str]) -> tuple[Thresholds, int]:
    """(thresholds, m) from ``horizon_meta``'s keys; raises ValidationError naming a bad key."""
    horizon = parse_keys(_Horizon, meta, "meta")
    return Thresholds(horizon.t_angle, horizon.t_speed), horizon.m


MAX_STEP = 1 << 31  # labeled steps t lie in [0, MAX_STEP)
_FLAGS = ("g_a", "g_s", "g", "g_horizon")
_VALUES = ("pred_angle", "pred_speed", "true_angle", "true_speed")
_COLUMNS = ("ep", "t", *_FLAGS, *_VALUES)  # label file order, after the episode id

LABEL_TABLE = TableSchema(
    "#drivlab-labels v1", "label", ",",
    (
        Column("episode_id", str),
        Column("t", np.int64, f"[0, {MAX_STEP})"),
        *(Column(c, np.int64, "[0, 1]") for c in _FLAGS),
        *(Column(c, np.float64) for c in _VALUES),
    ),
    column_line=True,
)
LABELS_FORMAT = LABEL_TABLE.magic
LABELS_HEADER = LABEL_TABLE.header


def _bad_row(cols: Mapping[str, np.ndarray], n_ids: int) -> tuple[int, str] | None:
    """(row, reason) for the first row that breaks a ``Labels`` rule across
    columns or rows; None when every row keeps them."""
    ep, t = cols["ep"], cols["t"]
    unordered = np.zeros(len(ep), dtype=bool)
    unordered[1:] = (ep[1:] < ep[:-1]) | ((ep[1:] == ep[:-1]) & (t[1:] <= t[:-1]))
    checks = (
        ((ep < 0) | (ep >= n_ids), "episode code out of range"),
        (cols["g"] != cols["g_a"] | cols["g_s"], "g must equal g_a | g_s"),
        (unordered, "(episode_id, t) repeats or is out of order"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, next(reason for mask, reason in checks if mask[i])


@dataclass(frozen=True)
class Labels:
    """Labeled steps as read-only columns, strictly increasing in
    (episode_id, t).

    Row i is step ``t[i]`` of episode ``episode_ids[ep[i]]``, each column in
    the domain of its ``LABEL_TABLE`` column; the ids are sorted, so rows
    ordered by (ep, t) are ordered by (episode_id, t).
    ``g_a`` and ``g_s`` flag the angle and speed failures of the driver's
    prediction, ``g`` is their OR and ``g_horizon`` the OR of ``g`` over steps
    t..t+m of the episode. The four floats are the predicted and true maneuver.
    """

    episode_ids: tuple[str, ...]
    ep: np.ndarray
    t: np.ndarray
    g_a: np.ndarray
    g_s: np.ndarray
    g: np.ndarray
    g_horizon: np.ndarray
    pred_angle: np.ndarray
    pred_speed: np.ndarray
    true_angle: np.ndarray
    true_speed: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.episode_ids)
        object.__setattr__(self, "episode_ids", ids)
        for name in _COLUMNS:
            dtype = np.float64 if name in _VALUES else np.int64
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype))
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValidationError("label episode ids must be sorted and unique")
        n = self.ep.size
        if any(getattr(self, c).shape != (n,) for c in _COLUMNS):
            raise ValidationError("label columns must be 1-D and of equal length")
        bad = LABEL_TABLE.first_bad(vars(self)) or _bad_row(vars(self), len(ids))
        if bad is not None:
            raise ValidationError(f"labels: {bad[1]} at row {bad[0]}")

    def __len__(self) -> int:
        return self.ep.shape[0]


@dataclass
class FailureDataset:
    """Labeled steps of one split at one threshold and horizon, as a label file holds them."""

    rows: Labels
    thresholds: Thresholds
    m: int
    split: str
    n_dropped: int  # windows without a full future horizon

    @property
    def hazard_fraction(self) -> float:
        return float(self.rows.g_horizon.mean()) if len(self.rows) else 0.0


def step_failures(pred, truth, th: Thresholds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g_a, g_s, g) per step from (angle, speed) column pairs: a channel fails
    when its deviation reaches the threshold; g is the OR of the two."""
    g_a, g_s = (
        (np.abs(true - p) - limit >= 0).astype(np.int64)
        for p, true, limit in zip(pred, truth, (th.t_angle, th.t_speed))
    )
    return g_a, g_s, g_a | g_s


def horizon_failures(g: np.ndarray, ep: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, g_horizon) for steps grouped by episode code ``ep``, each run of
    one code being consecutive steps: the rows i whose horizon i..i+m stays
    inside their episode, and the OR of ``g`` over each horizon."""
    if m < 0:
        raise ValidationError(f"horizon m must be >= 0, got {m}")
    start = np.arange(max(len(g) - m, 0))
    rows = start[ep[start + m] == ep[start]]
    failing = np.concatenate([[0], np.cumsum(g, dtype=np.int64)])
    return rows, (failing[rows + m + 1] - failing[rows] > 0).astype(np.int64)


def split_predictions(net: DriverNet, episodes: Sequence[Episode]) -> dict:
    """The windows of ``episodes``, in id order, and the driver's (angle,
    speed) predictions of them: what ``build_failure_dataset`` labels, and
    all a caller needs to measure the driver's error on the same windows."""
    windows = make_windows(*sorted(episodes, key=lambda e: e.episode_id), k=net.arch.k)
    return {"windows": windows, "pred": predict_batch(net, windows)}


def build_failure_dataset(
    net: DriverNet,
    episodes: Sequence[Episode],
    split: str,
    th: Thresholds,
    m: int = DEFAULT_HORIZON,
    allow_leakage: bool = False,
    predictions: dict | None = None,
) -> FailureDataset:
    """Run the driver over every window, label per-step failures, then OR
    each step's failures over the m-step future.

    Refuses to label the driver's own training split: its predictions there
    are too optimistic to reflect real failures. ``predictions``, a dict
    that calls with the same net and episodes share, keeps what
    ``split_predictions`` returns for the first of them, so labelling one
    split at several thresholds runs the driver once.
    """
    if split == net.trained_on and not allow_leakage:
        raise SplitLeakageError(
            f"refusing to label split {split}: the driver was trained on it "
            f"(pass allow_leakage to override)"
        )
    predictions = {} if predictions is None else predictions
    if not predictions:
        predictions.update(split_predictions(net, episodes))
    windows, (pred_a, pred_s) = predictions["windows"], predictions["pred"]
    true_a, true_s = windows.target_angle, windows.target_speed
    g_a, g_s, g = step_failures((pred_a, pred_s), (true_a, true_s), th)
    # windows are grouped by episode; horizons never cross an episode's end
    kept, g_horizon = horizon_failures(g, windows.ep, m)
    # every column is built here and shared with no one, so Labels takes it as is
    columns = dict(
        ep=windows.ep[kept], t=windows.t[kept], g_a=g_a[kept], g_s=g_s[kept], g=g[kept],
        g_horizon=g_horizon, pred_angle=pred_a[kept], pred_speed=pred_s[kept],
        true_angle=true_a[kept], true_speed=true_s[kept],
    )
    rows = Labels(episode_ids=windows.episode_ids, **{c: _frozen(v) for c, v in columns.items()})
    n_dropped = len(windows) - len(rows)
    ds = FailureDataset(rows=rows, thresholds=th, m=m, split=split, n_dropped=n_dropped)
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
        **horizon_meta(ds.thresholds, ds.m),
        "dropped": str(ds.n_dropped),
        **{key: str(value) for key, value in (provenance or {}).items()},
    }
    columns = {c: getattr(ds.rows, c) for c in _COLUMNS[1:]}
    columns["episode_id"] = np.array(ds.rows.episode_ids, dtype=str)[ds.rows.ep]
    write_table(path, LABEL_TABLE, meta, [columns])
    return meta


def read_labels_csv(path) -> tuple[Labels, dict[str, str]]:
    meta, cols = read_table(path, LABEL_TABLE)
    episode_ids, ep = np.unique(cols.pop("episode_id"), return_inverse=True)
    cols["ep"] = _frozen(ep.astype(np.int64, copy=False))  # np.unique's own array
    lines = cols.pop("line")
    bad = _bad_row(cols, len(episode_ids))
    if bad is not None:
        raise LABEL_TABLE.row_error(path, lines[bad[0]], bad[1])
    return Labels(episode_ids=tuple(episode_ids.tolist()), **cols), meta


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
    return init_backbone(arch, rng, {"cls": 2})


def hazard_forward(
    store: ParameterStore,
    arch: BackboneArch,
    frames: np.ndarray,
    index: np.ndarray,
    spd: np.ndarray,
    ang: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
):
    fused = backbone_forward(store, arch, frames, index, spd, ang, mode, rng)
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
    arch, params, history = fit(
        "hazard", windows, normalizer, cfg, init_hazard_params, hazard_forward,
        lambda logits, _data, idx: cross_entropy_loss(logits, labels[idx], class_weights),
    )
    net = HazardNet(
        arch=arch, params=params, normalizer=normalizer, trained_on=trained_on,
        thresholds=thresholds, m=m, seed=cfg.seed,
    )
    return net, history


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of 2-D ``logits``; each row is computed on its own, so
    a row's bits do not depend on the rows around it."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def predict_hazard_batch(net: HazardNet, windows: Windows) -> np.ndarray:
    """Softmax probability of the Hazardous class per window."""
    if not windows:
        return np.empty(0)
    (logits,) = forward_chunks(
        lambda *inputs: (hazard_forward(net.params, net.arch, *inputs),),
        windows_to_arrays(windows, net.normalizer),
    )
    return softmax(logits)[:, 1]


def save_hazard(path, net: HazardNet) -> None:
    save_net(path, "hazard", net, horizon_meta(net.thresholds, net.m))


def load_hazard(path) -> HazardNet:
    def build(meta, **net):
        th, m = horizon_from_meta(meta)
        return HazardNet(thresholds=th, m=m, **net)

    return load_net(path, "hazard", init_hazard_params, build)
