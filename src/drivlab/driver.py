"""End-to-end driving model: shared per-frame encoder, three parallel
recurrent tracks (frames, past speed, past angle), fused regression heads.

The per-frame encoder is a 2-layer MLP standing in for a visual front-end at
desk scale; topology otherwise mirrors the three-track recurrent design.
Targets are trained in normalized space; predictions are denormalized and
clipped to the legal CAN ranges.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from .core import (
    ANGLE_MAX,
    ANGLE_MIN,
    SPEED_MAX,
    SPEED_MIN,
    SPLITS,
    Normalizer,
    Windows,
    check_keys,
    fit_normalizer,
    format_keys,
    key,
    parse_keys,
)
from .diffcore import (
    ParameterStore,
    Tensor,
    adam_step,
    add,
    concat,
    dropout,
    init_linear,
    init_lstm,
    l2_loss,
    linear,
    lstm_seq,
    no_grad,
    scale,
)
from .diffcore.checkpoint import load_checkpoint, save_checkpoint
from .errors import NumericalError, ValidationError

log = logging.getLogger("drivlab.driver")

# Rows per inference forward. Inference records no autodiff tape, so each
# intermediate is freed once the next op has read it, and the chunk size
# bounds the largest of them. 512 is a multiple of the BLAS kernels' row
# blocks, so a row gets the bits of one whole-split forward.
PREDICT_BATCH = 512


@dataclass(frozen=True)
class BackboneArch:
    """Shape of the shared trunk used by both the driver and hazard nets."""

    obs_dim: int = key(domain="[1, inf)")
    k: int = key(domain="[1, inf)")
    enc_hidden: int = key(64, "[1, inf)")
    enc_out: int = key(32, "[1, inf)")
    vis_hidden: int = key(32, "[1, inf)")
    sig_hidden: int = key(8, "[1, inf)")
    head_hidden: int = key(32, "[1, inf)")
    dropout_p: float = key(0.1, "[0, 1)")

    def __post_init__(self) -> None:
        check_keys(self, "arch")

    @property
    def fused_dim(self) -> int:
        return self.vis_hidden + 2 * self.sig_hidden


@dataclass
class TrainConfig:
    lr: float = key(1e-3, "(0, inf)")
    epochs: int = key(10, "[1, inf)")
    batch_size: int = key(32, "[1, inf)")
    lam: float = key(1.0, "[0, inf)")  # balance between the angle loss and the speed loss
    seed: int = key(0, "[0, inf)")
    dropout_p: float = key(0.1, "[0, 1)")

    def __post_init__(self) -> None:
        check_keys(self, "train config")


@dataclass(frozen=True)
class _Training:
    """The checkpoint keys that say what a net learned from: its split and its seed."""

    trained_on: str = key(domain=SPLITS)
    seed: int = key()


@dataclass
class DriverNet:
    """Trained driving regressor bundle: parameters + the normalizer fitted on
    its training split, plus provenance for the split-leakage guard.

    ``provenance`` carries upstream artifact digests into the checkpoint and
    survives load/save round trips byte-exactly."""

    arch: BackboneArch
    params: ParameterStore
    normalizer: Normalizer
    trained_on: str
    seed: int
    provenance: dict[str, str] = field(default_factory=dict)


def init_backbone(arch: BackboneArch, rng: np.random.Generator, heads: Mapping[str, int]) -> ParameterStore:
    """The trunk's parameters, then a two-layer head per ``heads`` entry (prefix -> outputs)."""
    store = ParameterStore()
    init_linear(store, "enc1", arch.obs_dim, arch.enc_hidden, rng)
    init_linear(store, "enc2", arch.enc_hidden, arch.enc_out, rng)
    init_lstm(store, "vis", arch.enc_out, arch.vis_hidden, rng)
    init_lstm(store, "spd", 1, arch.sig_hidden, rng)
    init_lstm(store, "ang", 1, arch.sig_hidden, rng)
    for prefix, n_out in heads.items():
        init_linear(store, f"{prefix}1", arch.fused_dim, arch.head_hidden, rng)
        init_linear(store, f"{prefix}2", arch.head_hidden, n_out, rng)
    return store


def init_driver_params(arch: BackboneArch, rng: np.random.Generator) -> ParameterStore:
    return init_backbone(arch, rng, {"head_angle": 1, "head_speed": 1})


def _tracks(store: ParameterStore, names: tuple[str, ...], x: Tensor, steps: int,
            rows: np.ndarray | None = None) -> Tensor:
    """Recurrent tracks of equal shape over ``x``, step-major or read
    through ``rows`` as ``lstm_seq`` does, one LSTM call; returns their final
    hidden states side by side."""
    return lstm_seq(x, steps, *([store[f"{n}.{w}"] for n in names] for w in ("wx", "wh", "b")), rows=rows)


def backbone_forward(
    store: ParameterStore,
    arch: BackboneArch,
    frames: np.ndarray,  # (rows, obs_dim), normalized
    index: np.ndarray,  # (B, k+1): each window's frame rows, oldest first
    spd: np.ndarray,  # (B, k), normalized
    ang: np.ndarray,  # (B, k), normalized
    mode: str,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """The fused trunk output of the windows whose frames ``index`` names
    in ``frames`` (``batch_inputs`` makes both). The shared encoder runs
    once per row of ``frames``, so windows that share frames share their
    encoding; a recording forward needs the step-major rows."""
    batch, steps = index.shape
    d = frames.shape[1]
    if steps != arch.k + 1 or d != arch.obs_dim:
        raise ValidationError(
            f"window shape ({steps} frames, obs dim {d}) does not match net "
            f"(k={arch.k}, obs_dim={arch.obs_dim})"
        )
    if spd.shape != (batch, arch.k) or ang.shape != (batch, arch.k):
        raise ValidationError("past speed/angle lengths do not match k")
    enc = linear(store, "enc1", Tensor(frames), relu=True)
    enc = linear(store, "enc2", enc, relu=True)
    h_vis = _tracks(store, ("vis",), enc, steps, index.T)
    # speed and angle share their shapes, so they run as two tracks of one call
    signals = Tensor(np.stack([spd.T, ang.T]).reshape(2, arch.k * batch, 1))
    h_sig = _tracks(store, ("spd", "ang"), signals, arch.k)
    fused = concat([h_vis, h_sig])
    return dropout(fused, arch.dropout_p, mode, rng)


def head_forward(
    store: ParameterStore,
    arch: BackboneArch,
    prefix: str,
    fused: Tensor,
    mode: str,
    rng: np.random.Generator | None = None,
) -> Tensor:
    a = linear(store, f"{prefix}1", fused, relu=True)
    a = dropout(a, arch.dropout_p, mode, rng)
    return linear(store, f"{prefix}2", a)


def driver_forward(
    store: ParameterStore,
    arch: BackboneArch,
    frames: np.ndarray,
    index: np.ndarray,
    spd: np.ndarray,
    ang: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    fused = backbone_forward(store, arch, frames, index, spd, ang, mode, rng)
    out_a = head_forward(store, arch, "head_angle", fused, mode, rng)
    out_s = head_forward(store, arch, "head_speed", fused, mode, rng)
    return out_a, out_s


def batch_inputs(windows: Windows, normalizer: Normalizer, rows, distinct: bool = False
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(frames, index, spd, ang) of the windows ``rows`` (an index array or
    a slice) of ``windows``: ``frames`` holds normalized frame rows and
    ``index``, (B, k+1), each window's rows in it. Only the batch's rows are
    gathered from the windows' columns and normalized; normalizing is
    elementwise, so they get the bits of a whole-column normalization. By
    default every window's frames are gathered step-major (row ``t*B + b``
    is frame ``t`` of window ``b``), the layout a recording forward needs.
    With ``distinct``, for inference, each frame the windows share is
    gathered once, in column order."""
    spans = windows.end[rows][:, None] + np.arange(-windows.k, 1)
    if distinct:
        # a mark per row of the chunk's span finds the distinct rows in order
        # without a sort; np.unique's sort code and temporaries raise the peak RSS
        lo, hi = (spans.min(), spans.max()) if spans.size else (0, -1)
        seen = np.zeros(hi - lo + 1, dtype=bool)
        seen[spans - lo] = True
        used = np.flatnonzero(seen) + lo
        index = np.searchsorted(used, spans)
    else:
        used = spans.T.reshape(-1)
        index = np.arange(used.size).reshape(spans.shape[::-1]).T
    past = spans[:, :-1]
    return (normalizer.normalize(windows.obs[used], "obs"), index,
            normalizer.normalize(windows.speed[past], "speed"), normalizer.normalize(windows.angle[past], "angle"))


def batch_targets(windows: Windows, normalizer: Normalizer, rows) -> tuple[np.ndarray, np.ndarray]:
    """The normalized (angle, speed) targets of the windows ``rows``, each (B, 1)."""
    end = windows.end[rows][:, None]
    return normalizer.normalize(windows.angle[end], "angle"), normalizer.normalize(windows.speed[end], "speed")


def fit(name: str, windows: Windows, normalizer: Normalizer, cfg: TrainConfig, init, forward, loss,
        validate=None) -> tuple[BackboneArch, ParameterStore, list[dict[str, float]]]:
    """Train the parameters ``init(arch, rng)`` creates with Adam over
    shuffled batches; returns (arch, params, per-epoch history).

    A batch's loss is ``loss(forward(params, arch, frames, index, spd, ang,
    mode, rng), windows, idx)``, ``idx`` being the batch's rows: each batch
    gathers and normalizes its own inputs (``batch_inputs``), and the loss
    its own targets, so no input array spans the split.
    ``validate(arch, params)`` adds a per-epoch ``val_loss``. Deterministic
    for a fixed cfg.seed: init, shuffling and dropout all draw from
    seed-derived streams. The Adam moments are freed when training ends.
    """
    arch = BackboneArch(obs_dim=windows.obs.shape[1], k=windows.k, dropout_p=cfg.dropout_p)
    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    init_rng, shuffle_rng, drop_rng = (np.random.default_rng(s) for s in streams)
    params = init(arch, init_rng)
    n = len(windows)
    history: list[dict[str, float]] = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        total, batches = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            try:
                out = forward(params, arch, *batch_inputs(windows, normalizer, idx), mode="train", rng=drop_rng)
                batch_loss = loss(out, windows, idx)
            except NumericalError as exc:
                raise NumericalError(f"{exc} (lr={cfg.lr}, epoch={epoch}, batch={batches})") from exc
            batch_loss.backward()
            adam_step(params, cfg.lr)
            total += float(batch_loss.data)
            batches += 1
        entry = {"epoch": float(epoch), "train_loss": total / batches}
        if validate is not None:
            entry["val_loss"] = validate(arch, params)
        history.append(entry)
        log.info("%s epoch %d: %s", name, epoch,
                 " ".join(f"{key}={value:.6f}" for key, value in entry.items() if key != "epoch"))
    params.free_moments()
    return arch, params, history


def train_driver(
    windows: Windows,
    cfg: TrainConfig,
    val_windows: Windows | None = None,
    trained_on: str = "D1",
) -> tuple[DriverNet, list[dict[str, float]]]:
    """Minimize l2(angle) + lam * l2(speed) over normalized targets with Adam;
    returns the trained bundle plus per-epoch train (and optional validation) losses."""
    if not windows:
        raise ValidationError("empty training set")
    normalizer = fit_normalizer(windows)

    def loss(out, windows, idx):
        tgt_a, tgt_s = batch_targets(windows, normalizer, idx)
        value = l2_loss(out[0], tgt_a)
        return add(value, scale(l2_loss(out[1], tgt_s), cfg.lam)) if cfg.lam > 0 else value

    def validate(arch, params):
        outputs = forward_chunks(lambda *inputs: driver_forward(params, arch, *inputs), val_windows, normalizer)
        with no_grad():
            return float(loss([Tensor(out) for out in outputs], val_windows, slice(None)).data)

    arch, params, history = fit("driver", windows, normalizer, cfg, init_driver_params, driver_forward,
                                loss, validate if val_windows else None)
    return DriverNet(arch, params, normalizer, trained_on, cfg.seed), history


def forward_chunks(forward, windows: Windows, normalizer: Normalizer) -> list[np.ndarray]:
    """Run ``forward(frames, index, spd, ang)``, which returns a tuple of
    tensors, over ``windows`` in chunks of ``PREDICT_BATCH`` under
    ``no_grad``; returns each output's values over all rows. Each chunk
    gathers and normalizes its own distinct frames (``batch_inputs``), so a
    frame that several windows of the chunk share is encoded once. A one-row
    remainder joins the chunk before it, so no chunk is a single row."""
    n = len(windows)
    stops = [*range(PREDICT_BATCH, n - 1, PREDICT_BATCH), n] if n else []
    parts = []
    with no_grad():
        for start, stop in zip([0, *stops], stops):
            outputs = forward(*batch_inputs(windows, normalizer, slice(start, stop), distinct=True))
            parts.append([out.data for out in outputs])
    return [np.concatenate(column) for column in zip(*parts)]


def _predict_normalized(net: DriverNet, windows: Windows) -> list[np.ndarray]:
    """(angle, speed) head outputs in normalized space, each (N, 1)."""
    return forward_chunks(lambda *inputs: driver_forward(net.params, net.arch, *inputs), windows, net.normalizer)


def predict_batch(net: DriverNet, windows: Windows) -> tuple[np.ndarray, np.ndarray]:
    """Denormalized, range-clipped (angle, speed) predictions."""
    if not windows:
        return np.empty(0), np.empty(0)
    out_a, out_s = _predict_normalized(net, windows)
    angle = np.clip(net.normalizer.denormalize(out_a[:, 0], "angle"), ANGLE_MIN, ANGLE_MAX)
    speed = np.clip(net.normalizer.denormalize(out_s[:, 0], "speed"), SPEED_MIN, SPEED_MAX)
    return angle, speed


def mc_predict_batch(
    net: DriverNet,
    windows: Windows,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(n_samples, N) stochastic forward passes with dropout kept on.

    Dropout acts only after the trunk, so the trunk runs once and each
    sample applies dropout and the heads to all N rows. The masks are drawn
    per sample over all rows, so their order does not depend on
    ``PREDICT_BATCH``."""
    if net.arch.dropout_p <= 0.0:
        raise ValidationError("dropout disabled; uncertainty undefined")
    if n_samples < 2:
        raise ValidationError(f"need at least 2 mc samples, got {n_samples}")
    n = len(windows)
    angles = np.empty((n_samples, n))
    speeds = np.empty((n_samples, n))
    if not n:
        return angles, speeds
    params, arch = net.params, net.arch
    (trunk,) = forward_chunks(
        lambda *inputs: (backbone_forward(params, arch, *inputs, "eval"),), windows, net.normalizer,
    )
    with no_grad():
        for s in range(n_samples):
            fused = dropout(Tensor(trunk), arch.dropout_p, "mc", rng)
            out_a = head_forward(params, arch, "head_angle", fused, "mc", rng)
            out_s = head_forward(params, arch, "head_speed", fused, "mc", rng)
            angles[s] = net.normalizer.denormalize(out_a.data[:, 0], "angle")
            speeds[s] = net.normalizer.denormalize(out_s.data[:, 0], "speed")
    return angles, speeds


def eval_mae(windows: Windows, pred: tuple[np.ndarray, np.ndarray]) -> tuple[float, float]:
    """(mae_speed, mae_angle) in physical units of ``pred``, the (angle,
    speed) predictions of ``windows`` that ``predict_batch`` returns."""
    if not windows:
        raise ValidationError("eval_mae on an empty window list")
    angle, speed = pred
    return (
        float(np.mean(np.abs(speed - windows.target_speed))),
        float(np.mean(np.abs(angle - windows.target_angle))),
    )


def constant_mean_mae(normalizer: Normalizer, windows: Windows) -> tuple[float, float]:
    """MAE of the predict-the-training-mean baseline on ``windows``."""
    if not windows:
        raise ValidationError("baseline MAE on an empty window list")
    return (
        float(np.mean(np.abs(normalizer.mean_speed - windows.target_speed))),
        float(np.mean(np.abs(normalizer.mean_angle - windows.target_angle))),
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_net(path, kind: str, net, extra: Mapping[str, str]) -> None:
    """Write a driver or hazard net: arch, training split and seed, ``extra``, normalizer, provenance."""
    meta = {**format_keys(net.arch), **format_keys(_Training(net.trained_on, net.seed)), **extra,
            **format_keys(net.normalizer, "norm_"),
            **{f"prov_{k}": str(v) for k, v in sorted(net.provenance.items())}}
    save_checkpoint(path, kind, meta, net.params)


def _check_agrees(arch: BackboneArch, normalizer: Normalizer, params: ParameterStore, init) -> None:
    """The normalizer and the parameters must have the shapes ``arch`` gives
    them; the parameters are compared by name and shape with ``init(arch)``'s."""
    for stat in ("obs_mean", "obs_std"):
        size = getattr(normalizer, stat).size
        if size != arch.obs_dim:
            raise ValidationError(f"meta norm_{stat}: {size} values, obs_dim is {arch.obs_dim}")
    stored = [(name, p.data.shape) for name, p in params.items()]
    # a width beyond every stored dimension cannot match: reject it before init allocates it
    widest = max((d for _, shape in stored for d in shape), default=0)
    for f in fields(arch):
        if f.type == "int" and f.name != "k" and getattr(arch, f.name) > widest:
            raise ValidationError(f"meta {f.name}: {getattr(arch, f.name)} is no dimension of the parameters")
    expected = [(name, p.data.shape) for name, p in init(arch, np.random.default_rng(0)).items()]
    if stored != expected:
        got, want = next((g, w) for g, w in zip([*stored, None], [*expected, None]) if g != w)
        raise ValidationError(f"parameter {got or '(none)'} where the arch gives {want or '(none)'}")


def load_net(path, kind: str, init, build):
    """Read a ``kind`` checkpoint that ``save_net`` wrote; its parameters must
    be those ``init(arch, rng)`` creates. ``build(meta, **net)`` makes the
    net from the common fields. Every error names ``path``."""
    found, meta, params = load_checkpoint(path)
    if found != kind:
        raise ValidationError(f"{path}: expected a {kind} checkpoint, found kind {found!r}")
    try:
        arch = parse_keys(BackboneArch, meta, "meta")
        normalizer = parse_keys(Normalizer, meta, "meta", "norm_")
        _check_agrees(arch, normalizer, params, init)
        training = parse_keys(_Training, meta, "meta")
        provenance = {k[len("prov_"):]: v for k, v in meta.items() if k.startswith("prov_")}
        return build(meta, arch=arch, params=params, normalizer=normalizer, provenance=provenance,
                     **vars(training))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_driver(path, net: DriverNet) -> None:
    save_net(path, "driver", net, {})


def load_driver(path) -> DriverNet:
    return load_net(path, "driver", init_driver_params, lambda meta, **net: DriverNet(**net))
