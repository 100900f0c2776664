"""Versioned text checkpoints: header, metadata lines, named parameter blocks.

Floats are written in shortest round-trip decimal form, so save -> load ->
save is byte-identical and reloaded parameters are bit-exact.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..errors import ArtifactVersionError, MissingArtifactError, ValidationError
from .optim import ParameterStore

CHECKPOINT_FORMAT = "#drivlab-ckpt v1"


def _fmt(x: float) -> str:
    return repr(float(x))


def save_checkpoint(path, kind: str, meta: dict[str, str], store: ParameterStore) -> None:
    lines = [CHECKPOINT_FORMAT, f"kind {kind}"]
    for key, value in meta.items():
        value = str(value)
        if "\n" in value or (key and any(ch.isspace() for ch in key)):
            raise ValidationError(f"checkpoint meta {key!r} must be single-line, space-free key")
        lines.append(f"meta {key} {value}")
    for name, tensor in store.items():
        # a 0-d parameter has no dimensions after its name
        lines.append(" ".join(["param", name, *(str(s) for s in tensor.data.shape)]))
        lines.append(" ".join(_fmt(v) for v in tensor.data.reshape(-1)))
    lines.append("end")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[str, dict[str, str], ParameterStore]:
    if not os.path.exists(path):
        raise MissingArtifactError(f"missing artifact: checkpoint {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_FORMAT:
        head = lines[0] if lines else ""
        raise ArtifactVersionError(
            f"{path}: unsupported checkpoint header {head!r}; retrain to produce "
            f"{CHECKPOINT_FORMAT}"
        )
    if len(lines) < 2 or not lines[1].startswith("kind "):
        raise ValidationError(f"{path}: checkpoint missing kind line")
    kind = lines[1][len("kind "):]
    meta: dict[str, str] = {}
    store = ParameterStore()
    i = 2
    while i < len(lines):
        line = lines[i]
        if line == "end":
            return kind, meta, store
        if line.startswith("meta "):
            key, _, value = line[len("meta "):].partition(" ")
            meta[key] = value
            i += 1
        elif line.startswith("param "):
            parts = line.split(" ")
            name = parts[1]
            if i + 1 >= len(lines):
                raise ValidationError(f"{path}: param {name} has no value line")
            try:
                shape = tuple(int(s) for s in parts[2:])
                values = np.array(lines[i + 1].split(" "), dtype=np.float64)
            except ValueError:
                raise ValidationError(f"{path}:{i + 1}: malformed param {name}") from None
            if any(d < 0 for d in shape):
                raise ValidationError(f"{path}:{i + 1}: param {name} has a negative dimension in {shape}")
            if values.size != math.prod(shape):
                raise ValidationError(f"{path}: param {name} has {values.size} values, shape {shape}")
            if not np.all(np.isfinite(values)):
                raise ValidationError(f"{path}: param {name} has non-finite values")
            store.add(name, values.reshape(shape))
            i += 2
        else:
            raise ValidationError(f"{path}: unexpected checkpoint line {line!r}")
    raise ValidationError(f"{path}: truncated checkpoint (no end marker)")
