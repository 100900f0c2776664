"""Minimal reverse-mode autodiff engine with the layers, losses and optimizer
used by the driving and hazard networks. 64-bit floats throughout."""

from .tensor import (
    Tensor,
    add,
    concat,
    cross_entropy_loss,
    dropout,
    l2_loss,
    lstm_seq,
    no_grad,
    scale,
)
from .optim import ParameterStore, adam_step
from .nn import glorot_uniform, init_linear, init_lstm, linear
from .checkpoint import CHECKPOINT_FORMAT, load_checkpoint, save_checkpoint

__all__ = [
    "Tensor", "add", "concat", "cross_entropy_loss", "dropout", "l2_loss",
    "lstm_seq", "no_grad", "scale",
    "ParameterStore", "adam_step",
    "glorot_uniform", "init_linear", "init_lstm", "linear",
    "CHECKPOINT_FORMAT", "load_checkpoint", "save_checkpoint",
]
