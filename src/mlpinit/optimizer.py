"""SGD with classic (Polyak) momentum and the per-configuration presets.

The update is ``v <- m * v + g`` then ``theta <- theta - lr * v``: no Nesterov
lookahead, no (1 - m) dampening. With momentum 0 it reduces exactly to vanilla
gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ShapeError, ValidationError, _check_types
from .initializers import Family
from .network import Gradients, MlpModel, Topology


@dataclass(frozen=True)
class Hyperparams:
    batch_size: int
    learning_rate: float
    momentum: float

    def __post_init__(self):
        _check_types(self, (
            ("batch_size", (int,), "a positive integer"),
            ("learning_rate", (Real,), "a real number"),
            ("momentum", (Real,), "a real number"),
        ))
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be a positive integer, got {self.batch_size!r}")
        if not self.learning_rate > 0:
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must lie in [0, 1), got {self.momentum}")


# Tuned (batch size, learning rate, momentum) per topology x family.
_PRESETS = {
    (Topology.ONE_LAYER, Family.XAVIER): Hyperparams(24, 0.0001, 0.6),
    (Topology.TWO_LAYER, Family.XAVIER): Hyperparams(24, 0.006, 0.7),
    (Topology.THREE_LAYER, Family.XAVIER): Hyperparams(36, 0.006, 0.7),
    (Topology.ONE_LAYER, Family.KAIMING): Hyperparams(36, 0.0001, 0.6),
    (Topology.TWO_LAYER, Family.KAIMING): Hyperparams(36, 0.003, 0.7),
    (Topology.THREE_LAYER, Family.KAIMING): Hyperparams(36, 0.0002, 0.6),
}


def preset_hyperparams(topology: Topology, family: Family) -> Hyperparams:
    """The published preset for one (topology, initializer family) cell."""
    return _PRESETS[(topology, family)]


class SgdMomentumState:
    """Per-parameter velocity buffers, zero-initialized to match a model."""

    def __init__(self, model: MlpModel):
        self.v_weights = [np.zeros_like(layer.weights) for layer in model.layers]
        self.v_bias = [np.zeros_like(layer.bias) for layer in model.layers]


def sgd_step(
    state: SgdMomentumState, model: MlpModel, grads: Gradients, hp: Hyperparams
) -> None:
    """One in-place momentum update of every weight matrix and bias vector.

    The update is elementwise, so a stacked model (see ``network``) updates
    every fold at once, each exactly as it would update alone.
    """
    n = len(model.layers)
    if len(grads.d_weights) != n or len(state.v_weights) != n:
        raise ShapeError(
            f"model has {n} layers but gradients cover {len(grads.d_weights)} "
            f"and velocity {len(state.v_weights)}"
        )
    for layer, v_w, v_b, d_w, d_b in zip(
        model.layers, state.v_weights, state.v_bias, grads.d_weights, grads.d_bias
    ):
        if v_w.shape != layer.weights.shape or d_w.shape != layer.weights.shape:
            raise ShapeError(
                f"weight shapes disagree: model {layer.weights.shape}, "
                f"gradient {d_w.shape}, velocity {v_w.shape}"
            )
        if v_b.shape != layer.bias.shape or d_b.shape != layer.bias.shape:
            raise ShapeError(
                f"bias shapes disagree: model {layer.bias.shape}, "
                f"gradient {d_b.shape}, velocity {v_b.shape}"
            )
    # _sgd_update leaves lr * v in its gradient argument; the copies keep
    # the caller's gradients as they were.
    for layer, v_w, v_b, d_w, d_b in zip(
        model.layers, state.v_weights, state.v_bias, grads.d_weights, grads.d_bias
    ):
        _sgd_update(layer.weights, v_w, d_w.copy(), hp)
        _sgd_update(layer.bias, v_b, d_b.copy(), hp)


def _sgd_update(params: np.ndarray, velocity: np.ndarray, grad: np.ndarray, hp: Hyperparams) -> None:
    """The momentum update of one array, without checks; overwrites ``grad``.

    ``grad`` is left holding ``lr * v``. A caller that holds all its
    parameters, velocity and gradients in one flat vector each updates every
    layer and fold in four ufunc calls.
    """
    # v * lr has the bits of lr * v: IEEE multiplication commutes
    velocity *= hp.momentum
    velocity += grad
    params -= np.multiply(velocity, hp.learning_rate, out=grad)
