"""SGD with classic (Polyak) momentum.

The update is ``v <- m * v + g`` then ``theta <- theta - lr * v``: no Nesterov
lookahead, no (1 - m) dampening. With momentum 0 it reduces exactly to vanilla
gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ShapeError, ValidationError, _check_types


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


def sgd_step(params: np.ndarray, velocity: np.ndarray, grad: np.ndarray, hp: Hyperparams) -> None:
    """One in-place momentum update of ``params`` and ``velocity``; overwrites ``grad``.

    ``grad`` is left holding ``lr * v``. The update is elementwise, so one
    call on flat vectors that hold every layer of every stacked fold (see
    ``network``) updates each exactly as it would update alone. Raises
    ShapeError, before any write, when the three shapes differ.
    """
    if not params.shape == velocity.shape == grad.shape:
        raise ShapeError(
            f"shapes disagree: parameters {params.shape}, velocity "
            f"{velocity.shape}, gradient {grad.shape}"
        )
    # v * lr has the bits of lr * v: IEEE multiplication commutes
    velocity *= hp.momentum
    velocity += grad
    params -= np.multiply(velocity, hp.learning_rate, out=grad)
