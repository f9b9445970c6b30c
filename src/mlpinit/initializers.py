"""Xavier and Kaiming weight initialization, normal and uniform variants.

Both families target a weight variance that keeps the forward signal variance
from shrinking layer to layer: 1/fan_in for Xavier (linear layers), 2/fan_in
for Kaiming (compensating for ReLU zeroing half of a symmetric pre-activation
distribution). The uniform variants use the half-width whose variance matches
the same target, i.e. sqrt(3/fan_in) and sqrt(6/fan_in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import _check_int
from .numerics import Rng


class Family(Enum):
    XAVIER = "xavier"
    KAIMING = "kaiming"


class DistKind(Enum):
    NORMAL = "normal"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class InitScheme:
    """One of the four initialization variants: family x distribution."""

    family: Family
    dist: DistKind

    def __str__(self) -> str:
        return f"{self.family.value}-{self.dist.value}"


XAVIER_NORMAL = InitScheme(Family.XAVIER, DistKind.NORMAL)
XAVIER_UNIFORM = InitScheme(Family.XAVIER, DistKind.UNIFORM)
KAIMING_NORMAL = InitScheme(Family.KAIMING, DistKind.NORMAL)
KAIMING_UNIFORM = InitScheme(Family.KAIMING, DistKind.UNIFORM)

ALL_SCHEMES = (XAVIER_NORMAL, XAVIER_UNIFORM, KAIMING_NORMAL, KAIMING_UNIFORM)

# Variance numerator per family: Kaiming doubles Xavier's 1/d to undo the
# halving of second moments that ReLU applies to a zero-symmetric input.
_GAIN = {Family.XAVIER: 1.0, Family.KAIMING: 2.0}


def target_variance(scheme: InitScheme, fan_in: int) -> float:
    """Weight variance the scheme aims for: 1/fan_in (Xavier) or 2/fan_in (Kaiming).

    Independent of the distribution variant; fan_in is the layer's input
    dimension (number of columns of W under y = W x + b).
    """
    fan_in = _check_int("fan_in", fan_in, 1)
    return _GAIN[scheme.family] / fan_in


def uniform_bound(scheme: InitScheme, fan_in: int) -> float:
    """Half-width of the centered uniform whose variance equals the target.

    A Uniform(-b, b) has variance b^2/3, so b = sqrt(3 * target_variance):
    sqrt(3/fan_in) for Xavier, sqrt(6/fan_in) for Kaiming.
    """
    fan_in = _check_int("fan_in", fan_in, 1)
    return math.sqrt(3.0 * _GAIN[scheme.family] / fan_in)


def initialize(rng: Rng, scheme: InitScheme, rows: int, cols: int) -> np.ndarray:
    """Draw a rows x cols weight matrix with i.i.d. entries per ``scheme``.

    A weight matrix is applied as W @ x, so its fan-in is ``cols``: entries
    have mean 0 and variance target_variance(scheme, cols). ``rows`` and
    ``cols`` must be positive integers.
    """
    n = _check_int("rows", rows, 1) * _check_int("cols", cols, 1)
    if scheme.dist is DistKind.NORMAL:
        flat = rng.normal(n, 0.0, target_variance(scheme, cols))
    else:
        bound = uniform_bound(scheme, cols)
        flat = rng.uniform(-bound, bound, n)
    return flat.reshape(rows, cols)
