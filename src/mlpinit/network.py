"""MLP topologies, forward/backward propagation, and gradient verification.

Hidden layers use ReLU; the output layer is a 4-way softmax trained with mean
cross-entropy. "N-layer" counts weight layers, so the 1-layer network is a
single 85->4 affine map plus softmax (multinomial logistic regression), the
2-layer network inserts a 50-unit hidden layer, and the 3-layer network uses
hidden sizes 50 and 20.

``forward``, ``backward`` and ``predict`` also run a stack of independent
models in lockstep (model ensembling by broadcasting): a stacked model has
weights (folds, out, in) and biases (folds, out), and takes batches
(folds, rows, 85) with labels (folds, rows). Fold k of every result is what
the same call gives for fold k alone, bit for bit.

All arithmetic of a step runs in one step plan per (model, batch rows): the
``ForwardPass`` that ``forward`` returns. It allocates once the batch,
pre-activations, activations, bool ReLU masks, deltas, float one-hot rows,
gradients and the softmax's row max and sum, and binds once the
transposed-weight, broadcast-bias, transposed-delta and per-class column
views, so a step makes no array and no view. Each layer's input carries a
column of ones and each layer's gradient is one (out, in + 1) block, its
weight gradient then its bias gradient: the bias is a weight on a constant
input 1 (Bishop 2006, *PRML* section 3.1), so one matmul of the transposed
delta with the input gives both, and the bias gradient, the delta's sum over
the rows, needs no call of its own. The forward pass adds the bias in a call
of its own: folding it into the matmul would change the pre-activations'
bits. A plan's gradients are the blocks of one flat vector, and
``_flat_stack`` builds a stacked model whose parameters are the blocks of
another, so the training loop (``harness._train``) updates every layer and
fold with a few calls on flat vectors, and keeps one plan per batch shape.
``forward`` checks its inputs and runs a fresh plan; ``backward`` checks
the labels and runs the plan's backward step. ``grad_check`` runs both on a
flat copy of its model, then reruns the forward step for every perturbed
entry of the copy's parameter vector, so no call writes into a model it is
given.
The softmax takes its row max and sum over the 4 classes as elementwise
calls on the class columns, summed in index order; numpy's own reductions
add fewer than 8 terms in that order, so the bits are theirs (see
``numerics._Softmax``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import N_CLASSES, N_FEATURES
from .errors import DivergedTrainingError, ShapeError, ValidationError, _check_real
from .initializers import InitScheme, initialize
from .numerics import Rng, _check_ints, _check_reals, _cross_entropy, _Softmax

HIDDEN_1 = 50
HIDDEN_2 = 20


class Topology(Enum):
    ONE_LAYER = 1
    TWO_LAYER = 2
    THREE_LAYER = 3

    @property
    def layer_dims(self) -> tuple[int, ...]:
        """Dimension chain input -> hiddens -> output."""
        return {
            Topology.ONE_LAYER: (N_FEATURES, N_CLASSES),
            Topology.TWO_LAYER: (N_FEATURES, HIDDEN_1, N_CLASSES),
            Topology.THREE_LAYER: (N_FEATURES, HIDDEN_1, HIDDEN_2, N_CLASSES),
        }[self]


@dataclass
class Layer:
    """One affine layer: weights (out_dim, in_dim) and bias (out_dim,).

    In a stacked model both carry a leading fold axis.
    """

    weights: np.ndarray
    bias: np.ndarray


@dataclass
class MlpModel:
    topology: Topology
    layers: list[Layer]

    @property
    def n_features(self) -> int:
        return self.layers[0].weights.shape[-1]

    @property
    def folds(self) -> tuple[int, ...]:
        """Stack shape: () for one model, (folds,) for a stack of models."""
        return self.layers[0].weights.shape[:-2]

    def fold(self, k: int) -> "MlpModel":
        """Model k of a stack, as a view of its parameters."""
        return MlpModel(
            topology=self.topology,
            layers=[Layer(weights=layer.weights[k], bias=layer.bias[k]) for layer in self.layers],
        )


@dataclass
class Gradients:
    """Loss gradients, shape-congruent with the model they came from."""

    d_weights: list[np.ndarray]
    d_bias: list[np.ndarray]


def _weights_and_bias(blocks: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The weight and bias views of (..., out, in + 1) layer blocks: every
    column but the last, and the last."""
    return [block[..., :-1] for block in blocks], [block[..., -1] for block in blocks]


def _flat_blocks(model: MlpModel, lead=(), flat=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """``flat``, or a new float64 vector of the right size, and per layer of
    ``model``, in order, a C-contiguous view of it of shape ``lead +
    model.folds + (out, in + 1)``: the layer's weights with its bias as one
    more column. Every parameter and gradient vector has this layout."""
    shapes = [lead + layer.bias.shape + (layer.weights.shape[-1] + 1,) for layer in model.layers]
    sizes = [math.prod(shape) for shape in shapes]
    if flat is None:
        flat = np.empty(sum(sizes))
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return flat, [part.reshape(shape) for part, shape in zip(parts, shapes)]


def build_model(rng: Rng, topology: Topology, scheme: InitScheme) -> MlpModel:
    """Initialize a model: weights per ``scheme`` (fan-in = input dim), biases zero."""
    dims = topology.layer_dims
    layers = []
    for in_dim, out_dim in zip(dims[:-1], dims[1:]):
        weights = initialize(rng, scheme, rows=out_dim, cols=in_dim)
        layers.append(Layer(weights=weights, bias=np.zeros(out_dim)))
    return MlpModel(topology=topology, layers=layers)


def _flat_stack(models: list[MlpModel]) -> tuple[np.ndarray, MlpModel]:
    """One flat float64 vector of the parameters of ``models``, and the
    stacked model over its views, whose fold k is a copy of ``models[k]``.

    The vector holds each layer as one (folds, out, in + 1) block, its
    weights then its bias as the last column, so an in-place update of the
    vector updates every layer's weights and bias.
    """
    params, blocks = _flat_blocks(models[0], (len(models),))
    weights, biases = _weights_and_bias(blocks)
    for k, model in enumerate(models):
        for w, b, layer in zip(weights, biases, model.layers):
            w[k] = layer.weights
            b[k] = layer.bias
    return params, MlpModel(models[0].topology, [Layer(w, b) for w, b in zip(weights, biases)])


def _check_batch(model: MlpModel, batch) -> np.ndarray:
    batch = _check_reals("batch", batch)
    folds = model.folds
    if batch.ndim != len(folds) + 2 or batch.shape[:-2] != folds:
        lead = "".join(f"{f}, " for f in folds)
        raise ShapeError(
            f"expected a batch of shape ({lead}rows, {model.n_features}), got {batch.shape}"
        )
    if batch.shape[-1] != model.n_features:
        raise ShapeError(
            f"batch has {batch.shape[-1]} features, model expects {model.n_features}"
        )
    return batch


class ForwardPass:
    """What ``forward`` returns and ``backward`` takes: a step plan, one
    step of ``model`` on batches of ``rows`` rows, with every buffer and
    view allocated and bound once.

    ``activations[0]`` is the input batch, also ``batch``, and
    ``activations[i]`` the output of layer i: ReLU for hidden layers, the
    softmax probabilities ``probs`` for the last. ``pre_activations[i]`` is
    layer i's affine output. Layer i's input is ``inputs[i]``, of shape
    (..., rows, in + 1): the input, then a column of ones that the plan sets
    once, so ``activations`` view the inputs without it. The backward step
    writes layer i's gradient into ``gradients[i]``, of shape (..., out,
    in + 1): the weight gradient, then the bias gradient as the last column,
    from one matmul of the transposed delta with ``inputs[i]``. The
    gradients are the blocks, in layer order, of the flat vector ``grad``:
    the one passed in, or a new one; the training loop passes one vector
    that every plan of a training shares.

    The training loop fills ``batch`` (or ``inputs[0]``, ones column and
    all, from features that carry one) and, before the backward step,
    ``one_hot``, the float one-hot rows of the batch's labels; then calls
    ``_forward`` and ``_backward``, which overwrite the plan's arrays and
    check nothing. The plan binds views of the model's parameter arrays, so
    an in-place update of those arrays is seen by the next step; replacing
    an array is not.
    """

    def __init__(self, model: MlpModel, rows: int, grad: np.ndarray | None = None):
        lead = model.folds + (rows,)
        self.inputs = [np.ones(lead + (layer.weights.shape[-1] + 1,)) for layer in model.layers]
        self.pre_activations = [np.empty(lead + layer.bias.shape[-1:]) for layer in model.layers]
        probs = np.empty(self.pre_activations[-1].shape)
        self.activations = [a[..., :-1] for a in self.inputs] + [probs]
        self.batch = self.activations[0]
        self.one_hot = np.empty_like(self.probs)
        self.grad, self.gradients = _flat_blocks(model, flat=grad)
        self._rows = rows
        deltas = [np.empty_like(z) for z in self.pre_activations]
        masks = [np.empty(z.shape, dtype=bool) for z in self.pre_activations[:-1]]
        # forward, per layer: (input, transposed weights, pre-activation,
        # broadcast bias, output)
        *self._hidden, self._output = [
            (a, layer.weights.swapaxes(-1, -2), z, layer.bias[..., None, :], out)
            for a, layer, z, out in zip(
                self.activations, model.layers, self.pre_activations, self.activations[1:]
            )
        ]
        self._softmax = _Softmax(self.pre_activations[-1], self.probs)
        self._output_delta = deltas[-1]
        # backward, top layer first: (transposed delta, input with ones,
        # gradient, and for every layer but the first the delta, weights,
        # the delta below and the ReLU mask and pre-activation that gate it)
        self._down = [
            (deltas[i].swapaxes(-1, -2), self.inputs[i], self.gradients[i])
            + ((deltas[i], model.layers[i].weights, deltas[i - 1], masks[i - 1],
                self.pre_activations[i - 1]) if i else (None,) * 5)
            for i in range(len(model.layers) - 1, -1, -1)
        ]

    @property
    def probs(self) -> np.ndarray:
        return self.activations[-1]

    def _forward(self) -> None:
        """Run ``batch`` through the network."""
        for a, weights_t, z, bias, out in self._hidden:
            np.matmul(a, weights_t, out=z)
            z += bias
            np.maximum(z, 0.0, out=out)
        a, weights_t, z, bias, _ = self._output
        np.matmul(a, weights_t, out=z)
        z += bias
        self._softmax()

    def _backward(self) -> None:
        """Write the gradients of the last forward step (see ``backward``)
        into ``gradients``."""
        np.subtract(self.probs, self.one_hot, out=self._output_delta)
        self._output_delta /= self._rows
        for delta_t, a, gradient, delta, weights, below, mask, z in self._down:
            np.matmul(delta_t, a, out=gradient)
            if below is not None:
                np.matmul(delta, weights, out=below)
                np.greater(z, 0.0, out=mask)
                below *= mask


def _one_hot(labels: np.ndarray) -> np.ndarray:
    """Float one-hot rows of checked labels, for ``ForwardPass.one_hot``."""
    return np.eye(N_CLASSES)[labels]


def forward(model: MlpModel, batch) -> ForwardPass:
    """Run the batch through the network, retaining intermediates for backprop."""
    batch = _check_batch(model, batch)
    fwd = ForwardPass(model, batch.shape[-2])
    np.copyto(fwd.batch, batch)
    fwd._forward()
    return fwd


def backward(fwd: ForwardPass, labels) -> Gradients:
    """Gradients of the mean cross-entropy loss for the forward pass, with
    respect to the parameters of the model it ran.

    The output delta is (probs - one_hot) / batch_size; the ReLU gate passes
    gradient only where the pre-activation was strictly positive (subgradient
    0 at exactly 0). The loss is a mean over the rows, so a batch of no rows
    is a ``ShapeError``. The pass computes the gradients in its own arrays,
    and each call returns copies of them, so a second call on the same pass
    leaves the first one's arrays as they were. Each layer's ``d_weights``
    and ``d_bias`` are views of one (..., out, in + 1) array, the bias
    gradient its last column, which one matmul writes (see ``ForwardPass``).
    So the bias gradient is the delta's sum over the rows as the BLAS kernel
    adds it. In a probe of OpenBLAS kernels, at up to 36 rows it had the
    bits of numpy's in-order sum under SkylakeX, Haswell and Sandybridge,
    but not under Katmai (what ``OPENBLAS_CORETYPE=Prescott`` runs) or
    Nehalem, nor at 233 rows and more under SkylakeX (257 under Haswell).
    """
    probs = fwd.probs
    labels = _check_ints("label", labels, probs.shape[:-1], 0, probs.shape[-1])
    if probs.shape[-2] == 0:
        raise ShapeError("the loss is a mean over the rows, so the batch needs at least one row")
    np.copyto(fwd.one_hot, _one_hot(labels))
    fwd._backward()
    return Gradients(*_weights_and_bias([gradient.copy() for gradient in fwd.gradients]))


def predict(model: MlpModel, batch) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index.

    Raises DivergedTrainingError if a probability is not finite, as for a
    model whose parameters overflowed in training: a NaN row has no class.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        probs = forward(model, batch).probs
    # a softmax row is all NaN or all in [0, 1]: the sum is finite exactly when every entry is
    if not math.isfinite(probs.sum()):
        raise DivergedTrainingError("non-finite class probabilities: the model has diverged")
    return np.argmax(probs, axis=-1)


def grad_check(model: MlpModel, batch, labels, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    Returns the maximum over all parameters of
    ``|analytic - numeric| / max(|analytic| + |numeric|, 1e-12)``, or
    ``math.inf`` if any of these is NaN (a loss or gradient that is not
    finite), so a non-finite check never reads as a pass. Like ``backward``,
    it needs a batch of at least one row. It perturbs a flat copy of
    ``model`` (see ``_flat_stack``), one entry of its parameter vector at a
    time, and only reads ``model``, so read-only arrays are checked too.
    """
    _check_real("epsilon", epsilon)
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValidationError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    if model.folds != ():
        raise ShapeError(
            f"grad_check takes one model, got a stack of shape {model.folds}; "
            f"check each model.fold(k) on its own"
        )
    # A flat copy of the model, in the training's block layout: forward and
    # backward check the inputs, and every perturbed loss then reruns the
    # pass's forward step, which sees each in-place perturbation of the
    # copy's parameter vector. The caller's model is only read.
    params, copy = _flat_stack([model])
    fwd = forward(copy.fold(0), batch)
    backward(fwd, labels)
    labels = np.asarray(labels)

    def loss() -> float:
        fwd._forward()
        return _cross_entropy(fwd.probs, labels)

    max_err = 0.0
    for idx, a in enumerate(fwd.grad.tolist()):
        original = params[idx]
        params[idx] = original + epsilon
        loss_plus = loss()
        params[idx] = original - epsilon
        loss_minus = loss()
        params[idx] = original
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        err = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-12)
        if math.isnan(err):
            return math.inf
        if err > max_err:
            max_err = err
    return max_err
