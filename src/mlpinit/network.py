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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import N_CLASSES, N_FEATURES
from .errors import ShapeError, ValidationError
from .initializers import InitScheme, initialize
from .numerics import Rng, _check_labels, _softmax, cross_entropy

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

    @property
    def n_weight_layers(self) -> int:
        return len(self.layer_dims) - 1


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

    def parameter_arrays(self):
        """All parameter arrays, weights before bias per layer."""
        for layer in self.layers:
            yield layer.weights
            yield layer.bias


@dataclass
class Gradients:
    """Loss gradients, shape-congruent with the model they came from.

    ``deltas[i]`` is backward's scratch for the loss gradient at layer i's
    output; it is empty for gradients that ``backward`` did not fill.
    """

    d_weights: list[np.ndarray]
    d_bias: list[np.ndarray]
    deltas: list[np.ndarray] = field(default_factory=list, repr=False)

    @classmethod
    def empty(cls, model: MlpModel, rows: int) -> "Gradients":
        """Uninitialized arrays for ``backward(..., out=)`` on batches of ``rows``."""
        return cls(
            d_weights=[np.empty(layer.weights.shape) for layer in model.layers],
            d_bias=[np.empty(layer.bias.shape) for layer in model.layers],
            deltas=_layer_outputs(model, rows),
        )


@dataclass
class ForwardPass:
    """Everything backward needs: per-layer inputs, pre-activations, probs.

    ``activations[0]`` is the input batch, ``activations[i]`` the output of
    layer i (ReLU for hidden layers, softmax probabilities for the last).
    """

    activations: list[np.ndarray]
    pre_activations: list[np.ndarray]

    @classmethod
    def empty(cls, model: MlpModel, rows: int) -> "ForwardPass":
        """Uninitialized arrays for ``forward(..., out=)`` on batches of ``rows``.

        ``activations[0]`` is a batch-shaped buffer that a caller may fill and
        pass as the batch; forward stores whatever batch it gets there.
        """
        return cls(
            activations=[np.empty(model.folds + (rows, model.n_features))]
            + _layer_outputs(model, rows),
            pre_activations=_layer_outputs(model, rows),
        )

    @property
    def probs(self) -> np.ndarray:
        return self.activations[-1]


def _layer_outputs(model: MlpModel, rows: int) -> list[np.ndarray]:
    """One uninitialized array per layer, shaped like its output on ``rows`` rows."""
    return [np.empty(model.folds + (rows, layer.bias.shape[-1])) for layer in model.layers]


def build_model(rng: Rng, topology: Topology, scheme: InitScheme) -> MlpModel:
    """Initialize a model: weights per ``scheme`` with fan_in = input dim, biases zero."""
    dims = topology.layer_dims
    layers = []
    for in_dim, out_dim in zip(dims[:-1], dims[1:]):
        weights = initialize(rng, scheme, fan_in=in_dim, rows=out_dim, cols=in_dim)
        layers.append(Layer(weights=weights, bias=np.zeros(out_dim)))
    return MlpModel(topology=topology, layers=layers)


def stack_models(models: list[MlpModel]) -> MlpModel:
    """One stacked model whose fold k is a copy of ``models[k]``."""
    layers = [
        Layer(
            weights=np.stack([layer.weights for layer in group]),
            bias=np.stack([layer.bias for layer in group]),
        )
        for group in zip(*(model.layers for model in models))
    ]
    return MlpModel(topology=models[0].topology, layers=layers)


def _check_batch(model: MlpModel, batch) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
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


def forward(model: MlpModel, batch, out: ForwardPass | None = None) -> ForwardPass:
    """Run the batch through the network, retaining intermediates for backprop.

    ``out`` is a ForwardPass from an earlier call with a model of the same
    topology and a batch of the same shape (or from ``ForwardPass.empty``).
    Its arrays are overwritten and it is returned, so a training loop need
    not allocate them at every step; the batch itself is stored, not copied.
    """
    a = _check_batch(model, batch)
    if out is None:
        out = ForwardPass.empty(model, a.shape[-2])
    elif len(out.pre_activations) != len(model.layers) or out.activations[0].shape != a.shape:
        raise ShapeError(
            f"out holds a {len(out.pre_activations)}-layer pass over batches of shape "
            f"{out.activations[0].shape}, not {len(model.layers)} layers over {a.shape}"
        )
    return _forward(model, a, out)


def _forward(model: MlpModel, batch: np.ndarray, out: ForwardPass) -> ForwardPass:
    """forward without the checks, for callers that checked their inputs once."""
    a = out.activations[0] = batch
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        z = np.matmul(a, layer.weights.swapaxes(-1, -2), out=out.pre_activations[i])
        z += layer.bias[..., None, :]
        a = out.activations[i + 1]
        if i == last:
            _softmax(z, out=a)
        else:
            np.maximum(z, 0.0, out=a)
    return out


def backward(
    model: MlpModel, fwd: ForwardPass, labels, out: Gradients | None = None
) -> Gradients:
    """Gradients of the mean cross-entropy loss for the cached forward pass.

    The output delta is (probs - one_hot) / batch_size; the ReLU gate passes
    gradient only where the pre-activation was strictly positive (subgradient
    0 at exactly 0). ``out`` is a Gradients from an earlier call with the
    same shapes (or from ``Gradients.empty``); it is overwritten and returned.
    """
    probs = fwd.probs
    n_classes = probs.shape[-1]
    labels = _check_labels(labels, probs.shape[:-1], n_classes)
    n_layers = len(model.layers)
    if len(fwd.activations) != n_layers + 1 or len(fwd.pre_activations) != n_layers:
        raise ShapeError("forward cache does not match the model's layer count")
    for i, (layer_input, layer) in enumerate(zip(fwd.activations, model.layers)):
        weights = layer.weights
        if layer_input.shape[:-2] != weights.shape[:-2] or layer_input.shape[-1] != weights.shape[-1]:
            raise ShapeError(
                f"cached activation {layer_input.shape} does not match "
                f"layer {i} weights {weights.shape}"
            )
    if out is None:
        out = Gradients.empty(model, probs.shape[-2])
    elif len(out.deltas) != n_layers or out.deltas[-1].shape != probs.shape:
        shape = out.deltas[-1].shape if out.deltas else None
        raise ShapeError(
            f"out holds {len(out.deltas)}-layer gradients for outputs of shape {shape}, "
            f"not {n_layers} layers for {probs.shape}"
        )
    return _backward(model, fwd, labels, out)


def _backward(
    model: MlpModel, fwd: ForwardPass, labels: np.ndarray, out: Gradients
) -> Gradients:
    """backward without the checks, for callers that checked their inputs once."""
    probs = fwd.probs
    delta = out.deltas[-1]
    np.copyto(delta, probs)
    # a view of the C-contiguous delta: one row per (fold, sample)
    delta.reshape(-1, probs.shape[-1])[np.arange(labels.size), labels.ravel()] -= 1.0
    delta /= probs.shape[-2]
    for i in range(len(model.layers) - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), fwd.activations[i], out=out.d_weights[i])
        delta.sum(axis=-2, out=out.d_bias[i])
        if i > 0:
            delta = np.matmul(delta, model.layers[i].weights, out=out.deltas[i - 1])
            delta *= fwd.pre_activations[i - 1] > 0.0
    return out


def batch_loss(model: MlpModel, batch, labels) -> float:
    """Mean cross-entropy of the model's predictions on ``batch``."""
    return cross_entropy(forward(model, batch).probs, labels)


def predict(model: MlpModel, batch) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    return np.argmax(forward(model, batch).probs, axis=-1)


def grad_check(model: MlpModel, batch, labels, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    Returns the maximum over all parameters of
    ``|analytic - numeric| / max(|analytic| + |numeric|, 1e-12)``.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValidationError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    if model.folds != ():
        raise ShapeError(
            f"grad_check takes one model, got a stack of shape {model.folds}; "
            f"check each model.fold(k) on its own"
        )
    batch = _check_batch(model, batch)
    grads = backward(model, forward(model, batch), labels)
    max_err = 0.0
    for layer, d_w, d_b in zip(model.layers, grads.d_weights, grads.d_bias):
        for params, analytic in ((layer.weights, d_w), (layer.bias, d_b)):
            flat_grad = analytic.ravel()
            for idx in range(params.size):
                original = params.flat[idx]
                params.flat[idx] = original + epsilon
                loss_plus = batch_loss(model, batch, labels)
                params.flat[idx] = original - epsilon
                loss_minus = batch_loss(model, batch, labels)
                params.flat[idx] = original
                numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
                a = flat_grad[idx]
                err = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-12)
                if err > max_err:
                    max_err = err
    return max_err
