"""An independent statement of the training loop that ``harness._train``
runs for each of its models, in plain Python floats.

Everything here is lists of floats, ``math.exp`` and Python arithmetic, one
record at a time; no numpy array does any of the arithmetic. It shares with
the library only its inputs: the initial weights (``build_model``'s draws)
and each epoch's order (``Rng.permutation``), which the caller passes in.
So it states the algorithm once more, apart from the library's step plans,
flat vectors, ones columns and shared gradient blocks:

- each epoch walks that epoch's permutation of the row map in minibatches
  of ``batch_size`` rows, the last one short;
- hidden layers are ReLU, the output a softmax, the loss the mean
  cross-entropy over the minibatch;
- backpropagation passes a delta through a ReLU only where the unit's
  pre-activation is strictly positive;
- after each minibatch every parameter takes the classic momentum step
  ``v <- m * v + g``, ``theta <- theta - lr * v``, from gradients all taken
  at the minibatch's starting parameters.

The float operations are grouped differently, so the library's results
equal these within a rounding tolerance, not bit for bit.
"""

from __future__ import annotations

import math


def train(features, labels, rows, layers, permutation, hp, epochs):
    """One model trained on ``features[r]`` for ``r`` in ``rows``.

    ``features`` is a list of float lists, ``labels`` a list of classes,
    ``rows`` the row map: a list of indices into both. ``layers`` holds the
    initial ``(weights, bias)`` of each layer as lists, ``weights[j][i]``
    joining input i to unit j. ``permutation(n)`` returns one epoch's order
    of the ``n`` row-map positions. ``hp`` has ``batch_size``,
    ``learning_rate`` and ``momentum``. Returns the trained layers in the
    same form.
    """
    weights = [[list(row) for row in w] for w, _ in layers]
    biases = [list(b) for _, b in layers]
    v_weights = [[[0.0] * len(row) for row in w] for w in weights]
    v_biases = [[0.0] * len(b) for b in biases]
    n = len(rows)
    for _ in range(epochs):
        order = [rows[position] for position in permutation(n)]
        for start in range(0, n, hp.batch_size):
            batch = order[start:start + hp.batch_size]
            g_weights, g_biases = _gradients(
                weights, biases, [features[r] for r in batch], [labels[r] for r in batch]
            )
            # one list of parameters per weight row, and per layer's bias
            for params, velocities, grads in zip(
                [*weights, biases], [*v_weights, v_biases], [*g_weights, g_biases]
            ):
                for k, (p, v, g) in enumerate(zip(params, velocities, grads)):
                    velocities[k] = [hp.momentum * vi + gi for vi, gi in zip(v, g)]
                    params[k] = [pi - hp.learning_rate * vi for pi, vi in zip(p, velocities[k])]
    return list(zip(weights, biases))


def _gradients(weights, biases, xs, ys):
    """Gradients of the mean cross-entropy over the records ``xs`` with
    classes ``ys``, summed record by record: per layer, a list of rows of
    weight gradients, and the bias gradients."""
    m = len(xs)
    g_weights = [[[0.0] * len(row) for row in w] for w in weights]
    g_biases = [[0.0] * len(b) for b in biases]
    for x, y in zip(xs, ys):
        inputs, pre = [x], []
        for layer, (w, b) in enumerate(zip(weights, biases)):
            z = [bj + sum(wji * ai for wji, ai in zip(row, inputs[-1])) for row, bj in zip(w, b)]
            pre.append(z)
            if layer < len(weights) - 1:
                inputs.append([zi if zi > 0.0 else 0.0 for zi in z])
        top = max(pre[-1])
        exps = [math.exp(zc - top) for zc in pre[-1]]
        total = sum(exps)
        delta = [(e / total - (1.0 if c == y else 0.0)) / m for c, e in enumerate(exps)]
        for layer in range(len(weights) - 1, -1, -1):
            a = inputs[layer]
            for j, dj in enumerate(delta):
                g_weights[layer][j] = [g + dj * ai for g, ai in zip(g_weights[layer][j], a)]
                g_biases[layer][j] += dj
            if layer:
                w, gate = weights[layer], pre[layer - 1]
                delta = [
                    sum(dj * w[j][i] for j, dj in enumerate(delta)) if gate[i] > 0.0 else 0.0
                    for i in range(len(a))
                ]
    return g_weights, g_biases
