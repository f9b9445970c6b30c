"""Finite-difference verification of the hand-written backpropagation.

For every topology and initializer family, compares the analytic gradient of
the mean cross-entropy loss against central differences
(L(theta + eps) - L(theta - eps)) / (2 eps) for every single parameter, and
reports the worst relative error. Well below 1e-4 means the backward pass is
trustworthy; a dead-ReLU construction shows the gate handles zero gradients
exactly.
"""

import numpy as np

from mlpinit import (
    DistKind,
    Family,
    InitScheme,
    Rng,
    Topology,
    backward,
    build_model,
    forward,
    grad_check,
)

rng = Rng(901)
batch = rng.normal(8 * 85).reshape(8, 85)
labels = np.array([rng.randbelow(4) for _ in range(8)])

print("configuration                 parameters   max relative error")
for topology in Topology:
    for family in Family:
        scheme = InitScheme(family, DistKind.NORMAL)
        model = build_model(Rng(77), topology, scheme)
        n_params = sum(l.weights.size + l.bias.size for l in model.layers)
        err = grad_check(model, batch, labels, epsilon=1e-5)
        print(f"{topology.value}-layer + {family.value:<8}     {n_params:>12}   {err:.3e}")

print("\ndead ReLU unit (never fires): gradient is exactly zero on both sides")
model = build_model(Rng(21), Topology.TWO_LAYER, InitScheme(Family.KAIMING, DistKind.NORMAL))
model.layers[0].weights[0, :] = -np.abs(model.layers[0].weights[0, :])
model.layers[0].bias[0] = -1.0
x = np.abs(Rng(22).normal(4 * 85)).reshape(4, 85)
y = np.array([0, 1, 1, 3])
grads = backward(forward(model, x), y)
print(f"  analytic d_weights for the dead unit: {np.abs(grads.d_weights[0][0]).max()}")
print(f"  grad check still passes: {grad_check(model, x, y, epsilon=1e-5):.3e}")
