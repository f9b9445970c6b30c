"""Why the factor of 2 matters: signal variance through a deep ReLU stack.

Propagates a standard-normal batch through a 10-layer stack of width 256,
applying ReLU before every linear layer. Each ReLU halves the second moment
of a zero-symmetric signal, so Xavier layers (weight variance 1/d) lose half
the signal per layer while Kaiming layers (2/d) restore it. Layer by layer,
Xavier decays toward 2^-10 of the input variance and Kaiming hovers near 1.
"""

import numpy as np

from mlpinit import KAIMING_NORMAL, XAVIER_NORMAL, Rng, initialize, relu

WIDTH, DEPTH, BATCH = 256, 10, 10_000


def propagate(scheme, seed):
    rng = Rng(seed)
    x = rng.normal(BATCH * WIDTH).reshape(BATCH, WIDTH)
    ratios = []
    signal = x
    for _ in range(DEPTH):
        w = initialize(rng, scheme, rows=WIDTH, cols=WIDTH)
        signal = relu(signal) @ w.T
        ratios.append(signal.var() / x.var())
    return ratios


xavier = propagate(XAVIER_NORMAL, seed=3000)
kaiming = propagate(KAIMING_NORMAL, seed=3000)

print("layer   xavier var ratio   kaiming var ratio")
for i, (xv, kv) in enumerate(zip(xavier, kaiming), start=1):
    print(f"{i:>5}   {xv:>16.5f}   {kv:>17.5f}")

print(f"\ntheoretical xavier decay after {DEPTH} layers: 2^-{DEPTH} = {2.0**-DEPTH:.5f}")

print("\naveraged over 5 seeds:")
xv = np.mean([propagate(XAVIER_NORMAL, s)[-1] for s in range(3000, 3005)])
kv = np.mean([propagate(KAIMING_NORMAL, s)[-1] for s in range(3000, 3005)])
print(f"  xavier layer-10 ratio  {xv:.5f}")
print(f"  kaiming layer-10 ratio {kv:.5f}")
