"""Empirical check of the four initializer variants.

Draws large weight matrices for every (family, distribution) combination and
compares the pooled empirical variance against the closed-form target:
1/fan_in for Xavier, 2/fan_in for Kaiming. Also shows that the uniform
variants respect their hard bounds sqrt(3/fan_in) and sqrt(6/fan_in), and
that Kaiming's target is exactly twice Xavier's.
"""

import numpy as np

from mlpinit import ALL_SCHEMES, DistKind, Rng, initialize, target_variance, uniform_bound

rng = Rng(seed=1)

print("scheme            fan_in   target var   empirical var      error")
for scheme in ALL_SCHEMES:
    for fan_in in (20, 50, 85, 256):
        rows = -(-100_000 // fan_in)
        w = initialize(rng, scheme, rows=rows, cols=fan_in)
        target = target_variance(scheme, fan_in)
        rel = w.var() / target - 1.0
        print(
            f"{str(scheme):<17} {fan_in:>6}   {target:.6f}     {w.var():.6f}   {rel:+8.2%}"
        )

print("\nuniform variants stay inside their bounds:")
for scheme in ALL_SCHEMES:
    if scheme.dist is not DistKind.UNIFORM:
        continue
    w = initialize(rng, scheme, rows=1000, cols=85)
    bound = uniform_bound(scheme, 85)
    print(f"  {scheme}: max |w| = {np.abs(w).max():.6f} <= bound {bound:.6f}")

print("\nKaiming doubles Xavier's variance at every fan-in:")
for fan_in in (1, 10, 85, 5000):
    x = target_variance(ALL_SCHEMES[0], fan_in)
    k = target_variance(ALL_SCHEMES[2], fan_in)
    print(f"  d={fan_in:<5}  xavier {x:.3e}  kaiming {k:.3e}  ratio {k / x:.1f}")
