"""Dense float64 matrix helpers, activations, and a seeded deterministic RNG.

Numeric state lives in ``numpy`` arrays of 64-bit floats: 2-D matrices for
one model, with a leading fold axis when several models train in lockstep
(see ``network``). Randomness
comes from :class:`Rng`, a counter-based SplitMix64 generator implemented with
pure unsigned 64-bit integer arithmetic, so a given seed produces bit-identical
streams on every platform. Normal draws use the Box-Muller transform over that
same stream; no platform RNG is ever consulted.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def as_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a 2-D float64 array, the library's sole container."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def relu(x) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max-subtraction so large logits cannot overflow.

    ``logits`` is a (rows, classes) matrix or a (folds, rows, classes) stack;
    each row of each fold is normalized on its own.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim not in (2, 3):
        raise ShapeError(f"expected a 2-D matrix or 3-D stack, got shape {logits.shape}")
    return _softmax(logits)


def _softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """softmax without the shape check, for callers that checked their input.

    Writes into ``out`` (a float64 array of the logits' shape) when given.
    """
    if out is None:
        out = np.empty(logits.shape)
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def cross_entropy(probs, labels) -> float:
    """Mean negative log-likelihood of the true classes.

    ``probs`` rows must already be normalized (each summing to 1); the true
    class probability is clamped to 1e-15 before the log so a confident wrong
    prediction yields a large finite loss instead of infinity.
    """
    probs = as_matrix(probs)
    labels = _check_labels(labels, probs.shape[:1], probs.shape[1])
    row_sums = probs.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-8):
        worst = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValidationError(
            f"probability rows must sum to 1; row {worst} sums to {row_sums[worst]!r}"
        )
    p_true = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.maximum(p_true, 1e-15)).mean())


def _check_labels(labels, expected_shape: tuple[int, ...], n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != expected_shape:
        raise ShapeError(
            f"expected labels of shape {expected_shape}, got array of shape {labels.shape}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = labels[(labels < 0) | (labels >= n_classes)][0]
        raise ValidationError(f"label {bad} outside [0, {n_classes})")
    return labels


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit counter value (pure Python ints)."""
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Derive a decorrelated child seed for a named sub-stream.

    Used by the harness so data synthesis, splitting, per-fold training, etc.
    each get an independent generator from one experiment seed.
    """
    return _mix64((seed + stream * _GOLDEN) & _MASK64)


class Rng:
    """Counter-based SplitMix64 stream of 64-bit words.

    Every draw advances a counter by a fixed odd constant and mixes it, so the
    k-th output is a pure function of (seed, k). Bulk draws vectorize the same
    arithmetic in uint64 numpy ops; scalar and bulk paths share one counter, so
    interleaving them never reuses or skips state.
    """

    def __init__(self, seed: int):
        self._counter = int(seed) & _MASK64

    def _next_u64(self) -> int:
        self._counter = (self._counter + _GOLDEN) & _MASK64
        return _mix64(self._counter)

    def _next_block(self, n: int) -> np.ndarray:
        steps = np.arange(1, n + 1, dtype=np.uint64)
        counters = np.uint64(self._counter) + steps * np.uint64(_GOLDEN)
        self._counter = int(counters[-1])
        return _mix_block(counters)

    def random(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), each built from the top 53 bits of one word."""
        if n < 0:
            raise ValidationError(f"draw count must be nonnegative, got {n}")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        return (self._next_block(n) >> np.uint64(11)) * _INV_2_53

    def uniform(self, lo: float, hi: float, n: int) -> np.ndarray:
        """n doubles uniform on [lo, hi)."""
        if not lo < hi:
            raise ValidationError(f"need lo < hi, got [{lo}, {hi})")
        return lo + (hi - lo) * self.random(n)

    def normal(self, n: int, mean: float = 0.0, variance: float = 1.0) -> np.ndarray:
        """n normal draws via Box-Muller over this stream's uniforms."""
        if not variance > 0:
            raise ValidationError(f"variance must be positive, got {variance}")
        if n < 0:
            raise ValidationError(f"draw count must be nonnegative, got {n}")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        pairs = (n + 1) // 2
        # u1 lands in (0, 1] so the log below is always finite.
        u1 = ((self._next_block(pairs) >> np.uint64(11)) + np.uint64(1)) * _INV_2_53
        u2 = (self._next_block(pairs) >> np.uint64(11)) * _INV_2_53
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n]
        return mean + np.sqrt(variance) * z

    def randbelow(self, bound: int) -> int:
        """One integer uniform on [0, bound), by masked rejection (unbiased)."""
        if bound <= 0:
            raise ValidationError(f"bound must be positive, got {bound}")
        if bound == 1:
            self._next_u64()
            return 0
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            r = self._next_u64() & mask
            if r < bound:
                return r

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of arange(n).

        Sorts one fresh 64-bit key per element (stable, so the result is
        deterministic even in the astronomically unlikely event of a key
        collision). Consumes exactly n words of the stream.
        """
        if n < 0:
            raise ValidationError(f"permutation size must be nonnegative, got {n}")
        return _permutations([self], n)[0]


def _mix_block(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on every counter value of a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _permutations(rngs: list[Rng], n: int) -> np.ndarray:
    """One ``Rng.permutation(n)`` per generator, as rows of a (len(rngs), n) array.

    Builds every generator's next n counters in one uint64 block and mixes
    them at once, so a training draws the epoch permutations of all its
    models in one call (the counter-based idea of Salmon et al., SC 2011).
    Row k equals ``rngs[k].permutation(n)``, and ``rngs[k]`` advances
    exactly as n single draws would advance it.
    """
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    counters = np.array([rng._counter for rng in rngs], dtype=np.uint64)[:, None] + steps
    if n:
        for rng, last in zip(rngs, counters[:, -1].tolist()):
            rng._counter = last
    return np.argsort(_mix_block(counters), axis=1, kind="stable")
