"""ReLU, the softmax and cross-entropy cores, and a seeded deterministic RNG.

Numeric state lives in ``numpy`` arrays of 64-bit floats: 2-D matrices for
one model, with a leading fold axis when several models train in lockstep
(see ``network``). Randomness comes from :class:`Rng`, a counter-based
SplitMix64 generator implemented with pure unsigned 64-bit integer
arithmetic, so a given seed produces bit-identical words, uniform draws and
permutations on every platform; no platform RNG is ever consulted. Normal
draws use the Box-Muller transform over that same stream, in one block
routine (``Rng._normal_rows``) that serves ``Rng.normal`` and draws many rows
at once with the bits of one call per row. It goes through numpy's ``log``,
whose last bit can depend on the SIMD code path numpy picks for the CPU, so
normal draws are bit-identical per numpy SIMD path.

The softmax (``_Softmax``) binds its buffers and class-column views once per
logits array, for the step plans of ``network``. Its row sum adds the class
columns in index order, which has the bits of numpy's ``sum`` only because
numpy adds fewer than 8 terms in index order and the network has 4 classes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, ValidationError, _check_int, _check_real

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def relu(x) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


class _Softmax:
    """Softmax over the last axis of ``logits``, written into ``out`` (a
    float64 array of the logits' shape) by each call, with every buffer and
    view bound once: a call re-reads ``logits`` and returns ``out``.

    Subtracts each row's max first, so large logits cannot overflow; each
    row of a (folds, rows, classes) stack is normalized on its own. The row
    max and sum are elementwise ``maximum`` and ``add`` calls over the class
    columns, the sum in index order ((p0 + p1) + p2) + p3 for the network's
    4 classes. That is the order in which numpy's own ``sum`` adds fewer
    than 8 terms, so the bits are those of ``exp(z - z.max(-1)) /
    sum(-1)`` built from numpy reductions; ``tests/test_numerics.py`` pins
    this for 4 classes. For 8 or more terms numpy may sum pairwise.
    """

    def __init__(self, logits: np.ndarray, out: np.ndarray):
        self._logits, self._out = logits, out
        self._row_max = np.empty(logits.shape[:-1])
        self._row_sum = np.empty(logits.shape[:-1])
        self._max_column = self._row_max[..., None]
        self._sum_column = self._row_sum[..., None]
        self._logit_columns = [logits[..., c] for c in range(logits.shape[-1])]
        self._prob_columns = [out[..., c] for c in range(out.shape[-1])]

    def __call__(self) -> np.ndarray:
        row_max, row_sum, out = self._row_max, self._row_sum, self._out
        first, second, *rest = self._logit_columns
        np.maximum(first, second, out=row_max)
        for column in rest:
            np.maximum(row_max, column, out=row_max)
        np.subtract(self._logits, self._max_column, out=out)
        np.exp(out, out=out)
        first, second, *rest = self._prob_columns
        np.add(first, second, out=row_sum)
        for column in rest:
            np.add(row_sum, column, out=row_sum)
        np.divide(out, self._sum_column, out=out)
        return out


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true classes, for a normalized
    (rows, classes) float64 ``probs`` and checked int64 ``labels``.

    The true class probability is clamped to 1e-15 before the log, so a
    confident wrong prediction yields a large finite loss, not infinity.
    """
    p_true = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.maximum(p_true, 1e-15)).mean())


def _as_array(name: str, values) -> np.ndarray:
    """``np.asarray(values)``, with a ValidationError for a ragged nested
    sequence, which numpy refuses with a bare ValueError."""
    try:
        return np.asarray(values)
    except ValueError:
        raise ValidationError(
            f"{name} must be a rectangular array, not a ragged sequence"
        ) from None


def _check_ints(name: str, values, shape=None, lo: int = -2**63, hi: int = 2**63) -> np.ndarray:
    """``values`` as an int64 array: the one check of an integer array that
    reaches the library from outside.

    ShapeError if ``shape`` is given and the array has another. ValidationError
    unless the dtype is an integer dtype (bool is not one) and every value
    lies in [lo, hi), bounds within the int64 range. The range is checked
    before the cast, so the message names the first bad value as it was
    given. A ragged nested sequence is a ValidationError.
    """
    values = _as_array(name, values)
    if shape is not None and values.shape != shape:
        raise ShapeError(f"expected a {name} array of shape {shape}, got shape {values.shape}")
    if not np.issubdtype(values.dtype, np.integer):
        raise ValidationError(f"{name} must be integers, got dtype {values.dtype}")
    # Bounds clipped to the dtype's own range, so that no comparison mixes an
    # unsigned array with a negative number, which numpy 1.x does in float64.
    info = np.iinfo(values.dtype)
    outside = (values < max(lo, info.min)) | (values > min(hi - 1, info.max))
    if outside.any():
        bad = values[outside][0]
        where = "is negative" if lo == 0 and bad < 0 else f"outside [{lo}, {hi})"
        raise ValidationError(f"{name} {bad} {where}")
    return values.astype(np.int64, copy=False)


def _check_reals(name: str, values) -> np.ndarray:
    """``values`` as a float64 array; ValidationError unless the dtype is an
    integer or floating dtype, so that a bool, complex, string or object
    array (``None`` makes one) or a ragged nested sequence is refused
    rather than cast."""
    values = _as_array(name, values)
    if not (np.issubdtype(values.dtype, np.integer) or np.issubdtype(values.dtype, np.floating)):
        raise ValidationError(f"{name} must be real numbers, got dtype {values.dtype}")
    return values.astype(np.float64, copy=False)


def derive_seed(seed: int, stream: int) -> int:
    """Derive a decorrelated child seed for a named sub-stream.

    Used by the harness so data synthesis, splitting, per-fold training, etc.
    each get an independent generator from one experiment seed.
    """
    seed, stream = _check_int("seed", seed), _check_int("stream", stream)
    counter = np.array([(seed + stream * _GOLDEN) & _MASK64], dtype=np.uint64)
    return int(_mix_block(counter)[0])


class Rng:
    """Counter-based SplitMix64 stream of 64-bit words.

    Every word advances a counter by a fixed odd constant and mixes it, so the
    k-th output is a pure function of (seed, k). Draws mix blocks of counter
    values in uint64 numpy ops, a block of one for a scalar draw, so
    interleaving scalar and bulk draws never reuses or skips state. A seed,
    draw count, bound or permutation size that is no integer, or is a bool,
    raises ValidationError.
    """

    def __init__(self, seed: int):
        self._counter = _check_int("seed", seed) & _MASK64

    def _next_block(self, n: int) -> np.ndarray:
        return _mix_block(_counters([self], n)[0])

    def random(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), each built from the top 53 bits of one word."""
        n = _check_int("draw count", n, 0)
        return (self._next_block(n) >> np.uint64(11)) * _INV_2_53

    def uniform(self, lo: float, hi: float, n: int) -> np.ndarray:
        """n doubles uniform on [lo, hi); lo, hi and hi - lo must be finite."""
        _check_real("lo", lo)
        _check_real("hi", hi)
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValidationError(f"need finite lo < hi with a finite width, got [{lo}, {hi})")
        return lo + (hi - lo) * self.random(n)

    def normal(self, n: int, mean: float = 0.0, variance: float = 1.0) -> np.ndarray:
        """n normal draws via Box-Muller over this stream's uniforms.

        Takes ceil(n / 2) words for u1 and the next ceil(n / 2) for u2; this
        is the one-row case of ``_normal_rows``. ``mean`` must be finite and
        ``variance`` finite and positive.
        """
        _check_real("mean", mean)
        _check_real("variance", variance)
        if not (math.isfinite(mean) and 0 < variance < math.inf):
            raise ValidationError(
                f"need a finite mean and a finite positive variance, got {mean}, {variance}"
            )
        n = _check_int("draw count", n, 0)
        return self._normal_rows(1, n, mean, variance)[0]

    def _normal_rows(self, rows: int, n: int, mean: float, variance: float) -> np.ndarray:
        """``rows`` consecutive ``normal(n, mean, variance)`` draws as a (rows, n) array.

        Row k equals the k-th of those calls bit for bit, and the counter
        advances exactly as they would advance it: each row takes a block of
        ceil(n / 2) words for its u1 and the next such block for its u2. All
        rows' words are mixed in one uint64 block and go through numpy's
        ``log``, ``cos`` and ``sin`` at once.
        """
        pairs = (n + 1) // 2
        # A row's counters are its u1 block, then its u2 block. words[h, k, j]
        # is row k's j-th u1 (h = 0) or u2 (h = 1) word, in a copy where each
        # half is one contiguous (rows, pairs) array. Work is done in place
        # where the bits allow, to keep a big block's peak memory low.
        words = _mix_block(
            _counters([self], rows * 2 * pairs).reshape(rows, 2, pairs).transpose(1, 0, 2).copy()
        )
        words >>= np.uint64(11)
        # u1 lands in (0, 1] so the log below is always finite.
        words[0] += np.uint64(1)
        radius, theta = words * _INV_2_53
        del words
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        theta *= 2.0 * np.pi
        z = np.empty((rows, 2 * pairs))
        np.multiply(np.cos(theta), radius, out=z[:, :pairs])
        np.multiply(np.sin(theta), radius, out=z[:, pairs:])
        del radius, theta
        out = np.multiply(z[:, :n], np.sqrt(variance))
        out += mean
        return out

    def randbelow(self, bound: int) -> int:
        """One integer uniform on [0, bound), by masked rejection (unbiased)."""
        bound = _check_int("bound", bound, 1)
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            r = int(self._next_block(1)[0]) & mask
            if r < bound:
                return r

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of arange(n).

        Sorts one fresh 64-bit key per element (stable, so the result is
        deterministic even in the astronomically unlikely event of a key
        collision). Consumes exactly n words of the stream.
        """
        n = _check_int("permutation size", n, 0)
        return _permutations([self], n)[0]


def _mix_block(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on every counter value of a uint64 array.

    Returns a new array and leaves ``z`` as it is; the steps after the first
    work in place, so a block needs one temporary of its size.
    """
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z


def _permutations(rngs: list[Rng], n: int) -> np.ndarray:
    """One ``Rng.permutation(n)`` per generator, as rows of a (len(rngs), n) array.

    Mixes every generator's next n counters at once, so a training draws
    the epoch permutations of all its models in one call (the counter-based
    idea of Salmon et al., SC 2011). Row k equals ``rngs[k].permutation(n)``,
    and ``rngs[k]`` advances exactly as n single draws would advance it.
    """
    return np.argsort(_mix_block(_counters(rngs, n)), axis=1, kind="stable")


def _counters(rngs: list[Rng], n: int) -> np.ndarray:
    """The next n SplitMix64 counters of each generator, as rows of a
    (len(rngs), n) uint64 block; advances each generator past its row."""
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    counters = np.array([rng._counter for rng in rngs], dtype=np.uint64)[:, None] + steps
    if n:
        for rng, last in zip(rngs, counters[:, -1].tolist()):
            rng._counter = last
    return counters
