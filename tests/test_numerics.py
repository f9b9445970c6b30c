import math

import numpy as np
import pytest

from mlpinit.data import Dataset, holdout_split, synthesize_dataset
from mlpinit.errors import ShapeError, ValidationError
from mlpinit.evaluation import accumulate_confusion, summarize
from mlpinit.initializers import XAVIER_NORMAL
from mlpinit.network import Topology, build_model, grad_check, predict
from mlpinit.numerics import (
    Rng,
    _check_ints,
    _check_reals,
    _cross_entropy,
    _permutations,
    _Softmax,
    derive_seed,
    relu,
)


class TestRelu:
    def test_sign_cases(self):
        np.testing.assert_array_equal(relu([[-1.0, 0.0, 2.0]]), [[0.0, 0.0, 2.0]])

    def test_all_negative_becomes_zero(self):
        np.testing.assert_array_equal(relu(-np.ones((3, 3))), np.zeros((3, 3)))

    def test_identity_on_nonnegative(self):
        x = np.array([[0.0, 1.5], [2.0, 0.25]])
        np.testing.assert_array_equal(relu(x), x)

    def test_idempotent_exactly(self):
        x = Rng(5).normal(40).reshape(8, 5)
        once = relu(x)
        np.testing.assert_array_equal(relu(once), once)


def softmax(logits):
    x = np.asarray(logits, dtype=np.float64)
    return _Softmax(x, np.empty_like(x))()


def cross_entropy(probs, labels):
    return _cross_entropy(np.asarray(probs, dtype=np.float64), np.asarray(labels, dtype=np.int64))


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        np.testing.assert_allclose(softmax([[0.0, 0.0, 0.0, 0.0]]), [[0.25] * 4])

    def test_no_overflow_on_huge_logits(self):
        out = softmax([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_closed_form_ln2_ln1(self):
        out = softmax([[math.log(2.0), math.log(1.0)]])
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_rows_sum_to_one(self):
        x = Rng(17).normal(200).reshape(50, 4) * 10
        sums = softmax(x).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_translation_invariance(self):
        x = Rng(3).normal(20).reshape(5, 4)
        base = softmax(x)
        for k in (-100.0, -3.7, 0.5, 42.0):
            np.testing.assert_allclose(softmax(x + k), base, atol=1e-12)

    def test_stack_equals_each_slice(self):
        x = Rng(9).normal(3 * 5 * 4).reshape(3, 5, 4) * 10
        stacked = softmax(x)
        for k in range(3):
            assert stacked[k].tobytes() == softmax(x[k]).tobytes()

    def test_monotone_in_logits(self):
        x = np.array([[0.2, -0.4, 1.1, 0.0]])
        bumped = x.copy()
        bumped[0, 1] += 0.5
        assert softmax(bumped)[0, 1] > softmax(x)[0, 1]

    @pytest.mark.parametrize("rows", [11, 24, 36])
    @pytest.mark.parametrize("folds", [1, 20])
    def test_bits_equal_numpy_reductions(self, folds, rows):
        # _Softmax: the row max and the in-order class sum have the bits of
        # numpy's reductions, which add fewer than 8 terms in index order.
        rng = Rng(100 * folds + rows)
        stacks = []
        for _ in range(20):
            scale = np.exp2(rng.uniform(-4.0, 6.0, 1))
            stacks.append(rng.normal(folds * rows * 4).reshape(folds, rows, 4) * scale)
        special = stacks[0][0]
        special[0] = [1e308, -1e308, 7e2, -7e2]  # huge logits
        special[1] = [3.5, 3.5, -1.0, 3.5]  # tied maxima
        special[2] = [2.0, 2.0, 2.0, 2.0]  # all tied
        special[3] = np.nan
        if rows > 4:
            special[4] = [np.inf, 0.0, -np.inf, 1.0]
        numerators = []
        with np.errstate(invalid="ignore", over="ignore"):
            for x in stacks:
                logits = x.copy()
                got = _Softmax(logits, np.empty_like(logits))()
                e = np.exp(x - x.max(axis=-1, keepdims=True))
                want = e / e.sum(axis=-1, keepdims=True)
                assert got.tobytes() == want.tobytes()
                assert logits.tobytes() == x.tobytes()
                numerators.append(e)
        # The data tells the orders apart: another order of the class sum
        # gives other bits, so a change in numpy's order fails this test.
        e = np.stack(numerators)
        numpy_sum = e.sum(axis=-1)
        p0, p1, p2, p3 = np.moveaxis(e, -1, 0)
        for other in (p0 + ((p1 + p2) + p3), (p0 + p1) + (p2 + p3), ((p3 + p2) + p1) + p0):
            assert other.tobytes() != numpy_sum.tobytes()


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        assert cross_entropy([[1.0, 0.0, 0.0, 0.0]], [0]) == 0.0

    def test_uniform_is_ln4(self):
        loss = cross_entropy([[0.25] * 4], [2])
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_clamps_zero_probability(self):
        loss = cross_entropy([[0.0, 1.0]], [0])
        assert loss == pytest.approx(-math.log(1e-15))


def _splitmix_reference(seed, n):
    """Independent pure-int SplitMix64: counter + finalizer, one word per draw."""
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestRng:
    def test_fixed_seed_bit_identical_streams(self):
        a = Rng(99).random(1000)
        b = Rng(99).random(1000)
        np.testing.assert_array_equal(a, b)

    def test_matches_splitmix_reference(self):
        words = _splitmix_reference(2024, 6)
        expected = np.array([(w >> 11) * 2.0**-53 for w in words])
        np.testing.assert_array_equal(Rng(2024).random(6), expected)

    def test_normal_is_box_muller_over_own_uniforms(self):
        # oracle: Box-Muller applied to the reference word stream
        words = _splitmix_reference(7, 4)
        u1 = np.array([((w >> 11) + 1) * 2.0**-53 for w in words[:2]])
        u2 = np.array([(w >> 11) * 2.0**-53 for w in words[2:]])
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        expected = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        np.testing.assert_array_equal(Rng(7).normal(4), expected)

    def test_normal_and_uniform_draws_never_alias_state(self):
        r = Rng(11)
        r.normal(5)  # 3 pairs -> 6 words
        tail = r.random(4)
        reference = _splitmix_reference(11, 10)[6:]
        np.testing.assert_array_equal(tail, [(w >> 11) * 2.0**-53 for w in reference])

    def test_uniform_mean_within_clt_bound(self):
        draws = Rng(31).uniform(-1.0, 1.0, 100_000)
        assert abs(draws.mean()) < 0.02
        assert draws.min() >= -1.0 and draws.max() < 1.0

    def test_normal_variance_within_3pct(self):
        draws = Rng(12).normal(100_000)
        assert draws.var() == pytest.approx(1.0, rel=0.03)

    def test_normal_mean_and_variance_parameters(self):
        draws = Rng(77).normal(100_000, 3.0, 4.0)
        assert draws.mean() == pytest.approx(3.0, abs=0.02)
        assert draws.var() == pytest.approx(4.0, rel=0.03)

    def test_permutation_is_a_permutation(self):
        perm = Rng(8).permutation(100)
        assert sorted(perm.tolist()) == list(range(100))
        np.testing.assert_array_equal(perm, Rng(8).permutation(100))

    def test_randbelow_range_and_coverage(self):
        r = Rng(4)
        draws = [r.randbelow(7) for _ in range(2000)]
        assert min(draws) == 0 and max(draws) == 6

    def test_randbelow_one_is_zero_from_one_word(self):
        r, fresh = Rng(4), Rng(4)
        assert r.randbelow(1) == 0
        fresh.random(1)
        np.testing.assert_array_equal(r.random(3), fresh.random(3))

    def test_empty_draws_return_empty_arrays_and_take_no_words(self):
        r = Rng(5)
        draws = {
            "random": r.random(0),
            "uniform": r.uniform(-1.0, 1.0, 0),
            "normal": r.normal(0),
            "permutation": r.permutation(0),
        }
        dtypes = {name: draw.dtype for name, draw in draws.items()}
        assert dtypes == {"random": np.float64, "uniform": np.float64,
                          "normal": np.float64, "permutation": Rng(5).permutation(2).dtype}
        assert all(draw.shape == (0,) for draw in draws.values())
        np.testing.assert_array_equal(r.random(3), Rng(5).random(3))

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            Rng(0).normal(3, 0.0, -1.0)
        with pytest.raises(ValidationError):
            Rng(0).uniform(1.0, 1.0, 3)
        with pytest.raises(ValidationError):
            Rng(0).randbelow(0)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("call", [
    lambda: Rng(0).uniform(0.0, INF, 3),
    lambda: Rng(0).uniform(-INF, 0.0, 3),
    lambda: Rng(0).uniform(NAN, 1.0, 3),
    lambda: Rng(0).uniform(0.0, NAN, 3),
    lambda: Rng(0).uniform(-1e308, 1e308, 3),
    lambda: Rng(0).normal(3, 0.0, INF),
    lambda: Rng(0).normal(3, 0.0, NAN),
    lambda: Rng(0).normal(3, INF, 1.0),
    lambda: Rng(0).normal(3, -INF, 1.0),
    lambda: Rng(0).normal(3, NAN, 1.0),
], ids=[
    "uniform-hi-inf", "uniform-lo-inf", "uniform-lo-nan", "uniform-hi-nan",
    "uniform-width-overflows", "normal-variance-inf", "normal-variance-nan",
    "normal-mean-inf", "normal-mean-neg-inf", "normal-mean-nan",
])
def test_non_finite_draw_parameters_rejected(call):
    # uniform: lo, hi and hi - lo finite; normal: mean finite, variance finite and positive
    with pytest.raises(ValidationError, match="finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: Rng(2.5),
    lambda: Rng(True),
    lambda: Rng("7"),
    lambda: Rng(7).random(2.5),
    lambda: Rng(7).random(True),
    lambda: Rng(7).uniform(0.0, 1.0, 2.5),
    lambda: Rng(7).normal(2.5),
    lambda: Rng(7).randbelow(2.5),
    lambda: Rng(7).randbelow(True),
    lambda: Rng(7).permutation(2.5),
    lambda: Rng(7).permutation(np.float64(3)),
    lambda: derive_seed(1.5, 2),
    lambda: derive_seed(1, 2.0),
    lambda: synthesize_dataset(1, 2.5, 4, 2.0),
    lambda: synthesize_dataset(1, 2, 4.0, 2.0),
    lambda: synthesize_dataset(1.5, 2, 4, 2.0),
    lambda: synthesize_dataset(True, 2, 4, 2.0),
], ids=[
    "Rng-float", "Rng-bool", "Rng-str", "random-float", "random-bool", "uniform-float",
    "normal-float", "randbelow-float", "randbelow-bool", "permutation-float",
    "permutation-np-float", "derive_seed-seed", "derive_seed-stream",
    "synthesize-participants", "synthesize-records", "synthesize-seed-float",
    "synthesize-seed-bool",
])
def test_non_integer_size_or_seed_rejected(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


@pytest.mark.parametrize("value", ["2.0", True, None], ids=["str", "bool", "none"])
@pytest.mark.parametrize("name, call", [
    ("separation", lambda v: synthesize_dataset(0, 16, 12, v)),
    ("fraction", lambda v: holdout_split(synthesize_dataset(0, 4, 4, 2.0), v, 0)),
    ("epsilon", lambda v: grad_check(
        build_model(Rng(0), Topology.ONE_LAYER, XAVIER_NORMAL), np.zeros((2, 85)), [0, 1], v)),
    ("lo", lambda v: Rng(0).uniform(v, 1, 3)),
    ("hi", lambda v: Rng(0).uniform(0, v, 3)),
    ("mean", lambda v: Rng(0).normal(3, v, 1.0)),
    ("variance", lambda v: Rng(0).normal(3, 0.0, v)),
], ids=["synthesize-separation", "holdout-fraction", "grad_check-epsilon", "uniform-lo",
        "uniform-hi", "normal-mean", "normal-variance"])
def test_non_real_parameter_rejected(name, call, value):
    with pytest.raises(ValidationError, match=f"^{name} must be a real number, got {value!r}$"):
        call(value)


class TestCheckInts:
    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
    def test_every_int64_value_of_any_dtype_passes_exactly(self, dtype):
        info = np.iinfo(dtype)
        top = min(int(info.max), 2**63 - 1)
        got = _check_ints("v", np.array([info.min, top], dtype=dtype))
        assert got.dtype == np.int64 and got.tolist() == [int(info.min), top]

    @pytest.mark.parametrize("values, lo, hi, match", [
        (np.array([5, 2**64 - 1], dtype=np.uint64), 0, 2**63, "v 18446744073709551615 outside"),
        (np.array([0, 200], dtype=np.uint8), -5, 100, r"v 200 outside \[-5, 100\)"),
        (np.array([-3], dtype=np.int8), -2, 10, r"v -3 outside \[-2, 10\)"),
        (np.array([-3], dtype=np.int8), 0, 10, "v -3 is negative"),
        (np.int64(7), 0, 7, r"v 7 outside \[0, 7\)"),
    ], ids=["uint64-max", "uint8-high", "int8-low", "negative", "0-d"])
    def test_names_the_first_value_outside_as_given(self, values, lo, hi, match):
        with pytest.raises(ValidationError, match=f"^{match}"):
            _check_ints("v", values, lo=lo, hi=hi)

    @pytest.mark.parametrize("values", [[True], [1.0], ["1"], [None], [1j], []],
                             ids=["bool", "float", "str", "none", "complex", "empty-list"])
    def test_only_integer_dtypes_pass(self, values):
        with pytest.raises(ValidationError, match="^v must be integers, got dtype"):
            _check_ints("v", values)

    def test_shape_is_checked_first_and_int64_is_not_copied(self):
        with pytest.raises(ShapeError, match=r"expected a v array of shape \(3,\), got shape \(2,\)"):
            _check_ints("v", [1.5, 2.5], shape=(3,))
        values = np.arange(4, dtype=np.int64)
        assert _check_ints("v", values, (4,), 0, 4) is values


class TestCheckReals:
    @pytest.mark.parametrize("values", [[True], [None], [1j], ["1.0"], [b"1"]],
                             ids=["bool", "none", "complex", "str", "bytes"])
    def test_only_integer_and_floating_dtypes_pass(self, values):
        with pytest.raises(ValidationError, match="^v must be real numbers, got dtype"):
            _check_reals("v", values)

    def test_returns_float64_and_does_not_copy_it(self):
        assert _check_reals("v", np.array([3], dtype=np.uint64)).tolist() == [3.0]
        values = np.ones(3)
        assert _check_reals("v", values) is values


@pytest.mark.parametrize("call, name", [
    (lambda: Dataset([[1.0] * 85, [1.0] * 84], [0, 1], [0, 1]), "features"),
    (lambda: Dataset(np.zeros((2, 85)), [[0], [0, 1]], [0, 1]), "label"),
    (lambda: Dataset(np.zeros((2, 85)), [0, 1], [[0], [0, 1]]), "participant id"),
    (lambda: Dataset(np.zeros((2, 85)), [0, 1], [0, 1]).subset([[0], [0, 1]]), "subset indices"),
    (lambda: predict(build_model(Rng(1), Topology.ONE_LAYER, XAVIER_NORMAL),
                     [[1.0] * 85, [1.0] * 84]), "batch"),
    (lambda: accumulate_confusion([[0], [0, 1]], [[0], [0, 1]]), "prediction"),
    (lambda: accumulate_confusion([0, 1], [[0], [0, 1]]), "label"),
    (lambda: summarize([[1] * 4] * 3 + [[1] * 3]), "confusion count"),
], ids=["features", "labels", "participants", "subset", "predict", "confusion-preds",
        "confusion-labels", "summarize"])
def test_a_ragged_argument_is_a_validation_error(call, name):
    # numpy refuses a ragged nested list with a bare ValueError; _check_ints
    # and _check_reals name the argument instead
    with pytest.raises(ValidationError, match=f"^{name} must be a rectangular array"):
        call()


class TestNormalRows:
    @pytest.mark.parametrize("rows", [1, 3, 20])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 85])
    def test_rows_equal_box_muller_per_call(self, rows, n):
        # oracle: each row is one call's Box-Muller over its own slice of the
        # reference stream, computed on that row's 1-D arrays alone
        pairs = (n + 1) // 2
        words = _splitmix_reference(2**64 - 3, rows * 2 * pairs + 1)
        want = []
        for k in range(rows):
            block = words[k * 2 * pairs:(k + 1) * 2 * pairs]
            u1 = np.array([((w >> 11) + 1) * 2.0**-53 for w in block[:pairs]])
            u2 = np.array([(w >> 11) * 2.0**-53 for w in block[pairs:]])
            r = np.sqrt(-2.0 * np.log(u1))
            theta = 2.0 * np.pi * u2
            z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
            want.append(-1.5 + np.sqrt(0.3) * z)
        rng = Rng(2**64 - 3)
        got = rng._normal_rows(rows, n, -1.5, 0.3)
        assert got.shape == (rows, n) and got.flags.c_contiguous
        assert got.tobytes() == np.array(want).reshape(rows, n).tobytes()
        # the counter advanced by exactly the words the rows used
        assert rng.random(1)[0] == (words[rows * 2 * pairs] >> 11) * 2.0**-53

    def test_normal_is_its_one_row_case(self):
        a, b = Rng(9), Rng(9)
        for n in (5, 85, 0, 4):
            assert a.normal(n, 2.0, 0.5).tobytes() == b._normal_rows(1, n, 2.0, 0.5)[0].tobytes()
        assert a._counter == b._counter


class TestPermutations:
    @pytest.mark.parametrize("count", [1, 3, 20])
    @pytest.mark.parametrize("n", [1, 2, 155])
    def test_rows_equal_per_rng_permutations(self, count, n):
        seeds = [derive_seed(41, k) for k in range(count)]
        together, alone = [Rng(s) for s in seeds], [Rng(s) for s in seeds]
        for _ in range(3):
            got = _permutations(together, n)
            want = np.stack([rng.permutation(n) for rng in alone])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            # normal draws in between start where each permutation left off
            for a, b in zip(together, alone):
                assert a.normal(3).tobytes() == b.normal(3).tobytes()
        assert [r._counter for r in together] == [r._counter for r in alone]

    @pytest.mark.parametrize("n", [1, 2, 155])
    def test_stable_argsort_of_reference_words(self, n):
        seeds = (5, 6, 7)
        rows = _permutations([Rng(s) for s in seeds], n)
        rngs = [Rng(s) for s in seeds]
        _permutations(rngs, n)
        for seed, row, rng in zip(seeds, rows, rngs):
            words = _splitmix_reference(seed, n + 1)
            assert row.tolist() == sorted(range(n), key=lambda i: (words[i], i))
            # exactly n words consumed: the next draw is word n
            assert rng.random(1)[0] == (words[n] >> 11) * 2.0**-53


def test_derive_seed_spreads_streams():
    children = {derive_seed(7, k) for k in range(100)}
    assert len(children) == 100
    assert derive_seed(7, 1) == derive_seed(7, 1)
