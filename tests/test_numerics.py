import math

import numpy as np
import pytest

from mlpinit.errors import ShapeError, ValidationError
from mlpinit.numerics import Rng, _permutations, cross_entropy, derive_seed, relu, softmax


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

    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            softmax([0.0, 1.0])

    def test_monotone_in_logits(self):
        x = np.array([[0.2, -0.4, 1.1, 0.0]])
        bumped = x.copy()
        bumped[0, 1] += 0.5
        assert softmax(bumped)[0, 1] > softmax(x)[0, 1]


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        assert cross_entropy([[1.0, 0.0, 0.0, 0.0]], [0]) == 0.0

    def test_uniform_is_ln4(self):
        loss = cross_entropy([[0.25] * 4], [2])
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError, match="label 7"):
            cross_entropy([[0.25] * 4], [7])

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            cross_entropy([[0.5, 0.1, 0.1, 0.1]], [0])

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

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            Rng(0).normal(3, 0.0, -1.0)
        with pytest.raises(ValidationError):
            Rng(0).uniform(1.0, 1.0, 3)
        with pytest.raises(ValidationError):
            Rng(0).randbelow(0)


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
