import math

import numpy as np
import pytest

from mlpinit.errors import ShapeError, ValidationError
from mlpinit.numerics import (
    NormalDist,
    Rng,
    UniformDist,
    cross_entropy,
    derive_seed,
    matmul,
    relu,
    sample,
    softmax,
)


class TestMatmul:
    def test_identity(self):
        out = matmul(np.eye(2), [[3, 4], [5, 6]])
        np.testing.assert_array_equal(out, [[3, 4], [5, 6]])

    def test_hand_multiplied(self):
        # [[1,2],[3,4]] @ [[5],[6]] worked out by hand
        out = matmul([[1, 2], [3, 4]], [[5], [6]])
        np.testing.assert_array_equal(out, [[17], [39]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match="2x3 by 2x3"):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros(3), np.zeros((3, 2)))

    def test_associativity_on_random_triples(self):
        rng = Rng(101)
        for _ in range(10):
            a = rng.normal(12).reshape(3, 4)
            b = rng.normal(20).reshape(4, 5)
            c = rng.normal(10).reshape(5, 2)
            np.testing.assert_allclose(
                matmul(matmul(a, b), c), matmul(a, matmul(b, c)), atol=1e-9
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


class TestSample:
    def test_deterministic_per_seed(self):
        d = NormalDist(0.0, 1.0)
        np.testing.assert_array_equal(sample(Rng(1), d, 50), sample(Rng(1), d, 50))

    def test_normal_dist_moments(self):
        draws = sample(Rng(77), NormalDist(3.0, 4.0), 100_000)
        assert draws.mean() == pytest.approx(3.0, abs=0.02)
        assert draws.var() == pytest.approx(4.0, rel=0.03)

    def test_uniform_dist_bounds(self):
        draws = sample(Rng(77), UniformDist(2.0, 5.0), 10_000)
        assert draws.min() >= 2.0 and draws.max() < 5.0

    def test_invalid_distributions(self):
        with pytest.raises(ValidationError):
            NormalDist(0.0, 0.0)
        with pytest.raises(ValidationError):
            UniformDist(1.0, -1.0)


def test_derive_seed_spreads_streams():
    children = {derive_seed(7, k) for k in range(100)}
    assert len(children) == 100
    assert derive_seed(7, 1) == derive_seed(7, 1)
