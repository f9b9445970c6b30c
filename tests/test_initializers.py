import math

import numpy as np
import pytest

from mlpinit.errors import ValidationError
from mlpinit.initializers import (
    ALL_SCHEMES,
    KAIMING_NORMAL,
    KAIMING_UNIFORM,
    XAVIER_NORMAL,
    XAVIER_UNIFORM,
    DistKind,
    Family,
    InitScheme,
    initialize,
    target_variance,
    uniform_bound,
)
from mlpinit.numerics import Rng, relu


class TestTargetVariance:
    def test_xavier_d1(self):
        assert target_variance(XAVIER_NORMAL, 1) == 1.0

    def test_kaiming_d50(self):
        assert target_variance(KAIMING_UNIFORM, 50) == pytest.approx(0.04, abs=0)

    def test_xavier_d85(self):
        assert target_variance(XAVIER_UNIFORM, 85) == pytest.approx(1.0 / 85.0, abs=0)

    def test_independent_of_dist_variant(self):
        for d in (1, 7, 85):
            assert target_variance(XAVIER_NORMAL, d) == target_variance(XAVIER_UNIFORM, d)
            assert target_variance(KAIMING_NORMAL, d) == target_variance(KAIMING_UNIFORM, d)

    def test_kaiming_doubles_xavier(self):
        for d in range(1, 2000, 37):
            assert target_variance(KAIMING_NORMAL, d) == 2.0 * target_variance(XAVIER_NORMAL, d)

    def test_zero_fan_in_rejected(self):
        with pytest.raises(ValidationError):
            target_variance(XAVIER_NORMAL, 0)


class TestUniformBound:
    def test_xavier_d3_is_one(self):
        assert uniform_bound(XAVIER_UNIFORM, 3) == pytest.approx(1.0, abs=1e-15)

    def test_xavier_d85(self):
        assert uniform_bound(XAVIER_UNIFORM, 85) == pytest.approx(math.sqrt(3.0 / 85.0), abs=0)
        assert uniform_bound(XAVIER_UNIFORM, 85) == pytest.approx(0.187867, abs=5e-7)

    def test_kaiming_d50(self):
        assert uniform_bound(KAIMING_UNIFORM, 50) == pytest.approx(math.sqrt(6.0 / 50.0), abs=0)
        assert uniform_bound(KAIMING_UNIFORM, 50) == pytest.approx(0.346410, abs=5e-7)

    def test_bound_squared_over_three_matches_variance(self):
        # consistency between the two closed forms for every fan-in up to 10^4
        for scheme in ALL_SCHEMES:
            for d in range(1, 10_001):
                b = uniform_bound(scheme, d)
                assert abs(b * b / 3.0 - target_variance(scheme, d)) < 1e-12

    def test_zero_fan_in_rejected(self):
        with pytest.raises(ValidationError):
            uniform_bound(KAIMING_UNIFORM, 0)


class TestInitialize:
    def test_kaiming_normal_variance_within_3pct(self):
        rng = Rng(2001)
        pooled = np.concatenate(
            [initialize(rng, KAIMING_NORMAL, 20, 50).ravel() for _ in range(100)]
        )
        assert pooled.size == 100_000
        assert pooled.var() == pytest.approx(0.04, rel=0.03)

    def test_uniform_entries_never_exceed_bound(self):
        rng = Rng(2002)
        bound = uniform_bound(XAVIER_UNIFORM, 85)
        w = initialize(rng, XAVIER_UNIFORM, 50, 85)
        assert np.all(np.abs(w) <= bound)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
    def test_mean_within_clt_bound(self, scheme):
        rng = Rng(2003)
        d = 85
        pooled = np.concatenate(
            [initialize(rng, scheme, 100, d).ravel() for _ in range(12)]
        )
        n = pooled.size
        assert n >= 100_000
        sigma = math.sqrt(target_variance(scheme, d))
        assert abs(pooled.mean()) < 3.0 * sigma / math.sqrt(n)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
    def test_pooled_variance_matches_target(self, scheme):
        rng = Rng(2004)
        d = 20
        pooled = np.concatenate(
            [initialize(rng, scheme, 250, d).ravel() for _ in range(20)]
        )
        assert pooled.var() == pytest.approx(target_variance(scheme, d), rel=0.03)

    def test_deterministic_per_seed(self):
        a = initialize(Rng(55), KAIMING_UNIFORM, 10, 30)
        b = initialize(Rng(55), KAIMING_UNIFORM, 10, 30)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=str)
    def test_fan_in_is_cols(self, scheme):
        # the draw is exactly the scheme's distribution at fan_in = cols
        w = initialize(Rng(56), scheme, 7, 30)
        rng = Rng(56)
        if scheme.dist is DistKind.NORMAL:
            want = rng.normal(7 * 30, 0.0, target_variance(scheme, 30))
        else:
            bound = uniform_bound(scheme, 30)
            want = rng.uniform(-bound, bound, 7 * 30)
        assert w.shape == (7, 30)
        assert w.tobytes() == want.tobytes()

    def test_invalid_dimensions(self):
        # cols=0 is the zero fan-in case
        for rows, cols in ((0, 5), (5, 0), (-1, 5), (2.0, 5), (5, 2.5), (True, 5), (5, True)):
            with pytest.raises(ValidationError):
                initialize(Rng(0), XAVIER_NORMAL, rows, cols)


class TestVariancePropagation:
    """The forward-signal claims that motivate the two variance targets."""

    def test_single_xavier_layer_preserves_variance(self):
        rng = Rng(3001)
        d = 256
        w = initialize(rng, XAVIER_NORMAL, d, d)
        x = rng.normal(10_000 * d).reshape(10_000, d)
        y = x @ w.T
        assert y.var() == pytest.approx(x.var(), rel=0.10)

    def test_kaiming_holds_through_deep_relu_stack_while_xavier_decays(self):
        # ReLU precedes every linear layer, so each Kaiming layer's gain is
        # 2 * (1/2) = 1 while each Xavier layer halves the signal.
        d, depth, batch = 256, 10, 10_000

        def layer10_variance(scheme, seed):
            rng = Rng(seed)
            x = rng.normal(batch * d).reshape(batch, d)
            signal = x
            for _ in range(depth):
                signal = relu(signal) @ initialize(rng, scheme, d, d).T
            return signal.var() / x.var()

        seeds = range(3000, 3005)
        kaiming = np.mean([layer10_variance(KAIMING_NORMAL, s) for s in seeds])
        xavier = np.mean([layer10_variance(XAVIER_NORMAL, s) for s in seeds])
        assert 0.85 <= kaiming <= 1.15
        assert xavier < 0.25


def test_scheme_enumeration():
    assert len(ALL_SCHEMES) == 4
    assert {s.family for s in ALL_SCHEMES} == {Family.XAVIER, Family.KAIMING}
    assert {s.dist for s in ALL_SCHEMES} == {DistKind.NORMAL, DistKind.UNIFORM}
    assert str(InitScheme(Family.KAIMING, DistKind.UNIFORM)) == "kaiming-uniform"
