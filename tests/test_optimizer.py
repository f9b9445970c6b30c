import numpy as np
import pytest

from mlpinit.errors import ShapeError, ValidationError
from mlpinit.harness import SUITE_CELLS
from mlpinit.initializers import Family
from mlpinit.network import Topology
from mlpinit.numerics import Rng
from mlpinit.optimizer import Hyperparams, sgd_step


def normal_array(rng, shape):
    return rng.normal(int(np.prod(shape))).reshape(shape)


class TestPresets:
    # all 18 published values: (topology, family) -> (bs, lr, momentum)
    EXPECTED = {
        (Topology.ONE_LAYER, Family.XAVIER): (24, 0.0001, 0.6),
        (Topology.TWO_LAYER, Family.XAVIER): (24, 0.006, 0.7),
        (Topology.THREE_LAYER, Family.XAVIER): (36, 0.006, 0.7),
        (Topology.ONE_LAYER, Family.KAIMING): (36, 0.0001, 0.6),
        (Topology.TWO_LAYER, Family.KAIMING): (36, 0.003, 0.7),
        (Topology.THREE_LAYER, Family.KAIMING): (36, 0.0002, 0.6),
    }

    @pytest.mark.parametrize("cell", list(EXPECTED), ids=lambda c: f"{c[0].value}L-{c[1].value}")
    def test_preset_values_exact(self, cell):
        hp = SUITE_CELLS[cell]
        bs, lr, m = self.EXPECTED[cell]
        assert hp.batch_size == bs
        assert hp.learning_rate == lr
        assert hp.momentum == m


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Hyperparams(0, 0.1, 0.5)
        with pytest.raises(ValidationError):
            Hyperparams(8, 0.0, 0.5)
        with pytest.raises(ValidationError):
            Hyperparams(8, 0.1, 1.0)
        with pytest.raises(ValidationError):
            Hyperparams(8, 0.1, -0.1)
        for bad in ((True, 0.1, 0.5), (8, "0.1", 0.5), (8, True, 0.5),
                    (8, 0.1, None), (8, 0.1, False)):
            with pytest.raises(ValidationError):
                Hyperparams(*bad)


class TestSgdStep:
    def test_zero_momentum_is_plain_gradient_descent(self):
        params = normal_array(Rng(1), (50, 85))
        reference = params.copy()
        grad = np.full_like(params, 0.25)
        sgd_step(params, np.zeros_like(params), grad, Hyperparams(8, 0.01, 0.0))
        np.testing.assert_allclose(params, reference - 0.01 * 0.25, atol=1e-15)

    def test_zero_gradient_is_a_fixed_point(self):
        params = normal_array(Rng(2), (4, 85))
        reference = params.copy()
        velocity = np.zeros_like(params)
        for _ in range(5):
            sgd_step(params, velocity, np.zeros_like(params), Hyperparams(8, 0.1, 0.9))
        np.testing.assert_array_equal(params, reference)
        np.testing.assert_array_equal(velocity, 0.0)

    def test_second_update_magnitude_with_momentum(self):
        # v1 = g, v2 = 0.6 g + g = 1.6 g, so step 2 moves lr * 1.6 * g
        params = normal_array(Rng(3), (4, 85))
        velocity = np.zeros_like(params)
        g, lr = 0.5, 0.01
        hp = Hyperparams(8, lr, 0.6)
        sgd_step(params, velocity, np.full_like(params, g), hp)
        after_first = params.copy()
        sgd_step(params, velocity, np.full_like(params, g), hp)
        np.testing.assert_allclose(after_first - params, lr * 1.6 * g, atol=1e-15)

    @pytest.mark.parametrize("momentum", [0.0, 0.3, 0.6, 0.9])
    def test_velocity_recurrence_under_constant_gradient(self, momentum):
        params = normal_array(Rng(4), (4, 85))
        velocity = np.zeros_like(params)
        g = 0.125
        hp = Hyperparams(8, 1e-3, momentum)
        k = 12
        for _ in range(k):
            sgd_step(params, velocity, np.full_like(params, g), hp)
        if momentum == 0.0:
            expected = g
        else:
            expected = g * (1.0 - momentum**k) / (1.0 - momentum)
        np.testing.assert_allclose(velocity, expected, atol=1e-12)

    def test_update_is_deterministic(self):
        def run():
            params = normal_array(Rng(5), (3, 50, 86))
            velocity = np.zeros_like(params)
            rng = Rng(99)
            for _ in range(3):
                sgd_step(params, velocity, normal_array(rng, params.shape),
                         Hyperparams(8, 0.01, 0.6))
            return params

        assert run().tobytes() == run().tobytes()

    @pytest.mark.parametrize("shape", [(60,), (3, 4, 5)], ids=lambda shape: str(len(shape)))
    def test_update_through_scratch_equals_plain_formula(self, shape):
        # w - lr * (m * v + g), with fresh arrays at every step, bit for bit;
        # the scratch is the gradient, which the update overwrites
        params = normal_array(Rng(20), shape)
        velocity = np.zeros(shape)
        want_p, want_v = params.copy(), velocity.copy()
        hp = Hyperparams(8, 0.0123, 0.7)
        rng = Rng(97)
        for _ in range(4):
            g = normal_array(rng, shape)
            sgd_step(params, velocity, g.copy(), hp)
            want_v = hp.momentum * want_v + g
            want_p = want_p - hp.learning_rate * want_v
        assert params.tobytes() == want_p.tobytes()
        assert velocity.tobytes() == want_v.tobytes()

    def test_core_update_leaves_lr_times_velocity_in_grad(self):
        rng = Rng(94)
        params, velocity, grad = (rng.normal(50) for _ in range(3))
        hp = Hyperparams(8, 0.0123, 0.7)
        want_v = hp.momentum * velocity + grad
        want_p = params - hp.learning_rate * want_v
        sgd_step(params, velocity, grad, hp)
        assert velocity.tobytes() == want_v.tobytes()
        assert grad.tobytes() == (hp.learning_rate * want_v).tobytes()
        assert params.tobytes() == want_p.tobytes()

    def test_shape_mismatch_rejected(self):
        # any one of the three arrays off, a stack's fold axis included;
        # nothing is written before the error
        rng = Rng(6)
        for shapes in (((3, 4, 5),) * 2 + ((2, 4, 5),),
                       ((60,), (3, 4, 5), (3, 4, 5)),
                       ((4, 85), (4, 86), (4, 85))):
            arrays = [normal_array(rng, shape) for shape in shapes]
            before = [a.tobytes() for a in arrays]
            with pytest.raises(ShapeError):
                sgd_step(*arrays, Hyperparams(8, 0.1, 0.5))
            assert [a.tobytes() for a in arrays] == before

    def test_stacked_step_equals_each_slice(self):
        # the update is elementwise: a stack of folds updates each fold as alone
        stacked = normal_array(Rng(10), (3, 50, 86))
        velocity = np.zeros_like(stacked)
        alone = [fold.copy() for fold in stacked]
        alone_velocity = [np.zeros_like(fold) for fold in alone]
        rng = Rng(98)
        hp = Hyperparams(8, 0.01, 0.6)
        for _ in range(3):
            grad = normal_array(rng, stacked.shape)
            for k in range(3):
                sgd_step(alone[k], alone_velocity[k], grad[k].copy(), hp)
            sgd_step(stacked, velocity, grad, hp)
        for k in range(3):
            assert stacked[k].tobytes() == alone[k].tobytes()
