import copy

import numpy as np
import pytest

from mlpinit.errors import ShapeError, ValidationError
from mlpinit.initializers import KAIMING_NORMAL, Family
from mlpinit.network import Gradients, Topology, build_model, stack_models
from mlpinit.numerics import Rng
from mlpinit.harness import _flat_like
from mlpinit.optimizer import (
    Hyperparams,
    SgdMomentumState,
    _sgd_update,
    preset_hyperparams,
    sgd_step,
)


def constant_grads(model, value):
    return Gradients(
        d_weights=[np.full_like(layer.weights, value) for layer in model.layers],
        d_bias=[np.full_like(layer.bias, value) for layer in model.layers],
    )


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
        hp = preset_hyperparams(*cell)
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
        model = build_model(Rng(1), Topology.TWO_LAYER, KAIMING_NORMAL)
        reference = copy.deepcopy(model)
        grads = constant_grads(model, 0.25)
        hp = Hyperparams(8, 0.01, 0.0)
        sgd_step(SgdMomentumState(model), model, grads, hp)
        for layer, ref in zip(model.layers, reference.layers):
            np.testing.assert_allclose(
                layer.weights, ref.weights - 0.01 * 0.25, atol=1e-15
            )

    def test_zero_gradient_is_a_fixed_point(self):
        model = build_model(Rng(2), Topology.ONE_LAYER, KAIMING_NORMAL)
        reference = copy.deepcopy(model)
        state = SgdMomentumState(model)
        grads = constant_grads(model, 0.0)
        for _ in range(5):
            sgd_step(state, model, grads, Hyperparams(8, 0.1, 0.9))
        for layer, ref in zip(model.layers, reference.layers):
            np.testing.assert_array_equal(layer.weights, ref.weights)
        for v in state.v_weights:
            np.testing.assert_array_equal(v, 0.0)

    def test_second_update_magnitude_with_momentum(self):
        # v1 = g, v2 = 0.6 g + g = 1.6 g, so step 2 moves lr * 1.6 * g
        model = build_model(Rng(3), Topology.ONE_LAYER, KAIMING_NORMAL)
        g, lr = 0.5, 0.01
        grads = constant_grads(model, g)
        state = SgdMomentumState(model)
        hp = Hyperparams(8, lr, 0.6)
        sgd_step(state, model, grads, hp)
        after_first = model.layers[0].weights.copy()
        sgd_step(state, model, grads, hp)
        delta = after_first - model.layers[0].weights
        np.testing.assert_allclose(delta, lr * 1.6 * g, atol=1e-15)

    @pytest.mark.parametrize("momentum", [0.0, 0.3, 0.6, 0.9])
    def test_velocity_recurrence_under_constant_gradient(self, momentum):
        model = build_model(Rng(4), Topology.ONE_LAYER, KAIMING_NORMAL)
        g = 0.125
        grads = constant_grads(model, g)
        state = SgdMomentumState(model)
        hp = Hyperparams(8, 1e-3, momentum)
        k = 12
        for _ in range(k):
            sgd_step(state, model, grads, hp)
        if momentum == 0.0:
            expected = g
        else:
            expected = g * (1.0 - momentum**k) / (1.0 - momentum)
        np.testing.assert_allclose(state.v_weights[0], expected, atol=1e-12)

    def test_update_is_deterministic(self):
        def run():
            model = build_model(Rng(5), Topology.THREE_LAYER, KAIMING_NORMAL)
            state = SgdMomentumState(model)
            rng = Rng(99)
            for _ in range(3):
                grads = Gradients(
                    d_weights=[
                        rng.normal(l.weights.size).reshape(l.weights.shape)
                        for l in model.layers
                    ],
                    d_bias=[rng.normal(l.bias.size) for l in model.layers],
                )
                sgd_step(state, model, grads, Hyperparams(8, 0.01, 0.6))
            return model

        a, b = run(), run()
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    @pytest.mark.parametrize("folds", [1, 3])
    def test_update_through_scratch_equals_plain_formula(self, folds):
        # w - lr * (m * v + g), with fresh arrays at every step, bit for bit;
        # the scratch is sgd_step's copy of each gradient
        models = [build_model(Rng(20 + k), Topology.TWO_LAYER, KAIMING_NORMAL)
                  for k in range(folds)]
        model = models[0] if folds == 1 else stack_models(models)
        params = [p.copy() for p in model.parameter_arrays()]
        velocity = [np.zeros_like(p) for p in params]
        state = SgdMomentumState(model)
        hp = Hyperparams(8, 0.0123, 0.7)
        rng = Rng(97)
        for _ in range(4):
            g = [rng.normal(p.size).reshape(p.shape) for p in params]
            sgd_step(state, model, Gradients(d_weights=g[0::2], d_bias=g[1::2]), hp)
            velocity = [hp.momentum * v + d for v, d in zip(velocity, g)]
            params = [p - hp.learning_rate * v for p, v in zip(params, velocity)]
        for got, want in zip(model.parameter_arrays(), params):
            assert got.tobytes() == want.tobytes()

    def test_flat_update_equals_per_layer_step(self):
        # the training loop's layout: one vector each for parameters,
        # velocity and gradients, every layer a view into it
        stacked = stack_models(
            [build_model(Rng(30 + k), Topology.THREE_LAYER, KAIMING_NORMAL) for k in range(3)]
        )
        rng = Rng(96)
        for layer in stacked.layers:
            layer.bias[...] = rng.normal(layer.bias.size).reshape(layer.bias.shape)
        arrays = list(stacked.parameter_arrays())
        params, views = _flat_like(arrays)
        for view, array in zip(views, arrays):
            view[...] = array
        velocity, velocity_views = _flat_like(arrays)
        grad, grad_views = _flat_like(arrays)
        state = SgdMomentumState(stacked)
        hp = Hyperparams(8, 0.0123, 0.7)
        for _ in range(5):
            for view in grad_views:
                view[...] = rng.normal(view.size).reshape(view.shape)
            sgd_step(state, stacked, Gradients(
                d_weights=[g.copy() for g in grad_views[0::2]],
                d_bias=[g.copy() for g in grad_views[1::2]],
            ), hp)
            _sgd_update(params, velocity, grad, hp)
        for got, want in zip(views, stacked.parameter_arrays()):
            assert got.tobytes() == want.tobytes()
        for k, (v_w, v_b) in enumerate(zip(state.v_weights, state.v_bias)):
            assert velocity_views[2 * k].tobytes() == v_w.tobytes()
            assert velocity_views[2 * k + 1].tobytes() == v_b.tobytes()

    def test_gradients_left_unchanged(self):
        model = build_model(Rng(7), Topology.THREE_LAYER, KAIMING_NORMAL)
        rng = Rng(95)
        grads = Gradients(
            d_weights=[rng.normal(l.weights.size).reshape(l.weights.shape) for l in model.layers],
            d_bias=[rng.normal(l.bias.size) for l in model.layers],
        )
        before = [g.tobytes() for g in (*grads.d_weights, *grads.d_bias)]
        state = SgdMomentumState(model)
        for _ in range(2):
            sgd_step(state, model, grads, Hyperparams(8, 0.01, 0.6))
        assert [g.tobytes() for g in (*grads.d_weights, *grads.d_bias)] == before

    def test_core_update_leaves_lr_times_velocity_in_grad(self):
        rng = Rng(94)
        params, velocity, grad = (rng.normal(50) for _ in range(3))
        hp = Hyperparams(8, 0.0123, 0.7)
        want_v = hp.momentum * velocity + grad
        want_p = params - hp.learning_rate * want_v
        _sgd_update(params, velocity, grad, hp)
        assert velocity.tobytes() == want_v.tobytes()
        assert grad.tobytes() == (hp.learning_rate * want_v).tobytes()
        assert params.tobytes() == want_p.tobytes()

    def test_shape_mismatch_rejected(self):
        model = build_model(Rng(6), Topology.ONE_LAYER, KAIMING_NORMAL)
        other = build_model(Rng(6), Topology.TWO_LAYER, KAIMING_NORMAL)
        grads = constant_grads(other, 0.1)
        with pytest.raises(ShapeError):
            sgd_step(SgdMomentumState(model), model, grads, Hyperparams(8, 0.1, 0.0))

    def test_stacked_step_equals_each_slice(self):
        models = [build_model(Rng(10 + k), Topology.THREE_LAYER, KAIMING_NORMAL) for k in range(3)]
        stacked = stack_models(models)
        stacked_state = SgdMomentumState(stacked)
        states = [SgdMomentumState(model) for model in models]
        rng = Rng(98)
        hp = Hyperparams(8, 0.01, 0.6)
        for _ in range(3):
            grads = Gradients(
                d_weights=[rng.normal(l.weights.size).reshape(l.weights.shape)
                           for l in stacked.layers],
                d_bias=[rng.normal(l.bias.size).reshape(l.bias.shape) for l in stacked.layers],
            )
            sgd_step(stacked_state, stacked, grads, hp)
            for k, (model, state) in enumerate(zip(models, states)):
                sgd_step(state, model, Gradients(
                    d_weights=[d[k] for d in grads.d_weights],
                    d_bias=[d[k] for d in grads.d_bias],
                ), hp)
        for k, model in enumerate(models):
            for got, want in zip(stacked.layers, model.layers):
                assert got.weights[k].tobytes() == want.weights.tobytes()
                assert got.bias[k].tobytes() == want.bias.tobytes()

    def test_stacked_shape_mismatch_rejected(self):
        stacked = stack_models(
            [build_model(Rng(k), Topology.ONE_LAYER, KAIMING_NORMAL) for k in range(3)]
        )
        grads = Gradients(
            d_weights=[l.weights[:2] for l in stacked.layers],
            d_bias=[l.bias[:2] for l in stacked.layers],
        )
        with pytest.raises(ShapeError):
            sgd_step(SgdMomentumState(stacked), stacked, grads, Hyperparams(8, 0.1, 0.0))
