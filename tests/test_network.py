import numpy as np
import pytest

from mlpinit.errors import ShapeError, ValidationError
from mlpinit.initializers import KAIMING_NORMAL, XAVIER_NORMAL, Family, InitScheme, DistKind
from mlpinit.network import (
    Topology,
    backward,
    batch_loss,
    build_model,
    forward,
    grad_check,
    predict,
    stack_models,
)
from mlpinit.numerics import Rng, softmax
from mlpinit.optimizer import Hyperparams, SgdMomentumState, sgd_step


def random_batch(seed, n=8):
    rng = Rng(seed)
    x = rng.normal(n * 85).reshape(n, 85)
    y = np.array([rng.randbelow(4) for _ in range(n)])
    return x, y


class TestTopology:
    def test_dimension_chains(self):
        assert Topology.ONE_LAYER.layer_dims == (85, 4)
        assert Topology.TWO_LAYER.layer_dims == (85, 50, 4)
        assert Topology.THREE_LAYER.layer_dims == (85, 50, 20, 4)


class TestBuildModel:
    def test_three_layer_shapes(self):
        model = build_model(Rng(1), Topology.THREE_LAYER, KAIMING_NORMAL)
        shapes = [layer.weights.shape for layer in model.layers]
        assert shapes == [(50, 85), (20, 50), (4, 20)]

    def test_one_layer_is_single_affine_map(self):
        model = build_model(Rng(1), Topology.ONE_LAYER, XAVIER_NORMAL)
        assert len(model.layers) == 1
        assert model.layers[0].weights.shape == (4, 85)

    def test_biases_start_at_zero(self):
        model = build_model(Rng(2), Topology.TWO_LAYER, KAIMING_NORMAL)
        for layer in model.layers:
            assert np.all(layer.bias == 0.0)

    def test_same_seed_same_weights(self):
        a = build_model(Rng(9), Topology.THREE_LAYER, KAIMING_NORMAL)
        b = build_model(Rng(9), Topology.THREE_LAYER, KAIMING_NORMAL)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)


class TestForward:
    def test_zero_model_gives_uniform_probs(self):
        model = build_model(Rng(3), Topology.THREE_LAYER, KAIMING_NORMAL)
        for layer in model.layers:
            layer.weights[:] = 0.0
        x, _ = random_batch(10)
        np.testing.assert_allclose(forward(model, x).probs, 0.25)

    def test_one_layer_matches_direct_softmax(self):
        model = build_model(Rng(4), Topology.ONE_LAYER, XAVIER_NORMAL)
        x, _ = random_batch(11)
        expected = softmax(x @ model.layers[0].weights.T + model.layers[0].bias)
        np.testing.assert_array_equal(forward(model, x).probs, expected)

    def test_rows_sum_to_one(self):
        for seed in (0, 1, 2):
            model = build_model(Rng(seed), Topology.TWO_LAYER, KAIMING_NORMAL)
            x, _ = random_batch(seed + 20, n=16)
            sums = forward(model, x).probs.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_deterministic(self):
        model = build_model(Rng(5), Topology.THREE_LAYER, KAIMING_NORMAL)
        x, _ = random_batch(12)
        np.testing.assert_array_equal(forward(model, x).probs, forward(model, x).probs)

    def test_wrong_feature_count(self):
        model = build_model(Rng(5), Topology.ONE_LAYER, XAVIER_NORMAL)
        with pytest.raises(ShapeError, match="84 features"):
            forward(model, np.zeros((3, 84)))


class TestBackward:
    def test_zero_input_kills_weight_gradient(self):
        model = build_model(Rng(6), Topology.ONE_LAYER, XAVIER_NORMAL)
        x = np.zeros((5, 85))
        y = np.array([0, 1, 2, 3, 1])
        fwd = forward(model, x)
        grads = backward(model, fwd, y)
        np.testing.assert_array_equal(grads.d_weights[0], np.zeros((4, 85)))
        one_hot = np.eye(4)[y]
        np.testing.assert_allclose(
            grads.d_bias[0], (fwd.probs - one_hot).mean(axis=0), atol=1e-15
        )

    def test_duplicated_sample_equals_single_sample(self):
        model = build_model(Rng(7), Topology.TWO_LAYER, KAIMING_NORMAL)
        x, y = random_batch(13, n=1)
        single = backward(model, forward(model, x), y)
        doubled_x = np.vstack([x, x])
        doubled_y = np.concatenate([y, y])
        doubled = backward(model, forward(model, doubled_x), doubled_y)
        for a, b in zip(single.d_weights, doubled.d_weights):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_label_length_mismatch(self):
        model = build_model(Rng(7), Topology.ONE_LAYER, XAVIER_NORMAL)
        x, _ = random_batch(14, n=4)
        with pytest.raises(ShapeError):
            backward(model, forward(model, x), np.array([0, 1]))


class TestPredict:
    def test_argmax_row_wise(self):
        model = build_model(Rng(8), Topology.THREE_LAYER, KAIMING_NORMAL)
        x, _ = random_batch(15, n=10)
        expected = np.argmax(forward(model, x).probs, axis=1)
        np.testing.assert_array_equal(predict(model, x), expected)

    def test_tie_breaks_to_lowest_class(self):
        model = build_model(Rng(8), Topology.ONE_LAYER, XAVIER_NORMAL)
        for layer in model.layers:
            layer.weights[:] = 0.0
        x, _ = random_batch(16, n=6)
        # all probabilities tie at 0.25, so every prediction is class 0
        np.testing.assert_array_equal(predict(model, x), np.zeros(6, dtype=np.int64))


class TestGradCheck:
    def test_three_layer_kaiming_below_1e5(self):
        model = build_model(Rng(77), Topology.THREE_LAYER, KAIMING_NORMAL)
        x, y = random_batch(901)
        assert grad_check(model, x, y, epsilon=1e-5) < 1e-5

    def test_one_layer_below_1e6(self):
        model = build_model(Rng(77), Topology.ONE_LAYER, XAVIER_NORMAL)
        x, y = random_batch(901)
        assert grad_check(model, x, y, epsilon=1e-5) < 1e-6

    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.name)
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_all_configurations_below_1e4(self, topology, family):
        model = build_model(Rng(77), topology, InitScheme(family, DistKind.NORMAL))
        x, y = random_batch(901)
        assert grad_check(model, x, y, epsilon=1e-5) < 1e-4

    def test_dead_relu_unit_passes_with_exact_zero_gradient(self):
        model = build_model(Rng(21), Topology.TWO_LAYER, KAIMING_NORMAL)
        # hidden unit 0 never fires for positive inputs
        model.layers[0].weights[0, :] = -np.abs(model.layers[0].weights[0, :])
        model.layers[0].bias[0] = -1.0
        x = np.abs(Rng(22).normal(4 * 85)).reshape(4, 85)
        y = np.array([0, 1, 1, 3])
        fwd = forward(model, x)
        assert np.all(fwd.pre_activations[0][:, 0] < 0.0)
        grads = backward(model, fwd, y)
        np.testing.assert_array_equal(grads.d_weights[0][0, :], 0.0)
        assert grads.d_bias[0][0] == 0.0
        assert grad_check(model, x, y, epsilon=1e-5) < 1e-4

    def test_epsilon_outside_documented_range(self):
        model = build_model(Rng(1), Topology.ONE_LAYER, XAVIER_NORMAL)
        x, y = random_batch(2, n=2)
        with pytest.raises(ValidationError):
            grad_check(model, x, y, epsilon=1e-2)


class TestStackedModels:
    """A stack of 3 models runs each fold exactly as the 2-D call on that fold."""

    @staticmethod
    def stack(topology, n_rows=7):
        models = [build_model(Rng(30 + k), topology, KAIMING_NORMAL) for k in range(3)]
        for k, model in enumerate(models):
            for layer in model.layers:  # nonzero biases, different per fold
                layer.bias[:] = Rng(50 + k).normal(layer.bias.size)
        batches = [random_batch(40 + k, n=n_rows) for k in range(3)]
        x = np.stack([b[0] for b in batches])
        y = np.stack([b[1] for b in batches])
        return models, stack_models(models), x, y

    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.name)
    def test_forward_backward_predict_equal_each_slice(self, topology):
        models, stacked, x, y = self.stack(topology)
        fwd = forward(stacked, x)
        grads = backward(stacked, fwd, y)
        preds = predict(stacked, x)
        assert stacked.folds == (3,)
        for k, model in enumerate(models):
            alone = forward(model, x[k])
            for got, want in zip(fwd.activations + fwd.pre_activations,
                                 alone.activations + alone.pre_activations):
                assert got[k].tobytes() == want.tobytes()
            alone_grads = backward(model, alone, y[k])
            for got, want in zip(grads.d_weights + grads.d_bias,
                                 alone_grads.d_weights + alone_grads.d_bias):
                assert got[k].tobytes() == want.tobytes()
            np.testing.assert_array_equal(preds[k], predict(model, x[k]))

    def test_fold_returns_the_stacked_model(self):
        models, stacked, _, _ = self.stack(Topology.TWO_LAYER)
        for k, model in enumerate(models):
            for got, want in zip(stacked.fold(k).layers, model.layers):
                np.testing.assert_array_equal(got.weights, want.weights)
                np.testing.assert_array_equal(got.bias, want.bias)

    def test_fold_count_mismatch_rejected(self):
        _, stacked, x, _ = self.stack(Topology.ONE_LAYER)
        with pytest.raises(ShapeError, match=r"\(3, rows, 85\), got \(2, 7, 85\)"):
            forward(stacked, x[:2])
        with pytest.raises(ShapeError, match=r"\(3, rows, 85\), got \(7, 85\)"):
            forward(stacked, x[0])
        with pytest.raises(ShapeError, match=r"\(rows, 85\), got \(3, 7, 85\)"):
            forward(stacked.fold(0), x)

    def test_feature_count_mismatch_rejected(self):
        _, stacked, x, _ = self.stack(Topology.ONE_LAYER)
        with pytest.raises(ShapeError, match="84 features"):
            forward(stacked, x[:, :, :84])

    def test_label_shape_mismatch_rejected(self):
        _, stacked, x, y = self.stack(Topology.ONE_LAYER)
        with pytest.raises(ShapeError):
            backward(stacked, forward(stacked, x), y[:, :5])


def test_single_sgd_step_decreases_loss_on_fresh_models():
    # allow at most one failure over 20 seeds
    hp = Hyperparams(batch_size=8, learning_rate=1e-3, momentum=0.0)
    failures = 0
    for seed in range(20):
        model = build_model(Rng(seed), Topology.THREE_LAYER, KAIMING_NORMAL)
        x, y = random_batch(1000 + seed)
        before = batch_loss(model, x, y)
        state = SgdMomentumState(model)
        sgd_step(state, model, backward(model, forward(model, x), y), hp)
        if not batch_loss(model, x, y) < before:
            failures += 1
    assert failures <= 1
