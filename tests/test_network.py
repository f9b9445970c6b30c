import math

import numpy as np
import pytest

from mlpinit._platform import fingerprint
from mlpinit.errors import ShapeError, ValidationError
from mlpinit.harness import save_model
from mlpinit.initializers import KAIMING_NORMAL, XAVIER_NORMAL, Family, InitScheme, DistKind
from mlpinit.network import (
    ForwardPass,
    Gradients,
    Topology,
    backward,
    build_model,
    forward,
    grad_check,
    predict,
    _flat_stack,
    _one_hot,
    _weights_and_bias,
)
from mlpinit.numerics import Rng, _cross_entropy, _Softmax
from mlpinit.optimizer import Hyperparams, sgd_step


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
        logits = x @ model.layers[0].weights.T + model.layers[0].bias
        expected = _Softmax(logits, np.empty_like(logits))()
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
        grads = backward(fwd, y)
        np.testing.assert_array_equal(grads.d_weights[0], np.zeros((4, 85)))
        one_hot = np.eye(4)[y]
        np.testing.assert_allclose(
            grads.d_bias[0], (fwd.probs - one_hot).mean(axis=0), atol=1e-15
        )

    def test_duplicated_sample_equals_single_sample(self):
        model = build_model(Rng(7), Topology.TWO_LAYER, KAIMING_NORMAL)
        x, y = random_batch(13, n=1)
        single = backward(forward(model, x), y)
        doubled_x = np.vstack([x, x])
        doubled_y = np.concatenate([y, y])
        doubled = backward(forward(model, doubled_x), doubled_y)
        for a, b in zip(single.d_weights, doubled.d_weights):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_relu_gate_is_closed_at_exactly_zero(self):
        # backward: "passes gradient only where the pre-activation was
        # strictly positive (subgradient 0 at exactly 0)"
        model = build_model(Rng(23), Topology.TWO_LAYER, KAIMING_NORMAL)
        j = 5
        model.layers[0].weights[j, :] = 0.0
        model.layers[0].bias[j] = 0.0
        x, y = random_batch(24)
        fwd = forward(model, x)
        assert np.all(fwd.pre_activations[0][:, j] == 0.0)
        grads = backward(fwd, y)
        np.testing.assert_array_equal(grads.d_weights[0][j], 0.0)
        assert grads.d_bias[0][j] == 0.0

    def test_uint64_label_named_as_given(self):
        model = build_model(Rng(7), Topology.ONE_LAYER, XAVIER_NORMAL)
        fwd = forward(model, np.zeros((2, 85)))
        with pytest.raises(ValidationError, match="^label 18446744073709551615 outside"):
            backward(fwd, np.array([0, 2**64 - 1], dtype=np.uint64))

    def test_label_length_mismatch(self):
        model = build_model(Rng(7), Topology.ONE_LAYER, XAVIER_NORMAL)
        x, _ = random_batch(14, n=4)
        with pytest.raises(ShapeError):
            backward(forward(model, x), np.array([0, 1]))

    def test_repeated_backward_on_one_pass_gives_independent_arrays(self):
        # backward: "a second call on the same pass leaves the first one's
        # arrays as they were"
        model = build_model(Rng(25), Topology.THREE_LAYER, KAIMING_NORMAL)
        x, y = random_batch(26)
        z = (y + 1) % 4
        fwd = forward(model, x)
        first = backward(fwd, y)
        second = backward(fwd, z)
        for labels, grads in ((y, first), (z, second)):
            fresh = backward(forward(model, x), labels)
            for got, want in zip(grads.d_weights + grads.d_bias, fresh.d_weights + fresh.d_bias):
                assert got.tobytes() == want.tobytes()
        for a, b in zip(first.d_weights, second.d_weights):
            assert not np.shares_memory(a, b)
            assert a.tobytes() != b.tobytes()

    def test_batch_of_no_rows_rejected(self):
        # backward: "The loss is a mean over the rows, so a batch of no rows
        # is a ShapeError"; forward and predict take one
        model = build_model(Rng(7), Topology.TWO_LAYER, KAIMING_NORMAL)
        x, y = np.zeros((0, 85)), np.zeros(0, dtype=np.int64)
        fwd = forward(model, x)
        assert fwd.probs.shape == (0, 4)
        assert predict(model, x).shape == (0,)
        with pytest.raises(ShapeError, match="at least one row"):
            backward(fwd, y)


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

    @pytest.mark.parametrize("batch", [
        np.ones((2, 85), dtype=bool),
        np.ones((2, 85), dtype=complex),
        [[None] * 85] * 2,
        [["1.0"] * 85] * 2,
    ], ids=["bool", "complex", "none", "strings"])
    def test_batch_must_be_real_numbers(self, batch):
        # a cast would read bools as 0/1, drop an imaginary part and None as NaN
        model = build_model(Rng(8), Topology.ONE_LAYER, XAVIER_NORMAL)
        with pytest.raises(ValidationError, match="batch must be real numbers"):
            predict(model, batch)


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
        grads = backward(fwd, y)
        np.testing.assert_array_equal(grads.d_weights[0][0, :], 0.0)
        assert grads.d_bias[0][0] == 0.0
        assert grad_check(model, x, y, epsilon=1e-5) < 1e-4

    def test_batch_of_no_rows_rejected(self):
        # grad_check: "it needs a batch of at least one row"
        model = build_model(Rng(1), Topology.ONE_LAYER, XAVIER_NORMAL)
        with pytest.raises(ShapeError, match="at least one row"):
            grad_check(model, np.zeros((0, 85)), np.zeros(0, dtype=np.int64))

    def test_nan_error_is_the_worst_error(self):
        # grad_check: "math.inf if any of these is NaN", so a non-finite
        # model fails every bound
        model = build_model(Rng(77), Topology.THREE_LAYER, KAIMING_NORMAL)
        for layer in model.layers:
            layer.weights *= 1e300
        x, y = random_batch(901)
        with np.errstate(all="ignore"):
            assert grad_check(model, x, y, epsilon=1e-5) == math.inf

    def test_stacked_model_rejected_up_front(self):
        _, stacked = _flat_stack(
            [build_model(Rng(k), Topology.ONE_LAYER, XAVIER_NORMAL) for k in range(2)]
        )
        x, y = random_batch(3, n=4)
        with pytest.raises(ShapeError, match=r"grad_check takes one model.*\(2,\)"):
            grad_check(stacked, np.stack([x, x]), np.stack([y, y]))

    def test_epsilon_outside_documented_range(self):
        model = build_model(Rng(1), Topology.ONE_LAYER, XAVIER_NORMAL)
        x, y = random_batch(2, n=2)
        with pytest.raises(ValidationError):
            grad_check(model, x, y, epsilon=1e-2)

    @pytest.mark.parametrize("epsilon, accepted", [
        (9e-8, False), (1e-7, True), (1e-3, True), (1.1e-3, False),
    ])
    def test_epsilon_range_is_closed(self, epsilon, accepted):
        # grad_check: "epsilon must lie in [1e-7, 1e-3]", both ends included
        model = build_model(Rng(1), Topology.ONE_LAYER, XAVIER_NORMAL)
        x, y = random_batch(2, n=2)
        if accepted:
            assert grad_check(model, x, y, epsilon=epsilon) < 1e-2
        else:
            with pytest.raises(ValidationError, match=r"epsilon must lie in \[1e-7, 1e-3\]"):
                grad_check(model, x, y, epsilon=epsilon)


def test_no_call_writes_into_a_model_it_is_given(tmp_path):
    # grad_check "only reads model": every call on a model whose arrays are
    # read-only gives the bytes that it gives on a writable copy, and leaves
    # the model's bytes as they were
    x, y = random_batch(901)
    writable = build_model(Rng(77), Topology.THREE_LAYER, KAIMING_NORMAL)
    for layer in writable.layers:
        layer.bias[:] = Rng(78).normal(layer.bias.size)
    # views of a flat vector, as a trained model's arrays are
    model = _flat_stack([writable])[1].fold(0)
    for layer in model.layers:
        layer.weights.flags.writeable = layer.bias.flags.writeable = False
    kept = [(layer.weights.tobytes(), layer.bias.tobytes()) for layer in model.layers]

    def outputs(m, path):
        fwd = forward(m, x)
        grads = backward(fwd, y)
        save_model(m, path)
        params, _ = _flat_stack([m])
        return {
            "probs": fwd.probs.tobytes(),
            "gradients": [g.tobytes() for g in grads.d_weights + grads.d_bias],
            "predict": predict(m, x).tobytes(),
            "grad_check": grad_check(m, x, y),
            "save_model": path.read_bytes(),
            "_flat_stack": params.tobytes(),
        }

    got = outputs(model, tmp_path / "read_only.bin")
    assert got == outputs(writable, tmp_path / "writable.bin")
    assert got["grad_check"] < 1e-4
    assert [(layer.weights.tobytes(), layer.bias.tobytes()) for layer in model.layers] == kept


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
        return models, _flat_stack(models)[1], x, y

    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.name)
    def test_forward_backward_predict_equal_each_slice(self, topology):
        models, stacked, x, y = self.stack(topology)
        fwd = forward(stacked, x)
        grads = backward(fwd, y)
        preds = predict(stacked, x)
        assert stacked.folds == (3,)
        for k, model in enumerate(models):
            alone = forward(model, x[k])
            for got, want in zip(fwd.activations + fwd.pre_activations,
                                 alone.activations + alone.pre_activations):
                assert got[k].tobytes() == want.tobytes()
            alone_grads = backward(alone, y[k])
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

    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.name)
    def test_the_flat_vector_holds_every_fold_and_an_in_place_write_reaches_them(self, topology):
        models, _, _, _ = self.stack(topology)
        kept = [[(l.weights.tobytes(), l.bias.tobytes()) for l in model.layers] for model in models]
        params, stacked = _flat_stack(models)
        assert stacked.folds == (3,) and params.ndim == 1
        for k, model in enumerate(models):
            for got, want in zip(stacked.fold(k).layers, model.layers):
                assert got.weights.tobytes() == want.weights.tobytes()
                assert got.bias.tobytes() == want.bias.tobytes()
        # sgd_step updates the vector in place: every layer's weights and
        # bias see the write, as (folds, out, in + 1) blocks in layer order,
        # and the models it copied do not
        params[...] = np.arange(params.size)
        blocks = [np.concatenate((l.weights, l.bias[..., None]), axis=-1) for l in stacked.layers]
        assert np.concatenate([b.ravel() for b in blocks]).tobytes() == params.tobytes()
        assert [[(l.weights.tobytes(), l.bias.tobytes()) for l in m.layers] for m in models] == kept

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
            backward(forward(stacked, x), y[:, :5])


class TestOutBuffers:
    """Step plans, run on reused arrays as the training loop runs them,
    overwrite those arrays with a fresh public call's bits."""

    @staticmethod
    def models():
        one = build_model(Rng(60), Topology.THREE_LAYER, KAIMING_NORMAL)
        models = [build_model(Rng(61 + k), Topology.THREE_LAYER, KAIMING_NORMAL) for k in range(3)]
        for k, model in enumerate(models):
            for layer in model.layers:  # nonzero biases, different per fold
                layer.bias[:] = Rng(70 + k).normal(layer.bias.size)
        return [one, _flat_stack(models)[1]]

    @staticmethod
    def batch(model, seed, rows):
        batches = [random_batch(seed + k, n=rows) for k in range(3)]
        if model.folds == ():
            return batches[0]
        return np.stack([b[0] for b in batches]), np.stack([b[1] for b in batches])

    @staticmethod
    def arrays(fwd, grads):
        return fwd.activations + fwd.pre_activations + grads.d_weights + grads.d_bias

    @pytest.mark.parametrize("stacked", [False, True], ids=["2d", "3fold"])
    def test_full_and_short_batches_in_turn_match_fresh_calls(self, stacked):
        model = self.models()[stacked]
        # one flat gradient vector for both batch shapes, as in the training
        # loop; each plan views it as (out, in + 1) blocks
        size = sum(l.weights.size + l.bias.size for l in model.layers)
        grad = np.empty(size)
        plans = {rows: ForwardPass(model, rows, grad) for rows in (8, 3)}
        grads = {rows: Gradients(*_weights_and_bias(plan.gradients)) for rows, plan in plans.items()}
        given = {rows: [id(a) for a in self.arrays(plan, grads[rows])] for rows, plan in plans.items()}
        for step, rows in enumerate((8, 3, 8, 3)):
            x, y = self.batch(model, 100 + 10 * step, rows)
            plan = plans[rows]
            plan.batch[...] = x
            plan.one_hot[...] = _one_hot(y)
            plan._forward()
            plan._backward()
            # the blocks tile the vector, in layer order
            assert all(np.shares_memory(block, grad) for block in plan.gradients)
            assert np.concatenate([block.ravel() for block in plan.gradients]).tobytes() == grad.tobytes()
            assert [id(a) for a in self.arrays(plan, grads[rows])] == given[rows]
            fresh_fwd = forward(model, x)
            fresh = self.arrays(fresh_fwd, backward(fresh_fwd, y))
            for got, want in zip(self.arrays(plan, grads[rows]), fresh):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_an_in_place_parameter_update_reaches_the_next_step(self):
        model = self.models()[1]
        x, y = self.batch(model, 200, 5)
        plan = ForwardPass(model, 5)
        plan.batch[...] = x
        plan._forward()
        for layer in model.layers:
            layer.weights *= 0.5
            layer.bias += 1.0
        plan._forward()
        assert plan.probs.tobytes() == forward(model, x).probs.tobytes()


# OpenBLAS kernels whose dgemm, in a probe, splits a sum over 4 to 36 rows:
# Katmai is what OPENBLAS_CORETYPE=Prescott (and Core2) runs, Nehalem what
# Nehalem and Barcelona run. SkylakeX, Haswell and Sandybridge do not.
SPLIT_SUM_KERNELS = {"Katmai", "Nehalem"}


class TestBiasColumn:
    """backward gets each layer's bias gradient as the last column of the
    weight-gradient matmul, against a column of ones (see network.ForwardPass).
    For every layer shape the presets train, at 1 to 36 rows, that column
    has the bits of numpy's in-order sum of the delta over the rows, and the
    other columns those of delta.T @ a."""

    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.name)
    @pytest.mark.parametrize("folds", [(), (1,), (20,)], ids=["2d", "1fold", "20fold"])
    def test_bias_gradient_is_the_in_order_row_sum(self, topology, folds):
        split = SPLIT_SUM_KERNELS.intersection(fingerprint()[0])
        if split:
            pytest.skip(f"OpenBLAS's {split.pop()} dgemm splits the sum over the rows")
        n_models = math.prod(folds)
        models = [build_model(Rng(80 + k), topology, KAIMING_NORMAL) for k in range(n_models)]
        for k, model in enumerate(models):
            for layer in model.layers:  # nonzero biases, so that some ReLUs are shut
                layer.bias[:] = Rng(90 + k).normal(layer.bias.size)
        model = models[0] if folds == () else _flat_stack(models)[1]
        for rows in range(1, 37):
            rng = Rng(1000 + rows)
            x = rng.normal(n_models * rows * 85).reshape(folds + (rows, 85))
            y = np.array([rng.randbelow(4) for _ in range(n_models * rows)])
            y = y.reshape(folds + (rows,))
            fwd = forward(model, x)
            grads = backward(fwd, y)
            delta = (fwd.probs - np.eye(4)[y]) / rows
            for i in reversed(range(len(model.layers))):
                a = np.ascontiguousarray(fwd.activations[i])
                assert grads.d_bias[i].tobytes() == delta.sum(axis=-2).tobytes(), (rows, i)
                d_weights = delta.swapaxes(-1, -2) @ a
                assert grads.d_weights[i].tobytes() == d_weights.tobytes(), (rows, i)
                if i:
                    delta = (delta @ model.layers[i].weights) * (fwd.pre_activations[i - 1] > 0)


def test_single_sgd_step_decreases_loss_on_fresh_models():
    # allow at most one failure over 20 seeds
    hp = Hyperparams(batch_size=8, learning_rate=1e-3, momentum=0.0)
    failures = 0
    for seed in range(20):
        model = build_model(Rng(seed), Topology.THREE_LAYER, KAIMING_NORMAL)
        x, y = random_batch(1000 + seed)
        before = _cross_entropy(forward(model, x).probs, y)
        grads = backward(forward(model, x), y)
        for layer, d_w, d_b in zip(model.layers, grads.d_weights, grads.d_bias):
            sgd_step(layer.weights, np.zeros_like(d_w), d_w, hp)
            sgd_step(layer.bias, np.zeros_like(d_b), d_b, hp)
        if not _cross_entropy(forward(model, x).probs, y) < before:
            failures += 1
    assert failures <= 1
