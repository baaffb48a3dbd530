"""Network types, the noisy generative process, and evaluation metrics."""
import numpy as np
import pytest

from nngibbs.kernels import RngStream
from nngibbs.network import error_rate, test_mse as mse_between
from nngibbs.network import (
    Activation,
    ChainState,
    ConvLayer,
    DenseLayer,
    NetworkSpec,
    NoiseSchedule,
    PoolLayer,
    PriorSpec,
    ShapeMismatch,
    forward_generate,
    parameter_count,
    predict,
)


def mlp(widths, activation=Activation.RELU, output="regression", bias=True):
    layers = tuple(DenseLayer(a, b, has_bias=bias) for a, b in zip(widths[:-1], widths[1:]))
    return NetworkSpec(layers=layers, activation=activation, output=output)


class TestSpecs:
    def test_shapes_must_compose(self):
        with pytest.raises(ValueError):
            NetworkSpec(layers=(DenseLayer(4, 3), DenseLayer(2, 1)))

    def test_conv_output_dims(self):
        conv = ConvLayer(1, 2, in_height=28, in_width=28, filter_height=4, filter_width=4, stride_y=3, stride_x=3)
        assert (conv.out_height, conv.out_width) == (9, 9)

    def test_pool_must_follow_conv(self):
        with pytest.raises(ValueError):
            NetworkSpec(layers=(DenseLayer(4, 4), PoolLayer(1, 2, 2, 2, 2), DenseLayer(1, 1)))

    def test_noise_schedule_positive(self):
        spec = mlp([3, 2, 1])
        with pytest.raises(ValueError):
            NoiseSchedule(delta_z={2: 1.0, 3: 0.0}, delta_x={2: 1.0})
        sched = NoiseSchedule.uniform(spec, 0.5)
        assert sched.delta_z == {2: 0.5, 3: 0.5}
        assert sched.delta_x == {2: 0.5}
        assert sched.output_delta == 0.5

    def test_prior_fan_in(self):
        spec = mlp([50, 10, 1])
        prior = PriorSpec.fan_in(spec)
        assert prior.lambda_w == {1: 50.0, 2: 10.0}
        assert prior.lambda_b == {1: 50.0, 2: 10.0}

    def test_parameter_count_matches_sizing_rule(self):
        # 50-10-1 with biases: 500 + 10 + 10 + 1 parameters
        spec = mlp([50, 10, 1])
        assert parameter_count(spec) == 521
        assert 4 * parameter_count(spec) == 2084


class TestForwardGenerate:
    def test_noiseless_linear_is_exact(self):
        spec = mlp([4, 2], activation=Activation.LINEAR, bias=False)
        noise = NoiseSchedule.uniform(spec, 1.0)
        rng = RngStream(0)
        X = rng.generator.standard_normal((7, 4))
        W = {1: rng.generator.standard_normal((2, 4))}
        state, labels = forward_generate(spec, noise, W, {1: None}, X, None, noiseless=True)
        np.testing.assert_array_equal(labels, X @ W[1].T)

    def test_noiseless_is_bitwise_deterministic(self):
        spec = mlp([5, 3, 2])
        noise = NoiseSchedule.uniform(spec, 1e-3)
        gen = np.random.default_rng(1)
        X = gen.standard_normal((6, 5))
        W = {1: gen.standard_normal((3, 5)), 2: gen.standard_normal((2, 3))}
        b = {1: gen.standard_normal(3), 2: gen.standard_normal(2)}
        _, labels1 = forward_generate(spec, noise, W, b, X, None, noiseless=True)
        _, labels2 = forward_generate(spec, noise, W, b, X, None, noiseless=True)
        np.testing.assert_array_equal(labels1, labels2)

    def test_zero_weights_relu(self):
        spec = mlp([3, 4, 2], bias=False)
        noise = NoiseSchedule.uniform(spec, 1.0)
        X = np.zeros((2000, 3))
        W = {1: np.zeros((4, 3)), 2: np.zeros((2, 4))}
        state, _ = forward_generate(spec, noise, W, {1: None, 2: None}, X, RngStream(2))
        # Z2 is pure noise, X2 fluctuates around relu(Z2)
        assert abs(state.Z[2].mean()) < 0.05
        assert abs(state.Z[2].var() - 1.0) < 0.05
        resid = state.X[2] - np.maximum(state.Z[2], 0.0)
        assert abs(resid.var() - 1.0) < 0.05

    def test_noise_reaches_scheduled_variance(self):
        spec = mlp([50, 10, 1])
        noise = NoiseSchedule.uniform(spec, 1e-4)
        prior = PriorSpec.fan_in(spec)
        rng = RngStream(3)
        gen = rng.generator
        X = gen.standard_normal((2084, 50))
        W = {1: gen.normal(scale=1 / np.sqrt(50), size=(10, 50)), 2: gen.normal(scale=1 / np.sqrt(10), size=(1, 10))}
        b = {1: gen.normal(scale=1 / np.sqrt(50), size=10), 2: gen.normal(scale=1 / np.sqrt(10), size=1)}
        state, labels = forward_generate(spec, noise, W, b, X, rng)
        assert labels.shape == (2084, 1)
        eps_z = state.Z[2] - (X @ W[1].T + b[1])
        assert abs(eps_z.var() - 1e-4) < 2e-5

    def test_probit_labels_are_argmax(self):
        spec = mlp([4, 3], output="probit", bias=False)
        noise = NoiseSchedule.uniform(spec, 0.3)
        rng = RngStream(4)
        X = rng.generator.standard_normal((40, 4))
        W = {1: rng.generator.standard_normal((3, 4))}
        state, labels = forward_generate(spec, noise, W, {1: None}, X, rng)
        np.testing.assert_array_equal(labels, state.Z[2].argmax(axis=1))
        assert state.labels is not None

    def test_shape_mismatch(self):
        spec = mlp([4, 2], bias=False)
        noise = NoiseSchedule.uniform(spec, 1.0)
        with pytest.raises(ShapeMismatch):
            forward_generate(spec, noise, {1: np.zeros((3, 4))}, {1: None}, np.zeros((5, 4)), RngStream(0))

    def test_input_width_mismatch(self):
        spec = mlp([4, 2], bias=False)
        noise = NoiseSchedule.uniform(spec, 1.0)
        with pytest.raises(ShapeMismatch, match="first layer"):
            forward_generate(spec, noise, {1: np.zeros((2, 4))}, {1: None}, np.zeros((5, 3)), RngStream(0))


class TestMetrics:
    def setup_method(self):
        self.spec = mlp([6, 4, 1])
        self.rng = RngStream(5)
        gen = self.rng.generator
        self.W = {1: gen.standard_normal((4, 6)), 2: gen.standard_normal((1, 4))}
        self.b = {1: gen.standard_normal(4), 2: gen.standard_normal(1)}
        self.X = gen.standard_normal((30, 6))

    def test_student_equals_teacher(self):
        assert mse_between(self.spec, self.W, self.b, self.W, self.b, self.X) == 0.0

    def test_zero_teacher_direct_formula(self):
        zero_W = {1: np.zeros((4, 6)), 2: np.zeros((1, 4))}
        zero_b = {1: np.zeros(4), 2: np.zeros(1)}
        v = predict(self.spec, self.W, self.b, self.X)
        expected = float(np.sum(v**2) / len(v))
        got = mse_between(self.spec, self.W, self.b, zero_W, zero_b, self.X)
        assert abs(got - expected) < 1e-12

    def test_mse_against_independent_forward(self):
        # duplicate evaluation: chain the layers by hand
        def f(x):
            h = np.maximum(x @ self.W[1].T + self.b[1], 0.0)
            return h @ self.W[2].T + self.b[2]

        W2 = {1: self.W[1] + 0.1, 2: self.W[2]}
        got = mse_between(self.spec, self.W, self.b, W2, self.b, self.X)

        def f2(x):
            h = np.maximum(x @ W2[1].T + self.b[1], 0.0)
            return h @ W2[2].T + self.b[2]

        expected = float(np.sum((f(self.X) - f2(self.X)) ** 2) / len(self.X))
        assert abs(got - expected) < 1e-12

    def test_error_perfect_and_constant(self):
        spec = mlp([4, 10], output="probit", bias=False)
        gen = np.random.default_rng(6)
        X = gen.standard_normal((500, 4))
        W = {1: gen.standard_normal((10, 4))}
        labels = predict(spec, W, {1: None}, X).argmax(axis=1)
        assert error_rate(predict(spec, W, {1: None}, X), labels) == 0.0
        # an all-zero network predicts class 0 everywhere (ties break low)
        zero = {1: np.zeros((10, 4))}
        balanced_labels = np.repeat(np.arange(10), 50)
        err = error_rate(predict(spec, zero, {1: None}, X), balanced_labels)
        assert abs(err - 0.9) < 1e-12

    def test_error_against_bruteforce(self):
        spec = mlp([4, 3], output="probit", bias=False)
        gen = np.random.default_rng(7)
        X = gen.standard_normal((200, 4))
        W = {1: gen.standard_normal((3, 4))}
        labels = gen.integers(0, 3, size=200)
        got = error_rate(predict(spec, W, {1: None}, X), labels)
        wrong = sum(int(np.argmax(x @ W[1].T) != y) for x, y in zip(X, labels))
        assert got == wrong / 200


class TestChainStateValidation:
    def test_probit_constraint_checked(self):
        spec = mlp([2, 3], output="probit", bias=False)
        Z = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        state = ChainState(W={1: np.zeros((3, 2))}, b={1: None}, X={1: np.zeros((2, 2))}, Z={2: Z}, labels=np.array([0, 1]))
        state.validate(spec)
        state.labels = np.array([1, 1])
        with pytest.raises(ShapeMismatch):
            state.validate(spec)
