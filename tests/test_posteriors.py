"""Gradient and density checks for both posterior forms.

All gradients are verified against central finite differences; the
single-layer case must agree (up to an additive constant) between the
two posterior forms.
"""
import numpy as np
import pytest

from nngibbs.kernels import RngStream
from nngibbs.network import (
    Activation,
    ChainState,
    ConvLayer,
    Dataset,
    DenseLayer,
    NetworkSpec,
    NoiseSchedule,
    NonDifferentiableActivation,
    PoolLayer,
    PriorSpec,
    forward_generate,
)
from nngibbs.posteriors import (
    FlatPacker,
    clamped_frame,
    classical_log_posterior,
    intermediate_log_posterior,
    make_classical_target,
    make_intermediate_target,
)


def finite_diff(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def mlp(widths, activation=Activation.RELU, output="regression", bias=True):
    layers = tuple(DenseLayer(a, b, has_bias=bias) for a, b in zip(widths[:-1], widths[1:]))
    return NetworkSpec(layers=layers, activation=activation, output=output)


def small_regression_problem(seed=0):
    spec = mlp([4, 3, 1])
    rng = RngStream(seed)
    noise = NoiseSchedule.uniform(spec, 0.05)
    prior = PriorSpec.fan_in(spec)
    gen = rng.generator
    X = gen.standard_normal((12, 4))
    W = {1: gen.standard_normal((3, 4)), 2: gen.standard_normal((1, 3))}
    b = {1: gen.standard_normal(3), 2: gen.standard_normal(1)}
    state, labels = forward_generate(spec, noise, W, b, X, rng)
    dataset = Dataset(inputs=X, labels=labels)
    return spec, noise, prior, dataset, state


class TestClassicalPosterior:
    def test_prior_only_when_no_data(self):
        spec = mlp([3, 1], bias=False)
        prior = PriorSpec.uniform(spec, 2.0)
        W = {1: np.array([[0.5, -1.0, 2.0]])}
        dataset = Dataset(inputs=np.zeros((0, 3)), labels=np.zeros((0, 1)))
        logp, grads = classical_log_posterior(W, {1: None}, dataset, spec, 0.1, prior)
        assert logp == pytest.approx(-0.5 * 2.0 * float(np.sum(W[1] ** 2)))
        np.testing.assert_allclose(grads["W"][1], -2.0 * W[1])

    def test_gradient_matches_finite_differences(self):
        spec, noise, prior, dataset, _ = small_regression_problem()
        target, packer = make_classical_target(dataset, spec, 1e-3, prior)
        gen = np.random.default_rng(1)
        vec = 0.5 * gen.standard_normal(packer.size)
        logp, grad = target(vec)
        num = finite_diff(lambda v: target(v)[0], vec)
        scale = np.maximum(np.abs(num), 1.0)
        assert np.max(np.abs(grad - num) / scale) < 1e-5

    def test_softmax_classification_gradient(self):
        spec = mlp([4, 3, 3], output="probit")
        prior = PriorSpec.fan_in(spec)
        gen = np.random.default_rng(2)
        X = gen.standard_normal((15, 4))
        y = gen.integers(0, 3, size=15)
        dataset = Dataset(inputs=X, labels=y)
        target, packer = make_classical_target(dataset, spec, 2.0, prior)
        vec = 0.4 * gen.standard_normal(packer.size)
        logp, grad = target(vec)
        num = finite_diff(lambda v: target(v)[0], vec)
        scale = np.maximum(np.abs(num), 1.0)
        assert np.max(np.abs(grad - num) / scale) < 1e-5

    def test_conv_pipeline_gradient(self):
        conv = ConvLayer(1, 2, in_height=5, in_width=5, filter_height=2, filter_width=2, stride_y=1, stride_x=1)
        pool = PoolLayer(2, 4, 4, 2, 2)
        spec = NetworkSpec(layers=(conv, pool, DenseLayer(8, 3)), activation=Activation.RELU, output="probit")
        prior = PriorSpec.fan_in(spec)
        gen = np.random.default_rng(3)
        X = gen.standard_normal((6, 1, 5, 5))
        y = gen.integers(0, 3, size=6)
        dataset = Dataset(inputs=X, labels=y)
        target, packer = make_classical_target(dataset, spec, 10.0, prior)
        vec = 0.3 * gen.standard_normal(packer.size)
        _, grad = target(vec)
        num = finite_diff(lambda v: target(v)[0], vec)
        scale = np.maximum(np.abs(num), 1.0)
        assert np.max(np.abs(grad - num) / scale) < 1e-5


class TestIntermediatePosterior:
    def test_gradient_matches_finite_differences(self):
        spec, noise, prior, dataset, state = small_regression_problem(4)
        target, packer = make_intermediate_target(dataset, spec, noise, prior)
        vec = packer.pack({"W": state.W, "b": state.b, "X": state.X, "Z": state.Z, "P": state.P})
        # nudge away from relu kinks so the finite difference is clean
        vec = vec + 0.01 * np.sign(vec + 1e-9)
        logp, grad = target(vec)
        num = finite_diff(lambda v: target(v)[0], vec)
        scale = np.maximum(np.abs(num), 1.0)
        assert np.max(np.abs(grad - num) / scale) < 1e-5

    @pytest.mark.parametrize(
        "dense_tail",
        [(DenseLayer(2, 1),), (DenseLayer(2, 3), DenseLayer(3, 1))],
        ids=["conv-pool-dense", "conv-pool-dense-dense"],
    )
    def test_conv_gradient_matches_finite_differences(self, dense_tail):
        conv = ConvLayer(1, 2, in_height=4, in_width=4, filter_height=2, filter_width=2)
        pool = PoolLayer(2, 3, 3, 2, 2)
        spec = NetworkSpec(layers=(conv, pool, *dense_tail), activation=Activation.RELU)
        noise = NoiseSchedule.uniform(spec, 0.2)
        prior = PriorSpec.fan_in(spec)
        rng = RngStream(5)
        gen = rng.generator
        X = gen.standard_normal((3, 1, 4, 4))
        W = {l: gen.standard_normal(spec.weight_shape(l)) for l in range(1, spec.depth + 1)}
        b = {l: gen.standard_normal(spec.bias_width(l)) for l in range(1, spec.depth + 1)}
        state, labels = forward_generate(spec, noise, W, b, X, rng)
        dataset = Dataset(inputs=X, labels=labels)
        target, packer = make_intermediate_target(dataset, spec, noise, prior)
        vec = packer.pack({"W": state.W, "b": state.b, "X": state.X, "Z": state.Z, "P": state.P})
        vec = vec + 0.01 * np.sign(vec + 1e-9)
        _, grad = target(vec)
        num = finite_diff(lambda v: target(v)[0], vec)
        scale = np.maximum(np.abs(num), 1.0)
        assert np.max(np.abs(grad - num) / scale) < 1e-5

    def test_sign_activation_refuses_gradient(self):
        spec, noise, prior, dataset, state = small_regression_problem(6)
        sign_spec = mlp([4, 3, 1], activation=Activation.SIGN)
        with pytest.raises(NonDifferentiableActivation):
            intermediate_log_posterior(state, sign_spec, noise, prior)
        logp, _ = intermediate_log_posterior(state, sign_spec, noise, prior, want_grad=False)
        assert np.isfinite(logp)

    def test_generated_state_is_finite_and_probit_feasible(self):
        spec = mlp([4, 3, 3], output="probit")
        noise = NoiseSchedule.uniform(spec, 0.4)
        prior = PriorSpec.fan_in(spec)
        rng = RngStream(7)
        gen = rng.generator
        X = gen.standard_normal((25, 4))
        W = {1: gen.standard_normal((3, 4)), 2: gen.standard_normal((3, 3))}
        b = {1: gen.standard_normal(3), 2: gen.standard_normal(3)}
        state, _ = forward_generate(spec, noise, W, b, X, rng)
        logp, _ = intermediate_log_posterior(state, spec, noise, prior, want_grad=False)
        assert np.isfinite(logp)
        # break the constraint: density must vanish
        state.labels = (state.labels + 1) % 3
        logp_bad, _ = intermediate_log_posterior(state, spec, noise, prior, want_grad=False)
        assert logp_bad == -np.inf

    def test_single_layer_matches_classical_up_to_constant(self):
        spec = mlp([5, 1], bias=True)
        delta = 0.37
        noise = NoiseSchedule(delta_z={2: delta}, delta_x={})
        prior = PriorSpec.uniform(spec, 1.3)
        gen = np.random.default_rng(8)
        X = gen.standard_normal((20, 5))
        y = gen.standard_normal((20, 1))
        dataset = Dataset(inputs=X, labels=y)
        diffs = []
        for _ in range(100):
            W = {1: gen.standard_normal((1, 5))}
            b = {1: gen.standard_normal(1)}
            state = ChainState(W=W, b=b, X={1: X}, Z={2: y})
            lp_int, _ = intermediate_log_posterior(state, spec, noise, prior, want_grad=False)
            lp_cls, _ = classical_log_posterior(W, b, dataset, spec, delta, prior, want_grad=False)
            diffs.append(lp_int - lp_cls)
        diffs = np.asarray(diffs)
        assert np.max(np.abs(diffs - diffs[0])) < 1e-9

    def test_density_difference_feeds_acceptance_ratios(self):
        spec, noise, prior, dataset, state = small_regression_problem(9)
        target, packer = make_intermediate_target(dataset, spec, noise, prior)
        v1 = packer.pack({"W": state.W, "b": state.b, "X": state.X, "Z": state.Z, "P": state.P})
        v2 = v1 + 0.01
        l1, _ = target(v1)
        l2, _ = target(v2)
        # definitional consistency: difference is reusable as a log ratio
        assert np.isfinite(l2 - l1)


def _generated_problem(stack, seed=12, n=6):
    """A spec, its noise and prior, a dataset and the generating state."""
    conv = ConvLayer(1, 2, in_height=5, in_width=5, filter_height=2, filter_width=2)
    specs = {
        "dense": lambda: mlp([4, 3, 2, 1]),
        "conv-pool": lambda: NetworkSpec(layers=(conv, PoolLayer(2, 4, 4, 2, 2), DenseLayer(8, 3), DenseLayer(3, 1))),
        "probit": lambda: mlp([4, 3, 3], output="probit"),
        "bias-free": lambda: NetworkSpec(layers=(DenseLayer(4, 3, has_bias=False), DenseLayer(3, 2, has_bias=False), DenseLayer(2, 1))),
    }
    spec = specs[stack]()
    noise = NoiseSchedule.uniform(spec, 0.2)
    prior = PriorSpec.fan_in(spec)
    rng = RngStream(seed)
    gen = rng.generator
    X = gen.standard_normal((n, *spec.layers[0].in_shape))
    W = {l: gen.standard_normal(spec.weight_shape(l)) for l in range(1, spec.depth + 1)}
    b = {l: gen.standard_normal(spec.bias_width(l)) if spec.has_bias(l) else None for l in range(1, spec.depth + 1)}
    state, labels = forward_generate(spec, noise, W, b, X, rng)
    return spec, noise, prior, Dataset(inputs=X, labels=labels), state


class TestFlatGradient:
    @pytest.mark.parametrize("stack", ["dense", "conv-pool", "probit"])
    def test_target_gradient_is_the_state_api_grads(self, stack):
        """The target's flat vector and the state API's blocks come from one
        body: bitwise equal, block by block, and the blocks view one vector."""
        spec, noise, prior, dataset, state = _generated_problem(stack)
        target, packer = make_intermediate_target(dataset, spec, noise, prior)
        vec = packer.pack(vars(state))
        logp, flat = target(vec)
        view_state = packer.state(vec, clamped_frame(spec, dataset))
        logp_api, grads = intermediate_log_posterior(view_state, spec, noise, prior)
        assert flat.shape == (packer.size,) and logp_api == logp
        owner = grads["W"][1].base
        assert owner is not None and owner.shape == (packer.size,)
        for kind, l, shape in packer.blocks:
            block = grads[kind][l]
            assert block.shape == shape and block.base is owner, (kind, l)
            assert block.tobytes() == packer.view(flat, kind, l).tobytes(), (kind, l)

    @pytest.mark.parametrize("stack", ["probit", "bias-free"])
    def test_flat_target_matches_finite_differences(self, stack):
        spec, noise, prior, dataset, state = _generated_problem(stack, seed=13)
        target, packer = make_intermediate_target(dataset, spec, noise, prior)
        vec = packer.pack(vars(state))
        if stack != "probit":
            # a probit top must stay in its argmax cone, so only the rest is nudged off relu kinks
            vec = vec + 0.01 * np.sign(vec + 1e-9)
        logp, grad = target(vec)
        assert np.isfinite(logp)
        num = finite_diff(lambda v: target(v)[0], vec)
        scale = np.maximum(np.abs(num), 1.0)
        assert np.max(np.abs(grad - num) / scale) < 1e-5

    @pytest.mark.parametrize("posterior", ["intermediate", "classical"])
    def test_each_call_returns_a_new_gradient(self, posterior):
        """mala_step holds the first gradient across the second call."""
        spec, noise, prior, dataset, state = _generated_problem("dense")
        if posterior == "intermediate":
            target, packer = make_intermediate_target(dataset, spec, noise, prior)
        else:
            target, packer = make_classical_target(dataset, spec, 0.3, prior)
        vec = packer.pack(vars(state))
        _, g1 = target(vec)
        kept = g1.copy()
        _, g2 = target(vec + 0.01)
        assert g2 is not g1 and not np.shares_memory(g1, g2)
        assert g1.tobytes() == kept.tobytes()
        assert not np.array_equal(g1, g2)


class TestFlatPacker:
    def test_round_trip(self):
        spec = mlp([4, 3, 2], output="probit")
        packer = FlatPacker.for_intermediate(spec, n=5)
        gen = np.random.default_rng(10)
        vec = gen.standard_normal(packer.size)
        parts = packer.unpack(vec)
        np.testing.assert_array_equal(packer.pack(parts), vec)

    @pytest.mark.parametrize(
        "stack, order",
        [
            ("dense", "W1 b1 W2 b2 W3 b3 X2 Z2 X3 Z3 Z4"),
            ("conv", "W1 b1 W2 b2 X2 Z2"),
            ("conv-pool", "W1 b1 W2 b2 W3 b3 X2 Z2 P2 X3 Z3 Z4"),
        ],
    )
    def test_intermediate_block_order(self, stack, order):
        """Every hidden layer packs X, Z, then P where a pool feeds it, the
        same for dense and conv stacks."""
        n = 3
        conv = ConvLayer(1, 2, in_height=5, in_width=5, filter_height=2, filter_width=2)
        if stack == "dense":
            spec = mlp([4, 3, 3, 2], output="probit")
        elif stack == "conv":
            spec = NetworkSpec(layers=(conv, DenseLayer(32, 1)))
        else:
            layers = (conv, PoolLayer(2, 4, 4, 2, 2), DenseLayer(8, 3), DenseLayer(3, 2))
            spec = NetworkSpec(layers=layers, output="probit")
        packer = FlatPacker.for_intermediate(spec, n)
        assert " ".join(f"{kind}{l}" for kind, l, _ in packer.blocks) == order
        shapes = {(kind, l): shape for kind, l, shape in packer.blocks}
        if stack != "dense":
            assert shapes["Z", 2] == (n, 2, 4, 4)
            assert shapes["X", 2] == ((n, 2, 2, 2) if stack == "conv-pool" else (n, 2, 4, 4))
        if stack == "conv-pool":
            assert shapes["P", 2] == shapes["X", 2]

    @pytest.mark.parametrize("stack", ["dense-regression", "dense-probit", "conv-pool-probit"])
    def test_state_is_a_view_of_the_vector_over_the_frame(self, stack):
        gen = np.random.default_rng(11)
        n = 5
        if stack == "conv-pool-probit":
            conv = ConvLayer(1, 2, in_height=5, in_width=5, filter_height=2, filter_width=2)
            spec = NetworkSpec(layers=(conv, PoolLayer(2, 4, 4, 2, 2), DenseLayer(8, 3)), output="probit")
        else:
            spec = mlp([4, 3, 2], output=stack.split("-")[1], bias=False)
        inputs = gen.standard_normal((n, *spec.layers[0].in_shape))
        labels = gen.integers(0, 2, size=n) if spec.output == "probit" else gen.standard_normal((n, 2))
        frame = clamped_frame(spec, Dataset(inputs=inputs, labels=labels))
        packer = FlatPacker.for_intermediate(spec, n)
        vec = gen.standard_normal(packer.size)
        state = packer.state(vec, frame)
        assert packer.pack(vars(state)).tobytes() == vec.tobytes()
        for kind, l in packer.slices:
            assert np.shares_memory(getattr(state, kind)[l], vec), (kind, l)
        top = spec.depth + 1
        assert state.X[1] is frame.X[1] and state.labels is frame.labels
        if spec.output == "regression":
            assert state.Z[top] is frame.Z[top]
        else:
            assert frame.Z == {} and np.shares_memory(state.Z[top], vec)
        assert all(state.b[l] is None for l in range(1, spec.depth + 1) if not spec.has_bias(l))

    def test_frame_shapes_one_dimensional_regression_labels(self):
        spec = mlp([4, 3, 1])
        frame = clamped_frame(spec, Dataset(inputs=np.zeros((6, 4)), labels=np.arange(6)))
        assert frame.Z[3].shape == (6, 1) and frame.Z[3].dtype == float
        assert frame.labels is None and frame.W == {}
