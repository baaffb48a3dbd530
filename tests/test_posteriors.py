"""Gradient and density checks for both posterior forms.

All gradients are verified against central finite differences; the
single-layer case must agree (up to an additive constant) between the
two posterior forms.
"""
import numpy as np
import pytest

from nngibbs.datasets import generate_teacher_student
from nngibbs.gibbs import SweepSchedule, gibbs_sweep
from nngibbs.harness import DatasetConfig, ExperimentConfig, SamplerConfig, _Observer
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
    noiseless_pass,
    residual,
)
from nngibbs.posteriors import (
    FlatPacker,
    clamped_frame,
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
        target, packer = make_classical_target(dataset, spec, 0.1, prior)
        logp, grad = target(packer.pack({"W": W, "b": {1: None}}))
        assert logp == pytest.approx(-0.5 * 2.0 * float(np.sum(W[1] ** 2)))
        np.testing.assert_allclose(packer.unpack(grad)["W"][1], -2.0 * W[1])

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
        conv = ConvLayer(channels_in=1, channels_out=2, in_height=5, in_width=5, filter_height=2, filter_width=2, stride_y=1, stride_x=1)
        pool = PoolLayer(channels=2, in_height=4, in_width=4, window_height=2, window_width=2)
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
        conv = ConvLayer(channels_in=1, channels_out=2, in_height=4, in_width=4, filter_height=2, filter_width=2)
        pool = PoolLayer(channels=2, in_height=3, in_width=3, window_height=2, window_width=2)
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
        logp = intermediate_log_posterior(state, spec, noise, prior)[0]
        assert np.isfinite(logp)
        # break the constraint: density must vanish
        state.labels = (state.labels + 1) % 3
        logp_bad = intermediate_log_posterior(state, spec, noise, prior)[0]
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
        target, packer = make_classical_target(dataset, spec, delta, prior)
        diffs = []
        for _ in range(100):
            W = {1: gen.standard_normal((1, 5))}
            b = {1: gen.standard_normal(1)}
            state = ChainState(W=W, b=b, X={1: X}, Z={2: y})
            lp_int = intermediate_log_posterior(state, spec, noise, prior)[0]
            lp_cls = target(packer.pack({"W": W, "b": b}))[0]
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
    conv = ConvLayer(channels_in=1, channels_out=2, in_height=5, in_width=5, filter_height=2, filter_width=2)
    specs = {
        "dense": lambda: mlp([4, 3, 2, 1]),
        "conv-pool": lambda: NetworkSpec(layers=(conv, PoolLayer(channels=2, in_height=4, in_width=4, window_height=2, window_width=2), DenseLayer(8, 3), DenseLayer(3, 1))),
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
        body: bitwise equal, block by block, and the blocks view one vector.
        The state API gets a state whose blocks view the target's position,
        and the generated state, whose blocks view no flat vector."""
        spec, noise, prior, dataset, state = _generated_problem(stack)
        target, packer = make_intermediate_target(dataset, spec, noise, prior)
        vec = packer.pack(vars(state))
        logp, flat = target(vec)
        for given in (packer.state(vec, clamped_frame(spec, dataset)), state):
            logp_api, grads = intermediate_log_posterior(given, spec, noise, prior)
            assert flat.shape == (packer.size,) and logp_api == logp
            owner = grads["W"][1].base
            assert owner is not None and owner.shape == (packer.size,)
            flat_blocks = packer.unpack(flat)
            for kind, l, shape in packer.blocks:
                block = grads[kind][l]
                assert block.shape == shape and block.base is owner, (kind, l)
                assert block.tobytes() == flat_blocks[kind][l].tobytes(), (kind, l)

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
        # hmc_step moves its position in place: no gradient views it
        assert not np.shares_memory(g1, vec)
        vec += 0.01
        assert g1.tobytes() == kept.tobytes()


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
        conv = ConvLayer(channels_in=1, channels_out=2, in_height=5, in_width=5, filter_height=2, filter_width=2)
        if stack == "dense":
            spec = mlp([4, 3, 3, 2], output="probit")
        elif stack == "conv":
            spec = NetworkSpec(layers=(conv, DenseLayer(32, 1)))
        else:
            layers = (conv, PoolLayer(channels=2, in_height=4, in_width=4, window_height=2, window_width=2), DenseLayer(8, 3), DenseLayer(3, 2))
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
            conv = ConvLayer(channels_in=1, channels_out=2, in_height=5, in_width=5, filter_height=2, filter_width=2)
            spec = NetworkSpec(layers=(conv, PoolLayer(channels=2, in_height=4, in_width=4, window_height=2, window_width=2), DenseLayer(8, 3)), output="probit")
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


# -- the passes as they were before the block table ---------------------------
#
# The bodies below are the noisy-layer and loss-posterior passes before
# ``FlatLayout`` held the block table: every layer term through the layer
# methods (``product``, ``weight_grad``, ``bias_grad``) and ``residual``,
# into views of the gradient's blocks, reading the sampled blocks from a
# chain state. The in-place pass must give the same bytes.


def _sumsq(a):
    r = a.ravel()
    return float(r @ r)


def _reference_prior(packer, prior, position):
    neg_lam = np.empty(packer.n_params)
    for kind, l, _ in packer.blocks:
        if kind in ("W", "b"):
            neg_lam[packer.slices[kind, l][0]] = -(prior.lambda_w if kind == "W" else prior.lambda_b)[l]
    theta = position[: packer.n_params]
    g = np.empty(packer.size)
    grad = np.multiply(neg_lam, theta, out=g[: packer.n_params])
    return 0.5 * float(theta @ grad), g


def _reference_intermediate(state, spec, noise, prior):
    packer = FlatPacker.for_intermediate(spec, state.n)
    design = spec.weighted_layers[0].design(state.X[1])
    logp, g = _reference_prior(packer, prior, packer.pack(vars(state)))
    views = packer.unpack(g)

    def block(kind, l):
        return views[kind][l]

    big_l = spec.depth
    act = spec.activation
    for l, layer in enumerate(spec.weighted_layers, start=1):
        x, w = state.X[l], state.W[l]
        d = design if l == 1 else None
        resid = residual(state.Z[l + 1], layer.product(w, x, d), state.b.get(l))
        dz = noise.delta_z[l + 1]
        logp -= _sumsq(resid) / (2.0 * dz)
        grad_w = block("W", l)
        grad_w += layer.weight_grad(resid, x, d) / dz
        if spec.has_bias(l):
            grad_b = block("b", l)
            grad_b += layer.bias_grad(resid) / dz
        if l >= 2:
            np.dot(resid / dz, w, out=block("X", l).reshape(len(x), -1))
        if l < big_l or spec.output == "probit":
            np.divide(resid, -dz, out=block("Z", l + 1))
    for l in range(2, big_l + 1):
        pre, pre_kind = state.Z[l], "Z"
        pool = spec.pools.get(l)
        if pool is not None:
            dpool = noise.delta_pool[l]
            rp = state.P[l] - pool.pool_mean(state.Z[l])
            logp -= _sumsq(rp) / (2.0 * dpool)
            scaled = rp / dpool
            np.negative(scaled, out=block("P", l))
            gz = block("Z", l)
            gz += pool.spread(scaled, state.Z[l])
            pre, pre_kind = state.P[l], "P"
        dx = noise.delta_x[l]
        mismatch = state.X[l] - act.apply(pre)
        logp -= _sumsq(mismatch) / (2.0 * dx)
        scaled = mismatch / dx
        gx = block("X", l)
        gx -= scaled
        scaled *= act.derivative(pre)
        g_pre = block(pre_kind, l)
        g_pre += scaled
    if spec.output == "probit":
        if np.any(np.argmax(state.Z[spec.depth + 1], axis=1) != state.labels):
            logp = -np.inf
    return logp, g


def _reference_classical(W, b, dataset, spec, delta, prior):
    inputs = np.asarray(dataset.inputs, dtype=float)
    packer = FlatPacker.for_classical(spec)
    design = spec.weighted_layers[0].design(inputs)
    logp, g = _reference_prior(packer, prior, packer.pack({"W": W, "b": b}))
    n = inputs.shape[0]
    fwd = noiseless_pass(spec, W, b, inputs, design)
    out = fwd.Z[spec.depth + 1]
    if spec.output == "regression":
        y = np.asarray(dataset.labels, dtype=float).reshape(out.shape)
        resid = out - y
        logp += -_sumsq(resid) / (2.0 * delta)
        d_out = -resid / delta
    else:
        y = np.asarray(dataset.labels, dtype=int)
        e = np.exp(out - out.max(axis=1, keepdims=True))
        q = e / e.sum(axis=1, keepdims=True)
        picked = np.clip(q[np.arange(n), y], 1e-300, None)
        logp += float(np.log(picked).sum()) / (2.0 * delta)
        onehot = np.zeros_like(q)
        onehot[np.arange(n), y] = 1.0
        d_out = -(q - onehot) / (2.0 * delta)
    views = packer.unpack(g)
    dl = d_out
    for l in range(spec.depth, 0, -1):
        layer = spec.weighted_layers[l - 1]
        grad_w = views["W"][l]
        grad_w += layer.weight_grad(dl, fwd.X[l], design if l == 1 else None)
        if spec.has_bias(l):
            grad_b = views["b"][l]
            grad_b += layer.bias_grad(dl)
        if l > 1:
            pre = fwd.P[l] if l in spec.pools else fwd.Z[l]
            dl = np.dot(dl, fwd.W[l]).reshape(pre.shape) * spec.activation.derivative(pre)
            if l in spec.pools:
                dl = spec.pools[l].spread(dl, fwd.Z[l])
    return logp, g


def _oracle_problem(stack):
    """A spec, its noise and prior, a dataset and its generating state:
    acceptance 4's 10-4-1 net at n = 100, or a small stack at n = 7."""
    if stack == "10-4-1":
        spec = mlp([10, 4, 1])
        noise = NoiseSchedule.uniform(spec, 1e-2)
        prior = PriorSpec.fan_in(spec)
        data = generate_teacher_student(spec, prior, 100, 0, RngStream(4000, (0,)), noise_gen=noise)
        return spec, noise, prior, data, data.teacher.copy()
    conv = ConvLayer(channels_in=1, channels_out=2, in_height=5, in_width=5, filter_height=2, filter_width=2)
    spec = {
        "relu-bias": lambda: mlp([4, 3, 2, 1]),
        "relu-no-bias": lambda: mlp([4, 3, 2, 1], bias=False),
        "abs-bias": lambda: mlp([4, 3, 2, 1], activation=Activation.ABS),
        "abs-no-bias": lambda: mlp([4, 3, 2, 1], activation=Activation.ABS, bias=False),
        "probit-3": lambda: mlp([4, 3, 3], output="probit"),
        "conv-pool-probit": lambda: NetworkSpec(layers=(conv, PoolLayer(channels=2, in_height=4, in_width=4, window_height=2, window_width=2), DenseLayer(8, 3)), output="probit"),
        # a 4-D hidden X with no pool between it and the dense layer
        "conv-dense-no-bias": lambda: NetworkSpec(layers=(ConvLayer(channels_in=1, channels_out=2, in_height=5, in_width=5, filter_height=2, filter_width=2, has_bias=False), DenseLayer(32, 1, has_bias=False))),
    }[stack]()
    noise = NoiseSchedule.uniform(spec, 0.2)
    prior = PriorSpec.fan_in(spec)
    rng = RngStream(14)
    gen = rng.generator
    X = gen.standard_normal((7, *spec.layers[0].in_shape))
    W = {l: gen.standard_normal(spec.weight_shape(l)) for l in range(1, spec.depth + 1)}
    b = {l: gen.standard_normal(spec.bias_width(l)) if spec.has_bias(l) else None for l in range(1, spec.depth + 1)}
    state, labels = forward_generate(spec, noise, W, b, X, rng)
    return spec, noise, prior, Dataset(inputs=X, labels=labels), state


def _gibbs_swept(stack):
    """``_oracle_problem`` after three Gibbs sweeps, which leave W transposed."""
    spec, noise, prior, dataset, state = _oracle_problem(stack)
    for _ in range(3):
        gibbs_sweep(state, spec, noise, prior, SweepSchedule(), RngStream(16))
    assert not state.W[1].flags.c_contiguous
    return spec, noise, prior, dataset, state


ORACLE_STACKS = ["relu-bias", "relu-no-bias", "abs-bias", "abs-no-bias", "probit-3", "conv-pool-probit", "conv-dense-no-bias", "10-4-1"]


def _same_bytes(logp, g, ref_logp, ref_g):
    assert np.float64(logp).tobytes() == np.float64(ref_logp).tobytes()
    assert g.tobytes() == ref_g.tobytes()


class TestBitwiseOracle:
    @pytest.mark.parametrize("stack", ORACLE_STACKS)
    def test_intermediate_target_is_the_reference_pass(self, stack):
        spec, noise, prior, dataset, state = _oracle_problem(stack)
        target, packer = make_intermediate_target(dataset, spec, noise, prior)
        vec = packer.pack(vars(state))
        # off the generating point; a probit top keeps its argmax cone
        free = packer.slices["Z", spec.depth + 1][0].start if spec.output == "probit" else packer.size
        vec[:free] += 0.05 * np.random.default_rng(15).standard_normal(free)
        logp, g = target(vec)
        assert np.isfinite(logp)
        _same_bytes(logp, g, *_reference_intermediate(packer.state(vec, clamped_frame(spec, dataset)), spec, noise, prior))

    @pytest.mark.parametrize("stack", ORACLE_STACKS)
    def test_state_api_on_a_gibbs_state_is_the_reference_pass(self, stack):
        """A Gibbs draw leaves W transposed in memory; the state form packs
        the state once and runs the target's pass at that position."""
        spec, noise, prior, dataset, state = _gibbs_swept(stack)
        logp, grads = intermediate_log_posterior(state, spec, noise, prior)
        target, packer = make_intermediate_target(dataset, spec, noise, prior)
        _same_bytes(logp, packer.pack(grads), *target(packer.pack(vars(state))))

    @pytest.mark.parametrize("posterior", ["intermediate", "classical"])
    @pytest.mark.parametrize("flat", [False, True], ids=["gibbs-state", "flat-state"])
    @pytest.mark.parametrize("stack", ORACLE_STACKS)
    def test_observer_score_is_the_reference_score(self, stack, flat, posterior):
        """The observer's score_U is delta times the mean W[1] block of the
        reference gradient, and its train_residual the first layer's
        squared residual, to the bit: on a Gibbs-swept state (W[1]
        transposed in memory) and on a state that views a flat position.
        A loss-posterior chain's state always views its position, so its
        reference reads W and b at the packed position."""
        spec, noise, prior, dataset, state = _gibbs_swept(stack)
        cfg = ExperimentConfig(
            network=spec, noise=noise, prior=prior, dataset=DatasetConfig(source="synthetic"),
            sampler=SamplerConfig(kind="hmc", posterior=posterior, step_size=1e-3, leapfrog_steps=1),
            initializations=("informed",),
        )
        observer = _Observer(cfg, dataset)
        if flat:
            packer = FlatPacker.for_intermediate(spec, state.n) if posterior == "intermediate" else FlatPacker.for_classical(spec)
            state = packer.state(packer.pack(vars(state)), clamped_frame(spec, dataset))
        assert state.W[1].flags.c_contiguous == flat
        out = observer.observe_state(state)
        delta = noise.output_delta
        if posterior == "intermediate":
            ref_g = _reference_intermediate(state, spec, noise, prior)[1]
            w1 = FlatPacker.for_intermediate(spec, state.n).unpack(ref_g)["W"][1]
            layer = spec.weighted_layers[0]
            resid = residual(state.Z[2], layer.product(state.W[1], state.X[1]), state.b.get(1))
            assert np.float64(out["train_residual"]).tobytes() == np.float64(np.sum(resid * resid)).tobytes()
        else:
            packer = FlatPacker.for_classical(spec)
            parts = packer.unpack(packer.pack({"W": state.W, "b": state.b}))
            ref_g = _reference_classical(parts["W"], parts["b"], dataset, spec, delta, prior)[1]
            w1 = packer.unpack(ref_g)["W"][1]
            assert "train_residual" not in out
        assert np.float64(out["score_U"]).tobytes() == np.float64(delta * np.mean(w1)).tobytes()

    @pytest.mark.parametrize("stack", ORACLE_STACKS)
    def test_classical_target_is_the_reference_pass(self, stack):
        spec, noise, prior, dataset, state = _oracle_problem(stack)
        target, packer = make_classical_target(dataset, spec, 0.2, prior)
        vec = packer.pack({"W": state.W, "b": state.b})
        vec += 0.05 * np.random.default_rng(17).standard_normal(packer.size)
        logp, g = target(vec)
        parts = packer.unpack(vec)
        _same_bytes(logp, g, *_reference_classical(parts["W"], parts["b"], dataset, spec, 0.2, prior))
