"""Log densities (up to constants) of the two posterior forms, with exact
gradients, and flat-vector adapters for the gradient-based samplers.

The output-loss posterior lives on weights and biases only: squared loss
for regression, softmax cross-entropy for classification, both scaled by
1/(2 delta). The noisy-layer posterior adds every pre- and
post-activation as a variable, each contributing one Gaussian term; a
probit output adds a hard argmax constraint instead of a loss.
"""
from __future__ import annotations

import numpy as np

from .network import (
    Activation,
    ChainState,
    Dataset,
    NetworkSpec,
    NoiseSchedule,
    NonDifferentiableActivation,
    PriorSpec,
    OUTPUT_PROBIT,
    OUTPUT_REGRESSION,
    noiseless_pass,
    residual,
)

__all__ = [
    "classical_log_posterior",
    "intermediate_log_posterior",
    "FlatPacker",
    "clamped_frame",
    "make_classical_target",
    "make_intermediate_target",
]


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _prior_terms(W, b, spec, prior):
    logp = 0.0
    grad_w, grad_b = {}, {}
    for l in range(1, spec.depth + 1):
        lam = prior.lambda_w[l]
        logp -= 0.5 * lam * float(np.sum(W[l] * W[l]))
        grad_w[l] = -lam * W[l]
        if spec.has_bias(l) and b.get(l) is not None:
            lam_b = prior.lambda_b[l]
            logp -= 0.5 * lam_b * float(np.sum(b[l] * b[l]))
            grad_b[l] = -lam_b * b[l]
    return logp, grad_w, grad_b


def _backward_from_output(spec, fwd: ChainState, d_out):
    """Propagate a gradient at the network output back to all parameters
    through the noiseless pass ``fwd``."""
    grad_w, grad_b = {}, {}
    delta = d_out
    for l in range(spec.depth, 0, -1):
        op = spec.weighted_layers[l - 1].op
        grad_w[l] = op.weight_grad(delta, fwd.X[l])
        if fwd.b[l] is not None:
            grad_b[l] = op.bias_grad(delta)
        if l > 1:
            pre = fwd.P[l] if l in spec.pools else fwd.Z[l]
            delta = (delta @ fwd.W[l]).reshape(pre.shape) * spec.activation.derivative(pre)
            if l in spec.pools:
                delta = spec.pools[l].op.spread(delta, fwd.Z[l])
    return grad_w, grad_b


def classical_log_posterior(
    W: dict[int, np.ndarray],
    b: dict[int, np.ndarray | None],
    dataset: Dataset,
    spec: NetworkSpec,
    delta: float,
    prior: PriorSpec,
    want_grad: bool = True,
):
    """Output-loss posterior log density and its gradient over (W, b).

    Regression pairs the squared loss with temperature delta; probit
    specs are scored with softmax cross-entropy here (hard argmax stays a
    prediction-time device). ReLU uses the zero subgradient at the kink.
    """
    inputs = np.asarray(dataset.inputs, dtype=float)
    fwd = noiseless_pass(spec, W, b, inputs)
    out = fwd.Z[spec.depth + 1]
    logp, grad_w, grad_b = _prior_terms(W, b, spec, prior)

    n = inputs.shape[0]
    if n > 0:
        if spec.output == OUTPUT_REGRESSION:
            y = np.asarray(dataset.labels, dtype=float).reshape(out.shape)
            resid = out - y
            logp += -float(np.sum(resid * resid)) / (2.0 * delta)
            d_out = -resid / delta
        else:
            y = np.asarray(dataset.labels, dtype=int)
            q = _softmax(out)
            picked = np.clip(q[np.arange(n), y], 1e-300, None)
            logp += -float(np.sum(-np.log(picked))) / (2.0 * delta)
            onehot = np.zeros_like(q)
            onehot[np.arange(n), y] = 1.0
            d_out = -(q - onehot) / (2.0 * delta)
    if not want_grad:
        return logp, None
    if n > 0:
        gw, gb = _backward_from_output(spec, fwd, d_out)
        for l in gw:
            grad_w[l] = grad_w[l] + gw[l]
        for l in gb:
            grad_b[l] = grad_b[l] + gb[l]
    return logp, {"W": grad_w, "b": grad_b}


def intermediate_log_posterior(
    state: ChainState,
    spec: NetworkSpec,
    noise: NoiseSchedule,
    prior: PriorSpec,
    want_grad: bool = True,
):
    """Noisy-layer posterior log density and gradient over all unclamped
    variables.

    Every layer contributes one Gaussian quadratic; a probit output adds
    -inf when the argmax constraint is broken, and within the feasible
    region its score block is the plain residual term. The gradient is
    exact almost everywhere for relu/abs/linear; sign has none.
    """
    if want_grad and spec.activation is Activation.SIGN:
        raise NonDifferentiableActivation("sign activation has no usable gradient")
    logp, grad_w, grad_b = _prior_terms(state.W, state.b, spec, prior)
    grads = {"W": grad_w, "b": grad_b, "X": {}, "Z": {}, "P": {}}

    big_l = spec.depth
    act = spec.activation
    gx, gz, gp = grads["X"], grads["Z"], grads["P"]
    for l, layer in enumerate(spec.weighted_layers, start=1):
        x = state.X[l]
        resid = residual(state.Z[l + 1], layer.op.product(state.W[l], x), state.b.get(l))
        dz = noise.delta_z[l + 1]
        logp -= float(np.sum(resid * resid)) / (2.0 * dz)
        if want_grad:
            grads["W"][l] = grads["W"][l] + layer.op.weight_grad(resid, x) / dz
            if state.b.get(l) is not None:
                grads["b"][l] = grads["b"][l] + layer.op.bias_grad(resid) / dz
            if l >= 2:
                gx[l] = gx.get(l, 0.0) + (resid @ state.W[l]).reshape(x.shape) / dz
            if l < big_l or spec.output == OUTPUT_PROBIT:
                gz[l + 1] = gz.get(l + 1, 0.0) - resid / dz
    for l in range(2, big_l + 1):
        pre, g_pre = state.Z[l], gz
        pool = spec.pools.get(l)
        if pool is not None:
            dpool = noise.delta_pool[l]
            rp = state.P[l] - pool.op.pool_mean(state.Z[l])
            logp -= float(np.sum(rp * rp)) / (2.0 * dpool)
            if want_grad:
                gp[l] = gp.get(l, 0.0) - rp / dpool
                gz[l] = gz.get(l, 0.0) + pool.op.spread(rp, state.Z[l]) / dpool
            pre, g_pre = state.P[l], gp
        dx = noise.delta_x[l]
        mismatch = state.X[l] - act.apply(pre)
        logp -= float(np.sum(mismatch * mismatch)) / (2.0 * dx)
        if want_grad:
            gx[l] = gx.get(l, 0.0) - mismatch / dx
            g_pre[l] = g_pre.get(l, 0.0) + mismatch * act.derivative(pre) / dx

    if spec.output == OUTPUT_PROBIT:
        top = state.Z[spec.depth + 1]
        if np.any(np.argmax(top, axis=1) != state.labels):
            logp = -np.inf
    if not want_grad:
        return logp, None
    return logp, grads


class FlatPacker:
    """Bijection between a set of named variable blocks and one flat vector."""

    def __init__(self, blocks: list[tuple[str, int, tuple[int, ...]]]):
        self.blocks = blocks
        self.slices = {}
        off = 0
        for kind, l, shape in blocks:
            size = int(np.prod(shape))
            self.slices[(kind, l)] = (slice(off, off + size), shape)
            off += size
        self.size = off

    @classmethod
    def for_classical(cls, spec: NetworkSpec) -> "FlatPacker":
        blocks = []
        for l in range(1, spec.depth + 1):
            blocks.append(("W", l, spec.weight_shape(l)))
            if spec.has_bias(l):
                blocks.append(("b", l, (spec.bias_width(l),)))
        return cls(blocks)

    @classmethod
    def for_intermediate(cls, spec: NetworkSpec, n: int) -> "FlatPacker":
        """W and b of every layer, then X[l], Z[l] and, where a pool feeds
        X[l], P[l] for each hidden layer l, then a probit output's Z."""
        blocks = list(cls.for_classical(spec).blocks)
        for l in range(2, spec.depth + 1):
            z_shape = (n, *spec.weighted_layers[l - 2].out_shape)
            pool = spec.pools.get(l)
            x_shape = z_shape if pool is None else (n, *pool.out_shape)
            blocks += [("X", l, x_shape), ("Z", l, z_shape)]
            if pool is not None:
                blocks.append(("P", l, x_shape))
        if spec.output == OUTPUT_PROBIT:
            blocks.append(("Z", spec.depth + 1, (n, spec.out_width)))
        return cls(blocks)

    def pack(self, parts: dict[str, dict[int, np.ndarray]]) -> np.ndarray:
        vec = np.empty(self.size)
        for (kind, l), (sl, shape) in self.slices.items():
            vec[sl] = np.asarray(parts[kind][l], dtype=float).ravel()
        return vec

    def unpack(self, vec: np.ndarray) -> dict[str, dict[int, np.ndarray]]:
        out: dict[str, dict[int, np.ndarray]] = {}
        for (kind, l), (sl, shape) in self.slices.items():
            out.setdefault(kind, {})[l] = vec[sl].reshape(shape)
        return out

    def state(self, vec: np.ndarray, frame: ChainState) -> ChainState:
        """The chain state at ``vec``: every packed block is a view into
        ``vec``, and what the data clamps comes from ``frame``
        (see ``clamped_frame``)."""
        parts = self.unpack(vec)
        return ChainState(
            W=parts["W"],
            b={**frame.b, **parts.get("b", {})},
            X={**frame.X, **parts.get("X", {})},
            Z={**frame.Z, **parts.get("Z", {})},
            P=parts.get("P", {}),
            labels=frame.labels,
        )


def clamped_frame(spec: NetworkSpec, dataset: Dataset) -> ChainState:
    """The part of every chain state that the data fixes: the inputs X[1],
    the labels as the output Z[L+1] (regression, shaped (n, d_out)) or as
    the probit classes, and b[l] = None for layers without a bias. It has
    no sampled block; ``FlatPacker.state`` adds those."""
    top, labels = {}, None
    if spec.output == OUTPUT_REGRESSION:
        y = np.asarray(dataset.labels, dtype=float)
        top[spec.depth + 1] = y.reshape(-1, 1) if y.ndim == 1 else y
    else:
        labels = np.asarray(dataset.labels, dtype=int)
    return ChainState(
        W={},
        b={l: None for l in range(1, spec.depth + 1) if not spec.has_bias(l)},
        X={1: np.asarray(dataset.inputs, dtype=float)},
        Z=top,
        labels=labels,
    )


def make_classical_target(dataset: Dataset, spec: NetworkSpec, delta: float, prior: PriorSpec):
    """(flat position) -> (log density, flat gradient) for the loss posterior."""
    packer = FlatPacker.for_classical(spec)

    def target(vec: np.ndarray):
        parts = packer.unpack(vec)
        W = parts["W"]
        b = parts.get("b", {})
        logp, grads = classical_log_posterior(W, b, dataset, spec, delta, prior)
        return logp, packer.pack({"W": grads["W"], "b": grads["b"]})

    return target, packer


def make_intermediate_target(dataset: Dataset, spec: NetworkSpec, noise: NoiseSchedule, prior: PriorSpec):
    """(flat position) -> (log density, flat gradient) over the noisy chain.

    Inputs and the output pre-activations stay clamped for regression;
    for probit the output scores are part of the position and the hard
    constraint shows up as a -inf density outside the feasible cone.
    """
    packer = FlatPacker.for_intermediate(spec, dataset.n)
    frame = clamped_frame(spec, dataset)

    def target(vec: np.ndarray):
        logp, grads = intermediate_log_posterior(packer.state(vec, frame), spec, noise, prior)
        return logp, packer.pack(grads)

    return target, packer
