"""Log densities (up to constants) of the two posterior forms, with exact
gradients, and flat-vector adapters for the gradient-based samplers.

The output-loss posterior lives on weights and biases only: squared loss
for regression, softmax cross-entropy for classification, both scaled by
1/(2 delta). The noisy-layer posterior adds every pre- and
post-activation as a variable, each contributing one Gaussian term; a
probit output adds a hard argmax constraint instead of a loss.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    "FlatLayout",
    "clamped_frame",
    "make_classical_target",
    "make_intermediate_target",
]


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _sumsq(a: np.ndarray) -> float:
    """Sum of squares as one dot product, ~4x faster than np.sum(a * a)."""
    r = a.ravel()
    return float(r @ r)


def _prior(layout: FlatLayout, W, b, position: np.ndarray | None, want_grad: bool):
    """The Gaussian prior over the packed W/b prefix theta: its log density
    and a new flat gradient whose prefix holds -lambda * theta, the first
    term of every W/b block (None without ``want_grad``). theta is read
    from ``position`` when W and b view it, else packed from them."""
    packer = layout.packer
    theta = packer.params(W, b) if position is None else position[: packer.n_params]
    g = np.empty(packer.size if want_grad else packer.n_params)
    grad = np.multiply(layout.neg_lam, theta, out=g[: packer.n_params])
    return 0.5 * float(theta @ grad), (g if want_grad else None)


def _backward_from_output(spec, fwd: ChainState, d_out, layout: FlatLayout, g: np.ndarray):
    """Propagate a gradient at the network output back to all parameters
    through the noiseless pass ``fwd``, adding it into ``g``."""
    delta = d_out
    for l in range(spec.depth, 0, -1):
        op = spec.weighted_layers[l - 1].op
        grad_w = layout.packer.view(g, "W", l)
        grad_w += op.weight_grad(delta, fwd.X[l], layout.design if l == 1 else None)
        if spec.has_bias(l):
            grad_b = layout.packer.view(g, "b", l)
            grad_b += op.bias_grad(delta)
        if l > 1:
            pre = fwd.P[l] if l in spec.pools else fwd.Z[l]
            delta = np.dot(delta, fwd.W[l]).reshape(pre.shape) * spec.activation.derivative(pre)
            if l in spec.pools:
                delta = spec.pools[l].op.spread(delta, fwd.Z[l])


def classical_log_posterior(
    W: dict[int, np.ndarray],
    b: dict[int, np.ndarray | None],
    dataset: Dataset,
    spec: NetworkSpec,
    delta: float,
    prior: PriorSpec,
    want_grad: bool = True,
    position: np.ndarray | None = None,
    layout: FlatLayout | None = None,
):
    """Output-loss posterior log density and its gradient over (W, b).

    Regression pairs the squared loss with temperature delta; probit
    specs are scored with softmax cross-entropy here (hard argmax stays a
    prediction-time device). ReLU uses the zero subgradient at the kink.

    The gradient is written into one new flat vector laid out by
    ``FlatPacker.for_classical``. With a target's ``layout`` it comes back
    as that vector, otherwise as {"W": {l: block}, "b": {l: block}} views
    of it. ``position``, when given, is the flat vector that W and b view.
    """
    inputs = np.asarray(dataset.inputs, dtype=float)
    flat = layout is not None
    if not flat:
        layout = FlatLayout.build(FlatPacker.for_classical(spec), prior, spec.weighted_layers[0].op.design(inputs))
    packer = layout.packer
    logp, g = _prior(layout, W, b, position, want_grad)

    n = inputs.shape[0]
    if n > 0:
        fwd = noiseless_pass(spec, W, b, inputs, layout.design)
        out = fwd.Z[spec.depth + 1]
        if spec.output == OUTPUT_REGRESSION:
            y = np.asarray(dataset.labels, dtype=float).reshape(out.shape)
            resid = out - y
            logp += -_sumsq(resid) / (2.0 * delta)
            d_out = -resid / delta
        else:
            y = np.asarray(dataset.labels, dtype=int)
            q = _softmax(out)
            picked = np.clip(q[np.arange(n), y], 1e-300, None)
            logp += float(np.log(picked).sum()) / (2.0 * delta)
            onehot = np.zeros_like(q)
            onehot[np.arange(n), y] = 1.0
            d_out = -(q - onehot) / (2.0 * delta)
        if want_grad:
            _backward_from_output(spec, fwd, d_out, layout, g)
    if not want_grad:
        return logp, None
    return logp, (g if flat else packer.unpack(g))


def intermediate_log_posterior(
    state: ChainState,
    spec: NetworkSpec,
    noise: NoiseSchedule,
    prior: PriorSpec,
    want_grad: bool = True,
    position: np.ndarray | None = None,
    layout: FlatLayout | None = None,
):
    """Noisy-layer posterior log density and gradient over all unclamped
    variables.

    Every layer contributes one Gaussian quadratic; a probit output adds
    -inf when the argmax constraint is broken, and within the feasible
    region its score block is the plain residual term. The gradient is
    exact almost everywhere for relu/abs/linear; sign has none.

    The gradient is written block by block into one new flat vector laid
    out by ``FlatPacker.for_intermediate``. With a target's ``layout``
    (see ``make_intermediate_target``) it comes back as that vector,
    otherwise as {kind: {l: block}} views of it. ``position``, when
    given, is the flat vector that ``state`` views.
    """
    if want_grad and spec.activation is Activation.SIGN:
        raise NonDifferentiableActivation("sign activation has no usable gradient")
    flat = layout is not None
    if not flat:
        layout = FlatLayout.build(FlatPacker.for_intermediate(spec, state.n), prior, state.first_design(spec))
    packer = layout.packer
    logp, g = _prior(layout, state.W, state.b, position, want_grad)

    def block(kind, l):
        return packer.view(g, kind, l)

    # every block of g is first written whole, then added to
    big_l = spec.depth
    act = spec.activation
    for l, layer in enumerate(spec.weighted_layers, start=1):
        x, w, op = state.X[l], state.W[l], layer.op
        design = layout.design if l == 1 else None
        resid = residual(state.Z[l + 1], op.product(w, x, design), state.b.get(l))
        dz = noise.delta_z[l + 1]
        logp -= _sumsq(resid) / (2.0 * dz)
        if g is None:
            continue
        # score_U reads W[1]: its bits are (-lambda W) + weight_grad / dz
        grad_w = block("W", l)
        grad_w += op.weight_grad(resid, x, design) / dz
        if spec.has_bias(l):
            grad_b = block("b", l)
            grad_b += op.bias_grad(resid) / dz
        if l >= 2:
            np.dot(resid / dz, w, out=block("X", l).reshape(len(x), -1))
        if l < big_l or spec.output == OUTPUT_PROBIT:
            np.divide(resid, -dz, out=block("Z", l + 1))
    for l in range(2, big_l + 1):
        pre, pre_kind = state.Z[l], "Z"
        pool = spec.pools.get(l)
        if pool is not None:
            dpool = noise.delta_pool[l]
            rp = state.P[l] - pool.op.pool_mean(state.Z[l])
            logp -= _sumsq(rp) / (2.0 * dpool)
            if g is not None:
                scaled = rp / dpool
                np.negative(scaled, out=block("P", l))
                gz = block("Z", l)
                gz += pool.op.spread(scaled, state.Z[l])
            pre, pre_kind = state.P[l], "P"
        dx = noise.delta_x[l]
        mismatch = state.X[l] - act.apply(pre)
        logp -= _sumsq(mismatch) / (2.0 * dx)
        if g is not None:
            scaled = mismatch / dx
            gx = block("X", l)
            gx -= scaled
            scaled *= act.derivative(pre)
            g_pre = block(pre_kind, l)
            g_pre += scaled

    if spec.output == OUTPUT_PROBIT:
        top = state.Z[spec.depth + 1]
        if np.any(np.argmax(top, axis=1) != state.labels):
            logp = -np.inf
    if not want_grad:
        return logp, None
    return logp, (g if flat else packer.unpack(g))


class FlatPacker:
    """Bijection between a set of named variable blocks and one flat vector."""

    def __init__(self, blocks: list[tuple[str, int, tuple[int, ...]]]):
        self.blocks = blocks
        self.slices = {}
        off = 0
        self.n_params = 0  # size of the W and b blocks, which come first
        for kind, l, shape in blocks:
            size = int(np.prod(shape))
            self.slices[(kind, l)] = (slice(off, off + size), shape)
            off += size
            if kind in ("W", "b"):
                self.n_params = off
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
        """{kind: {l: view}} for every block of ``vec``; each of the kinds
        W, b, X, Z and P has an entry, empty where nothing is packed."""
        out: dict[str, dict[int, np.ndarray]] = {kind: {} for kind in ("W", "b", "X", "Z", "P")}
        for (kind, l), (sl, shape) in self.slices.items():
            out[kind][l] = vec[sl].reshape(shape)
        return out

    def view(self, vec: np.ndarray, kind: str, l: int) -> np.ndarray:
        """Block (kind, l) of ``vec`` as a shaped view: writing it writes ``vec``."""
        sl, shape = self.slices[kind, l]
        return vec[sl].reshape(shape)

    def params(self, W: dict[int, np.ndarray], b: dict[int, np.ndarray | None]) -> np.ndarray:
        """The packed W and b blocks, the first ``n_params`` entries of a
        position, as a new vector."""
        return np.concatenate([np.ravel((W if kind == "W" else b)[l]) for kind, l, _ in self.blocks if kind in ("W", "b")])

    def state(self, vec: np.ndarray, frame: ChainState) -> ChainState:
        """The chain state at ``vec``: every packed block is a view into
        ``vec``, and what the data clamps comes from ``frame``
        (see ``clamped_frame``)."""
        parts = self.unpack(vec)
        return ChainState(
            W=parts["W"],
            b={**frame.b, **parts["b"]},
            X={**frame.X, **parts["X"]},
            Z={**frame.Z, **parts["Z"]},
            P=parts["P"],
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


@dataclass(frozen=True)
class FlatLayout:
    """What a flat gradient pass needs besides the state, built once per
    target: the packer that lays out position and gradient, the negated
    prior precision of each of its ``n_params`` W/b coordinates, and the
    first layer's design of the clamped inputs (a view for a dense layer,
    the im2col patches for conv)."""

    packer: FlatPacker
    neg_lam: np.ndarray
    design: np.ndarray

    @classmethod
    def build(cls, packer: FlatPacker, prior: PriorSpec, design: np.ndarray) -> "FlatLayout":
        neg_lam = np.empty(packer.n_params)
        for kind, l, _ in packer.blocks:
            if kind in ("W", "b"):
                neg_lam[packer.slices[kind, l][0]] = -(prior.lambda_w if kind == "W" else prior.lambda_b)[l]
        return cls(packer, neg_lam, design)


def make_classical_target(dataset: Dataset, spec: NetworkSpec, delta: float, prior: PriorSpec):
    """(flat position) -> (log density, new flat gradient) for the loss posterior."""
    design = spec.weighted_layers[0].op.design(np.asarray(dataset.inputs, dtype=float))
    layout = FlatLayout.build(FlatPacker.for_classical(spec), prior, design)
    packer = layout.packer

    def target(vec: np.ndarray):
        parts = packer.unpack(vec)
        return classical_log_posterior(parts["W"], parts["b"], dataset, spec, delta, prior, position=vec, layout=layout)

    return target, packer


def make_intermediate_target(dataset: Dataset, spec: NetworkSpec, noise: NoiseSchedule, prior: PriorSpec):
    """(flat position) -> (log density, new flat gradient) over the noisy chain.

    Inputs and the output pre-activations stay clamped for regression;
    for probit the output scores are part of the position and the hard
    constraint shows up as a -inf density outside the feasible cone.
    Every call returns a new gradient vector, so a caller may hold one
    across the next call.
    """
    frame = clamped_frame(spec, dataset)
    layout = FlatLayout.build(FlatPacker.for_intermediate(spec, dataset.n), prior, frame.first_design(spec))
    packer = layout.packer

    def target(vec: np.ndarray):
        return intermediate_log_posterior(packer.state(vec, frame), spec, noise, prior, position=vec, layout=layout)

    return target, packer
