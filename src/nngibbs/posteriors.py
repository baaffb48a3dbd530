"""Log densities (up to constants) of the two posterior forms, with exact
gradients, and flat-vector adapters for the gradient-based samplers.

The output-loss posterior lives on weights and biases only: squared loss
for regression, softmax cross-entropy for classification, both scaled by
1/(2 delta). The noisy-layer posterior adds every pre- and
post-activation as a variable, each contributing one Gaussian term; a
probit output adds a hard argmax constraint instead of a loss.
"""
from __future__ import annotations

import math
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
    PoolLayer,
    as_rows,
    noiseless_pass,
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


def _prior(layout: FlatLayout, position: np.ndarray):
    """The Gaussian prior over the packed W/b prefix theta of ``position``:
    its log density and a new flat gradient whose prefix holds
    -lambda * theta, the first term of every W/b block."""
    packer = layout.packer
    theta = position[: packer.n_params]
    g = np.empty(packer.size)
    grad = np.multiply(layout.neg_lam, theta, out=g[: packer.n_params])
    return 0.5 * float(theta @ grad), g


def _backward_from_output(spec, fwd: ChainState, d_out, layout: FlatLayout, g: np.ndarray):
    """Propagate a gradient at the network output back to all parameters
    through the noiseless pass ``fwd``, adding it into ``g``."""
    delta = d_out
    for t in reversed(layout.weighted):
        l = t.l
        layer = spec.weighted_layers[l - 1]
        grad_w = g[t.w].reshape(t.w_shape)
        grad_w += layer.weight_grad(delta, fwd.X[l], layout.design if l == 1 else None)
        if t.b is not None:
            grad_b = g[t.b]
            grad_b += layer.bias_grad(delta)
        if l > 1:
            pre = fwd.P[l] if l in spec.pools else fwd.Z[l]
            delta = np.dot(delta, fwd.W[l]).reshape(pre.shape) * spec.activation.derivative(pre)
            if l in spec.pools:
                delta = spec.pools[l].spread(delta, fwd.Z[l])


def classical_log_posterior(
    W: dict[int, np.ndarray],
    b: dict[int, np.ndarray | None],
    dataset: Dataset,
    spec: NetworkSpec,
    delta: float,
    prior: PriorSpec,
    position: np.ndarray | None = None,
    layout: FlatLayout | None = None,
):
    """Output-loss posterior log density and its gradient over (W, b).

    Regression pairs the squared loss with temperature delta; probit
    specs are scored with softmax cross-entropy here (hard argmax stays a
    prediction-time device). ReLU uses the zero subgradient at the kink.

    The gradient is written into one new flat vector laid out by
    ``FlatPacker.for_classical``. Given a ``position`` (the flat vector
    that W and b view, see ``make_classical_target``) it comes back as
    that vector. Without one, the position is packed from W and b once,
    the pass is the same, and the gradient comes back as
    {"W": {l: block}, "b": {l: block}} views of it. A ``layout`` (see
    ``FlatLayout.for_classical``) is built when none is given.
    """
    inputs = np.asarray(dataset.inputs, dtype=float)
    if layout is None:
        layout = FlatLayout.for_classical(spec, prior, spec.weighted_layers[0].design(inputs))
    flat = position is not None
    if not flat:
        position = layout.packer.pack({"W": W, "b": b})
    logp, g = _prior(layout, position)

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
        _backward_from_output(spec, fwd, d_out, layout, g)
    return logp, (g if flat else layout.packer.unpack(g))


def intermediate_log_posterior(
    state: ChainState,
    spec: NetworkSpec,
    noise: NoiseSchedule,
    prior: PriorSpec,
    position: np.ndarray | None = None,
    layout: FlatLayout | None = None,
):
    """Noisy-layer posterior log density and gradient over all unclamped
    variables.

    Every layer contributes one Gaussian quadratic; a probit output adds
    -inf when the argmax constraint is broken, and within the feasible
    region its score block is the plain residual term. The gradient is
    exact almost everywhere for relu/abs/linear; sign has none.

    One pass reads the sampled blocks from a flat position laid out by
    ``FlatPacker.for_intermediate`` and writes the gradient block by
    block, in place, into one new flat vector in the same layout: a
    residual is built in its pre-activation's gradient block, and only a
    clamped output's residual is a temporary. ``state`` supplies what the
    data clamps, the regression output Z[L+1] and the probit labels; the
    first layer's design of X[1] is the ``layout``'s (see
    ``FlatLayout.for_intermediate``; built when none is given).

    Given a ``position`` (see ``make_intermediate_target``) the gradient
    comes back as that vector. Without one, the position is packed from
    ``state`` once, and the gradient comes back as {kind: {l: block}}
    views of it; the weight products then read ``state``'s own W and X
    arrays, whose memory order (a Gibbs draw is transposed) can move the
    last bit of a matrix product.
    """
    if spec.activation is Activation.SIGN:
        raise NonDifferentiableActivation("sign activation has no usable gradient")
    if layout is None:
        layout = FlatLayout.for_intermediate(spec, state.n, prior, state.first_design(spec))
    flat = position is not None
    if not flat:
        position = layout.packer.pack(vars(state))
    logp, g = _prior(layout, position)

    # every block of g is first written whole, then added to
    for t in layout.weighted:
        if flat:
            w = position[t.w].reshape(t.w_rows)
            x = layout.design if t.x is None else position[t.x].reshape(t.x_rows)
        else:
            w = state.W[t.l].reshape(t.w_rows)
            x = layout.design if t.x is None else as_rows(state.X[t.l])
        dz = noise.delta_z[t.l + 1]
        n, units = t.z_shape[:2]
        product = x @ w.T  # one row per sample, or per sample and output position (conv)
        if t.grid:
            product = product.reshape(n, -1, units).transpose(0, 2, 1).reshape(t.z_shape)
        if t.z is None:
            resid = state.Z[t.l + 1] - product
        else:
            resid = np.subtract(position[t.z].reshape(t.z_shape), product, out=g[t.z].reshape(t.z_shape))
        if t.b is not None:
            resid -= position[t.b].reshape(t.b_cast)
        logp -= _sumsq(resid) / (2.0 * dz)
        # units or channels as rows: the view resid.T for dense, one copy for conv
        rows = resid.reshape(n, units, -1).transpose(1, 0, 2).reshape(units, -1) if t.grid else resid.T
        # score_U reads W[1]: its bits are (-lambda W) + weight_grad / dz
        grad_w = g[t.w].reshape(t.w_rows)
        grad_w += (rows @ x) / dz
        if t.b is not None:
            grad_b = g[t.b]
            grad_b += (t.ones @ rows.T) / dz
        # X[l] takes (resid / dz)·W; Z[l+1] ends as -(resid / dz), bitwise resid / -dz
        if t.x is not None:
            resid /= dz
            np.dot(resid, w, out=g[t.x].reshape(t.x_rows))
            if t.z is not None:
                np.negative(resid, out=resid)
        elif t.z is not None:
            resid /= -dz
    act = spec.activation
    for h in layout.hidden:
        pre = position[h.z].reshape(h.z_shape)
        g_pre = g[h.z].reshape(h.z_shape)
        if h.pool is not None:
            dpool = noise.delta_pool[h.l]
            pooled = position[h.p].reshape(h.x_shape)
            scaled = np.subtract(pooled, h.pool.pool_mean(pre), out=g[h.p].reshape(h.x_shape))
            logp -= _sumsq(scaled) / (2.0 * dpool)
            scaled /= dpool
            g_pre += h.pool.spread(scaled, pre)
            pre, g_pre = pooled, np.negative(scaled, out=scaled)
        dx = noise.delta_x[h.l]
        mismatch = position[h.x].reshape(h.x_shape) - act.apply(pre)
        logp -= _sumsq(mismatch) / (2.0 * dx)
        mismatch /= dx
        grad_x = g[h.x].reshape(h.x_shape)
        grad_x -= mismatch
        mismatch *= act.derivative(pre)
        g_pre += mismatch

    if spec.output == OUTPUT_PROBIT:
        top = layout.weighted[-1]
        if np.any(np.argmax(position[top.z].reshape(top.z_shape), axis=1) != state.labels):
            logp = -np.inf
    return logp, (g if flat else layout.packer.unpack(g))


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
class WeightedBlocks:
    """Where weighted layer l's part of a gradient pass lives in a flat
    vector, and the shapes it is read in.

    ``w`` and ``b`` slice its weights (read as ``w_shape``, or as
    ``w_rows``: one row per unit or output channel) and its bias (None
    without one), which broadcasts over the residual as ``b_cast``. ``x``
    slices X[l], read as its design rows ``x_rows`` (None for the clamped
    input, whose design the layout holds), and ``z`` slices Z[l+1], shaped
    ``z_shape`` (None for a clamped regression output). ``grid`` is a
    conv layer's output grid, empty for dense: a conv product has one row
    per sample and output position, and its residual is copied once into
    one row per channel. ``ones`` sums the residual per unit or channel.
    """

    l: int
    w: slice
    w_shape: tuple[int, ...]
    w_rows: tuple[int, int]
    b: slice | None
    b_cast: tuple[int, ...]
    x: slice | None
    x_rows: tuple[int, int]
    z: slice | None
    z_shape: tuple[int, ...]
    grid: tuple[int, ...]
    ones: np.ndarray


@dataclass(frozen=True)
class HiddenBlocks:
    """Hidden layer l's X[l] and Z[l] slices and, where ``pool`` feeds
    X[l], its P[l] slice; X[l] and P[l] have ``x_shape``."""

    l: int
    x: slice
    z: slice
    p: slice | None
    x_shape: tuple[int, ...]
    z_shape: tuple[int, ...]
    pool: PoolLayer | None


@dataclass(frozen=True)
class FlatLayout:
    """What a flat gradient pass needs besides the position, built once
    per target: the packer that lays out position and gradient, the
    negated prior precision of each of its ``n_params`` W/b coordinates,
    the first layer's design of the clamped inputs (a view for a dense
    layer, the im2col patches for conv), and the block table: one
    ``WeightedBlocks`` per weighted layer and one ``HiddenBlocks`` per
    hidden layer of the packed vector. A pass makes its views from these
    slices and shapes, with no ``FlatPacker`` lookups."""

    packer: FlatPacker
    neg_lam: np.ndarray
    design: np.ndarray
    weighted: tuple[WeightedBlocks, ...]
    hidden: tuple[HiddenBlocks, ...]

    @classmethod
    def for_classical(cls, spec: NetworkSpec, prior: PriorSpec, design: np.ndarray) -> "FlatLayout":
        return cls._build(spec, FlatPacker.for_classical(spec), prior, design)

    @classmethod
    def for_intermediate(cls, spec: NetworkSpec, n: int, prior: PriorSpec, design: np.ndarray) -> "FlatLayout":
        return cls._build(spec, FlatPacker.for_intermediate(spec, n), prior, design)

    @classmethod
    def _build(cls, spec: NetworkSpec, packer: FlatPacker, prior: PriorSpec, design: np.ndarray) -> "FlatLayout":
        neg_lam = np.empty(packer.n_params)
        for kind, l, _ in packer.blocks:
            if kind in ("W", "b"):
                neg_lam[packer.slices[kind, l][0]] = -(prior.lambda_w if kind == "W" else prior.lambda_b)[l]
        # the first layer's design has one row per sample and output position
        n = len(design) // math.prod(spec.weighted_layers[0].out_grid)

        def cut(kind, l):
            entry = packer.slices.get((kind, l))
            return None if entry is None else entry[0]

        weighted = []
        for l, layer in enumerate(spec.weighted_layers, start=1):
            units, fan_in, grid = layer.weight_shape[0], math.prod(layer.weight_shape[1:]), layer.out_grid
            weighted.append(WeightedBlocks(
                l=l,
                w=cut("W", l),
                w_shape=layer.weight_shape,
                w_rows=(units, fan_in),
                b=cut("b", l),
                b_cast=(units,) + (1,) * len(grid),
                x=cut("X", l),
                x_rows=(n, fan_in),
                z=cut("Z", l + 1),
                z_shape=(n, *layer.out_shape),
                grid=grid,
                ones=np.ones(n * math.prod(grid)),
            ))
        hidden = tuple(
            HiddenBlocks(l, cut("X", l), cut("Z", l), cut("P", l), packer.slices["X", l][1], packer.slices["Z", l][1], spec.pools.get(l))
            for l in range(2, spec.depth + 1)
            if ("X", l) in packer.slices
        )
        return cls(packer, neg_lam, design, tuple(weighted), hidden)

    def weights(self, vec: np.ndarray) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray | None]]:
        """W and b of ``vec`` as {l: view}, None for a layer without a bias."""
        W = {t.l: vec[t.w].reshape(t.w_shape) for t in self.weighted}
        b = {t.l: None if t.b is None else vec[t.b] for t in self.weighted}
        return W, b


def make_classical_target(dataset: Dataset, spec: NetworkSpec, delta: float, prior: PriorSpec):
    """(flat position) -> (log density, new flat gradient) for the loss posterior."""
    design = spec.weighted_layers[0].design(np.asarray(dataset.inputs, dtype=float))
    layout = FlatLayout.for_classical(spec, prior, design)

    def target(vec: np.ndarray):
        W, b = layout.weights(vec)
        return classical_log_posterior(W, b, dataset, spec, delta, prior, position=vec, layout=layout)

    return target, layout.packer


def make_intermediate_target(dataset: Dataset, spec: NetworkSpec, noise: NoiseSchedule, prior: PriorSpec):
    """(flat position) -> (log density, new flat gradient) over the noisy chain.

    Inputs and the output pre-activations stay clamped for regression;
    for probit the output scores are part of the position and the hard
    constraint shows up as a -inf density outside the feasible cone.
    Every call returns a new gradient vector and keeps no view of the
    position, so a caller may hold a gradient across the next call and
    update the position in place.
    """
    frame = clamped_frame(spec, dataset)
    layout = FlatLayout.for_intermediate(spec, dataset.n, prior, frame.first_design(spec))

    def target(vec: np.ndarray):
        return intermediate_log_posterior(frame, spec, noise, prior, position=vec, layout=layout)

    return target, layout.packer
