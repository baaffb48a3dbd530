"""Gibbs conditionals for noisy convolutional layers, per-channel conv
biases, and average-pooling layers, plus the sweep for the supported
conv -> (pool) -> activation -> dense pipeline.

The convolutional conditionals group the (channel, filter-position)
double index into one packed index: the weight conditional inverts the
patch Gram matrix of that packed index, and the input conditional inverts
the Gram matrix of the conv operator written as an explicit linear map.
Desk-scale shapes keep both factorizations cheap, so no band-structure
shortcuts are taken beyond the sparsity that falls out of assembly.

The conv layer's input X[1] is clamped, so the sweep takes its im2col
patches and the factor of the filter precision from the chain's cache
(``gibbs.clamped_factor``), built on the first sweep. The filter response
``conv_mean(W1, X1)`` is computed once per sweep, after the filter draw,
and serves both the conv-bias and the pool update.
"""
from __future__ import annotations

import numpy as np

from . import gibbs
from .kernels import RngStream
from .network import (
    ChainState,
    ConvLayer,
    NetworkSpec,
    NoiseSchedule,
    PoolLayer,
    PriorSpec,
    ShapeMismatch,
    OUTPUT_PROBIT,
)

__all__ = [
    "ConvIndexMap",
    "PoolMap",
    "conv_forward",
    "conv_w_conditional",
    "conv_x_conditional",
    "update_conv_W",
    "update_conv_X",
    "update_pool_X",
    "update_conv_bias",
    "forward_generate_conv",
    "gibbs_sweep_conv",
]


class ConvIndexMap:
    """Receptive-field index bookkeeping for one conv geometry.

    ``patch_index[a, r]`` is the flat input position covered by filter
    position r when the output sits at flat position a; a runs row-major
    over the output grid and r row-major over the filter. The packed
    weight index is i = channel * filter_size + r.
    """

    def __init__(self, in_height: int, in_width: int, filter_height: int, filter_width: int, stride_y: int = 1, stride_x: int = 1):
        self.in_height = in_height
        self.in_width = in_width
        self.filter_height = filter_height
        self.filter_width = filter_width
        self.stride_y = stride_y
        self.stride_x = stride_x
        self.out_height = (in_height - filter_height) // stride_y + 1
        self.out_width = (in_width - filter_width) // stride_x + 1
        ys = np.arange(self.out_height)[:, None] * stride_y + np.arange(filter_height)[None, :]
        xs = np.arange(self.out_width)[:, None] * stride_x + np.arange(filter_width)[None, :]
        flat = ys[:, None, :, None] * in_width + xs[None, :, None, :]
        self.patch_index = flat.reshape(self.out_positions, self.filter_size)

    @classmethod
    def for_layer(cls, layer: ConvLayer) -> "ConvIndexMap":
        return cls(layer.in_height, layer.in_width, layer.filter_height, layer.filter_width, layer.stride_y, layer.stride_x)

    @property
    def filter_size(self) -> int:
        return self.filter_height * self.filter_width

    @property
    def out_positions(self) -> int:
        return self.out_height * self.out_width

    @property
    def in_positions(self) -> int:
        return self.in_height * self.in_width

    def nu(self, a: int, r: int) -> int:
        """Flat input position of filter coordinate r at output position a."""
        return int(self.patch_index[a, r])

    def pack(self, channel: int, r: int) -> int:
        return channel * self.filter_size + r

    def unpack(self, i: int) -> tuple[int, int]:
        return divmod(i, self.filter_size)

    def im2col(self, x: np.ndarray) -> np.ndarray:
        """(n, C, H, W) -> (n, out_positions, C * filter_size) patches."""
        n, c = x.shape[0], x.shape[1]
        flat = x.reshape(n, c, self.in_positions)
        cols = flat[:, :, self.patch_index]  # (n, C, P, K)
        return cols.transpose(0, 2, 1, 3).reshape(n, self.out_positions, c * self.filter_size)

    def conv_mean(self, w: np.ndarray, x: np.ndarray, patches: np.ndarray | None = None) -> np.ndarray:
        """Noise-free convolution output, shape (n, C_out, out_h, out_w).

        ``patches`` is ``im2col(x)`` when the caller already has it.
        """
        n = x.shape[0]
        c_out = w.shape[0]
        if patches is None:
            patches = self.im2col(x)
        out = patches @ w.reshape(c_out, -1).T  # (n, P, C_out)
        return out.transpose(0, 2, 1).reshape(n, c_out, self.out_height, self.out_width)

    def operator_matrix(self, w: np.ndarray) -> np.ndarray:
        """The conv map as a dense matrix G of shape (C_out*P, C_in*d_in)."""
        c_out, c_in = w.shape[0], w.shape[1]
        p, d = self.out_positions, self.in_positions
        w_flat = w.reshape(c_out, c_in, self.filter_size)
        g = np.zeros((c_out * p, c_in * d))
        rows = np.arange(p)[:, None]
        for alpha in range(c_out):
            for beta in range(c_in):
                g[alpha * p + rows, beta * d + self.patch_index] = w_flat[alpha, beta][None, :]
        return g


class PoolMap:
    """Average-pooling geometry: window blocks, retained region, leftovers.

    Every retained input pixel belongs to exactly one window; trailing
    rows/columns that do not fill a window are the discarded set and are
    resampled around their upstream means.
    """

    def __init__(self, in_height: int, in_width: int, window_height: int, window_width: int):
        self.in_height = in_height
        self.in_width = in_width
        self.window_height = window_height
        self.window_width = window_width
        self.out_height = in_height // window_height
        self.out_width = in_width // window_width
        self.k = window_height * window_width

    @classmethod
    def for_layer(cls, layer: PoolLayer) -> "PoolMap":
        return cls(layer.in_height, layer.in_width, layer.window_height, layer.window_width)

    @property
    def retained_height(self) -> int:
        return self.out_height * self.window_height

    @property
    def retained_width(self) -> int:
        return self.out_width * self.window_width

    @property
    def discarded_per_channel(self) -> int:
        return self.in_height * self.in_width - self.k * self.out_height * self.out_width

    def preimage(self, a: int) -> list[int]:
        """Flat input positions pooled into flat output position a."""
        ay, ax = divmod(a, self.out_width)
        out = []
        for ry in range(self.window_height):
            for rx in range(self.window_width):
                out.append((ay * self.window_height + ry) * self.in_width + ax * self.window_width + rx)
        return out

    def blocks(self, x: np.ndarray) -> np.ndarray:
        """View leading (..., H, W) as (..., out_h, win_h, out_w, win_w)."""
        lead = x.shape[:-2]
        ret = x[..., : self.retained_height, : self.retained_width]
        return ret.reshape(*lead, self.out_height, self.window_height, self.out_width, self.window_width)

    def pool_mean(self, x: np.ndarray) -> np.ndarray:
        return self.blocks(x).mean(axis=(-3, -1))


def conv_forward(
    layer: ConvLayer,
    w: np.ndarray,
    b: np.ndarray | None,
    x: np.ndarray,
    delta_z: float,
    rng: RngStream,
) -> np.ndarray:
    """One noisy conv layer: filter response plus channel bias plus noise."""
    if x.shape[1:] != (layer.channels_in, layer.in_height, layer.in_width):
        raise ShapeMismatch(f"conv input has shape {x.shape}, spec wants (n, {layer.channels_in}, {layer.in_height}, {layer.in_width})")
    imap = ConvIndexMap.for_layer(layer)
    mean = imap.conv_mean(w, x)
    if b is not None:
        mean = mean + b[None, :, None, None]
    return mean + rng.generator.normal(scale=np.sqrt(delta_z), size=mean.shape)


def conv_w_conditional(
    imap: ConvIndexMap,
    x: np.ndarray,
    z_next: np.ndarray,
    b: np.ndarray | None,
    delta_z: float,
    lambda_w: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Precision and per-output-channel right-hand sides of the filter
    conditional, over packed (channel, filter-position) indices."""
    flat = _flat_patches(imap, x)
    return gibbs.ridge_precision(flat, delta_z, lambda_w), _conv_w_rhs(imap, flat, z_next, b, delta_z)


def _flat_patches(imap: ConvIndexMap, x: np.ndarray) -> np.ndarray:
    """im2col patches as rows: (n * out_positions, C_in * filter_size)."""
    patches = imap.im2col(x)
    return patches.reshape(-1, patches.shape[2])


def _conv_w_rhs(imap: ConvIndexMap, flat: np.ndarray, z_next: np.ndarray, b: np.ndarray | None, delta_z: float) -> np.ndarray:
    n, c_out = z_next.shape[0], z_next.shape[1]
    resid = z_next.reshape(n, c_out, imap.out_positions)
    if b is not None:
        resid = resid - b[None, :, None]
    return resid.transpose(1, 0, 2).reshape(c_out, -1) @ flat / delta_z


def _filter_bank(imap: ConvIndexMap, draws: np.ndarray) -> np.ndarray:
    return draws.reshape(draws.shape[0], -1, imap.filter_height, imap.filter_width)


def update_conv_W(
    imap: ConvIndexMap,
    x: np.ndarray,
    z_next: np.ndarray,
    b: np.ndarray | None,
    delta_z: float,
    lambda_w: float,
    rng: RngStream,
) -> np.ndarray:
    """Redraw the whole filter bank from its packed-index Gaussian.

    The Gram matrix over packed (channel, filter-position) indices is
    shared by all output channels; each channel's filter is one row draw.
    """
    prec, rhs = conv_w_conditional(imap, x, z_next, b, delta_z, lambda_w)
    return _filter_bank(imap, gibbs.draw_rows_from_precision(prec, rhs, rng))


def conv_x_conditional(
    imap: ConvIndexMap,
    w: np.ndarray,
    upstream_mean: np.ndarray,
    z_next: np.ndarray,
    b: np.ndarray | None,
    delta_z: float,
    delta_x: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Precision and per-sample right-hand sides of the conv-input
    conditional over flat (channel, pixel) indices."""
    n, c_in = upstream_mean.shape[0], upstream_mean.shape[1]
    c_out = z_next.shape[1]
    d = imap.in_positions
    g = imap.operator_matrix(w)
    prec = np.eye(c_in * d) / delta_x + g.T @ g / delta_z
    resid = z_next.reshape(n, c_out, imap.out_positions)
    if b is not None:
        resid = resid - b[None, :, None]
    rhs = upstream_mean.reshape(n, -1) / delta_x + resid.reshape(n, -1) @ g / delta_z
    return prec, rhs


def update_conv_X(
    imap: ConvIndexMap,
    w: np.ndarray,
    upstream_mean: np.ndarray,
    z_next: np.ndarray,
    b: np.ndarray | None,
    delta_z: float,
    delta_x: float,
    rng: RngStream,
) -> np.ndarray:
    """Redraw a conv layer's input pixels jointly per sample.

    ``upstream_mean`` is what the pixels fluctuate around on their own
    (the activation of the previous pre-activation); the conv output
    ``z_next`` pulls them through the linearized conv operator. The
    precision only couples pixels whose receptive fields overlap, so its
    off-reach entries vanish identically.
    """
    prec, rhs = conv_x_conditional(imap, w, upstream_mean, z_next, b, delta_z, delta_x)
    draws = gibbs.draw_rows_from_precision(prec, rhs, rng)
    return draws.reshape(upstream_mean.shape)


def update_pool_X(
    pmap: PoolMap,
    upstream_mean: np.ndarray,
    pooled: np.ndarray,
    var_in: float,
    var_out: float,
    rng: RngStream,
) -> np.ndarray:
    """Redraw the pixels feeding an average pool, one window at a time.

    Window means shift toward the pooled output by the variance-weighted
    factor; the window covariance (a multiple of identity minus a rank-one
    part) is sampled by subtracting q times the window sum from white
    noise. Pixels outside the retained region just fluctuate around their
    upstream means.
    """
    gen = rng.generator
    k = pmap.k
    shrink = var_in / (var_in + k * var_out)
    q = (1.0 - np.sqrt(k * var_out / (k * var_out + var_in))) / k

    up_blocks = pmap.blocks(upstream_mean)
    field_avg = up_blocks.mean(axis=(-3, -1))
    shift = shrink * (pooled - field_avg)
    mean = up_blocks + shift[..., :, None, :, None]

    z = gen.normal(scale=np.sqrt(var_in), size=up_blocks.shape)
    zbar = z - q * z.sum(axis=(-3, -1), keepdims=True)
    drawn = mean + zbar

    out = upstream_mean + gen.normal(scale=np.sqrt(var_in), size=upstream_mean.shape)
    lead = upstream_mean.shape[:-2]
    out[..., : pmap.retained_height, : pmap.retained_width] = drawn.reshape(
        *lead, pmap.retained_height, pmap.retained_width
    )
    return out


def update_conv_bias(
    imap: ConvIndexMap,
    w: np.ndarray,
    x: np.ndarray,
    z_next: np.ndarray,
    delta_z: float,
    lambda_b: float,
    rng: RngStream,
) -> np.ndarray:
    """Per-channel bias draw; the bias is shared across samples and pixels."""
    return _conv_bias_draw(imap, imap.conv_mean(w, x), z_next, delta_z, lambda_b, rng)


def _conv_bias_draw(imap: ConvIndexMap, mean: np.ndarray, z_next: np.ndarray, delta_z: float, lambda_b: float, rng: RngStream) -> np.ndarray:
    """The bias draw given the filter response ``mean`` = conv_mean(w, x)."""
    n, c_out = z_next.shape[0], z_next.shape[1]
    resid = (z_next - mean).reshape(n, c_out, imap.out_positions)
    cols = resid.transpose(0, 2, 1).reshape(-1, c_out)
    return gibbs.dense_bias_draw(cols, delta_z, lambda_b, rng)


def _conv_stack(spec: NetworkSpec) -> tuple[ConvLayer, PoolLayer | None, list]:
    conv_layer = spec.layers[0]
    if conv_layer.kind != "conv":
        raise ValueError("conv pipeline must start with a conv layer")
    pool_layer = spec.pool
    dense_tail = [l for l in spec.layers if l.kind == "dense"]
    return conv_layer, pool_layer, dense_tail


def forward_generate_conv(
    spec: NetworkSpec,
    noise: NoiseSchedule,
    W: dict[int, np.ndarray],
    b: dict[int, np.ndarray | None],
    inputs: np.ndarray,
    gen,
    noiseless: bool,
) -> ChainState:
    """Noisy generative pass through conv -> (pool) -> activation -> dense."""
    conv_layer, pool_layer, dense_tail = _conv_stack(spec)
    if inputs.ndim != 4:
        raise ShapeMismatch("conv inputs must have shape (n, channels, height, width)")
    n = inputs.shape[0]
    imap = ConvIndexMap.for_layer(conv_layer)
    state = ChainState(W=dict(W), b={l: b.get(l) for l in range(1, spec.depth + 1)}, X={1: inputs}, Z={})

    mean = imap.conv_mean(W[1], inputs)
    if b.get(1) is not None:
        mean = mean + b[1][None, :, None, None]
    z2 = mean if noiseless else mean + gen.normal(scale=np.sqrt(noise.delta_z[2]), size=mean.shape)
    state.Z[2] = z2

    cur = z2
    if pool_layer is not None:
        pmap = PoolMap.for_layer(pool_layer)
        pooled = pmap.pool_mean(cur)
        if not noiseless:
            pooled = pooled + gen.normal(scale=np.sqrt(noise.delta_pool[2]), size=pooled.shape)
        state.P[2] = pooled
        cur = pooled

    x2 = spec.activation.apply(cur)
    if not noiseless:
        x2 = x2 + gen.normal(scale=np.sqrt(noise.delta_x[2]), size=x2.shape)
    state.X[2] = x2

    flat = x2.reshape(n, -1)
    big_l = spec.depth
    for l in range(2, big_l + 1):
        mean = flat @ W[l].T
        if b.get(l) is not None:
            mean = mean + b[l]
        z = mean if noiseless else mean + gen.normal(scale=np.sqrt(noise.delta_z[l + 1]), size=mean.shape)
        state.Z[l + 1] = z
        if l < big_l:
            x = spec.activation.apply(z)
            if not noiseless:
                x = x + gen.normal(scale=np.sqrt(noise.delta_x[l + 1]), size=x.shape)
            state.X[l + 1] = x
            flat = x
    return state


def gibbs_sweep_conv(
    state: ChainState,
    spec: NetworkSpec,
    noise: NoiseSchedule,
    prior: PriorSpec,
    rng: RngStream,
) -> ChainState:
    """Sequential sweep for the conv -> (pool) -> activation -> dense chain."""
    conv_layer, pool_layer, dense_tail = _conv_stack(spec)
    if spec.depth != 2:
        raise ValueError("conv sweep supports exactly one conv and one dense layer")
    imap = ConvIndexMap.for_layer(conv_layer)
    n = state.n

    entry = gibbs.clamped_factor(state, spec, noise, prior, design_of=lambda x: _flat_patches(imap, x))
    rhs = _conv_w_rhs(imap, entry.design, state.Z[2], state.b.get(1), noise.delta_z[2])
    state.W[1] = _filter_bank(imap, gibbs.draw_rows_from_factor(entry.factor, rhs, rng))
    patches = entry.design.reshape(n, imap.out_positions, entry.design.shape[1])
    response = imap.conv_mean(state.W[1], state.X[1], patches)
    if spec.has_bias(1):
        state.b[1] = _conv_bias_draw(imap, response, state.Z[2], noise.delta_z[2], prior.lambda_b[1], rng)

    # hidden block: X[2] jointly, then the latents feeding it, back to Z[2]
    pre_act = state.P[2] if pool_layer is not None else state.Z[2]
    sigma_prev = spec.activation.apply(pre_act).reshape(n, -1)
    z3 = state.Z[3]
    if state.b.get(2) is not None:
        z3 = z3 - state.b[2]
    x2_flat = gibbs.dense_x_draw(state.W[2], sigma_prev, z3, noise.delta_z[3], noise.delta_x[2], rng)
    state.X[2] = x2_flat.reshape(state.X[2].shape)

    state.W[2] = gibbs.dense_w_draw(state.X[2].reshape(n, -1), z3, noise.delta_z[3], prior.lambda_w[2], rng)
    if spec.has_bias(2):
        resid = state.Z[3] - state.X[2].reshape(n, -1) @ state.W[2].T
        state.b[2] = gibbs.dense_bias_draw(resid, noise.delta_z[3], prior.lambda_b[2], rng)

    conv_mean = response
    if state.b.get(1) is not None:
        conv_mean = response + state.b[1][None, :, None, None]

    if pool_layer is not None:
        pmap = PoolMap.for_layer(pool_layer)
        # pooled values see the conv side through their average and the
        # activation side pointwise: a scalar two-branch conditional
        state.P[2] = gibbs.sample_z_scalar(
            spec.activation,
            pmap.pool_mean(state.Z[2]),
            state.X[2],
            noise.delta_pool[2],
            noise.delta_x[2],
            rng,
        )
        state.Z[2] = update_pool_X(pmap, conv_mean, state.P[2], noise.delta_z[2], noise.delta_pool[2], rng)
    else:
        state.Z[2] = gibbs.sample_z_scalar(
            spec.activation, conv_mean, state.X[2], noise.delta_z[2], noise.delta_x[2], rng
        )

    if spec.output == OUTPUT_PROBIT:
        gibbs.update_probit_output(state, spec, noise, rng)
    return state
