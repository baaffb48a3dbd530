"""Gibbs conditionals for noisy convolutional layers, per-channel conv
biases, and average-pooling layers.

The convolutional conditionals group the (channel, filter-position)
double index into one packed index: the weight conditional inverts the
patch Gram matrix of that packed index, and the input conditional inverts
the Gram matrix of the conv operator written as an explicit linear map.
Desk-scale shapes keep both factorizations cheap, so no band-structure
shortcuts are taken beyond the sparsity that falls out of assembly.

The geometry and the layer arithmetic (``ConvIndexMap``, ``PoolMap``)
live in ``network`` and are re-exported here; ``ConvLayer`` and
``PoolLayer`` subclass them, so every function below takes either the
geometry-only map or the layer spec. ``ConvIndexMap`` is a ``DenseMap``
whose weight rows see im2col patch rows, so a conv layer's product,
gradients and bias layout are the dense ones. The sweep itself
is ``gibbs.gibbs_sweep``: it draws a conv filter bank and a per-channel
bias through the same blocks as a dense layer and calls
``update_pool_X`` when a pool follows the conv layer. The other updates
here are the reference forms that the tests check the sweep against.
"""
from __future__ import annotations

import numpy as np

from . import gibbs
from .kernels import RngStream
from .network import ConvIndexMap, PoolMap, as_rows, sub_bias

__all__ = [
    "ConvIndexMap",
    "PoolMap",
    "conv_w_conditional",
    "conv_x_conditional",
    "update_conv_W",
    "update_conv_X",
    "update_pool_X",
    "update_conv_bias",
]


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
    flat = imap.design(x)
    return gibbs.ridge_precision(flat, delta_z, lambda_w), imap.w_rhs(flat, sub_bias(z_next, b), delta_z)


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
    draws = gibbs.draw_rows_from_precision(prec, rhs, rng)
    return draws.reshape(draws.shape[0], -1, imap.filter_height, imap.filter_width)


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
    conditional over flat (channel, pixel) indices: the dense X
    conditional of the conv operator written as an explicit matrix."""
    return gibbs.dense_x_conditional(
        imap.operator_matrix(w), as_rows(upstream_mean), as_rows(sub_bias(z_next, b)), delta_z, delta_x
    )


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
    noise: each retained pixel is (upstream + shift) + (noise - q * window
    sum), the window terms reduced by ``PoolMap.window_sum`` and repeated
    over their pixels by ``PoolMap.expand``. Other pixels just fluctuate
    around their upstream means. The noise is drawn over the retained
    region first, then over the bottom and right border slabs.
    """
    gen = rng.generator
    k = pmap.k
    shrink = var_in / (var_in + k * var_out)
    q = (1.0 - np.sqrt(k * var_out / (k * var_out + var_in))) / k

    shift = shrink * (pooled - pmap.pool_mean(upstream_mean))
    sd = np.sqrt(var_in)
    rh, rw = pmap.retained_height, pmap.retained_width
    z = gen.normal(scale=sd, size=(*upstream_mean.shape[:-2], rh, rw))
    z -= pmap.expand(q * pmap.window_sum(z))

    out = np.empty(upstream_mean.shape)
    windows = out[..., :rh, :rw]
    np.add(upstream_mean[..., :rh, :rw], pmap.expand(shift), out=windows)
    windows += z
    for sl in (np.s_[..., rh:, :], np.s_[..., :rh, rw:]):
        np.add(upstream_mean[sl], gen.normal(scale=sd, size=out[sl].shape), out=out[sl])
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
    return gibbs.bias_draw(z_next - imap.product(w, x), delta_z, lambda_b, rng)
