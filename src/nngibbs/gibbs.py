"""Conditional-distribution updates and the Gibbs sweep.

Every update redraws one variable block from its exact conditional given
the rest of the chain: rows of X and W are multivariate Gaussians sharing
one inverse Cholesky factor per block (a conv layer's weight rows are its
filters), pre-activations Z are scalar two-branch mixtures of one-sided
truncated normals (each activation is two linear pieces, one per
half-line, and one half-line formula gives both branches), biases are
scalar Gaussians (one per unit, or per conv channel), and the probit
output scores are two blocks of truncated
normals that keep the argmax constraint: every label score given the
other scores, then every other score given the label score. Where a
pool feeds X[l], the pooled values P[l] take the two-branch law and Z[l]
is redrawn window by window (``conv.update_pool_X``).

One sweep walks the weighted layers of any supported stack. Hidden
layers factor and invert their shared precision once per sweep
(``kernels.inverse_factor``: a blocked triangular inverse of the
Cholesky factor in numpy's matmul); a row draw is then two matrix
products, so every linear-algebra call of the sweep runs in numpy's BLAS
and no second thread pool competes for the CPUs. The first-layer weight
precision depends on the data only through the clamped input X[1], so
its inverse factor R is built once per chain (``clamped_factor``) and only
its right-hand side is rebuilt each sweep. When X[1] has fewer design
rows n than inputs d, the map M = X[1]·R^T (n·d < d² floats, smaller
than R) is cached with R, and the draw's mean half R·h is one n-row
product with M instead of a d×d one. Each layer's product
W[l]·X[l] is computed once per sweep, after its W draw, and serves its
bias draw, the next Z draw and the probit draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from . import conv, kernels
from .kernels import RngStream, branch_prob_negative
from .network import (
    Activation,
    ChainState,
    DenseMap,
    NetworkSpec,
    NoiseSchedule,
    PriorSpec,
    OUTPUT_PROBIT,
    add_bias,
    as_rows,
    sub_bias,
    unit_rows,
)

__all__ = [
    "SweepSchedule",
    "ZBranchMasses",
    "ClampedFactor",
    "z_branch_masses",
    "sample_z_scalar",
    "clamped_factor",
    "update_X_layer",
    "update_W_layer",
    "update_Z_layer",
    "update_bias_layer",
    "update_probit_output",
    "gibbs_sweep",
]


@dataclass(frozen=True)
class SweepSchedule:
    """The one order in which a Gibbs sweep visits the variable blocks.

    W[1] and b[1]; then for l = 2..L: X[l], W[l], b[l], P[l] (when a pool
    feeds X[l]) and Z[l]; then, for probit, the output Z in two blocks:
    the label scores, then all other scores. The conv+pool classifier
    therefore runs W1, b1, X2, W2, b2, P2, Z2, probit labels, probit
    others. There is nothing to set: the class is kept because
    ``gibbs_sweep`` takes it as its ``schedule`` argument, and existing
    callers pass ``SweepSchedule()``.
    """


@dataclass
class ZBranchMasses:
    """Log masses and Gaussian parameters of the two half-line branches.

    Masses integrate the unnormalized conditional density itself (both
    Gaussian factors evaluated exactly), so the normalized branch split
    is free of any shared constant. ``log_tail_pos``/``log_tail_neg`` are
    the log_ndtr terms of those masses: the log probability that each
    branch's Gaussian lands on its own half-line, which is the survival
    mass the truncated draw inverts.
    """

    log_mass_pos: np.ndarray
    log_mass_neg: np.ndarray
    mean_pos: np.ndarray
    var_pos: np.ndarray | float
    mean_neg: np.ndarray
    var_neg: np.ndarray | float
    log_tail_pos: np.ndarray
    log_tail_neg: np.ndarray


def _half_line(side: float, slope: float, offset: float, wx, x_next, dz: float, dx: float):
    """(log mass, mean, variance, log tail) of the branch on the half-line
    side*z >= 0, where the activation is slope*z + offset."""
    x = x_next - offset if offset else x_next
    if slope:
        s = dx + slope**2 * dz
        var = dz * dx / s
        mean = (dx * wx + (slope * dz) * x) / s
        gap = slope * wx - x
    else:
        # a flat piece adds a z-free factor only and leaves the
        # pre-activation's own Gaussian
        s, var = dx, dz
        mean = np.broadcast_to(wx, np.broadcast_shapes(wx.shape, x.shape))
        gap = x
    log_tail = log_ndtr(mean / (side * np.sqrt(var)))
    log_mass = -(gap**2) / (2.0 * s) + 0.5 * np.log(2.0 * np.pi * var) + log_tail
    return log_mass, mean, var, log_tail


def z_branch_masses(activation: Activation, wx, x_next, dz: float, dx: float) -> ZBranchMasses:
    """Two-branch decomposition of the scalar pre-activation conditional.

    The conditional density is exp[-(z - wx)^2 / 2 dz] *
    exp[-(act(z) - x_next)^2 / 2 dx]. On each half-line the activation is
    one linear piece (``Activation.pieces``), so the density there is a
    (truncated) Gaussian whose mass, mean and variance follow from that
    piece alone. Mass factors are evaluated in log_ndtr form, so
    arbitrarily lopsided branches stay finite.
    """
    if dz <= 0.0 or dx <= 0.0:
        raise ValueError("noise variances must be positive")
    wx = np.asarray(wx, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    pos, neg = Activation(activation).pieces
    log_pos, mean_pos, var_pos, tail_pos = _half_line(1.0, *pos, wx, x_next, dz, dx)
    log_neg, mean_neg, var_neg, tail_neg = _half_line(-1.0, *neg, wx, x_next, dz, dx)
    return ZBranchMasses(log_pos, log_neg, mean_pos, var_pos, mean_neg, var_neg, tail_pos, tail_neg)


def sample_z_scalar(activation: Activation, wx, x_next, dz: float, dx: float, rng: RngStream) -> np.ndarray:
    """Elementwise draw from the scalar pre-activation conditional.

    Bernoulli branch choice on the exact mass split, then a one-sided
    truncated normal from the chosen branch.
    """
    gen = rng.generator
    masses = z_branch_masses(activation, wx, x_next, dz, dx)
    p_neg = branch_prob_negative(masses.log_mass_pos, masses.log_mass_neg)
    take_neg = gen.uniform(size=p_neg.shape) < p_neg

    # one standardized truncated pass serves both branches: the negative
    # branch is the mirrored positive one, and the chosen branch's tail
    # mass is exp of its log_ndtr term, Phi(-bound)
    mu = np.where(take_neg, masses.mean_neg, masses.mean_pos)
    sd = np.sqrt(np.where(take_neg, masses.var_neg, masses.var_pos))
    signs = 1.0 - 2.0 * take_neg  # exactly -1.0 or 1.0, ~6x faster than np.where on a random mask
    bound = -signs * mu / sd
    surv = np.exp(np.where(take_neg, masses.log_tail_neg, masses.log_tail_pos))
    t = kernels.std_lower_truncated(bound, surv, gen)
    return signs * (signs * mu + sd * t)


def draw_rows_from_half(inv_factor: np.ndarray, half: np.ndarray, rng: RngStream) -> np.ndarray:
    """Rows drawn from N(A^-1 h, A^-1) given R = L^-1 for the Cholesky
    factor L of A, and ``half`` = R h with one column per row.

    With A = L L^T, A^-1 = R^T R and the draw is R^T (R h + z): two matrix
    products in numpy's BLAS, so a sweep never wakes a second library's
    thread pool. Every Gaussian row draw takes its noise here.
    """
    z = rng.generator.standard_normal(half.shape)
    return (inv_factor.T @ (half + z)).T


def draw_rows_from_precision(prec: np.ndarray, rhs_rows: np.ndarray, rng: RngStream) -> np.ndarray:
    """Rows drawn from N(A^-1 h, A^-1) for a shared precision A, one h per
    row of ``rhs_rows``, whose inverse Cholesky factor
    (``kernels.inverse_factor``) is built once and reused for every row."""
    inv_factor = kernels.inverse_factor(prec)
    return draw_rows_from_half(inv_factor, inv_factor @ rhs_rows.T, rng)


def ridge_precision(design: np.ndarray, dz: float, lam: float) -> np.ndarray:
    """design^T design / dz + lam I: the precision of a weight row whose
    inputs are the rows of ``design``, built in the Gram's own buffer
    (bit for bit ``design.T @ design / dz + lam * np.eye(d)``)."""
    prec = design.T @ design
    prec /= dz
    prec.reshape(-1)[:: len(prec) + 1] += lam
    return prec


@dataclass(frozen=True)
class ClampedFactor:
    """Inverse Cholesky factor R = L^-1 of the first-layer weight
    precision (``kernels.inverse_factor``), built from the X[1] object
    ``x`` under ``key`` = (first layer, delta_z[2], lambda_w[1]).

    ``design`` holds the weight rows' inputs (the rows of X[1], or its
    flattened conv patches); ``jitter`` is what ``kernels.cholesky_factor``
    had to add. ``mean_map`` is M = design·R^T, C-ordered, when the design
    has fewer rows n than R has (so M's n·d floats stay below R's d²),
    else None.
    """

    x: np.ndarray
    key: tuple
    design: np.ndarray
    inv_factor: np.ndarray
    jitter: float
    mean_map: np.ndarray | None


def clamped_factor(state: ChainState, spec: NetworkSpec, noise: NoiseSchedule, prior: PriorSpec) -> ClampedFactor:
    """The chain's cached first-layer weight factor, built on first use
    by ``kernels.inverse_factor``, the same path as every other row draw.

    The entry, with its ``mean_map`` when the design has fewer rows than
    inputs, is rebuilt whenever X[1] is replaced or its key changes.
    """
    x1 = state.X[1]
    layer = spec.weighted_layers[0]
    key = (layer, noise.delta_z[2], prior.lambda_w[1])
    entry = state._clamped
    if entry is None or entry.x is not x1 or entry.key != key:
        design = layer.design(x1)
        inv_factor, jitter = kernels.inverse_factor(ridge_precision(design, key[1], key[2]), return_jitter=True)
        mean_map = design @ inv_factor.T if len(design) < len(inv_factor) else None
        entry = state._clamped = ClampedFactor(x1, key, design, inv_factor, jitter, mean_map)
    return entry


def dense_x_conditional(W: np.ndarray, sigma_prev: np.ndarray, z_next: np.ndarray, dz: float, dx: float):
    """Precision and per-sample right-hand sides of the hidden-row law.

    ``sigma_prev`` is the activation of the layer's own pre-activation
    and ``z_next`` the bias-subtracted next pre-activation, both as rows.
    """
    rhs = sigma_prev / dx + z_next @ W / dz
    return ridge_precision(W, dz, 1.0 / dx), rhs


def dense_w_conditional(X: np.ndarray, z_next: np.ndarray, dz: float, lam: float):
    """Precision and per-output-row right-hand sides of the weight law."""
    return ridge_precision(X, dz, lam), DenseMap().w_rhs(X, z_next, dz)


def update_X_layer(l: int, state: ChainState, spec: NetworkSpec, noise: NoiseSchedule, rng: RngStream) -> np.ndarray:
    """Redraw all rows of X[l] (2 <= l <= L) from their joint Gaussian.

    X[l] is drawn flattened around the activation of P[l] when a pool
    feeds it, else of Z[l], and keeps its shape.
    """
    big_l = spec.depth
    if not 2 <= l <= big_l:
        raise ValueError(f"X update needs 2 <= l <= {big_l}")
    z_next = sub_bias(state.Z[l + 1], state.b.get(l))
    pre = state.P[l] if l in spec.pools else state.Z[l]
    sigma_prev = as_rows(spec.activation.apply(pre))
    prec, rhs = dense_x_conditional(state.W[l], sigma_prev, z_next, noise.delta_z[l + 1], noise.delta_x[l])
    state.X[l] = draw_rows_from_precision(prec, rhs, rng).reshape(state.X[l].shape)
    return state.X[l]


def update_W_layer(
    l: int,
    state: ChainState,
    spec: NetworkSpec,
    noise: NoiseSchedule,
    prior: PriorSpec,
    rng: RngStream,
) -> np.ndarray:
    """Redraw all rows of W[l] from their shared-covariance Gaussian.

    Layer 1 draws from the chain's cached factor R (``clamped_factor``).
    R·h is R times the right-hand sides, or, through the ``mean_map`` M
    when there is one, (z·M)^T/dz: one n-row product in place of a d×d
    one. A conv layer's rows are its filters, over packed
    (channel, filter-position) indices.
    """
    z_next = sub_bias(state.Z[l + 1], state.b.get(l))
    dz = noise.delta_z[l + 1]
    if l == 1:
        layer = spec.weighted_layers[0]
        entry = clamped_factor(state, spec, noise, prior)
        if entry.mean_map is None:
            half = entry.inv_factor @ layer.w_rhs(entry.design, z_next, dz).T
        else:
            half = (unit_rows(z_next) @ entry.mean_map).T / dz
        new_w = draw_rows_from_half(entry.inv_factor, half, rng).reshape(layer.weight_shape)
    else:
        prec, rhs = dense_w_conditional(as_rows(state.X[l]), z_next, dz, prior.lambda_w[l])
        new_w = draw_rows_from_precision(prec, rhs, rng)
    state.W[l] = new_w
    return new_w


def update_Z_layer(
    l: int,
    state: ChainState,
    spec: NetworkSpec,
    noise: NoiseSchedule,
    rng: RngStream,
    product: np.ndarray,
) -> np.ndarray:
    """Redraw Z[l] (2 <= l <= L) around W[l-1]·X[l-1] + b[l-1].

    Every scalar follows the two-branch law, unless a pool feeds X[l]:
    then the pooled values P[l] take that law (they see Z[l] through
    their window average) and Z[l] is redrawn window by window.
    ``product`` is W[l-1]·X[l-1], the layer spec's ``product``.
    """
    big_l = spec.depth
    if not 2 <= l <= big_l:
        raise ValueError(f"Z update needs 2 <= l <= {big_l}")
    mean = add_bias(product, state.b.get(l - 1))
    pool = spec.pools.get(l)
    if pool is None:
        new_z = sample_z_scalar(spec.activation, mean, state.X[l], noise.delta_z[l], noise.delta_x[l], rng)
    else:
        state.P[l] = sample_z_scalar(
            spec.activation, pool.pool_mean(state.Z[l]), state.X[l], noise.delta_pool[l], noise.delta_x[l], rng
        )
        new_z = conv.update_pool_X(pool, mean, state.P[l], noise.delta_z[l], noise.delta_pool[l], rng)
    state.Z[l] = new_z
    return new_z


def bias_draw(resid: np.ndarray, dz: float, lam_b: float, rng: RngStream) -> np.ndarray:
    """Scalar Gaussian bias draw from the residual Z_next - W·X.

    Axis 1 of ``resid`` holds the units (or conv channels), one bias
    each; every other axis (samples, and pixels for a conv channel)
    shares it.
    """
    rows = unit_rows(resid)
    denom = rows.shape[1] + dz * lam_b
    mean = rows.sum(axis=1) / denom
    sd = np.sqrt(dz / denom)
    return mean + sd * rng.generator.standard_normal(mean.shape)


def update_bias_layer(
    l: int,
    state: ChainState,
    noise: NoiseSchedule,
    prior: PriorSpec,
    rng: RngStream,
    product: np.ndarray | None = None,
) -> np.ndarray:
    """Redraw the bias of layer l: one scalar Gaussian per unit, or per
    output channel of a conv layer.

    ``product`` is W[l]·X[l], the layer spec's ``product``. It may be
    omitted for a dense layer only (a 2-D W[l]), whose X[l] W[l]^T is then
    computed; a conv layer's product needs its geometry.
    """
    if product is None:
        if state.W[l].ndim != 2:
            raise ValueError(f"layer {l} is not dense: pass the layer's product")
        product = DenseMap().product(state.W[l], state.X[l])
    new_b = bias_draw(state.Z[l + 1] - product, noise.delta_z[l + 1], prior.lambda_b[l], rng)
    state.b[l] = new_b
    return new_b


def update_probit_output(
    state: ChainState,
    spec: NetworkSpec,
    noise: NoiseSchedule,
    rng: RngStream,
    product: np.ndarray | None = None,
) -> np.ndarray:
    """Two exact blocks over the constrained output scores.

    Under argmax = label the non-label scores are conditionally
    independent given the label score. So every row's label score is
    drawn first, truncated below at the maximum of its other scores; then
    every non-label score at once, truncated above at the new label
    score. Each block is one truncated-normal call, and the argmax
    constraint holds after each. ``product`` is W[L]·X[L] when the caller
    already has it.
    """
    if spec.output != OUTPUT_PROBIT:
        raise ValueError("probit update requires a probit output model")
    big_l = spec.depth
    y = state.labels
    if y is None:
        raise ValueError("probit state has no labels")
    if product is None:
        product = spec.weighted_layers[-1].product(state.W[big_l], state.X[big_l])
    mean = add_bias(product, state.b.get(big_l))
    dz = noise.delta_z[big_l + 1]
    others = state.Z[big_l + 1].copy()
    rows = np.arange(len(others))
    others[rows, y] = -np.inf
    label = kernels.trunc_norm_lower(mean[rows, y], dz, others.max(axis=1), rng)
    # the label column is drawn too, then replaced
    Z = kernels.trunc_norm_upper(mean, dz, label[:, None], rng)
    Z[rows, y] = label
    state.Z[big_l + 1] = Z
    return Z


def gibbs_sweep(
    state: ChainState,
    spec: NetworkSpec,
    noise: NoiseSchedule,
    prior: PriorSpec,
    schedule: SweepSchedule,
    rng: RngStream,
) -> ChainState:
    """Advance the chain by one full sweep; every unclamped block once, in
    the order ``SweepSchedule`` describes."""
    product = {}
    for l, layer in enumerate(spec.weighted_layers, start=1):
        if l > 1:
            update_X_layer(l, state, spec, noise, rng)
        update_W_layer(l, state, spec, noise, prior, rng)
        # layer 1 reuses the design (conv: im2col patches) cached with its factor
        design = state._clamped.design if l == 1 else None
        product[l] = layer.product(state.W[l], state.X[l], design)
        if spec.has_bias(l):
            update_bias_layer(l, state, noise, prior, rng, product[l])
        if l > 1:
            update_Z_layer(l, state, spec, noise, rng, product[l - 1])
    if spec.output == OUTPUT_PROBIT:
        update_probit_output(state, spec, noise, rng, product[spec.depth])
    return state
