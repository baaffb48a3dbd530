"""Conditional-distribution updates and the Gibbs sweep.

Every update redraws one variable block from its exact conditional given
the rest of the chain: rows of X and W are multivariate Gaussians sharing
one inverse Cholesky factor per block (a conv layer's weight rows are its
filters), pre-activations Z are scalar two-branch mixtures of one-sided
truncated normals, biases are scalar Gaussians (one per unit, or per conv
channel), and the probit output scores are two blocks of truncated
normals that keep the argmax constraint: every label score given the
other scores, then every other score given the label score. Where a
pool feeds X[l], the pooled values P[l] take the two-branch law and Z[l]
is redrawn window by window (``conv.update_pool_X``).

One sweep walks the weighted layers of any supported stack. Hidden
layers factor and invert their shared precision once per sweep; a row
draw is then two matrix products, so every linear-algebra call of the
sweep runs in numpy's BLAS and no second thread pool competes for the
CPUs. The first-layer weight precision depends on the data only through
the clamped input X[1], so its inverse factor is built once per chain
(``clamped_factor``) and only its right-hand side is rebuilt each sweep.
Each layer's product W[l]·X[l] is computed once per sweep, after its W
draw, and serves its bias draw, the next Z draw and the probit draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conv, kernels
from .kernels import RngStream, branch_prob_negative, log_gauss_mass_lower, log_gauss_mass_upper
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
    "UnsupportedActivation",
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


class UnsupportedActivation(Exception):
    """The two-branch Z machinery does not cover this activation."""


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



def z_branch_masses(activation: Activation, wx, x_next, dz: float, dx: float) -> ZBranchMasses:
    """Two-branch decomposition of the scalar pre-activation conditional.

    The conditional density is exp[-(z - wx)^2 / 2 dz] *
    exp[-(act(z) - x_next)^2 / 2 dx]; restricted to each half-line it is a
    (truncated) Gaussian. All erfc-type mass factors are evaluated in
    scaled log form, so arbitrarily lopsided branches stay finite.
    """
    if dz <= 0.0 or dx <= 0.0:
        raise ValueError("noise variances must be positive")
    activation = Activation(activation)
    wx = np.asarray(wx, dtype=float)
    x_next = np.asarray(x_next, dtype=float)

    if activation is Activation.RELU:
        v = dz * dx / (dz + dx)
        mean_pos = (dx * wx + dz * x_next) / (dz + dx)
        tail_pos = log_gauss_mass_upper(mean_pos, v, 0.0)
        log_pos = (
            -((wx - x_next) ** 2) / (2.0 * (dz + dx))
            + 0.5 * np.log(2.0 * np.pi * v)
            + tail_pos
        )
        # below zero the activation contributes a z-free factor only
        mean_neg = wx
        tail_neg = log_gauss_mass_lower(wx, dz, 0.0)
        log_neg = (
            -(x_next**2) / (2.0 * dx)
            + 0.5 * np.log(2.0 * np.pi * dz)
            + tail_neg
        )
        mean_neg = np.broadcast_to(mean_neg, log_neg.shape)
        return ZBranchMasses(log_pos, log_neg, mean_pos, v, mean_neg, dz, tail_pos, tail_neg)

    if activation is Activation.SIGN:
        tail_pos = log_gauss_mass_upper(wx, dz, 0.0)
        tail_neg = log_gauss_mass_lower(wx, dz, 0.0)
        log_pos = (
            -((1.0 - x_next) ** 2) / (2.0 * dx)
            + 0.5 * np.log(2.0 * np.pi * dz)
            + tail_pos
        )
        log_neg = (
            -((1.0 + x_next) ** 2) / (2.0 * dx)
            + 0.5 * np.log(2.0 * np.pi * dz)
            + tail_neg
        )
        m = np.broadcast_to(wx, log_pos.shape)
        return ZBranchMasses(log_pos, log_neg, m, dz, m, dz, tail_pos, tail_neg)

    if activation is Activation.ABS:
        v = dz * dx / (dz + dx)
        mean_pos = (dx * wx + dz * x_next) / (dz + dx)
        mean_neg = (dx * wx - dz * x_next) / (dz + dx)
        tail_pos = log_gauss_mass_upper(mean_pos, v, 0.0)
        tail_neg = log_gauss_mass_lower(mean_neg, v, 0.0)
        log_pos = (
            -((wx - x_next) ** 2) / (2.0 * (dz + dx))
            + 0.5 * np.log(2.0 * np.pi * v)
            + tail_pos
        )
        log_neg = (
            -((wx + x_next) ** 2) / (2.0 * (dz + dx))
            + 0.5 * np.log(2.0 * np.pi * v)
            + tail_neg
        )
        return ZBranchMasses(log_pos, log_neg, mean_pos, v, mean_neg, v, tail_pos, tail_neg)

    raise UnsupportedActivation(f"no two-branch decomposition for {activation.value} activation")


def sample_z_scalar(activation: Activation, wx, x_next, dz: float, dx: float, rng: RngStream) -> np.ndarray:
    """Elementwise draw from the scalar pre-activation conditional.

    Bernoulli branch choice on the exact mass split, then a one-sided
    truncated normal from the chosen branch. Linear activation takes the
    closed-form Gaussian path (the product of the two factors).
    """
    activation = Activation(activation)
    wx = np.asarray(wx, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    gen = rng.generator
    if activation is Activation.LINEAR:
        v = dz * dx / (dz + dx)
        mean = (dx * wx + dz * x_next) / (dz + dx)
        return mean + np.sqrt(v) * gen.standard_normal(mean.shape)

    masses = z_branch_masses(activation, wx, x_next, dz, dx)
    p_neg = branch_prob_negative(masses.log_mass_pos, masses.log_mass_neg)
    take_neg = gen.uniform(size=p_neg.shape) < p_neg

    # one standardized truncated pass serves both branches: the negative
    # branch is the mirrored positive one, and the chosen branch's tail
    # mass is exp of its log_ndtr term, Phi(-bound)
    mu = np.where(take_neg, masses.mean_neg, masses.mean_pos)
    sd = np.sqrt(np.where(take_neg, masses.var_neg, masses.var_pos))
    signs = np.where(take_neg, -1.0, 1.0)
    bound = -signs * mu / sd
    surv = np.exp(np.where(take_neg, masses.log_tail_neg, masses.log_tail_pos))
    t = kernels.std_lower_truncated(bound, surv, gen)
    return signs * (signs * mu + sd * t)


def draw_rows_from_factor(inv_factor: np.ndarray, rhs_rows: np.ndarray, rng: RngStream) -> np.ndarray:
    """Rows drawn from N(A^-1 h, A^-1) given R = L^-1 for the Cholesky
    factor L of A.

    ``rhs_rows`` holds one h per row. With A = L L^T, A^-1 = R^T R and the
    draw is R^T (R h + z): two matrix products in numpy's BLAS, so a sweep
    never wakes a second library's thread pool.
    """
    half = inv_factor @ rhs_rows.T
    z = rng.generator.standard_normal(half.shape)
    return (inv_factor.T @ (half + z)).T


def draw_rows_from_precision(prec: np.ndarray, rhs_rows: np.ndarray, rng: RngStream) -> np.ndarray:
    """Rows drawn from N(A^-1 h, A^-1) for a shared precision A, which is
    factored and inverted once and reused for every row."""
    return draw_rows_from_factor(np.linalg.inv(kernels.cholesky_factor(prec)), rhs_rows, rng)


def ridge_precision(design: np.ndarray, dz: float, lam: float) -> np.ndarray:
    """design^T design / dz + lam I: the precision of a weight row whose
    inputs are the rows of ``design``."""
    d = design.shape[1]
    return design.T @ design / dz + lam * np.eye(d)


@dataclass(frozen=True)
class ClampedFactor:
    """Inverse Cholesky factor R = L^-1 of the first-layer weight
    precision, built from the X[1] object ``x`` under ``key`` = (first
    layer, delta_z[2], lambda_w[1]).

    ``design`` holds the weight rows' inputs (the rows of X[1], or its
    flattened conv patches); ``jitter`` is what ``kernels.cholesky_factor``
    had to add.
    """

    x: np.ndarray
    key: tuple
    design: np.ndarray
    inv_factor: np.ndarray
    jitter: float


def clamped_factor(state: ChainState, spec: NetworkSpec, noise: NoiseSchedule, prior: PriorSpec) -> ClampedFactor:
    """The chain's cached first-layer weight factor, built on first use.

    The entry is rebuilt whenever X[1] is replaced or its key changes.
    """
    x1 = state.X[1]
    layer = spec.weighted_layers[0]
    key = (layer, noise.delta_z[2], prior.lambda_w[1])
    entry = state._clamped
    if entry is None or entry.x is not x1 or entry.key != key:
        design = layer.op.design(x1)
        factor, jitter = kernels.cholesky_factor(ridge_precision(design, key[1], key[2]), return_jitter=True)
        entry = state._clamped = ClampedFactor(x1, key, design, np.linalg.inv(factor), jitter)
    return entry


def dense_x_conditional(W: np.ndarray, sigma_prev: np.ndarray, z_next: np.ndarray, dz: float, dx: float):
    """Precision and per-sample right-hand sides of the hidden-row law.

    ``sigma_prev`` is the activation of the layer's own pre-activation
    and ``z_next`` the bias-subtracted next pre-activation, both as rows.
    """
    d = W.shape[1]
    prec = W.T @ W / dz + np.eye(d) / dx
    rhs = sigma_prev / dx + z_next @ W / dz
    return prec, rhs


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

    Layer 1 draws from the chain's cached factor (``clamped_factor``); a
    conv layer's rows are its filters, over packed (channel,
    filter-position) indices.
    """
    z_next = sub_bias(state.Z[l + 1], state.b.get(l))
    dz = noise.delta_z[l + 1]
    if l == 1:
        layer = spec.weighted_layers[0]
        entry = clamped_factor(state, spec, noise, prior)
        rows = draw_rows_from_factor(entry.inv_factor, layer.op.w_rhs(entry.design, z_next, dz), rng)
        new_w = rows.reshape(layer.weight_shape)
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
    product: np.ndarray | None = None,
) -> np.ndarray:
    """Redraw Z[l] (2 <= l <= L) around W[l-1]·X[l-1] + b[l-1].

    Every scalar follows the two-branch law, unless a pool feeds X[l]:
    then the pooled values P[l] take that law (they see Z[l] through
    their window average) and Z[l] is redrawn window by window.
    ``product`` is W[l-1]·X[l-1] when the caller already has it.
    """
    big_l = spec.depth
    if not 2 <= l <= big_l:
        raise ValueError(f"Z update needs 2 <= l <= {big_l}")
    if product is None:
        product = spec.weighted_layers[l - 2].op.product(state.W[l - 1], state.X[l - 1])
    mean = add_bias(product, state.b.get(l - 1))
    pool = spec.pools.get(l)
    if pool is None:
        new_z = sample_z_scalar(spec.activation, mean, state.X[l], noise.delta_z[l], noise.delta_x[l], rng)
    else:
        state.P[l] = sample_z_scalar(
            spec.activation, pool.op.pool_mean(state.Z[l]), state.X[l], noise.delta_pool[l], noise.delta_x[l], rng
        )
        new_z = conv.update_pool_X(pool.op, mean, state.P[l], noise.delta_z[l], noise.delta_pool[l], rng)
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

    ``product`` is W[l]·X[l] (``op.product`` of the layer spec); when it
    is omitted the layer is taken as dense and X[l] W[l]^T is computed.
    """
    if product is None:
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
        product = spec.weighted_layers[-1].op.product(state.W[big_l], state.X[big_l])
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
        product[l] = layer.op.product(state.W[l], state.X[l], design)
        if spec.has_bias(l):
            update_bias_layer(l, state, noise, prior, rng, product[l])
        if l > 1:
            update_Z_layer(l, state, spec, noise, rng, product[l - 1])
    if spec.output == OUTPUT_PROBIT:
        update_probit_output(state, spec, noise, rng, product[spec.depth])
    return state
