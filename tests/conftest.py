"""Shared oracle helpers for the test suite.

The oracles here are deliberately independent of the library internals:
rejection samplers work from the raw unnormalized densities, quadrature
integrates them numerically, and batch means give standard errors that
respect autocorrelation in chain output.
"""
from __future__ import annotations

import numpy as np
from scipy import integrate


def z_conditional_density(activation: str, z, wx, x_next, dz, dx):
    """Unnormalized scalar pre-activation conditional, straight from the
    two Gaussian factors."""
    z = np.asarray(z, dtype=float)
    if activation == "relu":
        s = np.maximum(z, 0.0)
    elif activation == "sign":
        s = np.sign(z)
    elif activation == "abs":
        s = np.abs(z)
    else:
        raise ValueError(activation)
    return np.exp(-((z - wx) ** 2) / (2 * dz) - ((s - x_next) ** 2) / (2 * dx))


def z_conditional_rejection(activation: str, wx, x_next, dz, dx, n, seed, max_rounds=400):
    """Rejection draws from the scalar conditional: propose from the
    Gaussian factor in z, accept on the activation factor (always <= 1)."""
    gen = np.random.default_rng(seed)
    out: list[float] = []
    rounds = 0
    while len(out) < n:
        rounds += 1
        assert rounds <= max_rounds, "rejection oracle acceptance too low for these parameters"
        z = gen.normal(wx, np.sqrt(dz), size=4 * n)
        if activation == "relu":
            s = np.maximum(z, 0.0)
        elif activation == "sign":
            s = np.sign(z)
        else:
            s = np.abs(z)
        keep = gen.uniform(size=z.shape) < np.exp(-((s - x_next) ** 2) / (2 * dx))
        out.extend(z[keep].tolist())
    return np.asarray(out[:n])


def branch_log_masses_quadrature(activation: str, wx, x_next, dz, dx, span=60.0):
    """Numerically integrated log masses of the two half-lines."""
    sd = np.sqrt(dz)
    lo, hi = wx - span * sd, wx + span * sd
    pos, _ = integrate.quad(lambda z: z_conditional_density(activation, z, wx, x_next, dz, dx), 0.0, max(hi, 1.0))
    neg, _ = integrate.quad(lambda z: z_conditional_density(activation, z, wx, x_next, dz, dx), min(lo, -1.0), 0.0)
    return np.log(pos), np.log(neg)


def gaussian_conditional_rejection(log_accept_fn, proposal_fn, n, seed, max_rounds=400):
    """Generic rejection: propose with ``proposal_fn(gen, k)``, accept with
    probability exp(log_accept_fn(x)) which must be <= 0."""
    gen = np.random.default_rng(seed)
    out = None
    rounds = 0
    while out is None or len(out) < n:
        rounds += 1
        assert rounds <= max_rounds, "rejection oracle acceptance too low"
        x = proposal_fn(gen, 4 * n)
        keep = np.log(gen.uniform(size=len(x))) < log_accept_fn(x)
        got = x[keep]
        out = got if out is None else np.concatenate([out, got], axis=0)
    return out[:n]


def batch_mean_se(series: np.ndarray, n_batches: int = 20):
    """Mean and autocorrelation-aware standard error via batch means."""
    series = np.asarray(series, dtype=float)
    usable = len(series) - len(series) % n_batches
    batches = series[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.mean()), float(batches.std(ddof=1) / np.sqrt(n_batches))


def ips_mean_se(series: np.ndarray):
    """Mean and MCMC standard error via the initial-positive-sequence rule.

    Autocovariances are summed in adjacent pairs until a pair turns
    non-positive, which prices in arbitrarily long (positive) memory
    without a tuning parameter.
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    xc = x - x.mean()
    f = np.fft.rfft(np.concatenate([xc, np.zeros(n)]))
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    sigma2 = acov[0]
    m = 0
    while True:
        k = 2 * m + 1
        if k + 1 >= n - 1:
            break
        pair = acov[k] + acov[k + 1]
        if pair <= 0.0:
            break
        sigma2 += 2.0 * pair
        m += 1
    return float(x.mean()), float(np.sqrt(max(sigma2, acov[0]) / n))


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance of samples against an analytic CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    c = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - c)
    lower = np.max(c - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic KS critical value at significance alpha."""
    return float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))


def assert_bitwise_equal(a, b):
    """Every sampled array of two chain states holds the same bytes."""
    for kind in ("W", "b", "X", "Z", "P"):
        da, db = getattr(a, kind), getattr(b, kind)
        assert da.keys() == db.keys(), kind
        for l in da:
            if da[l] is None:
                assert db[l] is None, f"{kind}[{l}]"
            else:
                assert da[l].shape == db[l].shape and da[l].tobytes() == db[l].tobytes(), f"{kind}[{l}]"


def validate_state(state, spec):
    """The weights have the spec's shapes, every layer with a bias has
    one, and a probit state has labels that its output scores' argmax
    keeps; ShapeMismatch names what does not hold."""
    from nngibbs.network import ShapeMismatch

    for l in range(1, spec.depth + 1):
        want = spec.weight_shape(l)
        if state.W[l].shape != want:
            raise ShapeMismatch(f"W[{l}] has shape {state.W[l].shape}, expected {want}")
        if spec.has_bias(l) and state.b.get(l) is None:
            raise ShapeMismatch(f"missing bias for layer {l}")
    if spec.output == "probit":
        if state.labels is None:
            raise ShapeMismatch("probit state needs labels")
        top = state.Z[spec.depth + 1]
        if np.any(np.argmax(top, axis=1) != state.labels):
            raise ShapeMismatch("probit argmax constraint violated")


def sweep_by_public_updates(state, spec, noise, prior, rng):
    """One sweep in ``gibbs_sweep``'s block order through the public updates
    alone: every update computes its own W·X product instead of sharing one."""
    from nngibbs import gibbs

    for l, layer in enumerate(spec.weighted_layers, start=1):
        if l > 1:
            gibbs.update_X_layer(l, state, spec, noise, rng)
        gibbs.update_W_layer(l, state, spec, noise, prior, rng)
        if spec.has_bias(l):
            gibbs.update_bias_layer(l, state, noise, prior, rng, layer.product(state.W[l], state.X[l]))
        if l > 1:
            below = spec.weighted_layers[l - 2]
            gibbs.update_Z_layer(l, state, spec, noise, rng, below.product(state.W[l - 1], state.X[l - 1]))
    if spec.output == "probit":
        gibbs.update_probit_output(state, spec, noise, rng)
