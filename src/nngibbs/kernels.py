"""Stateless numerical primitives shared by all samplers.

Cholesky factors with a jitter ladder and their inverses, one-sided
truncated-normal generation that stays cheap arbitrarily deep in the
tail, overflow-free two-branch mass ratios, and reproducible
counter-based RNG streams.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "NotPositiveDefinite",
    "RngStream",
    "cholesky_factor",
    "inverse_factor",
    "std_lower_truncated",
    "trunc_norm_lower",
    "trunc_norm_upper",
    "branch_prob_negative",
]

# Standardized bound beyond which inverse-CDF inversion is abandoned for
# exponential-proposal rejection.
_TAIL_SPLIT = 4.0

_JITTER_ATTEMPTS = 6
_JITTER_START = 1e-12

# Largest triangle ``inverse_factor`` hands to LAPACK's general inverse.
_INVERSE_LEAF = 128


class NotPositiveDefinite(Exception):
    """Covariance could not be factored even after maximum jitter."""


class RngStream:
    """A reproducible, addressable random stream.

    Built on the counter-based Philox generator so that distinct
    ``stream_id`` tuples give statistically independent streams, and two
    streams constructed from the same ``(seed, stream_id)`` produce
    bitwise-identical draws. Child streams are pure functions of the
    parent's identity plus the extra ids, so a stream's draws do not depend
    on which other streams were created or used before it.
    """

    __slots__ = ("seed", "stream_id", "_generator")

    def __init__(self, seed: int, stream_id: int | tuple[int, ...] = ()):
        if isinstance(stream_id, int):
            stream_id = (stream_id,)
        self.seed = int(seed)
        self.stream_id = tuple(int(s) for s in stream_id)
        # zig-zag fold so negative ids stay valid spawn keys
        key = tuple(2 * s if s >= 0 else -2 * s - 1 for s in self.stream_id)
        seq = np.random.SeedSequence(self.seed, spawn_key=key)
        self._generator = np.random.Generator(np.random.Philox(seq))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def child(self, *ids: int) -> "RngStream":
        """Derive an independent stream addressed by extra id components."""
        return RngStream(self.seed, self.stream_id + ids)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def cholesky_factor(covariance: np.ndarray, return_jitter: bool = False):
    """Lower-triangular L with L@L.T == covariance, jittering if needed.

    The jitter ladder starts at 1e-12 * trace/dim and grows tenfold for at
    most six attempts; near-singular matrices (tiny noise variances make
    the conditional covariances almost rank-deficient) then factor with a
    recomposition error bounded by the jitter used.
    """
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 1:
        raise ValueError("expected a square matrix of dimension >= 1")
    dim = cov.shape[0]
    try:
        factor = np.linalg.cholesky(cov)
        return (factor, 0.0) if return_jitter else factor
    except np.linalg.LinAlgError:
        pass
    scale = max(np.trace(cov) / dim, np.finfo(float).tiny)
    jitter = _JITTER_START * scale
    eye = np.eye(dim)
    for _ in range(_JITTER_ATTEMPTS):
        try:
            factor = np.linalg.cholesky(cov + jitter * eye)
            return (factor, jitter) if return_jitter else factor
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NotPositiveDefinite(
        f"Cholesky failed after {_JITTER_ATTEMPTS} jitter attempts (last jitter {jitter:.3e})"
    )


def inverse_factor(precision: np.ndarray, return_jitter: bool = False):
    """R = L^-1 for the lower Cholesky factor L of ``precision``.

    L comes from ``cholesky_factor``, with its jitter ladder and its
    ``NotPositiveDefinite``. A factor of at most ``_INVERSE_LEAF`` rows is
    inverted by ``np.linalg.inv`` and keeps its bits; a larger one by 2x2
    block recursion in numpy's matmul, R11 = L11^-1, R22 = L22^-1 and
    R21 = -R22 (L21 R11): about a third of the flops of the LU inverse,
    with an error of the same order (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 14). Above the leaf R's upper triangle is
    exactly zero.
    """
    factor, jitter = cholesky_factor(precision, return_jitter=True)
    inv = _invert_lower(factor)
    return (inv, jitter) if return_jitter else inv


def _invert_lower(factor: np.ndarray) -> np.ndarray:
    """Inverse of the lower triangle ``factor``, LAPACK's at the leaf."""
    n = len(factor)
    if n <= _INVERSE_LEAF:
        return np.linalg.inv(factor)
    h = n // 2
    inv = np.zeros_like(factor)
    inv[:h, :h] = np.tril(_invert_lower(factor[:h, :h]))
    inv[h:, h:] = np.tril(_invert_lower(factor[h:, h:]))
    inv[h:, :h] = -(inv[h:, h:] @ (factor[h:, :h] @ inv[:h, :h]))
    return inv


def std_lower_truncated(a: np.ndarray, surv: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Standard normal conditioned on being >= a, elementwise over ``a``.

    ``surv`` is the survival mass Phi(-a) of each bound, which the Z
    kernel already holds from its branch masses. Inverse-CDF in the body,
    exponential-proposal rejection beyond ``_TAIL_SPLIT`` standard
    deviations; expected work stays bounded no matter how deep the
    truncation. A bound of -inf is no truncation; a NaN or +inf bound
    (from a NaN input or a zero variance) has no draw and raises
    ValueError before any random number is used.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(a < np.inf):
        raise ValueError("truncation bound is NaN or +inf: NaN mean/bound or zero variance")
    body = a <= _TAIL_SPLIT
    if body.all():
        # every bound in the body: the same uniforms in the same order, no masks
        return _invert_body(a, surv, gen.uniform(size=a.shape))
    out = np.empty(a.shape, dtype=float)
    ab = a[body]
    out[body] = _invert_body(ab, np.broadcast_to(surv, a.shape)[body], gen.uniform(size=ab.shape))

    tail = ~body
    at = a[tail]
    lam = 0.5 * (at + np.sqrt(at * at + 4.0))
    res = np.empty(at.shape, dtype=float)
    pending = np.ones(at.shape, dtype=bool)
    while pending.any():
        k = int(pending.sum())
        u1 = gen.uniform(size=k)
        u2 = gen.uniform(size=k)
        prop = at[pending] - np.log(u1) / lam[pending]
        accept = u2 <= np.exp(-0.5 * (prop - lam[pending]) ** 2)
        idx = np.flatnonzero(pending)[accept]
        res[idx] = prop[accept]
        pending[idx] = False
    out[tail] = res
    return out


def _invert_body(a: np.ndarray, surv: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws above body bounds ``a`` from uniforms ``u``. Right
    of 0 invert on the survival side, which keeps a small tail mass
    representable: -ndtri(u s); left of 0 the CDF side ndtri((1 - s) + u s)
    is well conditioned."""
    right = a > 0.0
    r = ndtri(np.where(right, 0.0, 1.0 - surv) + u * surv)
    return np.where(right, -r, r)


def trunc_norm_lower(mean, var, lower, rng: RngStream) -> np.ndarray:
    """Draws from N(mean, var) conditioned on being >= lower (elementwise)."""
    mean = np.asarray(mean, dtype=float)
    sd = np.sqrt(np.asarray(var, dtype=float))
    lower = np.asarray(lower, dtype=float)
    mean, sd, lower = np.broadcast_arrays(mean, sd, lower)
    # a zero variance gives a NaN or infinite bound, which
    # std_lower_truncated reports before drawing
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (lower - mean) / sd
    return mean + sd * std_lower_truncated(a, ndtr(-a), rng.generator)


def trunc_norm_upper(mean, var, upper, rng: RngStream) -> np.ndarray:
    """Draws from N(mean, var) conditioned on being <= upper (elementwise)."""
    mean = np.asarray(mean, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return -trunc_norm_lower(-mean, var, -upper, rng)


def branch_prob_negative(log_mass_pos: np.ndarray, log_mass_neg: np.ndarray) -> np.ndarray:
    """Probability of the negative branch given two log masses, elementwise.

    Returns 1/(1 + exp(log_mass_pos - log_mass_neg)) without overflow, in
    one pass: the larger branch gets 1/(1 + exp(-|d|)) and the smaller its
    exact complement, with d the log-mass difference, so p(a, b) + p(b, a)
    == 1.0 holds bitwise for all finite inputs.
    """
    lp, ln = np.asarray(log_mass_pos, float), np.asarray(log_mass_neg, float)
    d = ln - lp
    # past |d| = 37, 1 + exp(-|d|) is 1.0 already; the clip spares exp its slow underflow path
    p = 1.0 / (1.0 + np.exp(np.maximum(-np.abs(d), -40.0)))
    out = np.where(d >= 0.0, p, 1.0 - p)
    # equal -inf masses carry no preference
    return np.where((lp == -np.inf) & (ln == -np.inf), 0.5, out)
