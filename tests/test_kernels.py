"""Numeric kernel tests: factorization and its inverse, Gaussian and
truncated-normal sampling laws, branch probabilities, and stream
reproducibility."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm, truncnorm

from nngibbs.gibbs import draw_rows_from_precision, ridge_precision
from nngibbs.kernels import (
    NotPositiveDefinite,
    RngStream,
    branch_prob_negative,
    cholesky_factor,
    inverse_factor,
    std_lower_truncated,
    trunc_norm_lower,
    trunc_norm_upper,
)
from conftest import ks_critical, ks_distance


class TestCholesky:
    def test_identity(self):
        L = cholesky_factor(np.eye(2))
        np.testing.assert_allclose(L, np.eye(2))

    def test_recomposition(self):
        cov = np.array([[4.0, 2.0], [2.0, 3.0]])
        L = cholesky_factor(cov)
        np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(L @ L.T, cov, atol=1e-12)

    def test_rank_deficient_jitters(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        L, jitter = cholesky_factor(cov, return_jitter=True)
        assert jitter > 0.0
        err = np.max(np.abs(L @ L.T - cov))
        assert err <= 10.0 * jitter

    def test_random_psd_tight_recomposition(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            d = rng.integers(1, 8)
            a = rng.standard_normal((d, d + 2))
            cov = a @ a.T
            L, jitter = cholesky_factor(cov, return_jitter=True)
            if jitter == 0.0:
                err = np.max(np.abs(L @ L.T - cov))
                assert err <= 1e-10 * max(np.max(np.abs(cov)), 1e-30)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(np.array([[1.0, 0.0], [0.0, -5.0]]))


def sample_gram_precision(d):
    """A ridge precision over 500 samples: at d = 784 the Gram is
    rank-deficient, as the MNIST one is."""
    X = np.random.default_rng(51).standard_normal((500, d))
    return ridge_precision(X, 1e-3, 1.0)


def duplicated_columns_precision(width):
    """A ridge precision that needs jitter: duplicated input columns and
    lambda_w = 1e-20 make X^T X / dz + lam I numerically singular."""
    base = np.random.default_rng(49).standard_normal((20, width // 2))
    return ridge_precision(np.hstack([base, base]), 0.5, 1e-20)


def assert_inverts(R, L, slack=1.0):
    # a computed inverse misses the identity by about eps * cond(L), up to
    # a factor that grows with the dimension (Higham, ch. 14)
    atol = max(1e-12, slack * np.finfo(float).eps * np.linalg.cond(L))
    assert np.max(np.abs(R @ L - np.eye(len(L)))) <= atol


class TestInverseFactor:
    @pytest.mark.parametrize("d", [1, 2, 127, 128, 129, 257, 784])
    def test_inverts_the_factor(self, d):
        prec = sample_gram_precision(d)
        R = inverse_factor(prec)
        L = cholesky_factor(prec)
        assert_inverts(R, L)
        if d <= 128:
            # up to the 128-row leaf R is LAPACK's inverse, bit for bit
            assert R.tobytes() == np.linalg.inv(L).tobytes()
        else:
            assert not np.triu(R, 1).any()

    @pytest.mark.parametrize("width", [6, 160])
    def test_reports_the_factor_jitter(self, width):
        prec = duplicated_columns_precision(width)
        R, jitter = inverse_factor(prec, return_jitter=True)
        L, want = cholesky_factor(prec, return_jitter=True)
        assert jitter == want > 0.0
        # cond(L) ~ 4e6: at 160 columns LAPACK's inverse misses the identity
        # by 1.3e-9 and the blocked one by 1.4e-9, against eps * cond(L) = 8.9e-10
        assert_inverts(R, L, slack=width)
        if width > 128:
            assert not np.triu(R, 1).any()

    @pytest.mark.parametrize("d", [2, 200])
    def test_not_positive_definite(self, d):
        with pytest.raises(NotPositiveDefinite):
            inverse_factor(-np.eye(d))


def mvn_draws(mean, cov, rng, size):
    """``size`` draws from N(mean, cov) through the sweep's precision-form
    Gaussian draw, with precision cov^-1 and right-hand side cov^-1 mean."""
    prec = np.linalg.inv(cov)
    return draw_rows_from_precision(prec, np.tile(prec @ np.asarray(mean, dtype=float), (size, 1)), rng)


class TestSampleMvn:
    def test_standard_normal_moments(self):
        draws = mvn_draws(np.zeros(2), np.eye(2), RngStream(0), size=100_000)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)
        assert np.all(np.abs(np.cov(draws.T) - np.eye(2)) < 0.05)

    def test_diagonal_case(self):
        draws = mvn_draws([1.0, 1.0], np.array([[2.0, 0.0], [0.0, 2.0]]), RngStream(1), size=100_000)
        np.testing.assert_allclose(draws.mean(axis=0), [1.0, 1.0], atol=0.03)
        np.testing.assert_allclose(draws.var(axis=0), [2.0, 2.0], atol=0.05)

    def test_correlated_covariance(self):
        cov = np.array([[4.0, 2.0], [2.0, 3.0]])
        draws = mvn_draws(np.zeros(2), cov, RngStream(2), size=100_000)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.08)


class TestTruncatedNormal:
    def test_half_normal_mean(self):
        draws = trunc_norm_lower(np.zeros(100_000), 1.0, 0.0, RngStream(3))
        # oracle: numerically integrated mean of the half normal
        num, _ = integrate.quad(lambda x: x * norm.pdf(x), 0, 12)
        den, _ = integrate.quad(norm.pdf, 0, 12)
        assert abs(draws.mean() - num / den) < 0.01

    def test_negligible_truncation(self):
        draws = trunc_norm_lower(np.full(50_000, 10.0), 1.0, 0.0, RngStream(4))
        assert abs(draws.mean() - 10.0) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_deep_tail_mean(self):
        draws = trunc_norm_lower(np.full(100_000, -10.0), 1.0, 0.0, RngStream(5))
        # oracle: integrate the renormalized tail density directly
        num, _ = integrate.quad(lambda x: x * norm.pdf(x, loc=-10), 0, 3)
        den, _ = integrate.quad(lambda x: norm.pdf(x, loc=-10), 0, 3)
        assert abs(draws.mean() - num / den) < 0.01
        assert np.all(draws >= 0.0)

    def test_sides(self):
        pos = trunc_norm_lower(-2.0, 4.0, 0.0, RngStream(6))
        neg = trunc_norm_upper(2.0, 4.0, 0.0, RngStream(7))
        assert pos >= 0.0 and neg <= 0.0

    @pytest.mark.parametrize("standardized_mu", [-8.0, -2.0, 0.0, 2.0, 8.0])
    def test_ks_against_truncated_cdf(self, standardized_mu):
        var = 2.0
        mu = standardized_mu * np.sqrt(var)
        draws = trunc_norm_lower(np.full(10_000, mu), var, 0.0, RngStream(8, (int(standardized_mu),)))
        a = -standardized_mu  # lower bound in standard units
        tail = norm.sf(a)

        def cdf(x):
            z = (x - mu) / np.sqrt(var)
            # survival form stays well conditioned deep in the tail
            return np.clip(1.0 - norm.sf(z) / tail, 0.0, 1.0)

        assert ks_distance(draws, cdf) < ks_critical(10_000, alpha=0.01)

    def test_upper_truncation_mirrors_lower(self):
        lo = trunc_norm_lower(np.full(200, 1.5), 0.7, 0.2, RngStream(9))
        hi = trunc_norm_upper(np.full(200, -1.5), 0.7, -0.2, RngStream(9))
        np.testing.assert_allclose(lo, -hi)

    def test_bounded_work_in_deep_tail(self):
        # a 40-sigma truncation must still return promptly
        draws = trunc_norm_lower(np.full(10_000, -40.0), 1.0, 0.0, RngStream(10))
        assert np.all(draws >= 0.0)

    @pytest.mark.parametrize(
        "var, lower",
        [(1.0, [np.nan]), (0.0, [1.0]), (1.0, [np.inf]), (1.0, [0.5, np.nan])],
        ids=["nan-bound", "zero-variance", "inf-bound", "nan-beside-drawable"],
    )
    def test_undrawable_bound_raises_before_drawing(self, var, lower):
        # each of these once sent the rejection loop round forever; a
        # drawable body bound next to an undrawable one gets no draw either
        rng = RngStream(11)
        with pytest.raises(ValueError, match=r"NaN or \+inf"):
            trunc_norm_lower(np.zeros(len(lower)), var, lower, rng)
        assert rng.generator.uniform() == RngStream(11).generator.uniform()

    @pytest.mark.parametrize("a", [-8.0, -2.0, 0.0, 1.5, 3.9, 6.0])
    def test_caller_given_survival_mass(self, a):
        # the Z kernel hands over Phi(-a) as exp of a log_ndtr it already
        # holds; 6 lies past the inverse-CDF body, in the rejection tail
        n = 10_000
        bound = np.full(n, a)
        draws = std_lower_truncated(bound, np.exp(log_ndtr(-bound)), RngStream(13, (int(10 * a),)).generator)
        assert np.all(draws >= a)
        assert ks_distance(draws, truncnorm(a, np.inf).cdf) < ks_critical(n, alpha=0.01)

    def test_minus_inf_bound_is_no_truncation(self):
        draws = trunc_norm_lower(np.zeros(50_000), 1.0, np.full(50_000, -np.inf), RngStream(12))
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.03

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0), (37,), (5, 6)], ids=["0-d", "empty", "empty-2d", "1-d", "2-d"])
    def test_all_body_bounds_draw_as_the_masked_path(self, shape):
        """With every bound in the body the mask-free draw gives the bytes
        that the masked path gives those bounds from the same generator
        state: one bound in the rejection tail, appended last, sends the
        same bounds down the masked path, and its uniforms come after
        theirs."""
        gen = np.random.default_rng(28)
        a = gen.uniform(-6.0, 4.0, size=shape)
        if a.size:
            a.flat[0] = 4.0  # the split itself is a body bound
        if a.size > 2:
            a.flat[1], a.flat[2] = -np.inf, 0.0
        cases = [a, a.T] if a.ndim == 2 else [a]
        for bounds in cases:
            fast_gen = RngStream(29).generator
            fast = std_lower_truncated(bounds, ndtr(-bounds), fast_gen)
            assert fast.shape == bounds.shape
            masked_bounds = np.append(bounds.ravel(), 8.0)
            masked = std_lower_truncated(masked_bounds, ndtr(-masked_bounds), RngStream(29).generator)
            assert fast.ravel().tobytes() == masked[:-1].tobytes()
            # exactly one uniform per bound
            spent = RngStream(29).generator
            spent.uniform(size=bounds.size)
            assert repr(fast_gen.bit_generator.state) == repr(spent.bit_generator.state)


class TestBranchProbability:
    def test_equal_masses(self):
        assert branch_prob_negative(-3.0, -3.0) == 0.5

    def test_huge_gap_underflows_gracefully(self):
        p = branch_prob_negative(1000.0, 0.0)
        assert p == 0.0 and not math.isnan(p)
        assert branch_prob_negative(0.0, 1000.0) == 1.0

    def test_infinite_mass_on_one_side(self):
        assert branch_prob_negative(-math.inf, -1.0) == 1.0
        assert branch_prob_negative(-1.0, -math.inf) == 0.0

    def test_monotone_in_first_argument(self):
        ps = branch_prob_negative(np.linspace(-5, 5, 21), 0.0)
        assert np.all(np.diff(ps) <= 0.0)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_complement(self, a, b):
        assert branch_prob_negative(a, b) + branch_prob_negative(b, a) == 1.0

    def test_clipped_exponent_keeps_the_unclipped_bytes(self):
        """The exponent is clipped at -40, past which 1 + exp(-|d|) is 1.0
        already: the bytes are those of the unclipped formula on random
        gaps up to 1e308, gaps around the clip, infinities, NaN and equal
        -inf masses."""

        def unclipped(lp, ln):
            d = ln - lp
            p = 1.0 / (1.0 + np.exp(-np.abs(d)))
            out = np.where(d >= 0.0, p, 1.0 - p)
            return np.where((lp == -np.inf) & (ln == -np.inf), 0.5, out)

        gen = np.random.default_rng(30)
        n = 4000
        lp = gen.standard_normal(n) * 10.0 ** gen.uniform(-3.0, 308.0, n)
        ln = gen.standard_normal(n) * 10.0 ** gen.uniform(-3.0, 308.0, n)
        near = gen.uniform(-60.0, 60.0, n)
        special = np.array([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, np.inf, -np.inf, np.nan])
        pairs = np.array([(x, y) for x in special for y in special]).T
        lp = np.concatenate([lp, np.zeros(n), pairs[0], [-np.inf]])
        ln = np.concatenate([ln, near, pairs[1], [-np.inf]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = branch_prob_negative(lp, ln)
            want = unclipped(lp, ln)
        assert got.tobytes() == want.tobytes()


class TestRngStream:
    def test_bitwise_reproducible(self):
        a = RngStream(42, (3, 1)).generator.standard_normal(64)
        b = RngStream(42, (3, 1)).generator.standard_normal(64)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, (0,)).generator.standard_normal(8)
        b = RngStream(42, (1,)).generator.standard_normal(8)
        assert not np.allclose(a, b)

    def test_child_is_pure(self):
        s = RngStream(7, (2,))
        c1 = s.child(5).generator.standard_normal(4)
        c2 = s.child(5).generator.standard_normal(4)
        np.testing.assert_array_equal(c1, c2)
