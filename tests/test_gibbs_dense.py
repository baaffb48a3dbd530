"""Conditional-correctness checks for the dense-network updates.

Each block conditional is compared against an oracle that knows nothing
about the update formulas: rejection sampling from the raw unnormalized
density, numerical quadrature, or a hand-derived conjugate closed form.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import log_ndtr
from scipy.linalg import solve_triangular

import nngibbs
from nngibbs import kernels

from conftest import (
    assert_bitwise_equal,
    branch_log_masses_quadrature,
    z_conditional_density,
    sweep_by_public_updates,
    validate_state,
    z_conditional_rejection,
)
from nngibbs.kernels import RngStream, branch_prob_negative, cholesky_factor, inverse_factor, std_lower_truncated
from nngibbs.network import (
    Activation,
    ChainState,
    ConvIndexMap,
    Dataset,
    DenseLayer,
    NetworkSpec,
    NoiseSchedule,
    PriorSpec,
    forward_generate,
    sub_bias,
)
from nngibbs.gibbs import (
    SweepSchedule,
    clamped_factor,
    dense_w_conditional,
    dense_x_conditional,
    draw_rows_from_half,
    draw_rows_from_precision,
    gibbs_sweep,
    ridge_precision,
    sample_z_scalar,
    update_bias_layer,
    update_probit_output,
    update_W_layer,
    update_X_layer,
    update_Z_layer,
    z_branch_masses,
)


def mlp(widths, activation=Activation.RELU, output="regression", bias=True):
    layers = tuple(DenseLayer(a, b, has_bias=bias) for a, b in zip(widths[:-1], widths[1:]))
    return NetworkSpec(layers=layers, activation=activation, output=output)


def replicated_state(spec, noise, n, seed):
    """A consistent chain state whose rows are all identical, so repeated
    updates yield i.i.d. draws from one scalar conditional."""
    rng = RngStream(seed)
    gen = rng.generator
    x_row = gen.standard_normal(spec.layers[0].in_width)
    X = np.tile(x_row, (n, 1))
    W = {l: gen.standard_normal(spec.weight_shape(l)) for l in range(1, spec.depth + 1)}
    b = {l: gen.standard_normal(spec.bias_width(l)) if spec.has_bias(l) else None for l in range(1, spec.depth + 1)}
    state, _ = forward_generate(spec, noise, W, b, X, rng)
    for l in range(2, spec.depth + 1):
        state.X[l] = np.tile(state.X[l][0], (n, 1))
        state.Z[l] = np.tile(state.Z[l][0], (n, 1))
    state.Z[spec.depth + 1] = np.tile(state.Z[spec.depth + 1][0], (n, 1))
    return state


class TestXUpdate:
    def test_zero_weights_degenerate(self):
        spec = mlp([3, 2, 1], bias=False)
        noise = NoiseSchedule(delta_z={2: 1.0, 3: 0.7}, delta_x={2: 0.3})
        rng = RngStream(0)
        gen = rng.generator
        n = 60_000
        state = ChainState(
            W={1: gen.standard_normal((2, 3)), 2: np.zeros((1, 2))},
            b={1: None, 2: None},
            X={1: gen.standard_normal((n, 3)), 2: np.zeros((n, 2))},
            Z={2: np.tile(gen.standard_normal(2), (n, 1)), 3: gen.standard_normal((n, 1))},
        )
        new_x = update_X_layer(2, state, spec, noise, rng)
        # with W2 = 0 the conditional is N(relu(Z2), delta_x I)
        expect = np.maximum(state.Z[2][0], 0.0)
        np.testing.assert_allclose(new_x.mean(axis=0), expect, atol=0.02)
        np.testing.assert_allclose(new_x.var(axis=0), [0.3, 0.3], atol=0.02)

    def test_large_output_noise_limit(self):
        spec = mlp([3, 2, 1], bias=False)
        noise = NoiseSchedule(delta_z={2: 1.0, 3: 1e8}, delta_x={2: 0.5})
        rng = RngStream(1)
        gen = rng.generator
        n = 60_000
        state = ChainState(
            W={1: gen.standard_normal((2, 3)), 2: gen.standard_normal((1, 2))},
            b={1: None, 2: None},
            X={1: gen.standard_normal((n, 3)), 2: np.zeros((n, 2))},
            Z={2: np.tile(gen.standard_normal(2), (n, 1)), 3: gen.standard_normal((n, 1))},
        )
        new_x = update_X_layer(2, state, spec, noise, rng)
        expect = np.maximum(state.Z[2][0], 0.0)
        np.testing.assert_allclose(new_x.mean(axis=0), expect, atol=0.02)
        np.testing.assert_allclose(new_x.var(axis=0), [0.5, 0.5], atol=0.02)

    def test_rejection_oracle_two_dim(self):
        spec = mlp([3, 2, 1])
        noise = NoiseSchedule.uniform(spec, 0.8)
        n = 20_000
        state = replicated_state(spec, noise, n, seed=2)
        w2 = state.W[2]
        b2 = state.b[2]
        sigma_z2 = np.maximum(state.Z[2][0], 0.0)
        z3 = state.Z[3][0]
        draws = update_X_layer(2, state, spec, noise, RngStream(3))

        def log_accept(x):
            resid = z3[None, :] - x @ w2.T - b2
            return -np.sum(resid**2, axis=1) / (2 * noise.delta_z[3])

        gen = np.random.default_rng(4)
        proposals = None
        out = []
        while sum(len(o) for o in out) < n:
            x = sigma_z2 + np.sqrt(noise.delta_x[2]) * gen.standard_normal((4 * n, 2))
            keep = np.log(gen.uniform(size=len(x))) < log_accept(x)
            out.append(x[keep])
        oracle = np.concatenate(out)[:n]
        for j in range(2):
            _, p = stats.ks_2samp(draws[:, j], oracle[:, j])
            assert p > 0.01, f"coordinate {j} KS p={p}"
        # joint structure: correlations agree within Monte Carlo error
        c1 = np.corrcoef(draws.T)[0, 1]
        c2 = np.corrcoef(oracle.T)[0, 1]
        assert abs(c1 - c2) < 5 * np.sqrt(2.0 / n)


class TestWUpdate:
    def test_no_data_prior_draw(self):
        spec = mlp([3, 1], bias=False)
        noise = NoiseSchedule(delta_z={2: 0.5}, delta_x={})
        prior = PriorSpec(lambda_w={1: 4.0})
        state = ChainState(W={1: np.zeros((1, 3))}, b={1: None}, X={1: np.zeros((0, 3))}, Z={2: np.zeros((0, 1))})
        draws = np.array([update_W_layer(1, state, spec, noise, prior, RngStream(5, (i,)))[0] for i in range(8000)])
        assert abs(draws.mean()) < 0.02
        np.testing.assert_allclose(draws.var(axis=0), 0.25, atol=0.02)

    def test_scalar_conjugate_formula_by_quadrature(self):
        # one weight, one sample: density ~ exp(-(z - w x)^2 / 2 dz - lam w^2 / 2)
        x, z, dz, lam = 1.3, 0.9, 0.21, 2.4
        spec = mlp([1, 1], bias=False)
        noise = NoiseSchedule(delta_z={2: dz}, delta_x={})
        prior = PriorSpec(lambda_w={1: lam})
        state = ChainState(W={1: np.zeros((1, 1))}, b={1: None}, X={1: np.array([[x]])}, Z={2: np.array([[z]])})
        draws = np.array([update_W_layer(1, state, spec, noise, prior, RngStream(6, (i,)))[0, 0] for i in range(12000)])

        dens = lambda w: np.exp(-((z - w * x) ** 2) / (2 * dz) - lam * w**2 / 2)
        norm_c, _ = integrate.quad(dens, -20, 20)
        mean_q, _ = integrate.quad(lambda w: w * dens(w), -20, 20)
        var_q, _ = integrate.quad(lambda w: w**2 * dens(w), -20, 20)
        mean_q /= norm_c
        var_q = var_q / norm_c - mean_q**2
        # the quadrature agrees with the hand-derived conjugate form
        assert mean_q == pytest.approx(x * z / (x**2 + lam * dz), rel=1e-9)
        assert var_q == pytest.approx(dz / (x**2 + lam * dz), rel=1e-9)
        assert draws.mean() == pytest.approx(mean_q, abs=5 * np.sqrt(var_q / len(draws)))
        assert draws.var() == pytest.approx(var_q, rel=0.08)

    def test_single_layer_ridge_posterior_moments(self):
        gen = np.random.default_rng(7)
        d, n, delta, lam = 4, 30, 0.2, 1.5
        X = gen.standard_normal((n, d))
        y = gen.standard_normal((n, 1))
        spec = mlp([d, 1], bias=False)
        noise = NoiseSchedule(delta_z={2: delta}, delta_x={})
        prior = PriorSpec(lambda_w={1: lam})
        state = ChainState(W={1: np.zeros((1, d))}, b={1: None}, X={1: X}, Z={2: y})
        rng = RngStream(8)
        draws = np.array([update_W_layer(1, state, spec, noise, prior, rng)[0] for _ in range(20000)])
        cov = np.linalg.inv(X.T @ X / delta + lam * np.eye(d))
        mean = cov @ X.T @ y[:, 0] / delta
        se = np.sqrt(np.diag(cov) / len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=6 * np.max(np.diag(cov)) / np.sqrt(len(draws)))


def _reference_log_mass_lower(mean, var, bound):
    sd = np.sqrt(np.asarray(var, dtype=float))
    return log_ndtr((np.asarray(bound, float) - np.asarray(mean, float)) / sd)


def _reference_log_mass_upper(mean, var, bound):
    sd = np.sqrt(np.asarray(var, dtype=float))
    return log_ndtr((np.asarray(mean, float) - np.asarray(bound, float)) / sd)


def reference_branch_masses(activation, wx, x_next, dz, dx):
    """The branch law derived by hand for each activation, as the
    per-activation code computed it before the piece table: the eight
    ``ZBranchMasses`` fields in order."""
    wx = np.asarray(wx, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    if activation == "relu":
        v = dz * dx / (dz + dx)
        mean_pos = (dx * wx + dz * x_next) / (dz + dx)
        tail_pos = _reference_log_mass_upper(mean_pos, v, 0.0)
        log_pos = -((wx - x_next) ** 2) / (2.0 * (dz + dx)) + 0.5 * np.log(2.0 * np.pi * v) + tail_pos
        tail_neg = _reference_log_mass_lower(wx, dz, 0.0)
        log_neg = -(x_next**2) / (2.0 * dx) + 0.5 * np.log(2.0 * np.pi * dz) + tail_neg
        mean_neg = np.broadcast_to(wx, log_neg.shape)
        return log_pos, log_neg, mean_pos, v, mean_neg, dz, tail_pos, tail_neg
    if activation == "sign":
        tail_pos = _reference_log_mass_upper(wx, dz, 0.0)
        tail_neg = _reference_log_mass_lower(wx, dz, 0.0)
        log_pos = -((1.0 - x_next) ** 2) / (2.0 * dx) + 0.5 * np.log(2.0 * np.pi * dz) + tail_pos
        log_neg = -((1.0 + x_next) ** 2) / (2.0 * dx) + 0.5 * np.log(2.0 * np.pi * dz) + tail_neg
        m = np.broadcast_to(wx, log_pos.shape)
        return log_pos, log_neg, m, dz, m, dz, tail_pos, tail_neg
    assert activation == "abs"
    v = dz * dx / (dz + dx)
    mean_pos = (dx * wx + dz * x_next) / (dz + dx)
    mean_neg = (dx * wx - dz * x_next) / (dz + dx)
    tail_pos = _reference_log_mass_upper(mean_pos, v, 0.0)
    tail_neg = _reference_log_mass_lower(mean_neg, v, 0.0)
    log_pos = -((wx - x_next) ** 2) / (2.0 * (dz + dx)) + 0.5 * np.log(2.0 * np.pi * v) + tail_pos
    log_neg = -((wx + x_next) ** 2) / (2.0 * (dz + dx)) + 0.5 * np.log(2.0 * np.pi * v) + tail_neg
    return log_pos, log_neg, mean_pos, v, mean_neg, v, tail_pos, tail_neg


# inputs at the edges of the float range, mixed into the random blocks
_SPECIAL_INPUTS = (0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, np.inf, -np.inf, np.nan)
_BRANCH_FIELDS = ("log_mass_pos", "log_mass_neg", "mean_pos", "var_pos", "mean_neg", "var_neg", "log_tail_pos", "log_tail_neg")


def _assert_fields_bitwise(masses, reference, shape, where):
    for name, ref in zip(_BRANCH_FIELDS, reference):
        got = np.broadcast_to(np.asarray(getattr(masses, name), dtype=float), shape)
        want = np.broadcast_to(np.asarray(ref, dtype=float), shape)
        assert got.tobytes() == want.tobytes(), f"{name} at {where}"


def _half_line_moments(activation, wx, x_next, dz, dx, side):
    """Mass-normalized first two moments of the conditional density on
    the half-line side*z >= 0, by quadrature."""
    lo, hi = (0.0, wx + 40 * np.sqrt(dz) + 40) if side > 0 else (wx - 40 * np.sqrt(dz) - 40, 0.0)
    moment = [
        integrate.quad(lambda z: z**k * z_conditional_density(activation, z, wx, x_next, dz, dx), lo, hi, epsabs=0, epsrel=1e-12, limit=200)[0]
        for k in range(3)
    ]
    mean = moment[1] / moment[0]
    return mean, moment[2] / moment[0] - mean**2


class TestZBranchMasses:
    def test_sign_symmetry(self):
        m = z_branch_masses(Activation.SIGN, 0.0, 0.0, 1.0, 1.0)
        p = branch_prob_negative(m.log_mass_pos, m.log_mass_neg)
        assert p == 0.5

    def test_sign_large_x_next_limit(self):
        from scipy.special import log_ndtr

        m = z_branch_masses(Activation.SIGN, 0.1, 50.0, 1.0, 1.0)
        p = branch_prob_negative(m.log_mass_pos, m.log_mass_neg)
        assert p < 1e-40
        # the log ratio carries 2 x / dx plus the two half-line normal masses
        gap = float(m.log_mass_pos - m.log_mass_neg)
        expected = 2 * 50.0 / 1.0 + log_ndtr(0.1) - log_ndtr(-0.1)
        assert gap == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "sign", "abs"])
    def test_masses_match_quadrature(self, activation):
        wx, x_next, dz, dx = 0.3, 0.7, 1.0, 1.0
        m = z_branch_masses(Activation(activation), wx, x_next, dz, dx)
        log_pos, log_neg = branch_log_masses_quadrature(activation, wx, x_next, dz, dx)
        assert float(m.log_mass_pos) == pytest.approx(log_pos, abs=1e-6)
        assert float(m.log_mass_neg) == pytest.approx(log_neg, abs=1e-6)

    def test_relu_negative_branch_ignores_x_next(self):
        m1 = z_branch_masses(Activation.RELU, 0.2, 0.5, 1.0, 1.0)
        m2 = z_branch_masses(Activation.RELU, 0.2, 0.9, 1.0, 1.0)
        assert m1.mean_neg == m2.mean_neg and m1.var_neg == m2.var_neg

    def test_relu_negative_x_next_tiny_dx(self):
        probs = []
        for dx in (1e-2, 1e-4, 1e-6):
            m = z_branch_masses(Activation.RELU, 0.3, -0.4, 1.0, dx)
            probs.append(branch_prob_negative(m.log_mass_pos, m.log_mass_neg))
        # monotone approach to certainty for the negative branch
        assert probs[0] < probs[1] < probs[2]
        assert probs[2] > 0.999

    @pytest.mark.parametrize("activation", ["relu", "sign", "abs"])
    def test_bitwise_equal_to_per_activation_reference(self, activation):
        gen = np.random.default_rng(36)
        shape = (2084, 10)
        specials = np.array(_SPECIAL_INPUTS)
        with np.errstate(all="ignore"):
            for dz, dx in [(1e-8, 1e-8), (1e-8, 1e2), (1e2, 1e-8), (1e-4, 1e-2), (1.0, 1.0), (3.7, 0.25)]:
                wx, x_next = gen.standard_normal((2, *shape)) * gen.choice([1e-3, 1.0, 1e3], size=(2, *shape))
                for arr in (wx, x_next):
                    hit = gen.uniform(size=shape) < 0.05
                    arr[hit] = gen.choice(specials, size=int(hit.sum()))
                got = z_branch_masses(Activation(activation), wx, x_next, dz, dx)
                _assert_fields_bitwise(got, reference_branch_masses(activation, wx, x_next, dz, dx), shape, (dz, dx))
                # a scalar wx against a block of x_next
                got = z_branch_masses(Activation(activation), wx[0, 0], x_next, dz, dx)
                _assert_fields_bitwise(got, reference_branch_masses(activation, wx[0, 0], x_next, dz, dx), shape, (dz, dx))
            values = np.concatenate([specials, [0.3, -1.7]])
            for w in values:
                for x in values:
                    got = z_branch_masses(Activation(activation), np.array(w), np.array(x), 0.5, 2.0)
                    _assert_fields_bitwise(got, reference_branch_masses(activation, np.array(w), np.array(x), 0.5, 2.0), (), (w, x))

    @pytest.mark.parametrize("activation", ["relu", "sign", "abs"])
    @pytest.mark.parametrize("wx, x_next, dz, dx", [(0.3, 0.7, 1.0, 0.5), (-0.4, 0.2, 0.3, 2.0), (0.1, -0.6, 0.05, 0.02)])
    def test_branch_moments_match_quadrature(self, activation, wx, x_next, dz, dx):
        m = z_branch_masses(Activation(activation), wx, x_next, dz, dx)
        for side, mean, var in ((1.0, m.mean_pos, m.var_pos), (-1.0, m.mean_neg, m.var_neg)):
            # the branch is N(mean, var) restricted to its half-line
            sd = float(np.sqrt(var))
            bound = -float(mean) / sd
            a, b = (bound, np.inf) if side > 0 else (-np.inf, bound)
            law = stats.truncnorm(a, b, loc=float(mean), scale=sd)
            want_mean, want_var = _half_line_moments(activation, wx, x_next, dz, dx, side)
            assert law.mean() == pytest.approx(want_mean, rel=1e-7, abs=1e-10)
            assert law.var() == pytest.approx(want_var, rel=1e-7)

    def test_pieces_match_activation(self):
        assert [a.value for a in Activation] == ["relu", "sign", "abs"]
        z = np.geomspace(1e-6, 1e6, 49)
        for activation in Activation:
            (pos_slope, pos_offset), (neg_slope, neg_offset) = activation.pieces
            np.testing.assert_array_equal(pos_slope * z + pos_offset, activation.apply(z))
            np.testing.assert_array_equal(neg_slope * -z + neg_offset, activation.apply(-z))


class TestZUpdate:
    @pytest.mark.parametrize("activation", ["relu", "sign", "abs"])
    @pytest.mark.parametrize("deltas", [(1.0, 1.0), (1e-2, 1e-2)])
    def test_rejection_oracle(self, activation, deltas):
        dz, dx = deltas
        if dz == 1.0:
            wx, x_next = 0.3, 0.7
        else:
            wx, x_next = (0.05, 0.9) if activation == "sign" else (0.1, 0.12)
        n = 20_000
        mine = sample_z_scalar(Activation(activation), np.full(n, wx), np.full(n, x_next), dz, dx, RngStream(9))
        oracle = z_conditional_rejection(activation, wx, x_next, dz, dx, n, seed=10)
        _, p = stats.ks_2samp(mine, oracle)
        assert p > 0.01

    @pytest.mark.parametrize("activation", ["relu", "sign", "abs"])
    def test_draw_is_one_mirrored_truncated_pass(self, activation):
        """To the bit: branch choice on the exact mass split, then one
        standardized truncated draw mirrored by the branch sign, with the
        signs picked by np.where, bounds in both the body and the tail,
        and the stream left where the kernel leaves it."""
        gen = np.random.default_rng(32)
        wx, x_next = 3.0 * gen.standard_normal(3000), 3.0 * gen.standard_normal(3000)
        dz, dx = 0.3, 0.05
        act = Activation(activation)
        rng = RngStream(33)
        got = sample_z_scalar(act, wx, x_next, dz, dx, rng)
        ref = RngStream(33).generator
        m = z_branch_masses(act, wx, x_next, dz, dx)
        take_neg = ref.uniform(size=wx.shape) < branch_prob_negative(m.log_mass_pos, m.log_mass_neg)
        signs = np.where(take_neg, -1.0, 1.0)
        mu = np.where(take_neg, m.mean_neg, m.mean_pos)
        sd = np.sqrt(np.where(take_neg, m.var_neg, m.var_pos))
        bound = -signs * mu / sd
        assert np.any(bound > 4.0) and np.any(bound <= 4.0)
        surv = np.exp(np.where(take_neg, m.log_tail_neg, m.log_tail_pos))
        want = signs * (signs * mu + sd * std_lower_truncated(bound, surv, ref))
        assert got.tobytes() == want.tobytes()
        assert repr(rng.generator.bit_generator.state) == repr(ref.bit_generator.state)

    def test_sign_output_follows_branch(self):
        draws = sample_z_scalar(Activation.SIGN, np.full(5000, -0.3), np.full(5000, 0.2), 0.5, 0.5, RngStream(11))
        assert np.all(draws != 0)

    def test_update_layer_wiring(self):
        # identical rows -> the layer update gives i.i.d. draws of one law
        spec = mlp([3, 2, 1])
        noise = NoiseSchedule.uniform(spec, 0.6)
        n = 20_000
        state = replicated_state(spec, noise, n, seed=13)
        wx = (state.X[1] @ state.W[1].T + state.b[1])[0]
        x_next = state.X[2][0]
        new_z = update_Z_layer(2, state, spec, noise, RngStream(14), spec.layers[0].product(state.W[1], state.X[1]))
        for j in range(2):
            oracle = z_conditional_rejection("relu", wx[j], x_next[j], noise.delta_z[2], noise.delta_x[2], n, seed=15 + j)
            _, p = stats.ks_2samp(new_z[:, j], oracle)
            assert p > 0.01


class TestBiasUpdate:
    def test_no_data_prior_draw(self):
        spec = mlp([2, 1])
        noise = NoiseSchedule(delta_z={2: 0.5}, delta_x={})
        prior = PriorSpec(lambda_w={1: 1.0}, lambda_b={1: 2.0})
        state = ChainState(W={1: np.zeros((1, 2))}, b={1: np.zeros(1)}, X={1: np.zeros((0, 2))}, Z={2: np.zeros((0, 1))})
        draws = np.array([update_bias_layer(1, state, noise, prior, RngStream(16, (i,)))[0] for i in range(8000)])
        assert abs(draws.mean()) < 0.03
        assert draws.var() == pytest.approx(0.5, rel=0.1)

    def test_constant_residual_averaging_limit(self):
        r, n = 0.8, 400
        spec = mlp([2, 1])
        noise = NoiseSchedule(delta_z={2: 0.3}, delta_x={})
        prior = PriorSpec(lambda_w={1: 1.0}, lambda_b={1: 1e-9})
        X = np.zeros((n, 2))
        state = ChainState(W={1: np.zeros((1, 2))}, b={1: np.zeros(1)}, X={1: X}, Z={2: np.full((n, 1), r)})
        draws = np.array([update_bias_layer(1, state, noise, prior, RngStream(17, (i,)))[0] for i in range(4000)])
        assert draws.mean() == pytest.approx(r, abs=0.005)

    def test_quadrature_oracle(self):
        gen = np.random.default_rng(18)
        n, dz, lam_b = 7, 0.37, 1.9
        resid = gen.standard_normal(n)
        spec = mlp([2, 1])
        noise = NoiseSchedule(delta_z={2: dz}, delta_x={})
        prior = PriorSpec(lambda_w={1: 1.0}, lambda_b={1: lam_b})
        X = np.zeros((n, 2))
        state = ChainState(W={1: np.zeros((1, 2))}, b={1: np.zeros(1)}, X={1: X}, Z={2: resid.reshape(-1, 1)})
        draws = np.array([update_bias_layer(1, state, noise, prior, RngStream(19, (i,)))[0] for i in range(12000)])

        dens = lambda b: np.exp(-np.sum((resid[:, None] - b[None, :]) ** 2, axis=0) / (2 * dz) - lam_b * b**2 / 2)
        grid = np.linspace(-4, 4, 40001)
        w = dens(grid)
        mean_q = float(np.trapezoid(grid * w, grid) / np.trapezoid(w, grid))
        var_q = float(np.trapezoid(grid**2 * w, grid) / np.trapezoid(w, grid)) - mean_q**2
        assert draws.mean() == pytest.approx(mean_q, abs=5 * np.sqrt(var_q / len(draws)))
        assert draws.var() == pytest.approx(var_q, rel=0.08)


class TestProbitUpdate:
    def build(self, n=1, c=3, seed=20, delta=0.7, labels=None):
        spec = mlp([2, c], output="probit", bias=False)
        noise = NoiseSchedule(delta_z={2: delta}, delta_x={})
        gen = np.random.default_rng(seed)
        X = gen.standard_normal((n, 2))
        W = {1: gen.standard_normal((c, 2))}
        if labels is None:
            labels = gen.integers(0, c, size=n)
        z0 = gen.standard_normal((n, c))
        rows = np.arange(n)
        z0[rows, labels] = np.abs(z0).max(axis=1) + 0.5
        state = ChainState(W=W, b={1: None}, X={1: X}, Z={2: z0}, labels=labels)
        return spec, noise, state

    def test_two_class_conditional(self):
        spec, noise, state = self.build(n=30_000, c=2, seed=21)
        # freeze the non-label coordinate, check the label coordinate law
        state.labels = np.zeros(state.n, dtype=int)
        c_fix = -0.3
        state.Z[2][:, 1] = c_fix
        mean = (state.X[1] @ state.W[1].T)[:, 0]
        new_z = update_probit_output(state, spec, noise, RngStream(22))
        draws = new_z[:, 0]
        assert np.all(draws >= c_fix)
        # oracle: truncated normals per row via the analytic cdf transform
        from scipy.stats import norm

        sd = np.sqrt(noise.delta_z[2])
        u = 1.0 - norm.sf((draws - mean) / sd) / norm.sf((c_fix - mean) / sd)
        # probability integral transform: u must be uniform
        _, p = stats.kstest(u, "uniform")
        assert p > 0.01

    def test_argmax_invariant_many_updates(self):
        spec, noise, state = self.build(n=200, c=4, seed=23)
        rng = RngStream(24)
        for _ in range(50):
            update_probit_output(state, spec, noise, rng)
            validate_state(state, spec)

    def test_three_class_rejection_oracle(self):
        spec, noise, state = self.build(n=1, c=3, seed=25)
        state.labels = np.array([1])
        mean = (state.X[1] @ state.W[1].T)[0]
        rng = RngStream(26)
        draws = []
        thin = 10
        for t in range(30_000 * thin // thin):
            update_probit_output(state, spec, noise, rng)
            if t % thin == 0:
                draws.append(state.Z[2][0].copy())
        draws = np.array(draws)

        gen = np.random.default_rng(27)
        oracle = []
        while len(oracle) < len(draws):
            z = mean + np.sqrt(noise.delta_z[2]) * gen.standard_normal((20000, 3))
            keep = z.argmax(axis=1) == 1
            oracle.extend(z[keep].tolist())
        oracle = np.array(oracle[: len(draws)])
        for j in range(3):
            _, p = stats.ks_2samp(draws[:, j], oracle[:, j])
            assert p > 0.01, f"coordinate {j}: p={p}"

    def test_ten_class_rejection_oracle(self):
        # one row per label, every (row, coordinate) marginal against
        # rejection from the unconstrained Gaussian
        c = 10
        spec, noise, state = self.build(n=c, c=c, seed=40, labels=np.arange(c))
        # shrink the means so every label keeps an acceptance of >= 1%
        state.W[1] *= 0.3
        mean = state.X[1] @ state.W[1].T
        sd = np.sqrt(noise.delta_z[2])
        rng = RngStream(43)
        for _ in range(100):
            update_probit_output(state, spec, noise, rng)
        draws = []
        for t in range(30_000):
            update_probit_output(state, spec, noise, rng)
            if t % 10 == 0:
                draws.append(state.Z[2].copy())
        draws = np.array(draws)
        m = len(draws)

        gen = np.random.default_rng(44)
        for row in range(c):
            oracle = []
            while len(oracle) < m:
                z = mean[row] + sd * gen.standard_normal((20_000, c))
                oracle.extend(z[z.argmax(axis=1) == row].tolist())
            oracle = np.array(oracle[:m])
            for j in range(c):
                _, p = stats.ks_2samp(draws[:, row, j], oracle[:, j])
                # Bonferroni over the c * c marginals
                assert p > 0.01 / c**2, f"row {row}, coordinate {j}: p={p}"

    @pytest.mark.parametrize("c", [3, 10])
    def test_two_kernel_calls_per_pass(self, c, monkeypatch):
        spec, noise, state = self.build(n=200, c=c, seed=45)
        assert set(state.labels) == set(range(c))
        calls = []
        original = kernels.std_lower_truncated

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernels, "std_lower_truncated", counted)
        update_probit_output(state, spec, noise, RngStream(46))
        validate_state(state, spec)
        assert len(calls) == 2


class TestSweep:
    def test_fixed_seed_bitwise_identical(self):
        spec = mlp([4, 3, 1])
        noise = NoiseSchedule.uniform(spec, 0.1)
        prior = PriorSpec.fan_in(spec)

        def run():
            rng = RngStream(28)
            gen = rng.generator
            X = RngStream(29).generator.standard_normal((10, 4))
            W = {1: np.zeros((3, 4)), 2: np.zeros((1, 3))}
            b = {1: np.zeros(3), 2: np.zeros(1)}
            y = RngStream(30).generator.standard_normal((10, 1))
            state = ChainState(W=W, b=b, X={1: X, 2: np.zeros((10, 3))}, Z={2: np.zeros((10, 3)), 3: y})
            for _ in range(25):
                gibbs_sweep(state, spec, noise, prior, SweepSchedule(), rng)
            return state

        s1, s2 = run(), run()
        for l in (1, 2):
            np.testing.assert_array_equal(s1.W[l], s2.W[l])
        np.testing.assert_array_equal(s1.X[2], s2.X[2])
        np.testing.assert_array_equal(s1.Z[2], s2.Z[2])

    def test_shared_product_bitwise_equal_to_public_updates(self):
        spec = mlp([5, 4, 3, 3], output="probit")
        noise = NoiseSchedule.uniform(spec, 0.4)
        prior = PriorSpec.fan_in(spec)
        rng = RngStream(34)
        gen = rng.generator
        W = {l: gen.standard_normal(spec.weight_shape(l)) for l in (1, 2, 3)}
        b = {l: gen.standard_normal(spec.bias_width(l)) for l in (1, 2, 3)}
        shared, _ = forward_generate(spec, noise, W, b, gen.standard_normal((20, 5)), rng)
        separate = shared.copy()
        rng_a, rng_b = RngStream(35), RngStream(35)
        for _ in range(4):
            gibbs_sweep(shared, spec, noise, prior, SweepSchedule(), rng_a)
            sweep_by_public_updates(separate, spec, noise, prior, rng_b)
        assert_bitwise_equal(shared, separate)

    def test_each_block_touched_once_per_sweep(self, monkeypatch):
        import nngibbs.gibbs as G

        calls = []
        for name in ("update_X_layer", "update_W_layer", "update_Z_layer", "update_bias_layer"):
            orig = getattr(G, name)

            def wrapper(*args, _name=name, _orig=orig, **kw):
                calls.append((_name, args[0]))
                return _orig(*args, **kw)

            monkeypatch.setattr(G, name, wrapper)

        spec = mlp([3, 3, 2, 1])
        noise = NoiseSchedule.uniform(spec, 0.5)
        prior = PriorSpec.fan_in(spec)
        rng = RngStream(31)
        gen = rng.generator
        W = {l: gen.standard_normal(spec.weight_shape(l)) for l in (1, 2, 3)}
        b = {l: gen.standard_normal(spec.bias_width(l)) for l in (1, 2, 3)}
        state, _ = forward_generate(spec, noise, W, b, gen.standard_normal((8, 3)), rng)
        gibbs_sweep(state, spec, noise, prior, SweepSchedule(), rng)
        assert sorted(c for c in calls if c[0] == "update_X_layer") == [("update_X_layer", 2), ("update_X_layer", 3)]
        assert sorted(c for c in calls if c[0] == "update_W_layer") == [("update_W_layer", 1), ("update_W_layer", 2), ("update_W_layer", 3)]
        assert sorted(c for c in calls if c[0] == "update_Z_layer") == [("update_Z_layer", 2), ("update_Z_layer", 3)]
        assert len([c for c in calls if c[0] == "update_bias_layer"]) == 3

    def test_single_layer_sweep_is_exact_posterior_draw(self):
        gen = np.random.default_rng(32)
        d, n, delta, lam = 3, 25, 0.15, 2.0
        X = gen.standard_normal((n, d))
        y = gen.standard_normal((n, 1))
        spec = mlp([d, 1], bias=False)
        noise = NoiseSchedule(delta_z={2: delta}, delta_x={})
        prior = PriorSpec(lambda_w={1: lam})
        state = ChainState(W={1: np.zeros((1, d))}, b={1: None}, X={1: X}, Z={2: y})
        rng = RngStream(33)
        draws = []
        for _ in range(15000):
            gibbs_sweep(state, spec, noise, prior, SweepSchedule(), rng)
            draws.append(state.W[1][0].copy())
        draws = np.array(draws)
        # consecutive sweeps are independent draws: no autocorrelation
        ac = np.corrcoef(draws[:-1, 0], draws[1:, 0])[0, 1]
        assert abs(ac) < 0.03
        cov = np.linalg.inv(X.T @ X / delta + lam * np.eye(d))
        mean = cov @ X.T @ y[:, 0] / delta
        se = np.sqrt(np.diag(cov) / len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se)


def jittered_chain(n=20, k=3):
    """A single-layer chain whose first-layer factor needs jitter:
    duplicated input columns (n samples, 2k inputs) and the prior
    lambda_w = 1e-20 make X1^T X1 / dz + lam I numerically singular."""
    gen = np.random.default_rng(49)
    base = gen.standard_normal((n, k))
    X, y = np.hstack([base, base]), gen.standard_normal((n, 1))
    spec = mlp([2 * k, 1], bias=False)
    noise = NoiseSchedule(delta_z={2: 0.5}, delta_x={})
    prior = PriorSpec(lambda_w={1: 1e-20})
    state = ChainState(W={1: np.zeros((1, 2 * k))}, b={1: None}, X={1: X}, Z={2: y})
    return spec, noise, prior, state


def probit_chain(seed, n=30, d=6):
    """A dense d-4-3 probit chain on n samples, generated from random
    weights, ready to sweep."""
    spec = mlp([d, 4, 3], output="probit")
    noise = NoiseSchedule.uniform(spec, 0.5)
    prior = PriorSpec.fan_in(spec)
    rng = RngStream(seed)
    gen = rng.generator
    W = {l: gen.standard_normal(spec.weight_shape(l)) for l in range(1, spec.depth + 1)}
    b = {l: gen.standard_normal(spec.bias_width(l)) for l in range(1, spec.depth + 1)}
    state, _ = forward_generate(spec, noise, W, b, gen.standard_normal((n, d)), rng)
    return spec, noise, prior, state


# first layers with more samples than inputs, and with fewer (20 x 30),
# whose factor carries the mean map
SHAPES = pytest.mark.parametrize("shape", [(30, 6), (20, 30)], ids=["n>d", "n<d"])


class TestClampedFactorCache:
    @SHAPES
    def test_cached_sweeps_bitwise_equal_to_uncached(self, shape):
        def run(empty_cache):
            spec, noise, prior, state = probit_chain(40, *shape)
            rng = RngStream(41)
            built = []
            for _ in range(6):
                if empty_cache:
                    state._clamped = None
                gibbs_sweep(state, spec, noise, prior, SweepSchedule(), rng)
                built.append(state._clamped)
            return state, built

        cached, built = run(empty_cache=False)
        fresh, _ = run(empty_cache=True)
        # one factor served every sweep of the cached chain
        assert all(entry is built[0] for entry in built)
        assert (built[0].mean_map is None) == (shape[0] >= shape[1])
        assert_bitwise_equal(cached, fresh)

    def test_sweep_layer1_draw_equals_uncached_dense_draw(self):
        spec, noise, prior, state = probit_chain(42)
        z_next = state.Z[2] - state.b[1]
        prec, rhs = dense_w_conditional(state.X[1], z_next, noise.delta_z[2], prior.lambda_w[1])
        want = draw_rows_from_precision(prec, rhs, RngStream(43))
        gibbs_sweep(state, spec, noise, prior, SweepSchedule(), RngStream(43))
        assert state._clamped.mean_map is None
        assert state.W[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "make_chain", [lambda: probit_chain(44, 20, 30), lambda: jittered_chain(4, 5)], ids=["probit", "jittered"]
    )
    def test_mean_map_draw_equals_dense_draw(self, make_chain):
        # the map moves only the float association of the mean: same
        # stream, same noise, the same draw to rounding
        spec, noise, prior, state = make_chain()
        z_next = sub_bias(state.Z[2], state.b[1])
        prec, rhs = dense_w_conditional(state.X[1], z_next, noise.delta_z[2], prior.lambda_w[1])
        want = draw_rows_from_precision(prec, rhs, RngStream(45))
        got = update_W_layer(1, state, spec, noise, prior, RngStream(45))
        entry = state._clamped
        assert entry.mean_map.shape == state.X[1].shape and entry.mean_map.flags.c_contiguous
        # either order of R·X^T·z rounds by about eps * cond(L) relative:
        # ~5e-10 for the jittered factor, whose cond(L) is ~2e6
        L = cholesky_factor(prec + entry.jitter * np.eye(len(prec)))
        rtol = max(1e-12, np.finfo(float).eps * np.linalg.cond(L))
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= rtol

    @SHAPES
    @pytest.mark.parametrize("change", ["replace_x1", "delta_z", "lambda_w"])
    def test_change_rebuilds_factor(self, change, shape):
        spec, noise, prior, state = probit_chain(46, *shape)
        rng = RngStream(47)
        for _ in range(2):
            gibbs_sweep(state, spec, noise, prior, SweepSchedule(), rng)
        stale = state._clamped
        if change == "replace_x1":
            state.X[1] = state.X[1] + 0.5
        elif change == "delta_z":
            noise = NoiseSchedule(delta_z={**noise.delta_z, 2: 0.25}, delta_x=noise.delta_x)
        else:
            prior = PriorSpec(lambda_w={**prior.lambda_w, 1: 3.0}, lambda_b=prior.lambda_b)
        fresh = state.copy()
        assert fresh._clamped is None
        want = update_W_layer(1, fresh, spec, noise, prior, RngStream(48))
        got = update_W_layer(1, state, spec, noise, prior, RngStream(48))
        assert state._clamped is not stale
        assert got.tobytes() == want.tobytes()

    def test_jittered_factor_cached_bitwise(self):
        def run(empty_cache):
            spec, noise, prior, state = jittered_chain()
            rng = RngStream(50)
            for _ in range(4):
                if empty_cache:
                    state._clamped = None
                gibbs_sweep(state, spec, noise, prior, SweepSchedule(), rng)
            return state

        cached, fresh = run(empty_cache=False), run(empty_cache=True)
        assert cached._clamped.jitter > 0.0
        assert np.all(np.isfinite(cached.W[1]))
        assert_bitwise_equal(cached, fresh)


def precision_designs():
    """Random, rank-deficient (n < d) and conv designs: the dense rows,
    im2col patches and the conv operator matrix."""
    gen = np.random.default_rng(57)
    imap = ConvIndexMap(9, 9, 3, 3, stride_y=2, stride_x=2)
    return {
        "random": gen.standard_normal((60, 12)),
        "rank-deficient": gen.standard_normal((20, 150)),
        "im2col": imap.design(gen.standard_normal((7, 2, 9, 9))),
        "conv-operator": imap.operator_matrix(gen.standard_normal((3, 2, 3, 3))),
    }


class TestPrecisionsInPlace:
    """The precisions are built in their Gram's buffer, byte for byte the
    one-expression forms they replace, which are kept here as references."""

    @pytest.mark.parametrize("case", list(precision_designs()))
    def test_ridge_precision_bits(self, case):
        design = precision_designs()[case]
        before = design.copy()
        dz, lam = 0.37, 2.5
        want = design.T @ design / dz + lam * np.eye(design.shape[1])
        assert ridge_precision(design, dz, lam).tobytes() == want.tobytes()
        assert design.tobytes() == before.tobytes()

    @pytest.mark.parametrize("case", list(precision_designs()))
    def test_dense_x_conditional_bits(self, case):
        W = precision_designs()[case]
        gen = np.random.default_rng(58)
        sigma_prev = gen.standard_normal((5, W.shape[1]))
        z_next = gen.standard_normal((5, W.shape[0]))
        inputs = [a.copy() for a in (W, sigma_prev, z_next)]
        dz, dx = 0.37, 0.09
        prec, rhs = dense_x_conditional(W, sigma_prev, z_next, dz, dx)
        want = W.T @ W / dz + np.eye(W.shape[1]) / dx
        assert prec.tobytes() == want.tobytes()
        assert rhs.tobytes() == (sigma_prev / dx + z_next @ W / dz).tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip((W, sigma_prev, z_next), inputs))


class TestDrawRowsFromFactor:
    @staticmethod
    def precision(case):
        if case == "jittered":
            _, noise, prior, state = jittered_chain()
            return ridge_precision(state.X[1], noise.delta_z[2], prior.lambda_w[1])
        # 500 samples: at d = 784 the Gram is rank-deficient, as the MNIST one is
        X = np.random.default_rng(51).standard_normal((500, int(case)))
        return ridge_precision(X, 1e-3, 1.0)

    @pytest.mark.parametrize("case", ["2", "50", "784", "jittered"])
    def test_matches_triangular_solves(self, case):
        prec = self.precision(case)
        d = len(prec)
        L, jitter = cholesky_factor(prec, return_jitter=True)
        assert (jitter > 0.0) == (case == "jittered")
        h = np.random.default_rng(52).standard_normal((7, d)) * 10.0
        R = inverse_factor(prec)
        got = draw_rows_from_half(R, R @ h.T, RngStream(53))
        z = RngStream(53).generator.standard_normal((d, len(h)))
        want = solve_triangular(L, solve_triangular(L, h.T, lower=True) + z, trans="T", lower=True).T
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("make_chain", [lambda: probit_chain(54), jittered_chain], ids=["probit", "jittered"])
    def test_clamped_inverse_factor_inverts_the_factor(self, make_chain):
        spec, noise, prior, state = make_chain()
        entry = clamped_factor(state, spec, noise, prior)
        prec = ridge_precision(entry.design, noise.delta_z[2], prior.lambda_w[1])
        L = cholesky_factor(prec + entry.jitter * np.eye(len(prec)))
        # a computed inverse misses the identity by about eps * cond(L):
        # ~3e-11 for the jittered factor, whose cond(L) is ~2e6
        atol = max(1e-12, np.finfo(float).eps * np.linalg.cond(L))
        np.testing.assert_allclose(entry.inv_factor @ L, np.eye(len(L)), rtol=0.0, atol=atol)

    def test_blocked_draw_moments(self):
        # d = 200 is above the inverse's LAPACK leaf, so the blocked
        # triangular inverse serves every draw
        gen = np.random.default_rng(55)
        d, n = 200, 20_000
        X = gen.standard_normal((400, d))
        prec = X.T @ X / 400 + 0.5 * np.eye(d)
        h = gen.standard_normal(d)
        draws = draw_rows_from_precision(prec, np.tile(h, (n, 1)), RngStream(56))
        cov = np.linalg.inv(prec)
        sd = np.sqrt(np.diag(cov))
        mean_se = sd / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - cov @ h) < 5 * mean_se)
        # a sample covariance entry has variance (S_ii S_jj + S_ij^2) / n
        cov_se = np.sqrt((np.outer(sd, sd) ** 2 + cov**2) / n)
        assert np.all(np.abs(np.cov(draws.T) - cov) < 5 * cov_se)

    def test_sweep_loads_no_scipy_linalg(self):
        # a second BLAS pool (scipy's) spinning next to numpy's takes the CPUs
        # from it; the sweep keeps to numpy, so scipy.linalg is never imported
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from nngibbs import (
                DenseLayer, NetworkSpec, NoiseSchedule, PriorSpec, RngStream, SweepSchedule,
                forward_generate, gibbs_sweep,
            )

            # 150 inputs: the first-layer factor is above the inverse's LAPACK leaf
            spec = NetworkSpec(layers=(DenseLayer(150, 4), DenseLayer(4, 3)), activation="relu", output="probit")
            noise = NoiseSchedule.uniform(spec, 0.5)
            prior = PriorSpec.fan_in(spec)
            rng = RngStream(0)
            gen = rng.generator
            W = {l: gen.standard_normal(spec.weight_shape(l)) for l in (1, 2)}
            b = {l: gen.standard_normal(spec.bias_width(l)) for l in (1, 2)}
            state, _ = forward_generate(spec, noise, W, b, gen.standard_normal((30, 150)), rng)
            for _ in range(2):
                gibbs_sweep(state, spec, noise, prior, SweepSchedule(), rng)
            assert np.all(np.isfinite(state.W[1]))
            assert state._clamped.inv_factor.shape == (150, 150)
            print(sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
            """
        )
        src = str(Path(nngibbs.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
