"""Convolution and pooling Gibbs conditionals.

The load-bearing check is patch-unrolling equivalence: the conv
conditionals must coincide, as exact Gaussian laws, with the dense-layer
conditionals applied to a design matrix the test unrolls itself with
plain Python loops.
"""
import numpy as np
import pytest
from scipy import stats

from conftest import assert_bitwise_equal, sweep_by_public_updates
from nngibbs.conv import (
    ConvIndexMap,
    PoolMap,
    conv_w_conditional,
    conv_x_conditional,
    update_conv_W,
    update_conv_X,
    update_conv_bias,
    update_pool_X,
)
from nngibbs.gibbs import SweepSchedule, dense_w_conditional, dense_x_conditional, gibbs_sweep
from nngibbs.kernels import RngStream
from nngibbs.network import (
    Activation,
    ConvLayer,
    DenseLayer,
    NetworkSpec,
    NoiseSchedule,
    PoolLayer,
    PriorSpec,
    ShapeMismatch,
    forward_generate,
    residual,
)


def unroll_patches(x, imap):
    """Reference im2col via explicit loops: row (sample, out position),
    column (channel, filter position)."""
    n, c = x.shape[0], x.shape[1]
    rows = []
    for mu in range(n):
        for a in range(imap.out_positions):
            row = []
            for beta in range(c):
                flat = x[mu, beta].ravel()
                for r in range(imap.filter_size):
                    row.append(flat[imap.nu(a, r)])
            rows.append(row)
    return np.asarray(rows).reshape(n, imap.out_positions, c * imap.filter_size)


class TestIndexMap:
    def test_nu_formula(self):
        imap = ConvIndexMap(6, 7, 2, 3, stride_y=2, stride_x=1)
        for a in range(imap.out_positions):
            ay, ax = divmod(a, imap.out_width)
            for r in range(imap.filter_size):
                ry, rx = divmod(r, imap.filter_width)
                expect = (ry + 2 * ay) * 7 + (rx + 1 * ax)
                assert imap.nu(a, r) == expect

    def test_paper_shape_example(self):
        imap = ConvIndexMap(28, 28, 4, 4, stride_y=3, stride_x=3)
        assert (imap.out_height, imap.out_width) == (9, 9)

    def test_im2col_matches_loops(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((2, 3, 5, 6))
        imap = ConvIndexMap(5, 6, 2, 2, stride_y=1, stride_x=2)
        np.testing.assert_array_equal(imap.im2col(x), unroll_patches(x, imap))


def conv_forward(layer, w, b, x, delta_z, rng):
    """One noisy conv layer through ``forward_generate`` on a one-layer stack."""
    spec = NetworkSpec(layers=(layer,))
    noise = NoiseSchedule(delta_z={2: delta_z}, delta_x={})
    state, _ = forward_generate(spec, noise, {1: w}, {1: b}, x, rng)
    return state.Z[2]


class TestConvForward:
    def test_one_by_one_filter_scales(self):
        layer = ConvLayer(1, 1, in_height=3, in_width=3, filter_height=1, filter_width=1, has_bias=True)
        x = np.random.default_rng(1).standard_normal((4, 1, 3, 3))
        w = np.array([[[[2.5]]]])
        b = np.array([0.3])
        z = conv_forward(layer, w, b, x, delta_z=1e-18, rng=RngStream(2))
        np.testing.assert_allclose(z, 2.5 * x + 0.3, atol=1e-7)

    def test_zero_filter_pure_noise(self):
        layer = ConvLayer(1, 2, in_height=6, in_width=6, filter_height=2, filter_width=2)
        x = np.random.default_rng(3).standard_normal((50, 1, 6, 6))
        z = conv_forward(layer, np.zeros((2, 1, 2, 2)), np.zeros(2), x, delta_z=0.8, rng=RngStream(4))
        assert z.shape == (50, 2, 5, 5)
        assert abs(z.var() - 0.8) < 0.02
        assert abs(z.mean()) < 0.02

    def test_shape_mismatch(self):
        layer = ConvLayer(2, 1, in_height=4, in_width=4, filter_height=2, filter_width=2)
        with pytest.raises(ShapeMismatch):
            conv_forward(layer, np.zeros((1, 2, 2, 2)), None, np.zeros((3, 1, 4, 4)), 1.0, RngStream(5))


class TestConvOpAgainstLoops:
    """The dense-map methods a conv op shares (product, weight_grad,
    bias_grad, w_rhs) against references built by explicit loops over
    ``nu`` and over ``operator_matrix``, with two input channels, three
    output channels, unequal strides and a bias."""

    def instance(self):
        gen = np.random.default_rng(40)
        layer = ConvLayer(2, 3, in_height=5, in_width=4, filter_height=2, filter_width=3, stride_y=2, stride_x=1)
        n = 4
        x = gen.standard_normal((n, *layer.in_shape))
        w = gen.standard_normal(layer.weight_shape)
        b = gen.standard_normal(3)
        z = gen.standard_normal((n, *layer.out_shape))
        return layer.op, x, w, b, z

    @staticmethod
    def patch_sum(imap, x, coef):
        """sum over (sample mu, output position a) of coef[mu, alpha, a] *
        x[mu, beta, nu(a, r)], shaped (C_out, C_in, filter_h, filter_w)."""
        n, c_in = x.shape[:2]
        c_out = coef.shape[1]
        coef = coef.reshape(n, c_out, -1)
        out = np.zeros((c_out, c_in, imap.filter_size))
        for alpha in range(c_out):
            for beta in range(c_in):
                for r in range(imap.filter_size):
                    for mu in range(n):
                        flat = x[mu, beta].ravel()
                        for a in range(imap.out_positions):
                            out[alpha, beta, r] += coef[mu, alpha, a] * flat[imap.nu(a, r)]
        return out.reshape(c_out, c_in, imap.filter_height, imap.filter_width)

    def test_geometry(self):
        imap, x, w, b, z = self.instance()
        assert (imap.out_height, imap.out_width) == (2, 2)
        assert imap.product(w, x).shape == z.shape == (4, 3, 2, 2)

    def test_product_matches_loops_and_operator_matrix(self):
        imap, x, w, b, z = self.instance()
        n, c_out = len(x), len(w)
        loops = np.zeros((n, c_out, imap.out_positions))
        wf = w.reshape(c_out, x.shape[1], imap.filter_size)
        for mu in range(n):
            for alpha in range(c_out):
                for a in range(imap.out_positions):
                    for beta in range(x.shape[1]):
                        flat = x[mu, beta].ravel()
                        for r in range(imap.filter_size):
                            loops[mu, alpha, a] += wf[alpha, beta, r] * flat[imap.nu(a, r)]
        got = imap.product(w, x)
        np.testing.assert_allclose(got, loops.reshape(z.shape), rtol=1e-12, atol=1e-12)
        via_g = (x.reshape(n, -1) @ imap.operator_matrix(w).T).reshape(z.shape)
        np.testing.assert_allclose(got, via_g, rtol=1e-12, atol=1e-12)
        assert imap.conv_mean(w, x).tobytes() == got.tobytes()
        assert imap.product(w, x, imap.design(x)).tobytes() == got.tobytes()

    def test_weight_grad_matches_loops_and_adjoint(self):
        imap, x, w, b, z = self.instance()
        resid = residual(z, imap.product(w, x), b)
        np.testing.assert_allclose(resid, z - imap.conv_mean(w, x) - b[None, :, None, None], rtol=1e-14, atol=1e-14)
        grad = imap.weight_grad(resid, x)
        assert grad.shape == w.shape
        np.testing.assert_allclose(grad, self.patch_sum(imap, x, resid), rtol=1e-12, atol=1e-12)
        # the adjoint of the operator matrix: d/dW of sum(resid * G(W) x)
        n = len(x)
        for alpha, beta, ry, rx in np.ndindex(w.shape):
            e = np.zeros_like(w)
            e[alpha, beta, ry, rx] = 1.0
            g_e = (x.reshape(n, -1) @ imap.operator_matrix(e).T).ravel()
            assert grad[alpha, beta, ry, rx] == pytest.approx(float(resid.ravel() @ g_e), rel=1e-12, abs=1e-12)

    def test_bias_grad_matches_loops(self):
        imap, x, w, b, z = self.instance()
        resid = residual(z, imap.product(w, x), b)
        loops = np.zeros(3)
        for mu, alpha, oy, ox in np.ndindex(resid.shape):
            loops[alpha] += resid[mu, alpha, oy, ox]
        np.testing.assert_allclose(imap.bias_grad(resid), loops, rtol=1e-12, atol=1e-12)

    def test_w_rhs_matches_loops(self):
        imap, x, w, b, z = self.instance()
        dz = 0.35
        z_free = z - b[None, :, None, None]
        rhs = imap.w_rhs(imap.design(x), z_free, dz)
        assert rhs.shape == (3, 2 * imap.filter_size)
        want = self.patch_sum(imap, x, z_free).reshape(3, -1) / dz
        np.testing.assert_allclose(rhs, want, rtol=1e-12, atol=1e-12)


class TestConvWUpdate:
    def setup_instance(self, seed=6, c_in=1, c_out=2, h=3, w=3, fh=2, fw=2, n=5):
        gen = np.random.default_rng(seed)
        imap = ConvIndexMap(h, w, fh, fw)
        x = gen.standard_normal((n, c_in, h, w))
        z = gen.standard_normal((n, c_out, imap.out_height, imap.out_width))
        b = gen.standard_normal(c_out)
        return imap, x, z, b

    def test_equivalence_with_dense_on_unrolled_design(self):
        imap, x, z, b = self.setup_instance()
        dz, lam = 0.4, 1.7
        prec_c, rhs_c = conv_w_conditional(imap, x, z, b, dz, lam)
        patches = unroll_patches(x, imap).reshape(-1, imap.filter_size)
        z_cols = (z - b[None, :, None, None]).reshape(z.shape[0], z.shape[1], -1)
        z_rows = z_cols.transpose(0, 2, 1).reshape(-1, z.shape[1])
        prec_d, rhs_d = dense_w_conditional(patches, z_rows, dz, lam)
        np.testing.assert_allclose(prec_c, prec_d, rtol=1e-12)
        np.testing.assert_allclose(rhs_c, rhs_d, rtol=1e-12, atol=1e-12)
        # conditional moments agree entrywise to 1e-8 relative
        cov_c, cov_d = np.linalg.inv(prec_c), np.linalg.inv(prec_d)
        mean_c = np.linalg.solve(prec_c, rhs_c.T)
        mean_d = np.linalg.solve(prec_d, rhs_d.T)
        assert np.max(np.abs(cov_c - cov_d)) <= 1e-8 * np.max(np.abs(cov_d))
        assert np.max(np.abs(mean_c - mean_d)) <= 1e-8 * max(np.max(np.abs(mean_d)), 1e-12)

    def test_one_by_one_full_stride_reduces_to_dense(self):
        # non-overlapping 1x1 filter: the conv layer is a pixelwise dense map
        gen = np.random.default_rng(7)
        n, h = 6, 3
        imap = ConvIndexMap(h, h, 1, 1)
        x = gen.standard_normal((n, 1, h, h))
        z = gen.standard_normal((n, 1, h, h))
        dz, lam = 0.3, 2.2
        prec_c, rhs_c = conv_w_conditional(imap, x, z, None, dz, lam)
        flat_x = x.reshape(-1, 1)
        flat_z = z.reshape(-1, 1)
        prec_d, rhs_d = dense_w_conditional(flat_x, flat_z, dz, lam)
        np.testing.assert_allclose(prec_c, prec_d, rtol=1e-12)
        np.testing.assert_allclose(rhs_c, rhs_d, rtol=1e-12)

    def test_rejection_oracle_tiny_instance(self):
        gen = np.random.default_rng(8)
        imap = ConvIndexMap(3, 3, 2, 2)
        n = 2
        x = gen.standard_normal((n, 1, 3, 3))
        w_true = gen.normal(scale=0.5, size=(1, 1, 2, 2))
        z = imap.conv_mean(w_true, x) + gen.normal(scale=np.sqrt(0.5), size=(n, 1, 2, 2))
        dz, lam = 0.5, 1.0

        draws = np.array(
            [update_conv_W(imap, x, z, None, dz, lam, RngStream(9, (i,))).ravel() for i in range(4000)]
        )

        # oracle: rejection from the prior, accepted on the conv likelihood
        patches = unroll_patches(x, imap).reshape(-1, 4)
        z_flat = z.reshape(-1)
        out = []
        g2 = np.random.default_rng(10)
        while len(out) < 4000:
            cand = g2.normal(scale=1 / np.sqrt(lam), size=(200_000, 4))
            resid = z_flat[None, :] - cand @ patches.T
            logacc = -np.sum(resid**2, axis=1) / (2 * dz)
            keep = np.log(g2.uniform(size=len(cand))) < logacc
            out.extend(cand[keep].tolist())
        oracle = np.asarray(out[:4000])
        for j in range(4):
            _, p = stats.ks_2samp(draws[:, j], oracle[:, j])
            assert p > 0.01, f"filter coordinate {j}: p={p}"


class TestConvXUpdate:
    def test_zero_filter_diagonal(self):
        imap = ConvIndexMap(4, 4, 2, 2)
        gen = np.random.default_rng(11)
        n = 40_000
        upstream = np.tile(gen.standard_normal((1, 1, 4, 4)), (n, 1, 1, 1))
        z_next = np.zeros((n, 1, 3, 3))
        dx = 0.6
        draws = update_conv_X(imap, np.zeros((1, 1, 2, 2)), upstream, z_next, None, 1.0, dx, RngStream(12))
        np.testing.assert_allclose(draws.mean(axis=0)[0], upstream[0, 0], atol=0.02)
        np.testing.assert_allclose(draws.var(axis=0)[0], np.full((4, 4), dx), atol=0.02)

    def test_equivalence_with_dense_on_unrolled_design(self):
        gen = np.random.default_rng(13)
        imap = ConvIndexMap(3, 3, 2, 2)
        n = 3
        w = gen.standard_normal((2, 1, 2, 2))
        upstream = gen.standard_normal((n, 1, 3, 3))
        z_next = gen.standard_normal((n, 2, 2, 2))
        b = gen.standard_normal(2)
        dz, dx = 0.7, 0.4
        prec_c, rhs_c = conv_x_conditional(imap, w, upstream, z_next, b, dz, dx)
        # dense view: one "sample" per conv output position with weight rows
        # scattered into pixel space (the linearized conv operator)
        g = imap.operator_matrix(w)
        prec_d = np.eye(9) / dx + g.T @ g / dz
        z_rows = (z_next - b[None, :, None, None]).reshape(n, -1)
        rhs_d = upstream.reshape(n, -1) / dx + z_rows @ g / dz
        np.testing.assert_allclose(prec_c, prec_d, rtol=1e-12)
        np.testing.assert_allclose(rhs_c, rhs_d, rtol=1e-12)
        # independent dense check: the same law through dense_x_conditional
        # with W replaced by the operator matrix
        prec_e, rhs_e = dense_x_conditional(g, upstream.reshape(n, -1), z_rows, dz, dx)
        np.testing.assert_allclose(prec_c, prec_e, rtol=1e-12)
        np.testing.assert_allclose(rhs_c, rhs_e, rtol=1e-12)

    def test_off_reach_precision_entries_vanish(self):
        imap = ConvIndexMap(8, 8, 2, 2)
        gen = np.random.default_rng(14)
        w = gen.standard_normal((1, 1, 2, 2))
        prec, _ = conv_x_conditional(
            imap, w, np.zeros((1, 1, 8, 8)), np.zeros((1, 1, 7, 7)), None, 1.0, 1.0
        )
        for c in range(64):
            cy, cx = divmod(c, 8)
            for c2 in range(64):
                c2y, c2x = divmod(c2, 8)
                if abs(cy - c2y) >= 2 or abs(cx - c2x) >= 2:
                    assert prec[c, c2] == 0.0


def preimage(pmap, a):
    """Flat input positions pooled into flat output position a."""
    ay, ax = divmod(a, pmap.out_width)
    return [
        (ay * pmap.window_height + ry) * pmap.in_width + ax * pmap.window_width + rx
        for ry in range(pmap.window_height)
        for rx in range(pmap.window_width)
    ]


def discarded_per_channel(pmap):
    """Input pixels per channel that fill no window."""
    return pmap.in_height * pmap.in_width - pmap.k * pmap.out_height * pmap.out_width


class TestPoolUpdate:
    def test_window_of_one_matches_direct_formula(self):
        pmap = PoolMap(2, 2, 1, 1)
        gen = np.random.default_rng(15)
        n = 60_000
        up = np.tile(gen.standard_normal((1, 1, 2, 2)), (n, 1, 1, 1))
        pooled = np.tile(gen.standard_normal((1, 1, 2, 2)), (n, 1, 1, 1))
        vin, vout = 0.5, 0.3
        draws = update_pool_X(pmap, up, pooled, vin, vout, RngStream(16))
        # k = 1: product of two Gaussians per pixel
        var = vin * vout / (vin + vout)
        mean = up[0, 0] + vin / (vin + vout) * (pooled[0, 0] - up[0, 0])
        np.testing.assert_allclose(draws.mean(axis=0)[0], mean, atol=0.02)
        np.testing.assert_allclose(draws.var(axis=0)[0], np.full((2, 2), var), atol=0.02)

    def test_covariance_matches_precision_inverse(self):
        pmap = PoolMap(4, 4, 2, 2)
        gen = np.random.default_rng(17)
        n = 100_000
        up = np.tile(gen.standard_normal((1, 1, 4, 4)), (n, 1, 1, 1))
        pooled = np.tile(gen.standard_normal((1, 1, 2, 2)), (n, 1, 1, 1))
        vin, vout = 0.7, 0.25
        draws = update_pool_X(pmap, up, pooled, vin, vout, RngStream(18))
        k = 4
        # oracle covariance: invert the window precision directly
        prec = np.eye(k) / vin + np.ones((k, k)) / (vout * k * k)
        cov_oracle = np.linalg.inv(prec)
        window = draws[:, 0, :2, :2].reshape(n, k)
        cov_emp = np.cov(window.T)
        se = 5 * np.max(np.abs(cov_oracle)) / np.sqrt(n)
        np.testing.assert_allclose(cov_emp, cov_oracle, atol=5 * se)
        # oracle mean: solve the window linear system
        rhs = up[0, 0, :2, :2].ravel() / vin + pooled[0, 0, 0, 0] / (vout * k)
        mean_oracle = cov_oracle @ rhs
        np.testing.assert_allclose(window.mean(axis=0), mean_oracle, atol=0.02)

    def test_large_output_noise_decouples(self):
        pmap = PoolMap(2, 2, 2, 2)
        gen = np.random.default_rng(19)
        n = 50_000
        up = np.tile(gen.standard_normal((1, 1, 2, 2)), (n, 1, 1, 1))
        pooled = np.full((n, 1, 1, 1), 100.0)
        draws = update_pool_X(pmap, up, pooled, 0.5, 1e9, RngStream(20))
        np.testing.assert_allclose(draws.mean(axis=0)[0], up[0, 0], atol=0.03)
        np.testing.assert_allclose(draws.var(axis=0)[0], np.full((2, 2), 0.5), atol=0.02)

    def test_discarded_pixels_resampled_around_upstream(self):
        pmap = PoolMap(3, 3, 2, 2)
        assert discarded_per_channel(pmap) == 9 - 4
        gen = np.random.default_rng(21)
        n = 40_000
        up = np.tile(gen.standard_normal((1, 1, 3, 3)), (n, 1, 1, 1))
        pooled = np.zeros((n, 1, 1, 1))
        draws = update_pool_X(pmap, up, pooled, 0.4, 0.4, RngStream(22))
        # the third row/column never feeds the pool: plain upstream noise
        np.testing.assert_allclose(draws[:, 0, 2, :].mean(axis=0), up[0, 0, 2, :], atol=0.02)
        np.testing.assert_allclose(draws[:, 0, :, 2].var(axis=0), 0.4, atol=0.02)

    def test_preimages_partition_retained_pixels(self):
        pmap = PoolMap(5, 7, 2, 3)
        x = np.arange(5 * 7).reshape(5, 7)
        windows = pmap.blocks(x).transpose(0, 2, 1, 3).reshape(-1, pmap.k)
        # every retained pixel lies in exactly one window, the one the loop oracle names
        retained = x[: pmap.retained_height, : pmap.retained_width]
        assert sorted(windows.ravel()) == sorted(retained.ravel())
        for a, window in enumerate(windows):
            assert sorted(window) == preimage(pmap, a)
        assert x.size - windows.size == discarded_per_channel(pmap) == 5 * 7 - 2 * 2 * 6

    def test_rng_use_is_window_blocks_then_border_slabs(self):
        pmap = PoolMap(5, 7, 2, 3)
        gen = np.random.default_rng(23)
        up = gen.standard_normal((4, 2, 5, 7))
        pooled = gen.standard_normal((4, 2, 2, 2))
        vin, vout = 0.4, 0.3
        rng = RngStream(24, (3,))
        out = update_pool_X(pmap, up, pooled, vin, vout, rng)
        rh, rw, sd = pmap.retained_height, pmap.retained_width, np.sqrt(vin)
        fresh = RngStream(24, (3,)).generator
        z = fresh.normal(scale=sd, size=pmap.blocks(up).shape)
        bottom = fresh.normal(scale=sd, size=up[..., rh:, :].shape)
        right = fresh.normal(scale=sd, size=up[..., :rh, rw:].shape)
        assert repr(rng.generator.bit_generator.state) == repr(fresh.bit_generator.state)
        # the same draws land in the same places: the count alone would not
        # tell the order apart
        np.testing.assert_array_equal(out[..., rh:, :], up[..., rh:, :] + bottom)
        np.testing.assert_array_equal(out[..., :rh, rw:], up[..., :rh, rw:] + right)
        k = pmap.k
        q = (1.0 - np.sqrt(k * vout / (k * vout + vin))) / k
        zbar = z - q * z.sum(axis=(-3, -1), keepdims=True)
        up_blocks = pmap.blocks(up)
        shift = vin / (vin + k * vout) * (pooled - up_blocks.mean(axis=(-3, -1)))
        np.testing.assert_allclose(pmap.blocks(out), up_blocks + shift[..., :, None, :, None] + zbar, rtol=1e-13)


def channel_innermost(gen, n, channels, height, width):
    """A conv ``product`` output: shape (n, C, H, W) with channels innermost
    in memory."""
    imap = ConvIndexMap(height + 1, width + 1, 2, 2)
    x = gen.standard_normal((n, 2, height + 1, width + 1))
    out = imap.product(gen.standard_normal((channels, 2, 2, 2)), x)
    assert out.strides[1] == out.itemsize
    return out


class TestPoolMapAgainstLoops:
    """``window_sum``, ``pool_mean`` and ``spread`` against loops over
    ``preimage`` on a 5×7 input, windows with leftover rows and columns."""

    @pytest.fixture(params=[(1, 1), (2, 2), (2, 3), (3, 2)], ids=lambda w: f"{w[0]}x{w[1]}")
    def pmap(self, request):
        return PoolMap(5, 7, *request.param)

    @pytest.fixture(params=["c-order", "channel-innermost"])
    def x(self, request):
        gen = np.random.default_rng(25)
        if request.param == "c-order":
            return gen.standard_normal((3, 2, 5, 7))
        return channel_innermost(gen, 3, 2, 5, 7)

    def loop_window_sum(self, pmap, x):
        n, c = x.shape[:2]
        out = np.zeros((n, c, pmap.out_height * pmap.out_width))
        for s in range(n):
            for ch in range(c):
                flat = x[s, ch].ravel()
                for a in range(out.shape[-1]):
                    out[s, ch, a] = sum(flat[p] for p in preimage(pmap, a))
        return out.reshape(n, c, pmap.out_height, pmap.out_width)

    def test_window_sum_and_pool_mean(self, pmap, x):
        want = self.loop_window_sum(pmap, x)
        np.testing.assert_allclose(pmap.window_sum(x), want, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(pmap.pool_mean(x), want / pmap.k, rtol=1e-14, atol=1e-14)
        if x.flags.c_contiguous:
            assert pmap.window_sum(x).tobytes() == pmap.blocks(x).sum(axis=(-3, -1)).tobytes()

    def test_spread_and_adjoint(self, pmap, x):
        gen = np.random.default_rng(26)
        d = gen.standard_normal((*x.shape[:2], pmap.out_height, pmap.out_width))
        got = pmap.spread(d, x)
        assert got.shape == x.shape and got.strides == x.strides
        want = np.zeros(x.shape)
        retained = np.zeros(x.shape[-2:], dtype=bool)
        for a in range(pmap.out_height * pmap.out_width):
            ay, ax = divmod(a, pmap.out_width)
            for p in preimage(pmap, a):
                py, px = divmod(p, pmap.in_width)
                want[..., py, px] = d[..., ay, ax] / pmap.k
                retained[py, px] = True
        np.testing.assert_array_equal(got, want)
        assert np.all(got[..., ~retained] == 0.0)
        lhs = np.sum(pmap.pool_mean(x) * d)
        rhs = np.sum(x * got)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestConvBias:
    def test_prior_draw_when_no_data(self):
        imap = ConvIndexMap(3, 3, 2, 2)
        draws = np.array(
            [
                update_conv_bias(imap, np.zeros((1, 1, 2, 2)), np.zeros((0, 1, 3, 3)), np.zeros((0, 1, 2, 2)), 0.5, 2.0, RngStream(23, (i,)))
                for i in range(8000)
            ]
        ).ravel()
        assert abs(draws.mean()) < 0.03
        assert draws.var() == pytest.approx(0.5, rel=0.1)

    def test_constant_residual_algebra(self):
        imap = ConvIndexMap(3, 3, 2, 2)
        n, r, dz, lam = 4, 0.9, 0.3, 1.2
        x = np.zeros((n, 1, 3, 3))
        z = np.full((n, 1, 2, 2), r)
        draws = np.array([update_conv_bias(imap, np.zeros((1, 1, 2, 2)), x, z, dz, lam, RngStream(24, (i,))) for i in range(6000)]).ravel()
        d_out = 4
        expect = n * d_out * r / (n * d_out + dz * lam)
        assert draws.mean() == pytest.approx(expect, abs=0.01)

    def test_quadrature_oracle(self):
        gen = np.random.default_rng(25)
        imap = ConvIndexMap(3, 3, 2, 2)
        n, dz, lam = 3, 0.45, 1.6
        x = gen.standard_normal((n, 1, 3, 3))
        w = gen.normal(scale=0.4, size=(1, 1, 2, 2))
        z = imap.conv_mean(w, x) + gen.normal(scale=0.3, size=(n, 1, 2, 2))
        draws = np.array([update_conv_bias(imap, w, x, z, dz, lam, RngStream(26, (i,))) for i in range(10_000)]).ravel()
        resid = (z - imap.conv_mean(w, x)).ravel()
        grid = np.linspace(-3, 3, 30001)
        logw = -np.sum((resid[:, None] - grid[None, :]) ** 2, axis=0) / (2 * dz) - lam * grid**2 / 2
        wgt = np.exp(logw - logw.max())
        mean_q = float(np.trapezoid(grid * wgt, grid) / np.trapezoid(wgt, grid))
        var_q = float(np.trapezoid(grid**2 * wgt, grid) / np.trapezoid(wgt, grid)) - mean_q**2
        assert draws.mean() == pytest.approx(mean_q, abs=5 * np.sqrt(var_q / len(draws)))
        assert draws.var() == pytest.approx(var_q, rel=0.1)


def random_chain(spec, noise, rng):
    """Standard-normal weights and biases, and the chain they generate from
    twelve standard-normal 1x5x5 inputs."""
    gen = rng.generator
    W = {l: gen.standard_normal(spec.weight_shape(l)) for l in range(1, spec.depth + 1)}
    b = {l: gen.standard_normal(spec.bias_width(l)) for l in range(1, spec.depth + 1)}
    state, _ = forward_generate(spec, noise, W, b, gen.standard_normal((12, 1, 5, 5)), rng)
    return state


class TestConvSweep:
    def cnn_spec(self, deep=False):
        """conv -> pool -> dense probit; ``deep`` adds a second dense layer."""
        conv = ConvLayer(1, 2, in_height=5, in_width=5, filter_height=2, filter_width=2, stride_y=1, stride_x=1)
        pool = PoolLayer(2, 4, 4, 2, 2)
        dense = (DenseLayer(8, 4), DenseLayer(4, 3)) if deep else (DenseLayer(8, 3),)
        return NetworkSpec(layers=(conv, pool, *dense), activation=Activation.RELU, output="probit")

    @pytest.mark.parametrize("deep", [False, True], ids=["conv-pool-dense", "conv-pool-dense-dense"])
    def test_sweep_deterministic_and_feasible(self, deep):
        spec = self.cnn_spec(deep)
        noise = NoiseSchedule.uniform(spec, 0.5)
        prior = PriorSpec.fan_in(spec)

        def run():
            rng = RngStream(27)
            state = random_chain(spec, noise, rng)
            for _ in range(10):
                gibbs_sweep(state, spec, noise, prior, SweepSchedule(), rng)
                state.validate(spec)
            return state

        assert_bitwise_equal(run(), run())

    def conv_chain(self, seed, deep=False):
        spec = self.cnn_spec(deep)
        noise = NoiseSchedule.uniform(spec, 0.5)
        prior = PriorSpec.fan_in(spec)
        return spec, noise, prior, random_chain(spec, noise, RngStream(seed))

    @pytest.mark.parametrize("deep", [False, True], ids=["conv-pool-dense", "conv-pool-dense-dense"])
    def test_shared_product_bitwise_equal_to_public_updates(self, deep):
        spec, noise, prior, shared = self.conv_chain(37, deep)
        separate = shared.copy()
        rng_a, rng_b = RngStream(38), RngStream(38)
        for _ in range(4):
            gibbs_sweep(shared, spec, noise, prior, SweepSchedule(), rng_a)
            sweep_by_public_updates(separate, spec, noise, prior, rng_b)
        assert_bitwise_equal(shared, separate)

    def test_cached_sweeps_bitwise_equal_to_uncached(self):
        def run(empty_cache):
            spec, noise, prior, state = self.conv_chain(30)
            rng = RngStream(31)
            built = []
            for _ in range(6):
                if empty_cache:
                    state._clamped = None
                gibbs_sweep(state, spec, noise, prior, SweepSchedule(), rng)
                built.append(state._clamped)
            return state, built

        cached, built = run(empty_cache=False)
        fresh, _ = run(empty_cache=True)
        assert all(entry is built[0] for entry in built)
        assert_bitwise_equal(cached, fresh)

    def test_sweep_filter_and_bias_draws_equal_public_updates(self):
        spec, noise, prior, state = self.conv_chain(32)
        imap = ConvIndexMap.for_layer(spec.layers[0])
        rng = RngStream(33)
        w1 = update_conv_W(imap, state.X[1], state.Z[2], state.b[1], noise.delta_z[2], prior.lambda_w[1], rng)
        b1 = update_conv_bias(imap, w1, state.X[1], state.Z[2], noise.delta_z[2], prior.lambda_b[1], rng)
        gibbs_sweep(state, spec, noise, prior, SweepSchedule(), RngStream(33))
        assert state.W[1].tobytes() == w1.tobytes()
        assert state.b[1].tobytes() == b1.tobytes()

    def test_replacing_x1_rebuilds_patches_and_factor(self):
        spec, noise, prior, state = self.conv_chain(34)
        rng = RngStream(35)
        gibbs_sweep(state, spec, noise, prior, SweepSchedule(), rng)
        state.X[1] = state.X[1][::-1].copy()
        fresh = state.copy()
        gibbs_sweep(state, spec, noise, prior, SweepSchedule(), RngStream(36))
        gibbs_sweep(fresh, spec, noise, prior, SweepSchedule(), RngStream(36))
        assert state._clamped.x is state.X[1]
        assert state.W[1].tobytes() == fresh.W[1].tobytes()
        assert state.Z[2].tobytes() == fresh.Z[2].tobytes()

    def test_informed_start_stays_stationary(self):
        # short informed-start run: first/second half means of the filter
        # norm agree within batch-mean error bars
        from conftest import batch_mean_se

        spec = self.cnn_spec()
        noise = NoiseSchedule.uniform(spec, 0.5)
        prior = PriorSpec.fan_in(spec)
        rng = RngStream(28)
        from nngibbs.datasets import generate_teacher_student

        data = generate_teacher_student(spec, prior, n=40, n_test=0, rng=rng, noise_gen=noise)
        state = data.teacher.copy()
        series = []
        sweep_rng = RngStream(29)
        for _ in range(1200):
            gibbs_sweep(state, spec, noise, prior, SweepSchedule(), sweep_rng)
            series.append(float(np.sum(state.W[1] ** 2)))
        series = np.asarray(series)
        m1, se1 = batch_mean_se(series[:600])
        m2, se2 = batch_mean_se(series[600:])
        assert abs(m1 - m2) < 4 * np.hypot(se1, se2)
