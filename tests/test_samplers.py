"""HMC and MALA transition checks: integrator reversibility, exact
acceptance bookkeeping, and recovery of Gaussian target moments; and the
chain runner's records, spacing and deadline."""
import time

import numpy as np
import pytest

from conftest import batch_mean_se
from nngibbs.kernels import RngStream
from nngibbs.samplers import ChainRun, HmcSettings, MalaSettings, hmc_step, mala_step, run_chain


def gaussian_target(cov):
    prec = np.linalg.inv(cov)

    def target(x):
        return -0.5 * float(x @ prec @ x), -prec @ x

    return target


def flat_target(x):
    return 0.0, np.zeros_like(x)


class TestHmc:
    def test_small_step_high_acceptance(self):
        target = gaussian_target(np.eye(1))
        settings = HmcSettings(step_size=1e-4, leapfrog_steps=10)
        rng = RngStream(0)
        x = np.array([0.3])
        accepted = 0
        for _ in range(10_000):
            x, ok, err = hmc_step(x, target, settings, rng)
            accepted += ok
        assert accepted / 10_000 >= 0.99

    def test_in_place_leapfrog_is_bitwise_the_out_of_place_form(self):
        """hmc_step against the out-of-place reference loop, on a fixed
        quadratic target; the caller's position is never written."""
        cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
        target = gaussian_target(cov)
        settings = HmcSettings(step_size=0.6, leapfrog_steps=7)

        def reference(position, gen):
            eta = settings.step_size
            logp0, grad = target(position)
            p = gen.standard_normal(position.shape)
            energy0 = -logp0 + 0.5 * float(p @ p)
            x = position
            for _ in range(settings.leapfrog_steps):
                p = p + 0.5 * eta * grad
                x = x + eta * p
                logp, grad = target(x)
                p = p + 0.5 * eta * grad
            energy1 = -logp + 0.5 * float(p @ p)
            if np.log(gen.uniform()) < energy0 - energy1:
                return x, True, energy1 - energy0
            return position, False, energy1 - energy0

        rng, ref_gen = RngStream(21), RngStream(21).generator
        x = ref = np.array([0.4, -1.1, 0.7])
        accepted = 0
        for _ in range(200):
            x.setflags(write=False)
            before = x.copy()
            x_new, ok, err = hmc_step(x, target, settings, rng)
            assert x.tobytes() == before.tobytes()
            ref, ref_ok, ref_err = reference(ref, ref_gen)
            assert (x_new.tobytes(), ok, err) == (ref.tobytes(), ref_ok, ref_err)
            x = x_new
            accepted += ok
        assert 0 < accepted < 200

    def test_leapfrog_reversible(self):
        # run the dynamics forward, negate momentum, run back: must return
        gen = np.random.default_rng(1)
        cov = np.array([[2.0, 0.7], [0.7, 1.0]])
        prec = np.linalg.inv(cov)
        eta, L = 0.05, 14
        x0 = gen.standard_normal(2)
        p0 = gen.standard_normal(2)

        def leapfrog(x, p):
            grad = -prec @ x
            for _ in range(L):
                p = p + 0.5 * eta * grad
                x = x + eta * p
                grad = -prec @ x
                p = p + 0.5 * eta * grad
            return x, p

        x1, p1 = leapfrog(x0, p0)
        x2, p2 = leapfrog(x1, -p1)
        np.testing.assert_allclose(x2, x0, atol=1e-8)
        np.testing.assert_allclose(-p2, p0, atol=1e-8)

    @pytest.mark.parametrize("condition", [1.0, 100.0])
    def test_gaussian_moments(self, condition):
        cov = np.diag([1.0, 1.0 / condition])
        target = gaussian_target(cov)
        settings = HmcSettings(step_size=0.08 / np.sqrt(condition), leapfrog_steps=12)
        rng = RngStream(2, (int(condition),))
        x = np.zeros(2)
        draws = []
        for _ in range(40_000):
            x, ok, _ = hmc_step(x, target, settings, rng)
            draws.append(x.copy())
        draws = np.asarray(draws[2000:])
        for j in range(2):
            m, se = batch_mean_se(draws[:, j])
            assert abs(m) < 5 * se
            v, sev = batch_mean_se(draws[:, j] ** 2)
            assert abs(v - cov[j, j]) < 5 * sev

    def test_nonfinite_proposal_rejected(self):
        def cliff(x):
            if np.any(np.abs(x) > 0.5):
                return -np.inf, np.zeros_like(x)
            return 0.0, np.zeros_like(x)

        x = np.array([0.4])
        settings = HmcSettings(step_size=2.0, leapfrog_steps=3)
        x1, ok, err = hmc_step(x, cliff, settings, RngStream(3))
        assert not ok and np.array_equal(x1, x) and err == np.inf

    def test_energy_error_second_order(self):
        target = gaussian_target(np.eye(2))
        rng = RngStream(4)
        errs = {}
        for eta in (0.05, 0.025):
            r = RngStream(4)
            _, _, err = hmc_step(np.array([1.0, -0.5]), target, HmcSettings(eta, 8), r)
            errs[eta] = abs(err)
        # halving the step shrinks the energy error by about 4x
        assert errs[0.025] < errs[0.05] / 2.5


class TestMala:
    def test_in_place_proposal_is_bitwise_the_out_of_place_form(self):
        cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
        target = gaussian_target(cov)
        eta = 0.4

        def reference(position, gen):
            logp0, grad0 = target(position)
            xi = gen.standard_normal(position.shape)
            prop = position + eta * grad0 + np.sqrt(2.0 * eta) * xi
            logp1, grad1 = target(prop)
            fwd = prop - position - eta * grad0
            back = position - prop - eta * grad1
            log_alpha = logp1 - logp0 - float(back @ back) / (4.0 * eta) + float(fwd @ fwd) / (4.0 * eta)
            if np.log(gen.uniform()) < log_alpha:
                return prop, True
            return position, False

        rng, ref_gen = RngStream(22), RngStream(22).generator
        x = ref = np.array([0.4, -1.1, 0.7])
        accepted = 0
        for _ in range(200):
            x.setflags(write=False)
            x, ok = mala_step(x, target, MalaSettings(eta), rng)
            ref, ref_ok = reference(ref, ref_gen)
            assert (x.tobytes(), ok) == (ref.tobytes(), ref_ok)
            accepted += ok
        assert 0 < accepted < 200

    def test_flat_target_accepts_every_step(self):
        rng = RngStream(5)
        x = np.zeros(3)
        for _ in range(2000):
            x, ok = mala_step(x, flat_target, MalaSettings(0.3), rng)
            assert ok

    @pytest.mark.parametrize("condition", [1.0, 100.0])
    def test_gaussian_moments(self, condition):
        cov = np.diag([1.0, 1.0 / condition])
        target = gaussian_target(cov)
        settings = MalaSettings(step_size=0.03 / condition)
        rng = RngStream(6, (int(condition),))
        x = np.zeros(2)
        draws = []
        for _ in range(120_000):
            x, ok = mala_step(x, target, settings, rng)
            draws.append(x.copy())
        draws = np.asarray(draws[10_000:])
        for j in range(2):
            m, se = batch_mean_se(draws[:, j])
            assert abs(m) < 5 * se
            v, sev = batch_mean_se(draws[:, j] ** 2)
            assert abs(v - cov[j, j]) < 5 * sev

    def test_log_space_acceptance_no_nan(self):
        # steep target: naive density ratios would overflow, log space cannot
        def steep(x):
            return -1e6 * float(x @ x), -2e6 * x

        rng = RngStream(7)
        x = np.array([10.0])
        for _ in range(100):
            x, ok = mala_step(x, steep, MalaSettings(1e-8), rng)
            assert np.all(np.isfinite(x))

    def test_nonfinite_proposal_rejected(self):
        def hole(x):
            if np.any(x < 0):
                return np.nan, np.zeros_like(x)
            return 0.0, np.zeros_like(x)

        x = np.array([1e-9])
        moved = 0
        rng = RngStream(8)
        for _ in range(50):
            x2, ok = mala_step(x, hole, MalaSettings(0.5), rng)
            if not ok:
                assert np.array_equal(x2, x)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            MalaSettings(0.0)
        with pytest.raises(ValueError):
            HmcSettings(0.1, 0)


class TestRunChain:
    def test_budget_one_records_initial_plus_one(self):
        rng = RngStream(9)
        step = lambda x: mala_step(x, flat_target, MalaSettings(0.1), rng)
        run = run_chain(step, np.zeros(2), n_steps=1)
        assert list(run.times) == [0, 1]
        with pytest.raises(ValueError):
            run_chain(step, np.zeros(2), n_steps=0)

    def test_acceptance_bookkeeping_exact(self):
        target = gaussian_target(np.eye(2))
        accepted_flags = []

        real_step = mala_step

        def counting_target(x):
            return target(x)

        rng = RngStream(10)
        run = run_chain(lambda x: mala_step(x, counting_target, MalaSettings(0.9), rng), np.zeros(2), n_steps=500)
        # replay with an identical stream to count acceptances independently
        rng2 = RngStream(10)
        x = np.zeros(2)
        acc = 0
        for _ in range(500):
            x, ok = real_step(x, counting_target, MalaSettings(0.9), rng2)
            acc += ok
        assert run.accepted == acc
        assert run.acceptance_rate == acc / 500

    def test_measurement_spacing(self):
        obs = lambda x, rate: x
        rng = RngStream(11)
        step = lambda x: hmc_step(x, gaussian_target(np.eye(1)), HmcSettings(0.1, 5), rng)[:2]
        run = run_chain(step, np.zeros(1), n_steps=1000, observer=obs, spacing=100)
        assert list(run.times) == [0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
        assert run.values.shape == (11, 1)

    def test_past_deadline_records_the_step_taken_and_stops(self):
        rates = []

        def obs(x, rate):
            rates.append(rate)
            return x

        run = run_chain(lambda x: (x + 1.0, True), 0.0, n_steps=1000, observer=obs, spacing=100, deadline=time.monotonic() - 1.0)
        assert list(run.times) == [0, 1]
        assert len(run.wall) == 2
        assert run.steps == 1 and run.final_position == 1.0
        assert run.accepted == 1 and run.acceptance_rate == 1.0
        assert rates == [0.0, 1.0]
