"""Variance-ratio statistic algebra, score statistic, stationarity
detection, and the informed-chain merge criterion."""
import numpy as np
import pytest

from nngibbs.diagnostics import (
    DegenerateVariance,
    InformedNotStationary,
    RhatReport,
    TraceSeries,
    merge_verdicts,
    rhat,
    rhat_series,
    stationarity_onset,
    teacher_student_merge,
)


class TestRhat:
    def test_identical_chains_collapse_to_ratio(self):
        gen = np.random.default_rng(0)
        chain = gen.standard_normal(50)
        report = rhat([chain, chain.copy()])
        n = 50
        assert report.rhat[0] == pytest.approx((n - 1) / n, abs=1e-15)
        assert report.between_chain[0] == 0.0

    def test_constant_chains_degenerate(self):
        with pytest.raises(DegenerateVariance):
            rhat([np.full(20, 1.0), np.full(20, 2.0)])

    def test_iid_gaussian_calibration(self):
        # the reported statistic is the coordinate mean (the per-coordinate
        # scalar value has ~4% mass above 1.1 at M=2, N=50, so only the
        # averaged report concentrates tightly around 1)
        gen = np.random.default_rng(1)
        hits = 0
        trials = 100
        for _ in range(trials):
            r = rhat([gen.standard_normal((50, 100)), gen.standard_normal((50, 100))])
            hits += 0.9 <= r.mean_rhat <= 1.1
        assert hits >= 99

    def test_far_apart_chains_large(self):
        gen = np.random.default_rng(2)
        r = rhat([gen.standard_normal(50), 20.0 + gen.standard_normal(50)])
        assert r.rhat[0] > 50

    def test_definition_matches_direct_formula(self):
        gen = np.random.default_rng(3)
        chains = [gen.standard_normal(40) for _ in range(3)]
        report = rhat(chains)
        psi = np.stack(chains)
        m, n = psi.shape
        means = psi.mean(axis=1)
        grand = means.mean()
        b_n = np.sum((means - grand) ** 2) / (m - 1)
        w = np.sum((psi - means[:, None]) ** 2) / (m * (n - 1))
        sigma2 = (n - 1) / n * w + b_n
        expect = (m + 1) / m * sigma2 / w - (n - 1) / (m * n)
        assert report.rhat[0] == pytest.approx(expect, rel=1e-14)
        assert report.pooled_variance[0] == pytest.approx(sigma2, rel=1e-14)

    def test_shift_and_scale_behavior(self):
        gen = np.random.default_rng(4)
        chains = [gen.standard_normal(30) for _ in range(2)]
        base = rhat(chains).rhat[0]
        shifted = rhat([c + 7.5 for c in chains]).rhat[0]
        assert shifted == pytest.approx(base, rel=1e-9)
        # power-of-two scaling is exact in floating point
        scaled2 = rhat([c * 4.0 for c in chains]).rhat[0]
        assert scaled2 == base
        scaled = rhat([c * 3.7 for c in chains]).rhat[0]
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_vector_percentiles(self):
        gen = np.random.default_rng(5)
        chains = [gen.standard_normal((50, 200)) for _ in range(2)]
        report = rhat(chains)
        assert report.rhat.shape == (200,)
        pct = report.percentiles()
        assert set(pct) == {25, 50, 75, 95}
        assert pct[25] <= pct[50] <= pct[75] <= pct[95]
        assert report.mean_rhat == pytest.approx(float(report.rhat.mean()))

    def test_blocked_series(self):
        gen = np.random.default_rng(6)
        t = np.arange(200)
        chains = [TraceSeries(t, gen.standard_normal(200)) for _ in range(2)]
        times, reports = rhat_series(chains, block=50)
        assert len(reports) == 4
        assert times[0] == pytest.approx(np.mean(np.arange(50)))

    def test_series_of_different_lengths_score_their_common_length(self):
        gen = np.random.default_rng(7)
        short, long = (TraceSeries(np.arange(k), gen.standard_normal(k)) for k in (170, 230))
        times, reports = rhat_series([short, long], block=50)
        trimmed = TraceSeries(long.times[:170], long.values[:170])
        want_times, want = rhat_series([short, trimmed], block=50)
        assert len(reports) == 3 and times.tolist() == want_times.tolist()
        assert [r.rhat.tobytes() for r in reports] == [r.rhat.tobytes() for r in want]


def series(values):
    values = np.asarray(values, dtype=float)
    return TraceSeries(np.arange(len(values)), values)


class TestStationarityOnset:
    def test_iid_noise_onset_at_first_window(self):
        gen = np.random.default_rng(8)
        s = series(gen.standard_normal(2000))
        assert stationarity_onset(s, window=50) == 0

    def test_ramp_then_plateau(self):
        gen = np.random.default_rng(9)
        ramp = np.linspace(10, 0, 600)
        plateau = gen.standard_normal(1400) * 0.5
        s = series(np.concatenate([ramp, plateau]))
        onset = stationarity_onset(s, window=50)
        assert onset is not None
        assert 600 - 50 <= onset <= 600 + 50

    def test_strictly_increasing_never(self):
        s = series(np.linspace(0, 100, 1000))
        assert stationarity_onset(s, window=50) is None

    def test_requires_two_windows(self):
        with pytest.raises(ValueError):
            stationarity_onset(series(np.zeros(30)), window=50)

    @pytest.mark.parametrize("window", [0, 1, -1])
    def test_window_below_two_refused(self, window):
        white = series(np.random.default_rng(16).standard_normal(40))
        with pytest.raises(ValueError, match=f"window must be >= 2, got {window}"):
            stationarity_onset(white, window)

    @pytest.mark.parametrize("tolerance", [0.0, np.nan, np.inf])
    def test_tolerance_not_positive_refused(self, tolerance):
        white = series(np.random.default_rng(17).standard_normal(400))
        with pytest.raises(ValueError, match=f"tolerance_sigmas must be > 0 and finite, got {tolerance}"):
            stationarity_onset(white, 50, tolerance)


class TestTeacherStudentMerge:
    def test_identical_series_merge_at_onset(self):
        gen = np.random.default_rng(10)
        values = gen.standard_normal(1500)
        informed = series(values)
        test = series(values.copy())
        when, phi = teacher_student_merge(informed, test, window=50)
        assert when == stationarity_onset(informed, 50)
        assert phi == pytest.approx(values.mean(), abs=0.1)

    def test_known_convergence_time(self):
        gen = np.random.default_rng(11)
        informed = series(5.0 + 0.3 * gen.standard_normal(3000))
        approach = np.concatenate([np.linspace(40, 5, 1000), 5.0 + 0.3 * gen.standard_normal(2000)])
        test = series(approach)
        when, phi = teacher_student_merge(informed, test, window=50)
        assert phi == pytest.approx(5.0, abs=0.05)
        assert when is not None
        assert 1000 - 50 <= when <= 1000 + 100

    def test_stuck_plateau_not_merged_while_rhat_near_one(self):
        # two chains stuck together above the informed equilibrium: the
        # variance-ratio check looks converged, the merge criterion does not
        gen = np.random.default_rng(12)
        informed = series(1.0 + 0.05 * gen.standard_normal(3000))
        stuck_a = 3.0 + 0.05 * gen.standard_normal(3000)
        stuck_b = 3.0 + 0.05 * gen.standard_normal(3000)
        when, phi = teacher_student_merge(informed, series(stuck_a), window=50)
        assert when is None
        assert phi == pytest.approx(1.0, abs=0.02)
        # both stuck chains are stationary, so the stationarity bound fires
        assert stationarity_onset(series(stuck_a), 50) == 0
        report = rhat([stuck_a[-500:], stuck_b[-500:]])
        assert abs(report.rhat[0] - 1.0) < 0.1

    def test_never_merges_before_informed_onset(self):
        gen = np.random.default_rng(13)
        ramp = np.concatenate([np.linspace(9, 0, 500), 0.2 * gen.standard_normal(2500)])
        informed = series(ramp)
        flat = series(0.2 * gen.standard_normal(3000))
        onset = stationarity_onset(informed, 50)
        when, _ = teacher_student_merge(informed, flat, window=50)
        assert when is not None and when >= onset

    def test_informed_not_stationary_raises(self):
        informed = series(np.linspace(0, 50, 1000))
        with pytest.raises(InformedNotStationary):
            teacher_student_merge(informed, series(np.zeros(1000) + np.random.default_rng(14).standard_normal(1000)), window=50)

    def test_log_scale_handles_exact_zero_start(self):
        gen = np.random.default_rng(15)
        vals = np.abs(1e-3 + 1e-4 * gen.standard_normal(2000))
        vals[0] = 0.0  # informed chains start at exactly zero error
        informed = TraceSeries(np.arange(2000), vals)
        when, phi = teacher_student_merge(informed, informed, window=50, log_values=True)
        assert np.isfinite(phi)


    @pytest.mark.parametrize("window, tolerance", [(0, 3.0), (1, 3.0), (-1, 3.0), (50, 0.0), (50, np.nan), (50, np.inf)])
    def test_bad_window_or_tolerance_refused(self, window, tolerance):
        gen = np.random.default_rng(18)
        informed, test = series(gen.standard_normal(400)), series(gen.standard_normal(400))
        with pytest.raises(ValueError, match="must be"):
            teacher_student_merge(informed, test, window=window, tolerance_sigmas=tolerance)


class TestMergeVerdicts:
    def test_window_zero_is_an_error_verdict(self):
        gen = np.random.default_rng(19)
        runs = {name: series(gen.standard_normal(400)) for name in ("informed", "zero", "random")}
        verdicts = merge_verdicts(runs, "informed", "w1_sqnorm", window=0, tolerance_sigmas=3.0)
        assert verdicts == {key: {"error": "window must be >= 2, got 0"} for key in ("zero", "random")}


class TestTraceSeries:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            TraceSeries(np.array([0, 0, 1]), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TraceSeries(np.arange(3), np.zeros(4))

    def test_vector_series_scalar_guard(self):
        s = TraceSeries(np.arange(2), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            s.scalar
