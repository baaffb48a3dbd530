"""Thermalization diagnostics: the pooled/within variance-ratio statistic
over parallel chains, windowed stationarity detection, and the
informed-chain merge criterion.

The merge criterion exploits a synthetic-data fact: a chain started at
the generating network is already an equilibrium sample, so its
observable series pins down the equilibrium level that any other chain
must reach and hold before it can be called thermalized. Variance-ratio
and score checks fire much earlier on stuck chains, which is exactly the
gap the merge criterion exposes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateVariance",
    "InformedNotStationary",
    "TraceSeries",
    "RhatReport",
    "rhat",
    "rhat_series",
    "stationarity_onset",
    "teacher_student_merge",
    "merge_verdicts",
]


class DegenerateVariance(Exception):
    """A chain has zero within-chain variance, the ratio is undefined."""


class InformedNotStationary(Exception):
    """The informed reference series never settles, no equilibrium value."""


@dataclass
class TraceSeries:
    """Time-indexed observable records of one chain."""

    times: np.ndarray
    values: np.ndarray
    wall: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if len(self.times) != len(self.values):
            raise ValueError("times and values lengths differ")
        if len(self.times) > 1 and not np.all(np.diff(self.times.astype(float)) > 0):
            raise ValueError("times must be strictly increasing")
        if self.values.ndim > 2:
            raise ValueError("values must be scalar or vector per time")

    @property
    def scalar(self) -> np.ndarray:
        if self.values.ndim == 2 and self.values.shape[1] != 1:
            raise ValueError("series is vector-valued; pick a coordinate first")
        return self.values.reshape(len(self.times))


@dataclass
class RhatReport:
    """Per-coordinate variance-ratio decomposition across chains."""

    between_chain: np.ndarray  # B/N
    pooled_variance: np.ndarray  # sigma^2_+
    rhat: np.ndarray

    @property
    def mean_rhat(self) -> float:
        return float(np.mean(self.rhat))

    def percentiles(self) -> dict[int, float]:
        """The 25th, 50th, 75th and 95th percentiles of the per-coordinate R-hat."""
        return {q: float(np.percentile(self.rhat, q)) for q in (25, 50, 75, 95)}


def rhat(chains) -> RhatReport:
    """Variance-ratio statistic over M >= 2 equal-length chains.

    With chain means psi_m and grand mean psi, B/N is the variance of the
    chain means, W the average within-chain variance,
    sigma^2_+ = (N-1)/N W + B/N the pooled estimator, and
    Rhat = (M+1)/M sigma^2_+ / W - (N-1)/(M N), all per coordinate.
    """
    arrs = [np.asarray(c, dtype=float) for c in chains]
    if len(arrs) < 2:
        raise ValueError("need at least two chains")
    arrs = [a.reshape(a.shape[0], -1) for a in arrs]
    n = arrs[0].shape[0]
    if n < 2:
        raise ValueError("need at least two samples per chain")
    if any(a.shape != arrs[0].shape for a in arrs):
        raise ValueError("chains must have equal shapes")
    psi = np.stack(arrs)  # (M, N, k)
    m = psi.shape[0]
    chain_means = psi.mean(axis=1)  # (M, k)
    grand = chain_means.mean(axis=0)
    b_over_n = np.sum((chain_means - grand) ** 2, axis=0) / (m - 1)
    within = np.sum((psi - chain_means[:, None, :]) ** 2, axis=(0, 1)) / (m * (n - 1))
    if np.any(within == 0.0):
        raise DegenerateVariance("a coordinate has zero within-chain variance")
    pooled = (n - 1) / n * within + b_over_n
    r = (m + 1) / m * pooled / within - (n - 1) / (m * n)
    return RhatReport(between_chain=b_over_n, pooled_variance=pooled, rhat=r)


def rhat_series(chains: list[TraceSeries], block: int = 50):
    """Variance-ratio reports along time, one per block.

    Follows the measurement protocol of splitting each chain into
    consecutive blocks of ``block`` records and scoring each block.
    Chains of different lengths are scored over their common length, the
    shortest chain's; block times are the first chain's. Returns (block
    mid times, list of RhatReport).
    """
    length = min(len(c.times) for c in chains)
    n_blocks = length // block
    times, reports = [], []
    for j in range(n_blocks):
        sl = slice(j * block, (j + 1) * block)
        reports.append(rhat([c.values[sl] for c in chains]))
        tb = chains[0].times[sl]
        times.append(float(np.mean(tb.astype(float))))
    return np.asarray(times), reports


def _check_window(window: int, tolerance_sigmas: float):
    # a window's variance takes two samples; a band of width 0 or NaN
    # accepts nothing, and an infinite one accepts everything
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if not 0 < tolerance_sigmas < np.inf:
        raise ValueError(f"tolerance_sigmas must be > 0 and finite, got {tolerance_sigmas}")


def _window_stats(values: np.ndarray, window: int):
    n_windows = len(values) // window
    trimmed = values[: n_windows * window].reshape(n_windows, window)
    return trimmed.mean(axis=1), trimmed.var(axis=1, ddof=1)


def _range_threshold(tolerance_sigmas: float, se: float, n_windows: int) -> float:
    # widen with the number of windows compared so an equilibrated series
    # of any length passes: the max spread of k window means grows ~sqrt(ln k)
    return tolerance_sigmas * se * np.sqrt(max(1.0, np.log(n_windows)))


def stationarity_onset(series: TraceSeries, window: int, tolerance_sigmas: float = 3.0):
    """Earliest time from which the series looks flat, else None.

    Scans window boundaries; from a candidate onward, all disjoint
    window means must agree pairwise within the tolerance measured in
    standard errors of a window-mean difference (multiplicity-widened).
    Resolution is one window.
    """
    _check_window(window, tolerance_sigmas)
    values = series.scalar
    if len(values) < 2 * window:
        raise ValueError("series must cover at least two windows")
    means, variances = _window_stats(values, window)
    n_windows = len(means)
    for start in range(0, n_windows - 1):
        m = means[start:]
        pooled_sd = float(np.sqrt(np.mean(variances[start:])))
        se = pooled_sd * np.sqrt(2.0 / window)
        spread = float(m.max() - m.min())
        if spread <= _range_threshold(tolerance_sigmas, se, len(m)):
            return series.times[start * window]
    return None


def teacher_student_merge(
    informed: TraceSeries,
    test: TraceSeries,
    window: int = 50,
    tolerance_sigmas: float = 3.0,
    log_values: bool = False,
):
    """Merge time of a test chain onto the informed chain's equilibrium.

    The informed series fixes the equilibrium level (its mean after its
    own stationarity onset); the merge time is the earliest window
    boundary, never before that onset, from which every subsequent test
    window mean stays within the tolerance band around that level. Bad
    windows and tolerances raise ValueError, as in ``stationarity_onset``.
    Returns (merge time or None, equilibrium value).
    """
    inf_series = informed
    test_series = test
    if log_values:
        # an exact-teacher start has observable 0; clamp it to the smallest
        # positive value seen so the log outlier stays on the series' scale
        both = np.concatenate([informed.scalar, test.scalar])
        positive = both[both > 0.0]
        floor = float(positive.min()) if len(positive) else np.finfo(float).tiny
        inf_series = TraceSeries(informed.times, np.log(np.maximum(informed.scalar, floor)))
        test_series = TraceSeries(test.times, np.log(np.maximum(test.scalar, floor)))
    onset = stationarity_onset(inf_series, window, tolerance_sigmas)
    if onset is None:
        raise InformedNotStationary("informed series has no stationarity onset")
    eq_values = inf_series.scalar[inf_series.times >= onset]
    phi_bar = float(eq_values.mean())
    phi_se = float(eq_values.std(ddof=1) / np.sqrt(len(eq_values))) if len(eq_values) > 1 else 0.0
    # the tolerance band is set by the equilibrium fluctuation scale, not
    # by the test chain's own (transient-inflated) variance
    eq_sd = float(eq_values.std(ddof=1)) if len(eq_values) > 1 else 0.0

    values = test_series.scalar
    means, _variances = _window_stats(values, window)
    n_windows = len(means)
    start_min = 0
    while start_min < n_windows and test_series.times[start_min * window] < onset:
        start_min += 1
    se = float(np.sqrt(eq_sd**2 / window + phi_se**2))
    for start in range(start_min, n_windows):
        m = means[start:]
        dev = float(np.abs(m - phi_bar).max())
        if dev <= _range_threshold(tolerance_sigmas, se, len(m)):
            return test_series.times[start * window], phi_bar
    return None, phi_bar


def merge_verdicts(series: dict, informed, observable: str, window: int, tolerance_sigmas: float) -> dict:
    """``teacher_student_merge`` of every series against ``series[informed]``.

    Each other key maps to ``{"merge_time", "equilibrium"}``, or to
    ``{"error"}`` when the informed series never settles, a series is too
    short for two windows, or the window or tolerance is out of range.
    ``test_mse`` is compared on a log scale.
    """
    verdicts = {}
    for key, test in series.items():
        if key == informed:
            continue
        try:
            when, phi = teacher_student_merge(
                series[informed],
                test,
                window=window,
                tolerance_sigmas=tolerance_sigmas,
                log_values=observable == "test_mse",
            )
            verdicts[key] = {"merge_time": None if when is None else int(when), "equilibrium": phi}
        except (InformedNotStationary, ValueError) as exc:
            verdicts[key] = {"error": str(exc)}
    return verdicts
