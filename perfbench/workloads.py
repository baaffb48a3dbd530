"""The four benchmark workloads, driven through nngibbs' public entry points.

Every workload is a closed loop with one caller. A run repeats episodes:
each episode performs the public set-up calls (timed as ``setup_s``),
then a fixed number of sampler steps from that fresh start. Because an
episode's work is fixed, its final state is a pure function of the seed
and the BLAS thread count, so every episode of a run, and every run with
the same seed, must give the same ``state_digest``.

Import this module only after the BLAS thread policy is set in the
environment: importing numpy starts the OpenBLAS thread pools.
"""
from __future__ import annotations

import contextlib
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from nngibbs import conv, datasets, diagnostics, gibbs, harness, kernels, network, posteriors, presets, samplers
from nngibbs.harness import ExperimentConfig
from nngibbs.kernels import RngStream

from spans import Tracer

# ts-2chain: 400 sweeps at spacing 10 give 41 records per chain, at least
# two merge windows of 20 records, so the merge verdict is computed.
TS_SWEEPS = 400
TS_SPACING = 10
TS_MERGE_WINDOW = 20
MLP_SWEEPS = 25
CNN_SWEEPS = 50
HMC_STEPS = 20
HMC_STEP_SIZE = 5e-5
HMC_LEAPFROG = 100

# Root span of one sampler step, per workload family.
SWEEP_SPAN = "gibbs.gibbs_sweep"
HMC_SPAN = "samplers.hmc_step"
# The benchmark's own span around the set-up calls of a library loop.
SETUP_SPAN = "bench.setup"


@dataclass
class Episode:
    """What one episode measured and what its output checks found."""

    setup_s: float
    step_ms: list[float]
    steps: int
    call_s: float
    chains: int
    failed_chains: int
    digest: str
    problems: list[str] = field(default_factory=list)
    chain_rates: list[float] = field(default_factory=list)
    # step times read from records rounded to this width (0: unrounded)
    step_resolution_ms: float = 0.0


def _digest_arrays(named: list[tuple[str, np.ndarray]]) -> str:
    h = hashlib.sha256()
    for name, arr in named:
        arr = np.ascontiguousarray(np.asarray(arr))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _state_arrays(state) -> list[tuple[str, np.ndarray]]:
    out = []
    for kind in ("W", "b", "X", "Z", "P"):
        for l, arr in sorted(getattr(state, kind).items()):
            if arr is not None:
                out.append((f"{kind}{l}", arr))
    return out


def _finite_problems(named) -> list[str]:
    return [f"{name} has non-finite values" for name, arr in named if not np.all(np.isfinite(arr))]


# -- ts-2chain ------------------------------------------------------------


def ts_config(seed: int) -> ExperimentConfig:
    return presets.get_preset(
        "ts-criterion",
        initializations=["informed", "zero"],
        sweeps=TS_SWEEPS,
        spacing=TS_SPACING,
        merge_window=TS_MERGE_WINDOW,
        seed=seed,
    )


def ts_setup(cfg: ExperimentConfig):
    """The set-up calls run_experiment makes: the dataset, then one start per chain."""
    dataset = harness.build_dataset(cfg, RngStream(cfg.seed, (10_000,)))
    for idx, kind in enumerate(cfg.initializations):
        harness.initialize_chain(kind, dataset, cfg.network, cfg.noise, cfg.prior, RngStream(cfg.seed, (idx,)).child(0))
    return dataset


def _trace_without_wall(path: Path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    return "\n".join(",".join(c for j, c in enumerate(line.split(",")) if j != 1) for line in lines)


def _check_merge(cfg, traces, summary) -> list[str]:
    """Recompute the zero chain's merge verdict from the written traces.

    The verdict counts as computed when it is a merge time, no merge, or
    the informed series having no stationarity onset yet; anything else,
    such as a series too short for two windows, is an error.
    """
    verdict = summary["merge"].get("chain1_zero")
    if verdict is None:
        return ["no merge verdict for chain1_zero"]
    obs = verdict["observable"]
    informed, zero = traces["chain0_informed"][obs], traces["chain1_zero"][obs]
    try:
        when, _phi = diagnostics.teacher_student_merge(
            diagnostics.TraceSeries(informed.times, informed.values),
            diagnostics.TraceSeries(zero.times, zero.values),
            window=cfg.merge_window,
            tolerance_sigmas=cfg.merge_tolerance,
            log_values=obs == "test_mse",
        )
    except diagnostics.InformedNotStationary as exc:
        return [] if verdict.get("error") == str(exc) else [f"merge verdict {verdict} disagrees with {exc}"]
    except ValueError as exc:
        return [f"merge verdict is an error: {exc}"]
    expected = None if when is None else int(when)
    if "error" in verdict or verdict.get("merge_time") != expected:
        return [f"merge verdict {verdict} disagrees with recomputed merge time {expected}"]
    return []


def ts_episode(cfg: ExperimentConfig, work_dir: Path, tracer: Tracer | None) -> Episode:
    t0 = time.perf_counter()
    ts_setup(cfg)
    setup_s = time.perf_counter() - t0

    out = work_dir / "ts-2chain"
    shutil.rmtree(out, ignore_errors=True)
    problems: list[str] = []
    if tracer is not None:
        install_tracing(tracer)
    t0 = time.perf_counter()
    try:
        summary = harness.run_experiment(cfg, out)
    finally:
        call_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()

    step_ms, rates, digest_parts, traces = [], [], [], {}
    failed = 0
    want_rows = cfg.sweeps // cfg.spacing + 1
    for chain in summary["chains"]:
        path = out / chain["file"]
        series = harness.read_trace(path)
        traces[chain["label"]] = series
        wall = next(iter(series.values())).wall
        chain_problems = [f"{chain['label']}: {p}" for p in _finite_problems([(k, s.values) for k, s in series.items()])]
        if len(wall) != want_rows:
            chain_problems.append(f"{chain['label']}: {len(wall)} records, expected {want_rows}")
        # the first interval also holds the chain's initialization
        step_ms += list(np.diff(wall)[1:] / cfg.spacing * 1e3)
        rates.append(cfg.sweeps / wall[-1])
        digest_parts.append(_trace_without_wall(path))
        failed += bool(chain_problems)
        problems += chain_problems
    merge_problems = _check_merge(cfg, traces, summary)
    if merge_problems:
        failed = max(failed, 1)
        problems += merge_problems
    digest_parts.append(repr(sorted(summary["merge"].items())))
    digest = hashlib.sha256("\n".join(digest_parts).encode()).hexdigest()[:16]
    chains = len(cfg.initializations)
    # trace files hold wall_s to the millisecond
    resolution = 1.0 / cfg.spacing
    return Episode(setup_s, step_ms, chains * cfg.sweeps, call_s, chains, failed, digest, problems, rates, resolution)


# -- library loops ----------------------------------------------------------


def _synthetic_preset(factory, seed: int, n: int) -> ExperimentConfig:
    """An MNIST preset on teacher-student data of MNIST shape."""
    return ExperimentConfig.from_dict(factory(seed=seed, dataset={"source": "synthetic", "n": n, "n_test": 1000}))


def mlp_config(seed: int) -> ExperimentConfig:
    return _synthetic_preset(presets.mnist_mlp_gibbs, seed, 500)


def cnn_config(seed: int) -> ExperimentConfig:
    return _synthetic_preset(presets.mnist_cnn_gibbs, seed, 300)


def hmc_config(seed: int) -> ExperimentConfig:
    return presets.get_preset("ts-criterion", initializations=["informed"], seed=seed)


def _setup_span(tracer: Tracer | None):
    return contextlib.nullcontext() if tracer is None else tracer.span(SETUP_SPAN)


def gibbs_setup(cfg: ExperimentConfig):
    dataset = harness.build_dataset(cfg, RngStream(cfg.seed, (10_000,)))
    state = harness.initialize_chain("zero", dataset, cfg.network, cfg.noise, cfg.prior, RngStream(cfg.seed, (0,)).child(0))
    return dataset, state


def gibbs_episode(cfg: ExperimentConfig, sweeps: int, tracer: Tracer | None) -> Episode:
    if tracer is not None:
        install_tracing(tracer)
    try:
        t0 = time.perf_counter()
        with _setup_span(tracer):
            _dataset, state = gibbs_setup(cfg)
        setup_s = time.perf_counter() - t0
        spec, noise, prior = cfg.network, cfg.noise, cfg.prior
        schedule = gibbs.SweepSchedule()
        rng = RngStream(cfg.seed, (0,)).child(1)
        step_ms = []
        for _ in range(sweeps):
            t0 = time.perf_counter()
            gibbs.gibbs_sweep(state, spec, noise, prior, schedule, rng)
            step_ms.append((time.perf_counter() - t0) * 1e3)
    finally:
        if tracer is not None:
            tracer.restore()

    named = _state_arrays(state)
    problems = _finite_problems(named)
    top = state.Z[spec.depth + 1]
    if not np.array_equal(np.argmax(top, axis=1), state.labels):
        problems.append("probit argmax constraint broken")
    if len(step_ms) != sweeps:
        problems.append(f"{len(step_ms)} sweeps recorded, expected {sweeps}")
    digest = _digest_arrays(named)
    return Episode(setup_s, step_ms, sweeps, sum(step_ms) / 1e3, 1, int(bool(problems)), digest, problems)


def hmc_setup(cfg: ExperimentConfig):
    dataset = harness.build_dataset(cfg, RngStream(cfg.seed, (10_000,)))
    init = harness.initialize_chain("informed", dataset, cfg.network, cfg.noise, cfg.prior, RngStream(cfg.seed, (0,)).child(0))
    target, packer = posteriors.make_intermediate_target(dataset, cfg.network, cfg.noise, cfg.prior)
    position = packer.pack({"W": init.W, "b": init.b, "X": init.X, "Z": init.Z, "P": init.P})
    return target, position


def hmc_episode(cfg: ExperimentConfig, steps: int, tracer: Tracer | None) -> Episode:
    if tracer is not None:
        install_tracing(tracer)
    try:
        t0 = time.perf_counter()
        with _setup_span(tracer):
            target, position = hmc_setup(cfg)
        setup_s = time.perf_counter() - t0
        settings = samplers.HmcSettings(HMC_STEP_SIZE, HMC_LEAPFROG)
        rng = RngStream(cfg.seed, (0,)).child(1)
        step_ms, accepted = [], 0
        for _ in range(steps):
            t0 = time.perf_counter()
            position, ok, _err = samplers.hmc_step(position, target, settings, rng)
            step_ms.append((time.perf_counter() - t0) * 1e3)
            accepted += bool(ok)
    finally:
        if tracer is not None:
            tracer.restore()

    problems = _finite_problems([("position", position)])
    if not 0.0 < accepted / steps <= 1.0:
        problems.append(f"acceptance {accepted}/{steps} outside (0, 1]")
    digest = _digest_arrays([("position", position)])
    return Episode(setup_s, step_ms, steps, sum(step_ms) / 1e3, 1, int(bool(problems)), digest, problems)


@dataclass(frozen=True)
class Runner:
    """One workload bound to a seed: its episode, its set-up alone, its
    root step span and the chains each episode runs."""

    episode: Callable[[Tracer | None], Episode]
    setup: Callable[[], object]  # the public set-up calls only
    root_span: str
    chains: int


def make_runner(workload: str, seed: int, work_dir: Path) -> Runner:
    if workload == "ts-2chain":
        cfg = ts_config(seed)
        return Runner(lambda tracer: ts_episode(cfg, work_dir, tracer), lambda: ts_setup(cfg), SWEEP_SPAN, 2)
    if workload == "mlp-probit":
        cfg = mlp_config(seed)
        return Runner(lambda tracer: gibbs_episode(cfg, MLP_SWEEPS, tracer), lambda: gibbs_setup(cfg), SWEEP_SPAN, 1)
    if workload == "cnn-probit":
        cfg = cnn_config(seed)
        return Runner(lambda tracer: gibbs_episode(cfg, CNN_SWEEPS, tracer), lambda: gibbs_setup(cfg), SWEEP_SPAN, 1)
    if workload == "hmc-intermediate":
        cfg = hmc_config(seed)
        return Runner(lambda tracer: hmc_episode(cfg, HMC_STEPS, tracer), lambda: hmc_setup(cfg), HMC_SPAN, 1)
    raise ValueError(f"unknown workload {workload!r}")


# -- tracing ----------------------------------------------------------------


def _layer_label(args) -> str:
    return f".l{args[0]}"


def _observe_truncated(span, args, kwargs, call):
    a = np.asarray(args[0])
    span.attrs["elements"] = a.size
    span.attrs["tail"] = int(np.count_nonzero(~(a <= kernels._TAIL_SPLIT)))
    return call(*args, **kwargs)


def _observe_cholesky(span, args, kwargs, call):
    want_jitter = kwargs.pop("return_jitter", args[1] if len(args) > 1 else False)
    factor, jitter = call(args[0], return_jitter=True, **kwargs)
    span.attrs["dim"] = factor.shape[0]
    span.attrs["jitter"] = jitter
    return (factor, jitter) if want_jitter else factor


def _observe_hmc(span, args, kwargs, call):
    result = call(*args, **kwargs)
    span.attrs["accepted"] = bool(result[1])
    span.attrs["energy_error"] = float(result[2])
    return result


# (owner, attribute, span name, label, observer); the owner is where the
# caller looks the name up.
TRACE_POINTS = [
    (kernels, "std_lower_truncated", "kernels.std_lower_truncated", None, _observe_truncated),
    (kernels, "trunc_norm_lower", "kernels.trunc_norm_lower", None, None),
    (kernels, "trunc_norm_upper", "kernels.trunc_norm_upper", None, None),
    (kernels, "cholesky_factor", "kernels.cholesky_factor", None, _observe_cholesky),
    (gibbs, "gibbs_sweep", SWEEP_SPAN, None, None),
    (gibbs, "z_branch_masses", "gibbs.z_branch_masses", None, None),
    (gibbs, "branch_prob_negative", "gibbs.branch_prob_negative", None, None),
    (gibbs, "sample_z_scalar", "gibbs.sample_z_scalar", None, None),
    (gibbs, "update_Z_layer", "gibbs.update_Z_layer", _layer_label, None),
    (gibbs, "dense_w_conditional", "gibbs.dense_w_conditional", None, None),
    (gibbs, "dense_x_conditional", "gibbs.dense_x_conditional", None, None),
    (gibbs, "draw_rows_from_precision", "gibbs.draw_rows_from_precision", None, None),
    (gibbs, "update_W_layer", "gibbs.update_W_layer", _layer_label, None),
    (gibbs, "update_X_layer", "gibbs.update_X_layer", _layer_label, None),
    (gibbs, "update_bias_layer", "gibbs.update_bias_layer", _layer_label, None),
    (gibbs, "update_probit_output", "gibbs.update_probit_output", None, None),
    (conv, "update_pool_X", "conv.update_pool_X", None, None),
    (conv.ConvIndexMap, "im2col", "conv.ConvIndexMap.im2col", None, None),
    (conv.ConvIndexMap, "conv_mean", "conv.ConvIndexMap.conv_mean", None, None),
    (conv, "conv_w_conditional", "conv.conv_w_conditional", None, None),
    (conv, "update_conv_bias", "conv.update_conv_bias", None, None),
    (harness._Observer, "observe_state", "harness.observe_state", None, None),
    (network, "predict", "network.predict", None, None),
    (diagnostics, "teacher_student_merge", "diagnostics.teacher_student_merge", None, None),
    (posteriors, "intermediate_log_posterior", "posteriors.intermediate_log_posterior", None, None),
    (posteriors.FlatPacker, "pack", "posteriors.FlatPacker.pack", None, None),
    (posteriors.FlatPacker, "unpack", "posteriors.FlatPacker.unpack", None, None),
    (samplers, "hmc_step", HMC_SPAN, None, _observe_hmc),
    (datasets, "generate_teacher_student", "datasets.generate_teacher_student", None, None),
    (harness, "initialize_chain", "harness.initialize_chain", None, None),
]

# Spans reported per set-up rather than per step.
SETUP_SPANS = ("datasets.generate_teacher_student", "harness.initialize_chain")

# Step spans reported as calls and self time per step; layer-indexed
# functions are listed once per layer the workloads have.
STEP_SPANS = (
    "kernels.std_lower_truncated",
    "kernels.trunc_norm_lower",
    "kernels.trunc_norm_upper",
    "kernels.cholesky_factor",
    "gibbs.gibbs_sweep",
    "gibbs.z_branch_masses",
    "gibbs.branch_prob_negative",
    "gibbs.sample_z_scalar",
    "gibbs.update_Z_layer.l2",
    "gibbs.dense_w_conditional",
    "gibbs.dense_x_conditional",
    "gibbs.draw_rows_from_precision",
    "gibbs.update_W_layer.l1",
    "gibbs.update_W_layer.l2",
    "gibbs.update_X_layer.l2",
    "gibbs.update_bias_layer.l1",
    "gibbs.update_bias_layer.l2",
    "gibbs.update_probit_output",
    "conv.update_pool_X",
    "conv.ConvIndexMap.im2col",
    "conv.ConvIndexMap.conv_mean",
    "conv.conv_w_conditional",
    "conv.update_conv_bias",
    "harness.observe_state",
    "network.predict",
    "diagnostics.teacher_student_merge",
    "posteriors.intermediate_log_posterior",
    "posteriors.FlatPacker.pack",
    "posteriors.FlatPacker.unpack",
    "samplers.hmc_step",
)


# Per-layer metric names and units, in report order.
LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in STEP_SPANS for kind, unit in (("calls", "count/step"), ("self_ms", "ms/step"))},
    **{f"{name}.{kind}": unit for name in SETUP_SPANS for kind, unit in (("setup_calls", "count/setup"), ("setup_ms", "ms/setup"))},
    "kernels.std_lower_truncated.elements": "count/step",
    "kernels.std_lower_truncated.tail_frac": "frac",
    "kernels.cholesky_factor.dim_max": "count",
    "kernels.cholesky_factor.jitter_calls": "count/step",
    "samplers.hmc_step.accept_frac": "frac",
    "samplers.hmc_step.abs_energy_error_p50": "nat",
    "harness.chain_sweeps_per_s": "1/s",
    "harness.chain_skew": "frac",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
}


def install_tracing(tracer: Tracer) -> None:
    for owner, attr, name, label, observe in TRACE_POINTS:
        tracer.wrap(owner, attr, name, label=label, observe=observe)
