"""nngibbs benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` one workload runs in this process, under its BLAS
thread policy, for about S seconds of measurement. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (chains) and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. The line
before it holds the details: environment, sample counts, output checks
and the ``state_digest``.

``--all`` runs every workload, each in a fresh process, and prints one
table of every metric with its unit and sample count.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

# OpenBLAS threads per workload; None keeps the machine's default. Only
# mlp-probit runs at the default, where oversubscription shows.
BLAS_POLICY = {"ts-2chain": 1, "mlp-probit": None, "cnn-probit": 1, "hmc-intermediate": 1}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Workloads whose process is held to one CPU. ts-2chain's two chain
# threads share it: on a 2-vCPU VM of a shared host, keeping both vCPUs
# busy let the hypervisor take 13-31% of the CPU time (steal), against
# 2-4% with one busy, and the step times moved with it from run to run.
ONE_CPU = {"ts-2chain"}

# Set-ups timed alone before each untraced episode; the episode's own
# set-up is one more sample.
SETUP_REPS = 3
CHILD_TIMEOUT_S = 180

E2E_UNITS = {
    "setup_s": "s",
    "sweeps_per_s": "1/s",
    "sweep_ms_p50": "ms",
    "sweep_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "chains_ok_frac": "frac",
}


def set_blas_policy(threads: int | None) -> None:
    """Must run before numpy is imported: the pools read these at load."""
    for var in BLAS_ENV:
        os.environ.pop(var, None)
    if threads is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = str(threads)


def set_cpu_policy(workload: str) -> None:
    """Must run before any thread starts: threads inherit the affinity."""
    if workload in ONE_CPU:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _openblas_pools() -> dict:
    """Live thread counts and build strings of the two bundled OpenBLAS
    copies: numpy's 64-bit-integer one and scipy's."""
    pools = {
        "numpy": ("libscipy_openblas64_", "scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
        "scipy": ("libscipy_openblas-", "scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    }
    with open("/proc/self/maps", encoding="utf-8") as fh:
        loaded = {line.split()[-1] for line in fh if ".so" in line}
    out = {}
    for owner, (stem, get_threads, get_config) in pools.items():
        path = next((p for p in sorted(loaded) if Path(p).name.startswith(stem)), None)
        if path is None:
            out[owner] = {"library": None, "threads": None}
            continue
        lib = ctypes.CDLL(path)
        threads_fn = getattr(lib, get_threads)
        threads_fn.argtypes, threads_fn.restype = [], ctypes.c_int
        config_fn = getattr(lib, get_config)
        config_fn.argtypes, config_fn.restype = [], ctypes.c_char_p
        out[owner] = {"library": Path(path).name, "threads": threads_fn(), "config": config_fn().decode()}
    return out


def environment(workload: str) -> dict:
    import numpy
    import scipy

    policy = BLAS_POLICY[workload]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_policy": "default" if policy is None else f"{policy} thread",
        "openblas": _openblas_pools(),
    }


def quantile(xs: list[float], q: float, width: float = 0.0) -> float:
    """The q-quantile of ``xs``. With ``width`` > 0 the values are taken as
    rounded to multiples of ``width`` and the quantile is interpolated
    inside the class that holds it, as ``statistics.median_grouped`` does
    for the median; otherwise it is the exclusive-method quantile."""
    if width <= 0.0:
        return statistics.median(xs) if q == 0.5 else statistics.quantiles(xs, n=100)[round(q * 100) - 1]
    counts = Counter(round(x / width) for x in xs)
    target, below = q * len(xs), 0
    for k in sorted(counts):
        if below + counts[k] >= target:
            return (k - 0.5 + (target - below) / counts[k]) * width
        below += counts[k]
    raise ValueError("empty sample")


def measure(runner, seconds: float, tracer):
    """Run episodes until the run ends as near to ``seconds`` as whole
    episodes allow: stop once the next one would end more than half an
    episode past it. With a tracer, untraced and traced episodes
    alternate, at least one each.

    Before each untraced episode the set-up alone is timed ``SETUP_REPS``
    times, so the set-up samples are spread over the run as the step
    samples are, and a slow spell of the machine weighs on both alike.
    """
    setup_s, untraced, traced, errors = [], [], [], []
    start = time.perf_counter()
    while True:
        traced_turn = tracer is not None and len(untraced) > len(traced)
        t0 = time.perf_counter()
        try:
            for _ in range(0 if traced_turn else SETUP_REPS):
                t1 = time.perf_counter()
                runner.setup()
                setup_s.append(time.perf_counter() - t1)
            episode = runner.episode(tracer if traced_turn else None)
        except Exception:  # a failing program is a result: count its chains as failed
            errors.append(traceback.format_exc())
            break
        (traced if traced_turn else untraced).append(episode)
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took / 2 > seconds and (tracer is None or traced):
            break
    setup_s += [ep.setup_s for ep in untraced]
    return setup_s, untraced, traced, errors


def e2e_metrics(setup_s, episodes) -> tuple[dict, dict]:
    """Rates and step quantiles are taken per episode and reported as the
    median over the run's episodes, so a slow spell of the machine that
    covers a minority of the episodes does not move them."""
    step_ms = [x for ep in episodes for x in ep.step_ms]

    def step_quantile(q):
        return statistics.median(quantile(ep.step_ms, q, ep.step_resolution_ms) for ep in episodes)

    steps = sum(ep.steps for ep in episodes)
    chains = sum(ep.chains for ep in episodes)
    failed = sum(ep.failed_chains for ep in episodes)
    values = {
        "setup_s": statistics.median(setup_s),
        "sweeps_per_s": statistics.median(ep.steps / ep.call_s for ep in episodes),
        "sweep_ms_p50": step_quantile(0.5),
        "sweep_ms_p90": step_quantile(0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "chains_ok_frac": 1.0 - failed / chains,
    }
    samples = {
        "setup_s": len(setup_s),
        "sweeps_per_s": steps,
        "sweep_ms_p50": len(step_ms),
        "sweep_ms_p90": len(step_ms),
        "peak_rss_mb": 1,
        "chains_ok_frac": chains,
    }
    return values, samples


def layer_metrics(runner, tracer, untraced, traced) -> tuple[dict, dict]:
    from workloads import SETUP_SPAN, SETUP_SPANS, STEP_SPANS

    roots = tracer.roots(runner.root_span)
    steps = len(roots)
    setup_roots = [r for name in SETUP_SPANS for r in tracer.roots(name)]
    in_setup = {id(s) for s in tracer.descendants(setup_roots + tracer.roots(SETUP_SPAN))}
    spans = [s for s in tracer.spans if id(s) not in in_setup]
    totals = tracer.totals(spans)

    def by_name(name):
        return [s for s in spans if s.name == name]

    values: dict[str, float | None] = {}
    # spans inside a step are missing, not zero, when no step ran in this process
    per_step = (lambda x: x / steps) if steps else (lambda x: None)
    for name in STEP_SPANS:
        t = totals.get(name, {"calls": 0, "self": 0.0})
        values[f"{name}.calls"] = per_step(t["calls"])
        values[f"{name}.self_ms"] = per_step(t["self"] * 1e3)
    # set-up calls are reported whole (children included), per set-up
    episodes = len(traced)
    for name in SETUP_SPANS:
        calls = [r for r in setup_roots if r.name == name]
        values[f"{name}.setup_calls"] = len(calls) / episodes
        values[f"{name}.setup_ms"] = sum(r.duration for r in calls) * 1e3 / episodes

    trunc = by_name("kernels.std_lower_truncated")
    elements = sum(s.attrs["elements"] for s in trunc)
    values["kernels.std_lower_truncated.elements"] = per_step(elements)
    values["kernels.std_lower_truncated.tail_frac"] = sum(s.attrs["tail"] for s in trunc) / elements if elements else 0.0
    chol = by_name("kernels.cholesky_factor")
    values["kernels.cholesky_factor.dim_max"] = max((s.attrs["dim"] for s in chol), default=0)
    values["kernels.cholesky_factor.jitter_calls"] = per_step(sum(s.attrs["jitter"] > 0 for s in chol))
    hmc = by_name("samplers.hmc_step")
    values["samplers.hmc_step.accept_frac"] = sum(s.attrs["accepted"] for s in hmc) / len(hmc) if hmc else 0.0
    values["samplers.hmc_step.abs_energy_error_p50"] = (
        statistics.median(abs(s.attrs["energy_error"]) for s in hmc) if hmc else 0.0
    )

    # per-chain rates come from the chains' own records (trace CSV wall
    # clocks for ts-2chain, the step timer for the library loops)
    rates = [r for ep in traced for r in (ep.chain_rates or [ep.steps / ep.call_s])]
    values["harness.chain_sweeps_per_s"] = statistics.median(rates)
    values["harness.chain_skew"] = statistics.median(
        max(ep.chain_rates) / min(ep.chain_rates) - 1.0 if ep.chain_rates else 0.0 for ep in traced
    )
    duration = sum(r.duration for r in roots)
    values["trace.coverage"] = sum(r.child_time for r in roots) / duration if roots else None
    traced_ms = [x for ep in traced for x in ep.step_ms]
    untraced_ms = [x for ep in untraced for x in ep.step_ms]
    width = traced[0].step_resolution_ms
    values["trace.overhead_frac"] = quantile(traced_ms, 0.5, width) / quantile(untraced_ms, 0.5, width) - 1.0

    samples = {name: steps for name in values}
    samples.update({f"{n}.{k}": episodes for n in SETUP_SPANS for k in ("setup_calls", "setup_ms")})
    samples["trace.overhead_frac"] = min(len(traced_ms), len(untraced_ms))
    return values, samples


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    set_blas_policy(BLAS_POLICY[workload])
    set_cpu_policy(workload)
    sys.path.insert(0, str(SRC))
    import nngibbs

    if Path(nngibbs.__file__).resolve().parent != (SRC / "nngibbs").resolve():
        print(f"error: imported nngibbs from {nngibbs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import LAYER_UNITS, make_runner

    WORK_DIR.mkdir(exist_ok=True)
    try:
        runner = make_runner(workload, seed, WORK_DIR)
        tracer = Tracer() if trace else None
        setup_s, untraced, traced, errors = measure(runner, seconds, tracer)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    done = untraced + traced
    problems = [p for ep in done for p in ep.problems] + errors
    digests = sorted({ep.digest for ep in done})
    if len(digests) > 1:
        problems.append(f"episodes disagree on the state digest: {digests}")
    attempted = sum(ep.chains for ep in done) + runner.chains * len(errors)
    failed = sum(ep.failed_chains for ep in done) + runner.chains * len(errors)
    if len(digests) > 1:
        failed = max(failed, 1)

    values, samples = {}, {}
    if untraced and (traced or not trace):
        if trace:
            values, samples = layer_metrics(runner, tracer, untraced, traced)
        else:
            values, samples = e2e_metrics(setup_s, untraced)
    units = LAYER_UNITS if trace else E2E_UNITS
    env = environment(workload)
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "episodes": {"untraced": len(untraced), "traced": len(traced)},
        "state_digest": digests[0] if len(digests) == 1 else None,
        "blas_threads": {k: v["threads"] for k, v in env["openblas"].items()},
        "failed_frac": failed / attempted,
        "problems": problems,
        "samples": samples,
        "env": env,
    }
    for name, value in values.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{workload:>17} {name:<48} {shown:>12} {units[name]:<10} n={samples[name]}")
    for problem in problems:
        print(f"{workload:>17} check failed: {problem}")
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own fresh process, then one table."""
    rows, status = [], 0
    for workload in BLAS_POLICY:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: exited with code {proc.returncode}")
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows.append((workload, detail, result))
    for workload, detail, result in rows:
        blas = ",".join(f"{k}={v}" for k, v in sorted(detail["blas_threads"].items()))
        print(f"\n{workload}  blas {detail['env']['blas_policy']} ({blas})  state_digest {detail['state_digest']}"
              f"  failed_frac {detail['failed_frac']:.3g} ({result['failed']}/{result['attempted']} chains)")
        for name, metric in result["metrics"].items():
            shown = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
            print(f"  {name:<48} {shown:>12} {metric['unit']:<10} n={detail['samples'][name]}")
        for problem in detail["problems"]:
            print(f"  check failed: {problem}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(BLAS_POLICY))
    which.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "nngibbs" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'nngibbs'})", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
