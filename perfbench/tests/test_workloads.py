"""Tracing must not change what the sampler computes, and the benchmark
description must match what the runner reports."""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as w
from spans import Tracer

BENCH = Path(__file__).resolve().parents[1]


def _small_episode(name, tmp_path):
    if name == "ts-2chain":
        cfg = dataclasses.replace(w.ts_config(0), sweeps=40, merge_window=2)
        return lambda tracer: w.ts_episode(cfg, tmp_path, tracer)
    if name == "mlp-probit":
        return lambda tracer: w.gibbs_episode(w.mlp_config(0), 2, tracer)
    if name == "cnn-probit":
        return lambda tracer: w.gibbs_episode(w.cnn_config(0), 2, tracer)
    return lambda tracer: w.hmc_episode(w.hmc_config(0), 2, tracer)


@pytest.mark.parametrize("name", sorted(run.BLAS_POLICY))
def test_traced_and_untraced_runs_share_the_state_digest(name, tmp_path):
    episode = _small_episode(name, tmp_path)
    plain = episode(None)
    tracer = Tracer()
    traced = episode(tracer)
    assert plain.problems == [] and traced.problems == []
    assert plain.digest == traced.digest
    assert tracer._patches == []
    root = w.HMC_SPAN if name == "hmc-intermediate" else w.SWEEP_SPAN
    assert len(tracer.roots(root)) == plain.steps


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == w.LAYER_UNITS
    assert [wl["name"] for wl in spec["workloads"]] == list(run.BLAS_POLICY)


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{BENCH.name}/run.py", "--workload", "ts-2chain", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_cholesky_wrapper_counts_jitter_and_returns_what_the_caller_asked_for():
    import numpy as np
    from nngibbs import kernels

    singular = np.ones((3, 3))
    tracer = Tracer()
    tracer.wrap(kernels, "cholesky_factor", "kernels.cholesky_factor", observe=w._observe_cholesky)
    try:
        factor = kernels.cholesky_factor(singular)
        pair = kernels.cholesky_factor(singular, return_jitter=True)
    finally:
        tracer.restore()
    expected, jitter = kernels.cholesky_factor(singular, return_jitter=True)
    assert jitter > 0.0
    assert np.array_equal(factor, expected) and np.array_equal(pair[0], expected) and pair[1] == jitter
    assert [s.attrs for s in tracer.spans] == [{"dim": 3, "jitter": jitter}] * 2


def test_end_to_end_rates_and_quantiles_are_medians_over_episodes():
    def episode(ms):
        return w.Episode(0.01, [ms] * 10, 10, ms * 10 / 1e3, 1, 0, "d")

    values, samples = run.e2e_metrics([0.01], [episode(100.0), episode(100.0), episode(300.0)])
    assert values["sweeps_per_s"] == pytest.approx(10.0)
    assert values["sweep_ms_p50"] == pytest.approx(100.0)
    assert values["sweep_ms_p90"] == pytest.approx(100.0)
    assert samples["sweep_ms_p90"] == 30
