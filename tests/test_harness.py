"""Harness behaviors: config validation and round trips, chain
initializations, deterministic trace files, merge verdicts, and the CLI
surface."""
import dataclasses
import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest

from conftest import validate_state
from nngibbs import gibbs, posteriors
from nngibbs.cli import main as cli_main
from nngibbs.datasets import InputError, generate_teacher_student, save_dataset
from nngibbs.gibbs import SweepSchedule, gibbs_sweep
from nngibbs.harness import (
    ConfigError,
    DatasetConfig,
    ExperimentConfig,
    _Observer,
    build_dataset,
    initialize_chain,
    read_trace,
    run_experiment,
    SamplerConfig,
)
from nngibbs.kernels import RngStream
from nngibbs.network import (
    Activation,
    DenseLayer,
    NetworkSpec,
    NoiseSchedule,
    PriorSpec,
    predict,
)
from nngibbs.presets import PRESETS, get_preset, mnist_cnn_gibbs, mnist_mlp_gibbs, preset_names, ts_criterion


def base_config(**over):
    raw = {
        "seed": 5,
        "sweeps": 60,
        "spacing": 10,
        "network": {
            "activation": "relu",
            "output": "regression",
            "layers": [
                {"kind": "dense", "in_width": 6, "out_width": 3, "has_bias": True},
                {"kind": "dense", "in_width": 3, "out_width": 1, "has_bias": True},
            ],
        },
        "noise": {"delta": 1e-2},
        "prior": {"mode": "fan_in"},
        "dataset": {"source": "synthetic", "n": 40, "n_test": 30},
        "sampler": {"kind": "gibbs", "posterior": "intermediate"},
        "initializations": ["informed", "zero"],
    }
    raw.update(over)
    return raw


def conv_pool_network(i, key, value):
    """A conv -> pool -> dense network whose layer i has ``key`` set to ``value``."""
    layers = [
        {"kind": "conv", "channels_in": 1, "channels_out": 2, "in_height": 6, "in_width": 6, "filter_height": 3, "filter_width": 3},
        {"kind": "pool", "channels": 2, "in_height": 4, "in_width": 4, "window_height": 2, "window_width": 2},
        {"kind": "dense", "in_width": 8, "out_width": 1},
    ]
    layers[i][key] = value
    return {"activation": "relu", "output": "regression", "layers": layers}


class TestConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig.from_dict(base_config())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        third = ExperimentConfig.from_dict(json.loads(again.to_json()))
        assert third == cfg

    def test_gibbs_forbids_classical(self):
        with pytest.raises(ConfigError, match="sampler.posterior"):
            ExperimentConfig.from_dict(base_config(sampler={"kind": "gibbs", "posterior": "classical"}))

    def test_informed_requires_synthetic(self):
        raw = base_config(dataset={"source": "idx", "images": "img.idx", "labels": "lab.idx"})
        with pytest.raises(ConfigError, match="initializations"):
            ExperimentConfig.from_dict(raw)

    def test_field_paths_in_errors(self):
        raw = base_config()
        del raw["network"]["layers"][0]["in_width"]
        with pytest.raises(ConfigError, match=r"network.layers\[0\]"):
            ExperimentConfig.from_dict(raw)
        raw2 = base_config(dataset={"source": "nowhere"})
        with pytest.raises(ConfigError, match="dataset.source"):
            ExperimentConfig.from_dict(raw2)

    def test_hmc_needs_settings(self):
        with pytest.raises(ConfigError, match="sampler"):
            ExperimentConfig.from_dict(base_config(sampler={"kind": "hmc", "posterior": "classical"}))

    @pytest.mark.parametrize("key", ["schedule_mode", "workers", "schedule"])
    def test_removed_schedule_keys_rejected(self, key):
        # the sweep has one block order; configs naming the old selector no longer load
        value = {"schedule_mode": "sequential", "workers": 1, "schedule": {"mode": "sequential", "workers": 1}}[key]
        sampler = {"kind": "gibbs", "posterior": "intermediate", key: value}
        with pytest.raises(ConfigError, match=rf"sampler\.{key}: unknown field"):
            ExperimentConfig.from_dict(base_config(sampler=sampler))

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("sampler", "schedule"), "sequential", r"sampler\.schedule:"),
            (("sweeps",), "many", r"sweeps:"),
            (("network", "layers", 0, "in_width"), "6", r"network\.layers\[0\]\.in_width:"),
            (("network", "layers", 1, "bias"), True, r"network\.layers\[1\]\.bias:"),
            (("initializations",), "zero", r"initializations: expected a list"),
            (("initializations",), 3, r"initializations: expected a list"),
            (("max_seconds",), "soon", r"max_seconds: expected a number"),
            (("dataset", "n_test"), "many", r"dataset\.n_test: expected an integer"),
            (("dataset", "n"), "many", r"dataset\.n: expected an integer"),
            (("dataset", "delta_gen"), "tiny", r"dataset\.delta_gen: expected a number"),
            (("sampler", "step_size"), "big", r"sampler\.step_size: expected a number"),
            (("sampler",), {"kind": "hmc", "step_size": 1e-3, "leapfrog_steps": 2.5}, r"sampler\.leapfrog_steps: expected an integer"),
            (("sweeps",), 2.7, r"sweeps: expected an integer"),
            (("sweeps",), "60", r"sweeps: expected an integer"),
            (("dataset", "noiseless"), "false", r"dataset\.noiseless: expected true or false"),
            (("dataset", "subset"), "abc", r"dataset\.subset: expected an integer, got 'abc'"),
            (("dataset", "delta-gen"), 0.1, r"dataset\.delta-gen: unknown field"),
            (("sweep",), 60, r"sweep: unknown field"),
            (("noise", "delta"), "x", r"noise\.delta: expected a number"),
            (("noise",), {"delta_z": [1, 2]}, r"noise\.delta_z: expected an object"),
            (("network", "layers"), 5, r"network\.layers: expected a list"),
            (("prior",), {"lambda_w": {"1": 1.0}}, r"prior\.lambda_w\[2\]: missing"),
            (("prior",), {"lambda_w": {"1": 1.0, "2": 1.0}}, r"prior\.lambda_b\[1\]: missing"),
            (("noise",), {"delta_z": {"2": 0.01}, "delta_x": {"2": 0.01}}, r"noise\.delta_z\[3\]: missing"),
            (("noise",), {"delta_z": {"2": 0.01, "3": 0.01}}, r"noise\.delta_x\[2\]: missing"),
            (("noise",), {"delta_z": {"2": 0.01, "3": 0.01, "4": 1.0}, "delta_x": {"2": 0.01}}, r"noise\.delta_z\[4\]: no such layer"),
            (("seed",), -1, r"seed: must be >= 0"),
            (("merge_window",), 1, r"merge_window: must be >= 2"),
            (("dataset", "n"), 0, r"dataset\.n: must be >= 1"),
            (("dataset", "n_test"), -1, r"dataset\.n_test: must be >= 0"),
            (("dataset", "subset"), -1, r"dataset\.subset: must be >= 1"),
            (("dataset", "test_subset"), 0, r"dataset\.test_subset: must be >= 1"),
            (("max_seconds",), -5, r"max_seconds: must be > 0"),
            (("merge_tolerance",), 0, r"merge_tolerance: must be > 0"),
            (("merge_tolerance",), math.inf, r"merge_tolerance: must be > 0 and finite, got inf"),
            (("initializations",), ["gaussian:abc"], r"initializations: 'gaussian:abc' needs a finite positive scale"),
            (("initializations",), ["gaussian:-1"], r"initializations: 'gaussian:-1' needs a finite positive scale"),
            (("network",), conv_pool_network(1, "window_height", 0), r"network\.layers\[1\]: window_height must be at least 1, got 0"),
            (("network",), conv_pool_network(1, "window_width", -1), r"network\.layers\[1\]: window_width must be at least 1, got -1"),
            (("network",), conv_pool_network(1, "channels", 0), r"network\.layers\[1\]: channels must be at least 1, got 0"),
            (("network",), conv_pool_network(0, "filter_height", 0), r"network\.layers\[0\]: filter_height must be at least 1, got 0"),
            (("network",), conv_pool_network(0, "channels_in", 0), r"network\.layers\[0\]: channels_in must be at least 1, got 0"),
            (("network",), conv_pool_network(0, "channels_out", 0), r"network\.layers\[0\]: channels_out must be at least 1, got 0"),
            (("network",), conv_pool_network(0, "in_width", -3), r"network\.layers\[0\]: in_width must be at least 1, got -3"),
            (("network",), conv_pool_network(0, "stride_x", 0), r"network\.layers\[0\]: stride_x must be at least 1, got 0"),
            (("sampler",), {"kind": "hmc", "step_size": -0.01, "leapfrog_steps": 5}, r"sampler\.step_size: must be > 0 and finite, got -0\.01"),
            (("sampler",), {"kind": "hmc", "step_size": 0.01, "leapfrog_steps": 0}, r"sampler\.leapfrog_steps: must be >= 1, got 0"),
            (("sampler",), {"kind": "mala", "step_size": 0}, r"sampler\.step_size: must be > 0 and finite, got 0\.0"),
            (("sampler",), {"kind": "hmc", "step_size": math.inf, "leapfrog_steps": 5}, r"sampler\.step_size: must be > 0 and finite, got inf"),
            (("max_seconds",), math.inf, r"max_seconds: must be > 0 and finite, got inf"),
            (("dataset", "delta_gen"), math.inf, r"dataset\.delta_gen: must be > 0 and finite, got inf"),
            (("noise", "delta"), math.inf, r"noise\.delta: delta_z\[2\] must be > 0 and finite, got inf"),
            (("noise", "delta"), math.nan, r"noise\.delta: delta_z\[2\] must be > 0 and finite, got nan"),
            (("noise",), {"delta_z": {"2": 0.01, "3": math.inf}, "delta_x": {"2": 0.01}}, r"noise: delta_z\[3\] must be > 0 and finite, got inf"),
            (("noise",), {"delta_z": {"2": 0.01, "3": 0.01}, "delta_x": {"2": math.inf}}, r"noise: delta_x\[2\] must be > 0 and finite, got inf"),
            (("noise",), {"delta_z": {"2": 0.01, "3": 0.01}, "delta_x": {"2": 0.01}, "delta_pool": {"2": math.inf}}, r"noise: delta_pool\[2\] must be > 0 and finite, got inf"),
            (("prior",), {"lambda": math.inf}, r"prior\.lambda: lambda_w\[1\] must be > 0 and finite, got inf"),
            (("prior",), {"lambda_w": {"1": math.inf, "2": 1.0}, "lambda_b": {"1": 1.0, "2": 1.0}}, r"prior: lambda_w\[1\] must be > 0 and finite, got inf"),
            (("prior",), {"lambda_w": {"1": 1.0, "2": 1.0}, "lambda_b": {"1": 1.0, "2": math.inf}}, r"prior: lambda_b\[2\] must be > 0 and finite, got inf"),
            (("network", "activation"), "linear", r"network\.activation: expected 'relu' or 'sign' or 'abs', got 'linear'"),
            (("dataset", "source"), "inline", r"dataset\.source: expected 'synthetic' or 'idx', got 'inline'"),
            (("dataset", "inline_inputs"), [[0.0] * 6], r"dataset\.inline_inputs: unknown field"),
        ],
        ids=[
            "schedule-not-object",
            "sweeps-not-int",
            "width-not-int",
            "unknown-layer-key",
            "initializations-string",
            "initializations-not-list",
            "max-seconds-not-number",
            "n-test-not-int",
            "n-not-int",
            "delta-gen-not-number",
            "step-size-not-number",
            "leapfrog-steps-not-int",
            "sweeps-fractional",
            "sweeps-string",
            "noiseless-string",
            "subset-string",
            "dataset-key-misspelled",
            "top-level-key-misspelled",
            "noise-delta-string",
            "noise-table-not-object",
            "layers-not-list",
            "lambda-w-short",
            "lambda-b-short",
            "delta-z-short",
            "delta-x-missing",
            "delta-z-extra-layer",
            "seed-negative",
            "merge-window-one",
            "n-zero",
            "n-test-negative",
            "subset-negative",
            "test-subset-zero",
            "max-seconds-negative",
            "merge-tolerance-zero",
            "merge-tolerance-infinite",
            "gaussian-scale-not-number",
            "gaussian-scale-negative",
            "pool-window-zero",
            "pool-window-negative",
            "pool-channels-zero",
            "conv-filter-zero",
            "conv-channels-in-zero",
            "conv-channels-out-zero",
            "conv-input-negative",
            "conv-stride-zero",
            "hmc-step-size-negative",
            "hmc-leapfrog-steps-zero",
            "mala-step-size-zero",
            "hmc-step-size-infinite",
            "max-seconds-infinite",
            "delta-gen-infinite",
            "noise-delta-infinite",
            "noise-delta-nan",
            "delta-z-infinite",
            "delta-x-infinite",
            "delta-pool-infinite",
            "prior-lambda-infinite",
            "lambda-w-infinite",
            "lambda-b-infinite",
            "activation-linear",
            "inline-source",
            "inline-inputs",
        ],
    )
    def test_malformed_field_is_config_error(self, path, value, field, tmp_path, capsys):
        raw = base_config()
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict(raw)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw), encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert re.search("config error: " + field, capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_integers_in_float_fields_are_written_as_floats(self):
        raw = base_config(max_seconds=5, merge_tolerance=2)
        raw["dataset"]["delta_gen"] = 1
        cfg = ExperimentConfig.from_dict(raw)
        assert (cfg.max_seconds, cfg.merge_tolerance, cfg.dataset.delta_gen) == (5.0, 2.0, 1.0)
        assert '"max_seconds": 5.0' in cfg.to_json()

    def test_shorthand_stands_alone(self):
        with pytest.raises(ConfigError, match=r"prior\.lambda: cannot be combined with prior\.mode"):
            ExperimentConfig.from_dict(base_config(prior={"mode": "fan_in", "lambda": 1.0}))
        with pytest.raises(ConfigError, match=r"prior\.mode: expected 'fan_in'"):
            ExperimentConfig.from_dict(base_config(prior={"mode": "fan_out"}))

    def test_layers_serialize_as_their_fields(self):
        conv = {
            "kind": "conv", "channels_in": 1, "channels_out": 2, "in_height": 6, "in_width": 6,
            "filter_height": 2, "filter_width": 2, "stride_y": 1, "stride_x": 1, "has_bias": True,
        }
        pool = {"kind": "pool", "channels": 2, "in_height": 5, "in_width": 5, "window_height": 2, "window_width": 2}
        dense = {"kind": "dense", "in_width": 8, "out_width": 1, "has_bias": False}
        raw = base_config(initializations=["zero"])
        raw["network"]["layers"] = [conv, pool, dense]
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.to_dict()["network"]["layers"] == [conv, pool, dense]
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_sign_activation_blocks_gradient_samplers(self):
        raw = base_config(sampler={"kind": "mala", "posterior": "classical", "step_size": 1e-4})
        raw["network"]["activation"] = "sign"
        with pytest.raises(ConfigError, match="activation"):
            ExperimentConfig.from_dict(raw)


class TestInitializeChain:
    def setup_method(self):
        self.spec = NetworkSpec(
            layers=(DenseLayer(5, 3), DenseLayer(3, 2)), activation=Activation.RELU, output="probit"
        )
        self.noise = NoiseSchedule.uniform(self.spec, 0.3)
        self.prior = PriorSpec.fan_in(self.spec)
        self.data = generate_teacher_student(self.spec, self.prior, 25, 10, RngStream(0), noise_gen=self.noise)

    def test_informed_matches_teacher_exactly(self):
        state = initialize_chain("informed", self.data, self.spec, self.noise, self.prior, RngStream(1))
        np.testing.assert_array_equal(state.W[1], self.data.teacher.W[1])
        from nngibbs.network import test_mse as mse_between

        assert mse_between(self.spec, state.W, state.b, self.data.teacher.W, self.data.teacher.b, self.data.test_inputs) == 0.0
        # copied, not aliased: mutating the chain never touches the teacher
        state.Z[3][0, 0] += 1.0
        assert self.data.teacher.Z[3][0, 0] != state.Z[3][0, 0]

    def test_zero_state_valid_with_probit_one_hot(self):
        state = initialize_chain("zero", self.data, self.spec, self.noise, self.prior, RngStream(2))
        validate_state(state, self.spec)
        assert np.all(state.W[1] == 0.0) and np.all(state.X[2] == 0.0)
        top = state.Z[3]
        rows = np.arange(len(top))
        assert np.all(top[rows, self.data.labels] == 1.0)
        assert np.all(top.sum(axis=1) == 1.0)

    def test_random_draws_prior_and_fresh_latents(self):
        s1 = initialize_chain("random", self.data, self.spec, self.noise, self.prior, RngStream(3))
        s2 = initialize_chain("random", self.data, self.spec, self.noise, self.prior, RngStream(4))
        validate_state(s1, self.spec)
        assert not np.allclose(s1.W[1], s2.W[1])
        assert not np.allclose(s1.W[1], self.data.teacher.W[1])

    def test_gaussian_scale(self):
        state = initialize_chain("gaussian:0.0001", self.data, self.spec, self.noise, self.prior, RngStream(5))
        validate_state(state, self.spec)
        assert 0 < np.abs(state.W[1]).max() < 1e-3

    def test_missing_teacher(self):
        data = generate_teacher_student(self.spec, self.prior, 10, 0, RngStream(6), noise_gen=self.noise)
        data.teacher = None
        with pytest.raises(InputError):
            initialize_chain("informed", data, self.spec, self.noise, self.prior, RngStream(7))


def _sweeps_clean(cfg, kind, sweeps):
    """Run ``sweeps`` Gibbs sweeps from a ``kind`` start with division by
    zero, invalid operations and overflow raised as errors; underflow
    stays quiet (exp of a very negative log-mass gap is exactly 0)."""
    dataset = build_dataset(cfg, RngStream(cfg.seed, (10_000,)))
    state = initialize_chain(kind, dataset, cfg.network, cfg.noise, cfg.prior, RngStream(cfg.seed, (0,)).child(0))
    rng = RngStream(cfg.seed, (0,)).child(1)
    with np.errstate(divide="raise", invalid="raise", over="raise", under="ignore"):
        for _ in range(sweeps):
            gibbs_sweep(state, cfg.network, cfg.noise, cfg.prior, SweepSchedule(), rng)
    for kind_name in ("W", "b", "X", "Z", "P"):
        for l, value in getattr(state, kind_name).items():
            assert value is None or np.all(np.isfinite(value)), f"{kind_name}[{l}]"


class TestSweepFloatingPoint:
    @pytest.mark.parametrize("activation", ["relu", "sign", "abs"])
    @pytest.mark.parametrize("kind", ["zero", "random", "informed"])
    def test_teacher_student_sweeps_raise_nothing(self, activation, kind):
        raw = ts_criterion()
        raw["network"]["activation"] = activation
        raw["dataset"].update(n=300, n_test=100)
        _sweeps_clean(ExperimentConfig.from_dict(raw), kind, 20)

    def test_conv_pool_probit_sweeps_raise_nothing(self):
        raw = mnist_cnn_gibbs(dataset={"source": "synthetic", "n": 50, "n_test": 50})
        _sweeps_clean(ExperimentConfig.from_dict(raw), "zero", 20)


class TestRunExperiment:
    def test_traces_and_summary(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(merge_window=2))
        summary = run_experiment(cfg, tmp_path)
        assert (tmp_path / "summary.json").exists()
        files = sorted(p.name for p in tmp_path.glob("trace_*.csv"))
        assert files == ["trace_chain0_informed.csv", "trace_chain1_zero.csv"]
        assert "chain1_zero" in summary["merge"]
        table = read_trace(tmp_path / files[0])
        assert "test_mse" in table and "w1_sqnorm" in table
        assert list(table["test_mse"].times[:3]) == [0, 10, 20]
        # one wall_s per record, read before each record's observables
        wall = table["test_mse"].wall
        assert len(wall) == summary["chains"][0]["records"] == 7
        assert np.all(np.diff(wall) >= 0)

    def test_rerun_byte_identical_modulo_wall(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config())
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in ("trace_chain0_informed.csv", "trace_chain1_zero.csv"):
            rows_a = (tmp_path / "a" / name).read_text().splitlines()
            rows_b = (tmp_path / "b" / name).read_text().splitlines()
            strip = lambda rows: ["||".join(r.split(",")[:1] + r.split(",")[2:]) for r in rows]
            assert strip(rows_a) == strip(rows_b)

    def test_hmc_classical_run_records_acceptance(self, tmp_path):
        raw = base_config(
            sampler={"kind": "hmc", "posterior": "classical", "step_size": 1e-3, "leapfrog_steps": 5},
            initializations=["gaussian:1e-4"],
            sweeps=50,
            spacing=10,
        )
        cfg = ExperimentConfig.from_dict(raw)
        summary = run_experiment(cfg, tmp_path)
        table = read_trace(tmp_path / "trace_chain0_gaussian1e-4.csv")
        assert "acceptance_rate" in table
        rate = summary["chains"][0]["final"]["acceptance_rate"]
        assert 0.0 <= rate <= 1.0

    def test_mala_intermediate_run(self, tmp_path):
        raw = base_config(
            sampler={"kind": "mala", "posterior": "intermediate", "step_size": 1e-5},
            initializations=["informed"],
            sweeps=40,
            spacing=10,
        )
        cfg = ExperimentConfig.from_dict(raw)
        summary = run_experiment(cfg, tmp_path)
        table = read_trace(tmp_path / "trace_chain0_informed.csv")
        assert "train_residual" in table and "score_U" in table

    def test_noisy_layer_record_makes_no_posterior_pass(self, monkeypatch):
        """score_U and train_residual both come from the first layer's
        residual: a record packs nothing and runs no posterior pass."""
        cfg = ExperimentConfig.from_dict(base_config())
        dataset = build_dataset(cfg, RngStream(0))
        state = initialize_chain("informed", dataset, cfg.network, cfg.noise, cfg.prior, RngStream(1))
        gibbs_sweep(state, cfg.network, cfg.noise, cfg.prior, SweepSchedule(), RngStream(2))
        observer = _Observer(cfg, dataset)

        def refuse(*args, **kwargs):
            raise AssertionError("the observer ran a posterior pass")

        monkeypatch.setattr(posteriors, "intermediate_log_posterior", refuse)
        monkeypatch.setattr(posteriors.FlatPacker, "pack", refuse)
        monkeypatch.setattr(posteriors.FlatPacker, "unpack", refuse)
        out = observer.observe_state(state)
        assert {"score_U", "train_residual"} <= set(out) and np.isfinite(out["score_U"])

    def test_max_seconds_flushes(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(sweeps=10_000_000, max_seconds=0.5, spacing=1000))
        summary = run_experiment(cfg, tmp_path)
        assert summary["chains"][0]["records"] >= 1

    def test_raising_chain_keeps_its_records(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(base_config(sweeps=50, spacing=5, initializations=["zero"]))
        run_experiment(cfg, tmp_path / "whole")
        sweep = gibbs.gibbs_sweep
        calls = []

        def sweep_until_23(*args):
            calls.append(None)
            if len(calls) == 23:
                raise RuntimeError("sweep 23 fails")
            return sweep(*args)

        monkeypatch.setattr(gibbs, "gibbs_sweep", sweep_until_23)
        with pytest.raises(RuntimeError, match="sweep 23 fails"):
            run_experiment(cfg, tmp_path / "cut")
        assert not (tmp_path / "cut" / "summary.json").exists()
        strip = lambda path: [",".join(r.split(",")[:1] + r.split(",")[2:]) for r in path.read_text().splitlines()]
        cut = strip(tmp_path / "cut" / "trace_chain0_zero.csv")
        whole = strip(tmp_path / "whole" / "trace_chain0_zero.csv")
        assert [row.split(",")[0] for row in cut[1:]] == ["0", "5", "10", "15", "20"]
        assert cut == whole[:6]

    def test_summary_merge_is_what_diagnose_reads(self, tmp_path, capsys):
        # a noise level at which the zero chain merges within 100 sweeps
        raw = base_config(noise={"delta": 1.0}, sweeps=100, spacing=1, merge_window=10, merge_tolerance=2.5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "run"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        informed, zero = (str(out / chain["file"]) for chain in summary["chains"])
        capsys.readouterr()
        argv = ["diagnose", informed, zero, "--informed", informed, "--window", "10", "--tolerance", "2.5"]
        assert cli_main([*argv, "--observable", summary["merge"]["chain1_zero"]["observable"]]) == 0
        report = json.loads(capsys.readouterr().out)
        verdict = {k: v for k, v in summary["merge"]["chain1_zero"].items() if k != "observable"}
        assert "equilibrium" in verdict and report["merge"] == {zero: verdict}


# sha256 of get_preset(name, delta=d).to_json() joined by newlines over
# PIN_DELTAS, which hits every row of the step-size tables and both sides
# of every floor (a row holds strictly above its floor)
PIN_DELTAS = [
    None, 10, 1, 0.32, 0.3, 3.2e-2, 1.5e-2, 1e-2, 5e-3, 3.2e-3, 1.5e-3, 1e-3,
    4.64e-4, 3.2e-4, 1e-4, 6.8e-5, 2e-5, 1.5e-5, 1e-6, 1e-12,
]
PRESET_DIGESTS = {
    "mnist-cnn-gibbs": "0062eca92031cae54efa3886cc3318ee854e7990825f57cef4bd4ae45aa9a804",
    "mnist-cnn-hmc": "643e49add3e14841bed48bb1f30a8f7fa711b973d26725defbf7e7681e4415df",
    "mnist-cnn-mala": "6fd33d67fb709b9d8940f053c8f901232ce51e72353a0b66b665017d442785a3",
    "mnist-mlp-gibbs": "7dff289b8b04b85964162d232766a5c1208b3b712b45d49ddf277d82ff6d5e06",
    "mnist-mlp-hmc": "e974ac09bafcc18eadb3c786161731c156076d49d56bc6c6509c31cf4dae1790",
    "mnist-mlp-mala": "e4338ea511e0b0403427c8ed92101bd50d4b8e1ea73790e671426ec8645c978f",
    "noiseless-gibbs": "65639adbee494ab9d9c06c49c5ba732a755fb610f36aa70e7ddf91a7d630090b",
    "noiseless-hmc-classical": "1472ed4f120a91c76828ee70a0105bb644dcc415cddf93f4830b327a12ff952d",
    "noiseless-hmc-intermediate": "405a43e07033238c88465300381d50f9498392d771c7670a331824776755cac5",
    "noiseless-mala-classical": "74138e19c01e8e98c71eee53afa87599820e51ce3b9e66246bf568cb6cb39b57",
    "ts-criterion": "9a7f6a0b0ac9dbd6f050abd537ecbaf3ab57dc7356dbdc76e3c85173fccae131",
}
# the calls perfbench/workloads.py makes, and the sha256 of the config's JSON
CALL_FORMS = {
    "mlp": (
        lambda: ExperimentConfig.from_dict(mnist_mlp_gibbs(seed=3, dataset={"source": "synthetic", "n": 500, "n_test": 1000})),
        "5ab4250a17b28f6f1a4ea2b446c45a2a3b0ce8e2884cbb18c5380f31a7544436",
    ),
    "cnn": (
        lambda: ExperimentConfig.from_dict(mnist_cnn_gibbs(seed=3, dataset={"source": "synthetic", "n": 300, "n_test": 1000})),
        "ae3566417db0f5569a1d22da953df0ccf0e103f35088e492945cf03e194c5788",
    ),
    "ts-2chain": (
        lambda: get_preset("ts-criterion", initializations=["informed", "zero"], sweeps=400, spacing=10, merge_window=20, seed=3),
        "ea28accbaaff98e663454b032680613ddd7c718aaccb39158857864dadf43ec0",
    ),
    "hmc": (
        lambda: get_preset("ts-criterion", initializations=["informed"], seed=3),
        "f84cc7980d05f84e327be1a4d4bb76e28f7ff3bed71bbaa41172107036831b1b",
    ),
}


class TestPresets:
    def test_listing_is_stable(self):
        names = preset_names()
        assert "ts-criterion" in names and "mnist-cnn-gibbs" in names
        for name in names:
            assert PRESETS[name][1]

    def test_reference_preset_values(self):
        cfg = get_preset("ts-criterion")
        assert cfg.sweeps == 2_500_000
        assert cfg.spacing == 100
        assert cfg.noise.delta_z[3] == 1e-4
        assert cfg.prior.lambda_w == {1: 50.0, 2: 10.0}
        assert cfg.dataset.n == "4x_params"
        data = build_dataset(cfg, RngStream(0, (99,)))
        assert data.inputs.shape == (2084, 50)

    def test_hyperparameter_tables(self):
        cfg = get_preset("noiseless-hmc-classical", delta=1.0)
        assert cfg.sampler.step_size == 5e-4
        assert cfg.sampler.leapfrog_steps == 20
        cfg2 = get_preset("noiseless-mala-classical", delta=1e-3)
        assert cfg2.sampler.step_size == 1e-8
        assert cfg2.sweeps == int(1.1e7)
        cfg3 = get_preset("noiseless-hmc-intermediate", delta=4.64e-4)
        assert cfg3.sampler.step_size == 5e-5
        assert cfg3.sampler.leapfrog_steps == 1000

    def test_mnist_presets_shapes_and_lambdas(self):
        cfg = get_preset("mnist-mlp-gibbs")
        assert cfg.prior.lambda_w == {1: 784.0, 2: 12.0}
        assert cfg.noise.delta_z[2] == 2.0
        cnn = get_preset("mnist-cnn-gibbs")
        assert cnn.prior.lambda_w == {1: 16.0, 2: 72.0}
        assert cnn.noise.delta_z[2] == 100.0
        conv = cnn.network.layers[0]
        assert (conv.out_height, conv.out_width) == (13, 13)
        assert cnn.network.layers[2].in_width == 72
        hmc = get_preset("mnist-cnn-hmc")
        assert hmc.noise.delta_z[3] == 10.0

    @pytest.mark.parametrize("name", preset_names())
    def test_json_round_trip(self, name):
        text = get_preset(name).to_json()
        assert ExperimentConfig.from_dict(json.loads(text)).to_json() == text

    @pytest.mark.parametrize("name", preset_names())
    def test_config_is_pinned(self, name):
        text = "\n".join(get_preset(name, delta=d).to_json() for d in PIN_DELTAS)
        assert hashlib.sha256(text.encode()).hexdigest() == PRESET_DIGESTS[name]

    @pytest.mark.parametrize("form", sorted(CALL_FORMS))
    def test_benchmark_call_forms_are_pinned(self, form):
        build, digest = CALL_FORMS[form]
        assert hashlib.sha256(build().to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", [n for n in preset_names() if n.startswith("mnist-")])
    def test_delta_sets_the_noise_of_an_mnist_preset(self, name):
        cfg = get_preset(name, delta=0.25)
        assert cfg.noise == NoiseSchedule.uniform(cfg.network, 0.25) != get_preset(name).noise
        assert dataclasses.replace(cfg, noise=get_preset(name).noise) == get_preset(name)

    @pytest.mark.parametrize("name", ["mnist-cnn-hmc", "noiseless-hmc-classical"])
    def test_noise_override_beats_delta(self, name):
        cfg = get_preset(name, delta=0.25, noise={"delta": 3.0})
        assert cfg.noise == NoiseSchedule.uniform(cfg.network, 3.0)
        # a noise-sweep preset still takes its settings from the table row of delta
        assert cfg.sampler == get_preset(name, delta=0.25).sampler

    @pytest.mark.parametrize("name", ["ts-criterion", "noiseless-mala-classical", "mnist-mlp-hmc"])
    def test_overrides_replace_whole_sections(self, name):
        cfg = get_preset(name, dataset={"source": "synthetic", "n": 40}, sampler={"kind": "mala", "step_size": 1e-5}, seed=7)
        assert cfg.dataset == DatasetConfig(source="synthetic", n=40)
        assert cfg.sampler == SamplerConfig(kind="mala", step_size=1e-5)
        assert cfg.seed == 7
        assert cfg.sweeps == get_preset(name).sweeps

    def test_unknown_name_lists_the_presets(self):
        with pytest.raises(KeyError, match="unknown preset 'nope'; available: " + re.escape(", ".join(preset_names()))):
            get_preset("nope")


class TestCli:
    def test_presets_listing(self, capsys):
        assert cli_main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "ts-criterion" in out

    def test_presets_show_json(self, capsys):
        assert cli_main(["presets", "--show", "mnist-mlp-gibbs"]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert raw["noise"]["delta_z"]["2"] == 2.0

    def test_generate_and_run_with_data(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(sweeps=30)), encoding="utf-8")
        data_path = tmp_path / "data.npz"
        assert cli_main(["generate", "--config", str(cfg_path), "--out", str(data_path)]) == 0
        out_dir = tmp_path / "run"
        assert cli_main(["run", "--config", str(cfg_path), "--data", str(data_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.json").exists()

    def test_generate_writes_the_path_it_prints(self, tmp_path, capsys):
        # a name without the .npz suffix is written as given, not with one added
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(sweeps=2)), encoding="utf-8")
        target = tmp_path / "gen" / "data"
        assert cli_main(["generate", "--config", str(cfg_path), "--out", str(target)]) == 0
        printed = json.loads(capsys.readouterr().out)["path"]
        assert printed == str(target) and [p.name for p in target.parent.iterdir()] == ["data"]
        out_dir = tmp_path / "run"
        assert cli_main(["run", "--config", str(cfg_path), "--data", printed, "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.json").exists()

    def test_informed_start_on_an_archive_replacing_an_idx_source(self, tmp_path, capsys):
        # mnist-mlp-gibbs names an idx source; --data replaces it with an archive
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(mnist_mlp_gibbs(initializations=["informed", "zero"], sweeps=2)), encoding="utf-8")
        with pytest.raises(ConfigError, match="initializations: informed requires"):
            get_preset("mnist-mlp-gibbs", initializations=["informed"])
        synthetic = get_preset("mnist-mlp-gibbs", dataset={"source": "synthetic", "n": 20, "n_test": 5})
        teacher_path = tmp_path / "teacher.npz"
        save_dataset(teacher_path, build_dataset(synthetic, RngStream(0)))
        out_dir = tmp_path / "run"
        assert cli_main(["run", "--config", str(cfg_path), "--data", str(teacher_path), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [c["initialization"] for c in summary["chains"]] == ["informed", "zero"]
        capsys.readouterr()
        bare_path = tmp_path / "bare.npz"
        np.savez(bare_path, inputs=np.zeros((20, 784)), labels=np.arange(20) % 10)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--data", str(bare_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        why = f"{bare_path}: informed initialization needs a stored teacher, and the archive has no teacher_* arrays"
        assert captured.err == f"input error: {why}\n" and captured.out == ""
        assert not out.exists()

    def test_run_seed_and_sweeps_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()), encoding="utf-8")
        out_dir = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir), "--seed", "9", "--sweeps", "20"]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"]["seed"] == 9
        assert summary["config"]["sweeps"] == 20

    def test_diagnose_traces(self, tmp_path, capsys):
        cfg = ExperimentConfig.from_dict(base_config(sweeps=400, spacing=2, merge_window=10))
        run_experiment(cfg, tmp_path)
        informed = str(tmp_path / "trace_chain0_informed.csv")
        zero = str(tmp_path / "trace_chain1_zero.csv")
        rc = cli_main(
            ["diagnose", informed, zero, "--observable", "test_mse", "--window", "10", "--informed", informed, "--out", str(tmp_path)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "diagnosis.json").read_text())
        assert "rhat_blocks" in report
        assert informed in report["files"]
        assert zero in report["merge"]

    def test_diagnose_informed_on_short_traces(self, tmp_path, capsys):
        # three records cannot fill two windows of 50
        run_experiment(ExperimentConfig.from_dict(base_config(sweeps=4, spacing=2)), tmp_path)
        informed = str(tmp_path / "trace_chain0_informed.csv")
        zero = str(tmp_path / "trace_chain1_zero.csv")
        rc = cli_main(["diagnose", informed, zero, "--window", "50", "--informed", informed, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "diagnosis.json").read_text())
        assert report["merge"] == {zero: {"error": "series must cover at least two windows"}}
        capsys.readouterr()
        assert cli_main(["diagnose", zero, "--informed", informed]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: --informed {informed}: not one of the trace files\n" and captured.out == ""

    @pytest.mark.parametrize(
        "flag, value", [("--window", "0"), ("--window", "1"), ("--window", "-1"), ("--tolerance", "0"), ("--tolerance", "inf")]
    )
    def test_diagnose_refuses_window_below_two_and_nonpositive_tolerance(self, tmp_path, capsys, flag, value):
        trace = tmp_path / "trace.csv"
        noise = np.random.default_rng(0).standard_normal(20)
        trace.write_text("sweep,wall_s,test_mse\n" + "".join(f"{i},0.0,{v}\n" for i, v in enumerate(noise)), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli_main(["diagnose", str(trace), str(trace), "--informed", str(trace), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be" in err and "Traceback" not in err

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(base_config(sampler={"kind": "gibbs", "posterior": "classical"})), encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(base_config(sampler={"kind": "gibbs", "schedule": "sequential"})), encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert "sampler.schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "generate"])
    def test_delta_with_config_is_refused(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(cfg_path), "--delta", "0.5", "--out", str(out)]) == 2
        assert "config error: --delta applies to --preset only" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_json_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"seed": 1,', encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg_path}: not valid JSON") and err.count("\n") == 1
        assert not out.exists()

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "utf16.json"
        cfg_path.write_bytes(b"\xff\xfe{")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg_path}: not UTF-8 text") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("content", ["text", "no-inputs"])
    def test_data_file_that_is_not_a_dataset_is_reported(self, tmp_path, capsys, content):
        data_path = tmp_path / "data.npz"
        if content == "text":
            data_path.write_text("inputs,labels\n1,2\n", encoding="utf-8")
        else:
            np.savez(data_path, labels=np.zeros(4))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(initializations=["zero"])), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--data", str(data_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {data_path}: ") and err.count("\n") == 1
        assert "'inputs' array" in err
        assert not out.exists()

    def test_data_for_another_network_is_an_input_error(self, tmp_path, capsys):
        data_path = tmp_path / "ts.npz"
        assert cli_main(["generate", "--preset", "ts-criterion", "--out", str(data_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert cli_main(["run", "--preset", "mnist-mlp-gibbs", "--data", str(data_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {data_path}: inputs have shape (2084, 50)") and err.count("\n") == 1
        assert "(n, 784)" in err
        assert not out.exists()

    def test_probit_run_on_regression_data_is_an_input_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()), encoding="utf-8")
        data_path = tmp_path / "data.npz"
        assert cli_main(["generate", "--config", str(cfg_path), "--out", str(data_path)]) == 0
        capsys.readouterr()
        probit = base_config(initializations=["zero"])
        probit["network"] = dict(probit["network"], output="probit")
        probit["network"]["layers"][1] = dict(probit["network"]["layers"][1], out_width=3)
        cfg_path.write_text(json.dumps(probit), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--data", str(data_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {data_path}: labels are not integer classes in [0, 3) for the probit output\n"
        assert not out.exists()

    def test_teacher_of_another_network_is_an_input_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()), encoding="utf-8")
        data_path = tmp_path / "data.npz"
        assert cli_main(["generate", "--config", str(cfg_path), "--out", str(data_path)]) == 0
        capsys.readouterr()
        wider = base_config()
        wider["network"]["layers"] = [dict(wider["network"]["layers"][0], out_width=4), dict(wider["network"]["layers"][1], in_width=4)]
        cfg_path.write_text(json.dumps(wider), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--data", str(data_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {data_path}: teacher_W_1: the file has shape (3, 6), the network's teacher has shape (4, 6)\n"
        assert not out.exists()

    def test_informed_start_on_data_without_teacher_is_an_input_error(self, tmp_path, capsys):
        data_path = tmp_path / "data.npz"
        np.savez(data_path, inputs=np.zeros((8, 6)), labels=np.zeros(8))
        why = f"{data_path}: informed initialization needs a stored teacher, and the archive has no teacher_* arrays"
        cfg = ExperimentConfig.from_dict(base_config(dataset={"source": "synthetic", "path": str(data_path)}))
        with pytest.raises(InputError) as info:
            build_dataset(cfg, RngStream(0))
        assert str(info.value) == why
        ts_data = tmp_path / "ts.npz"
        np.savez(ts_data, inputs=np.zeros((8, 50)), labels=np.zeros(8))
        out = tmp_path / "out"
        assert cli_main(["run", "--preset", "ts-criterion", "--data", str(ts_data), "--sweeps", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: {why.replace(str(data_path), str(ts_data))}\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "array, value",
        [
            ("inputs", np.nan),
            ("labels", np.inf),
            ("test_inputs", -np.inf),
            ("test_labels", np.nan),
            ("teacher_W_1", np.nan),
            ("teacher_b_2", np.inf),
            ("teacher_X_2", np.nan),
            ("teacher_Z_3", -np.inf),
            ("inputs", "text"),
        ],
        ids=["inputs-nan", "labels-inf", "test-inputs-inf", "test-labels-nan", "teacher-w-nan", "teacher-b-inf", "teacher-x-nan", "teacher-z-inf", "inputs-text"],
    )
    def test_non_finite_data_is_an_input_error(self, tmp_path, capsys, array, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()), encoding="utf-8")
        data_path = tmp_path / "data.npz"
        assert cli_main(["generate", "--config", str(cfg_path), "--out", str(data_path)]) == 0
        capsys.readouterr()
        with np.load(data_path) as data:
            arrays = dict(data)
        if value == "text":
            arrays[array] = arrays[array].astype(str)
        else:
            arrays[array].flat[-1] = value
        np.savez(data_path, **arrays)
        why = f"{data_path}: array {array!r} holds a value that is not a finite number"
        cfg = ExperimentConfig.from_dict(base_config(dataset={"source": "synthetic", "path": str(data_path)}))
        with pytest.raises(InputError) as info:
            build_dataset(cfg, RngStream(0))
        assert str(info.value) == why
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--data", str(data_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: {why}\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["run", "--preset", "ts-criterion", "--sweeps", "2"], ["run", "--preset", "mnist-mlp-gibbs"], ["presets", "--show", "ts-criterion"]],
        ids=["run-noise-sweep", "run-mnist", "presets-show"],
    )
    def test_infinite_delta_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli_main(argv + ["--delta", "inf"] + (["--out", str(out)] if argv[0] == "run" else [])) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: noise.delta: delta_z[2] must be > 0 and finite, got inf\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "labels, why",
        [
            (np.zeros((8, 2)), "labels have shape (8, 2), the network has 1 regression outputs"),
            (np.zeros(7), "7 labels for 8 inputs"),
        ],
        ids=["regression-width", "label-count"],
    )
    def test_labels_that_do_not_fit_are_reported(self, tmp_path, labels, why):
        data_path = tmp_path / "data.npz"
        np.savez(data_path, inputs=np.zeros((8, 6)), labels=labels)
        cfg = ExperimentConfig.from_dict(base_config(dataset={"source": "synthetic", "path": str(data_path)}))
        with pytest.raises(InputError) as info:
            build_dataset(cfg, RngStream(0))
        assert str(info.value) == f"{data_path}: {why}"

    @pytest.mark.parametrize("missing", ["config", "data", "idx", "trace"])
    def test_missing_input_file_is_reported(self, tmp_path, capsys, missing):
        gone = tmp_path / "gone"
        dataset = {"source": "idx", "images": str(gone), "labels": str(gone)} if missing == "idx" else base_config()["dataset"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset=dataset, initializations=["zero"])), encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "config": ["run", "--config", str(gone), "--out", str(out)],
            "data": ["run", "--config", str(cfg_path), "--data", str(gone), "--out", str(out)],
            "idx": ["run", "--config", str(cfg_path), "--out", str(out)],
            "trace": ["diagnose", str(gone)],
        }[missing]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert str(gone) in err and "No such file" in err
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["bad-magic", "truncated", "count-mismatch"])
    def test_bad_idx_file_is_reported(self, tmp_path, capsys, fault):
        images, labels = tmp_path / "imgs", tmp_path / "labs"
        magic = 0x999 if fault == "bad-magic" else 0x803
        pixels = bytes(4 * 6 - (5 if fault == "truncated" else 0))
        images.write_bytes(struct.pack(">IIII", magic, 4, 2, 3) + pixels)
        n_labels = 3 if fault == "count-mismatch" else 4
        labels.write_bytes(struct.pack(">II", 0x801, n_labels) + bytes(n_labels))
        dataset = {"source": "idx", "images": str(images), "labels": str(labels)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset=dataset, initializations=["zero"])), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1 and str(images) in err
        assert not out.exists()

    def test_unreadable_trace_is_reported(self, tmp_path, capsys):
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("sweep,wall_s,test_mse\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"header_only\.csv, line 2: no records"):
            read_trace(header_only)
        garbled = tmp_path / "garbled.csv"
        garbled.write_text("sweep,wall_s,test_mse\n0,0.001,1.5\n10,0.002,oops\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"garbled\.csv, line 3: expected 3 numbers, got '10,0.002,oops'"):
            read_trace(garbled)
        assert cli_main(["diagnose", str(header_only)]) == 2
        assert re.fullmatch(r"input error: .*header_only\.csv, line 2: no records after the header\n", capsys.readouterr().err)
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfesweep,wall_s\n")
        with pytest.raises(InputError, match=r"binary\.csv: not a UTF-8 text trace"):
            read_trace(binary)
        assert cli_main(["diagnose", str(binary)]) == 2
        assert re.fullmatch(r"input error: .*binary\.csv: not a UTF-8 text trace \(.+\)\n", capsys.readouterr().err)

    @pytest.mark.parametrize(
        "text, why",
        [
            ("0,0.1,1.5\n10,0.2,1.25\n10,0.3,1.0\n", "line 4: sweep 10 does not follow sweep 10"),
            ("0,0.1,1.5\n10,0.2,1.25\n5,0.3,1.0\n", "line 4: sweep 5 does not follow sweep 10"),
            ("0,0.1,1.5\n1.5,0.2,1.25\n", "line 3: sweep 1.5 is not a 64-bit integer"),
            ("0,0.1,1.5\n1e20,0.2,1.25\n", "line 3: sweep 1e+20 is not a 64-bit integer"),
            ("0,0.1,1.5,2.0\n", "line 1: repeated column name 'test_mse'"),
            ("0,0.1,1.5\n10,0.2,inf\n", "line 3, column 'test_mse': 'inf' is not a finite number"),
        ],
        ids=["repeated-sweep", "decreasing-sweep", "fractional-sweep", "sweep-beyond-int64", "repeated-column", "infinite-cell"],
    )
    def test_trace_sweep_and_column_faults_name_the_file(self, tmp_path, capsys, text, why):
        header = "sweep,wall_s,test_mse,test_mse\n" if "repeated column" in why else "sweep,wall_s,test_mse\n"
        trace = tmp_path / "trace.csv"
        trace.write_text(header + text, encoding="utf-8")
        with pytest.raises(InputError) as info:
            read_trace(trace)
        assert str(info.value) == f"{trace}, {why}"
        out = tmp_path / "report"
        assert cli_main(["diagnose", str(trace), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: {trace}, {why}\n" and captured.out == ""
        assert not out.exists()

    def test_run_recording_a_non_finite_value_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        observe = _Observer.observe_state
        calls = []

        def nan_from_third_call(self, state, acceptance=None):
            values = observe(self, state, acceptance)
            calls.append(None)
            if len(calls) >= 3:
                values["test_mse"] = math.nan
            return values

        monkeypatch.setattr(_Observer, "observe_state", nan_from_third_call)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(initializations=["zero"])), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        trace = out / "trace_chain0_zero.csv"
        captured = capsys.readouterr()
        assert captured.err == f"input error: {trace}, line 4, column 'test_mse': 'nan' is not a finite number\n"
        assert captured.out == ""
        # the chain ran to its budget, and its records stay on disk
        assert len(trace.read_text(encoding="utf-8").splitlines()) == 8
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("fault", ["garbled", "no-observable"])
    def test_diagnose_input_faults_are_one_line(self, tmp_path, capsys, fault):
        trace = tmp_path / "trace.csv"
        trace.write_text("sweep,wall_s,test_mse\n0,0.001,1.5\n10,0.002,1.25\n", encoding="utf-8")
        garbled = tmp_path / "garbled.csv"
        garbled.write_text("sweep,wall_s,test_mse\n0,0.001,1.5\n10,0.002,oops\n", encoding="utf-8")
        argv, why = {
            "garbled": ([str(garbled)], "garbled.csv, line 3: expected 3 numbers"),
            "no-observable": ([str(trace), "--observable", "score_U"], "trace.csv: no observable named 'score_U'"),
        }[fault]
        out = tmp_path / "report"
        assert cli_main(["diagnose", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1 and why in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["run", "--preset", "nope", "--out", "x"], ["generate", "--preset", "nope", "--out", "x.npz"], ["presets", "--show", "nope"]],
        ids=["run", "generate", "presets-show"],
    )
    def test_unknown_preset_is_a_config_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: unknown preset 'nope'; available: {', '.join(preset_names())}\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_informed_start_stationary_end_to_end(self, tmp_path):
        # CLI-run informed chain: no first-half/second-half drift in any
        # recorded observable, right from sweep 0
        from conftest import ips_mean_se

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(base_config(sweeps=4000, spacing=5, initializations=["informed"])), encoding="utf-8"
        )
        out_dir = tmp_path / "run"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        table = read_trace(out_dir / "trace_chain0_informed.csv")
        # fast-relaxing observables; the weight-norm version runs at proper
        # scale in the acceptance suite
        for obs in ("train_residual", "score_U", "test_mse"):
            values = table[obs].values
            half = len(values) // 2
            m1, se1 = ips_mean_se(values[:half])
            m2, se2 = ips_mean_se(values[half:])
            dev = abs(m1 - m2) / np.hypot(se1, se2)
            assert dev < 3.0, f"{obs}: halves differ by {dev:.2f} SE"
