"""Harness behaviors: config validation and round trips, chain
initializations, deterministic trace files, merge verdicts, and the CLI
surface."""
import json
import re
import struct

import numpy as np
import pytest

from nngibbs.cli import main as cli_main
from nngibbs.datasets import generate_teacher_student
from nngibbs.harness import (
    ConfigError,
    ExperimentConfig,
    MissingTeacher,
    build_dataset,
    initialize_chain,
    read_trace,
    run_experiment,
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
from nngibbs.presets import PRESETS, delta_grid, get_preset, preset_names


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


class TestConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig.from_dict(base_config())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        third = ExperimentConfig.from_json(again.to_json())
        assert third == cfg

    def test_gibbs_forbids_classical(self):
        with pytest.raises(ConfigError, match="sampler.posterior"):
            ExperimentConfig.from_dict(base_config(sampler={"kind": "gibbs", "posterior": "classical"}))

    def test_informed_requires_synthetic(self):
        raw = base_config(dataset={"source": "inline", "inline_inputs": [[0.0] * 6], "inline_labels": [0.0]})
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
            (("initializations",), ["gaussian:abc"], r"initializations: 'gaussian:abc' needs a finite positive scale"),
            (("initializations",), ["gaussian:-1"], r"initializations: 'gaussian:-1' needs a finite positive scale"),
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
            "gaussian-scale-not-number",
            "gaussian-scale-negative",
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
        state.validate(self.spec)
        assert np.all(state.W[1] == 0.0) and np.all(state.X[2] == 0.0)
        top = state.Z[3]
        rows = np.arange(len(top))
        assert np.all(top[rows, self.data.labels] == 1.0)
        assert np.all(top.sum(axis=1) == 1.0)

    def test_random_draws_prior_and_fresh_latents(self):
        s1 = initialize_chain("random", self.data, self.spec, self.noise, self.prior, RngStream(3))
        s2 = initialize_chain("random", self.data, self.spec, self.noise, self.prior, RngStream(4))
        s1.validate(self.spec)
        assert not np.allclose(s1.W[1], s2.W[1])
        assert not np.allclose(s1.W[1], self.data.teacher.W[1])

    def test_gaussian_scale(self):
        state = initialize_chain("gaussian:0.0001", self.data, self.spec, self.noise, self.prior, RngStream(5))
        state.validate(self.spec)
        assert 0 < np.abs(state.W[1]).max() < 1e-3

    def test_missing_teacher(self):
        data = generate_teacher_student(self.spec, self.prior, 10, 0, RngStream(6), noise_gen=self.noise)
        data.teacher = None
        with pytest.raises(MissingTeacher):
            initialize_chain("informed", data, self.spec, self.noise, self.prior, RngStream(7))


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

    def test_max_seconds_flushes(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(sweeps=10_000_000, max_seconds=0.5, spacing=1000))
        summary = run_experiment(cfg, tmp_path)
        assert summary["chains"][0]["records"] >= 1

    def test_inline_dataset(self, tmp_path):
        gen = np.random.default_rng(8)
        X = gen.standard_normal((12, 6)).tolist()
        y = gen.standard_normal(12).tolist()
        raw = base_config(
            dataset={"source": "inline", "inline_inputs": X, "inline_labels": y},
            initializations=["zero"],
            sweeps=20,
        )
        cfg = ExperimentConfig.from_dict(raw)
        summary = run_experiment(cfg, tmp_path)
        assert summary["chains"][0]["label"] == "chain0_zero"


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
        assert ExperimentConfig.from_json(text).to_json() == text

    def test_delta_grid_three_per_decade(self):
        grid = delta_grid(-3, 0)
        assert grid[0] == pytest.approx(1.0)
        assert grid[1] == pytest.approx(10 ** (-1 / 3), rel=1e-2)
        assert grid[-1] == pytest.approx(1e-3, rel=1e-9)
        assert len(grid) == 10


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
        with pytest.raises(SystemExit, match="--informed"):
            cli_main(["diagnose", zero, "--informed", informed])

    @pytest.mark.parametrize(
        "flag, value", [("--window", "0"), ("--window", "1"), ("--window", "-1"), ("--tolerance", "0")]
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

    def test_unreadable_trace_is_reported(self, tmp_path, capsys):
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("sweep,wall_s,test_mse\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"header_only\.csv, line 2: no records"):
            read_trace(header_only)
        garbled = tmp_path / "garbled.csv"
        garbled.write_text("sweep,wall_s,test_mse\n0,0.001,1.5\n10,0.002,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"garbled\.csv, line 3: expected 3 numbers, got '10,0.002,oops'"):
            read_trace(garbled)
        with pytest.raises(SystemExit, match=r"header_only\.csv, line 2"):
            cli_main(["diagnose", str(header_only)])

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
