"""Experiment orchestration: validated configs, chain initialization,
multi-chain runs with trace persistence, and post-run merge verdicts.

Configs are plain JSON (nested key/value); traces are one CSV per chain
with a ``sweep,wall_s,<observable...>`` header so any plotting stack can
consume them. Chains run concurrently on independent RNG streams, and a
re-run with the same seed reproduces every trace byte-for-byte except
the wall-clock column.
"""
from __future__ import annotations

import dataclasses
import json
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import datasets as ds
from . import diagnostics, gibbs, posteriors, samplers
from .kernels import RngStream
from .network import (
    Activation,
    ChainState,
    ConvLayer,
    Dataset,
    DenseLayer,
    NetworkSpec,
    NoiseSchedule,
    PoolLayer,
    PriorSpec,
    add_bias,
    forward_generate,
    predict,
    test_error,
    test_mse,
    OUTPUT_PROBIT,
    OUTPUT_REGRESSION,
)

__all__ = [
    "ConfigError",
    "MissingTeacher",
    "DatasetConfig",
    "SamplerConfig",
    "ExperimentConfig",
    "initialize_chain",
    "build_dataset",
    "run_experiment",
    "read_trace",
]


class ConfigError(Exception):
    """A config field is missing, malformed, or inconsistent."""


class MissingTeacher(Exception):
    """Informed initialization asked for on a dataset without a teacher."""


@dataclass(frozen=True)
class DatasetConfig:
    source: str
    n: int | str | None = None
    n_test: int = 0
    delta_gen: float | None = None
    noiseless: bool = False
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    subset: int | None = None
    test_subset: int | None = None
    inline_inputs: tuple | None = None
    inline_labels: tuple | None = None
    path: str | None = None


@dataclass(frozen=True)
class SamplerConfig:
    kind: str
    posterior: str
    step_size: float | None = None
    leapfrog_steps: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkSpec
    noise: NoiseSchedule
    prior: PriorSpec
    dataset: DatasetConfig
    sampler: SamplerConfig
    initializations: tuple[str, ...]
    sweeps: int
    spacing: int
    seed: int
    max_seconds: float | None = None
    merge_window: int = 50
    merge_tolerance: float = 3.0

    def validate(self):
        if self.sweeps < 1:
            raise ConfigError("sweeps: must be >= 1")
        if self.spacing < 1:
            raise ConfigError("spacing: must be >= 1")
        if self.sampler.kind not in ("gibbs", "hmc", "mala"):
            raise ConfigError(f"sampler.kind: unknown sampler {self.sampler.kind!r}")
        if self.sampler.posterior not in ("intermediate", "classical"):
            raise ConfigError(f"sampler.posterior: unknown posterior {self.sampler.posterior!r}")
        if self.sampler.kind == "gibbs" and self.sampler.posterior == "classical":
            raise ConfigError("sampler.posterior: the Gibbs sampler runs on the intermediate posterior only")
        if self.sampler.kind == "hmc" and (self.sampler.step_size is None or self.sampler.leapfrog_steps is None):
            raise ConfigError("sampler: hmc needs step_size and leapfrog_steps")
        if self.sampler.kind == "mala" and self.sampler.step_size is None:
            raise ConfigError("sampler.step_size: mala needs a step size")
        if self.sampler.kind in ("hmc", "mala") and self.network.activation is Activation.SIGN:
            raise ConfigError("network.activation: sign has no gradient for hmc/mala")
        for init in self.initializations:
            if init == "informed" and self.dataset.source != "synthetic":
                raise ConfigError("initializations: informed requires a synthetic dataset with a stored teacher")
            if not (init in ("informed", "zero", "random") or init.startswith("gaussian:")):
                raise ConfigError(f"initializations: unknown kind {init!r}")
        if not self.initializations:
            raise ConfigError("initializations: need at least one chain")

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        spec = self.network
        layers = [{"kind": layer.kind, **dataclasses.asdict(layer)} for layer in spec.layers]
        d = {
            "seed": self.seed,
            "sweeps": self.sweeps,
            "spacing": self.spacing,
            "max_seconds": self.max_seconds,
            "merge_window": self.merge_window,
            "merge_tolerance": self.merge_tolerance,
            "network": {"activation": spec.activation.value, "output": spec.output, "layers": layers},
            "noise": {
                "delta_z": {str(k): v for k, v in sorted(self.noise.delta_z.items())},
                "delta_x": {str(k): v for k, v in sorted(self.noise.delta_x.items())},
                "delta_pool": {str(k): v for k, v in sorted(self.noise.delta_pool.items())},
            },
            "prior": {
                "lambda_w": {str(k): v for k, v in sorted(self.prior.lambda_w.items())},
                "lambda_b": {str(k): v for k, v in sorted(self.prior.lambda_b.items())},
            },
            "dataset": {k: v for k, v in vars(self.dataset).items() if v is not None and v is not False},
            "sampler": {k: v for k, v in vars(self.sampler).items() if v is not None},
            "initializations": list(self.initializations),
        }
        if self.dataset.inline_inputs is not None:
            d["dataset"]["inline_inputs"] = _to_nested_list(self.dataset.inline_inputs)
            d["dataset"]["inline_labels"] = _to_nested_list(self.dataset.inline_labels)
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if "network" not in raw:
            raise ConfigError("network: missing field 'network'")
        spec = _network_from_dict(_section(raw, "network"))
        noise = _noise_from_dict(_section(raw, "noise"), spec)
        prior = _prior_from_dict(_section(raw, "prior"), spec)
        dataset = _dataset_from_dict(_section(raw, "dataset"))
        sampler = _sampler_from_dict(_section(raw, "sampler"))
        cfg = cls(
            network=spec,
            noise=noise,
            prior=prior,
            dataset=dataset,
            sampler=sampler,
            initializations=_initializations(raw),
            sweeps=_number(raw, "sweeps", 1, int),
            spacing=_number(raw, "spacing", 1, int),
            seed=_number(raw, "seed", 0, int),
            max_seconds=_optional_number(raw, "max_seconds"),
            merge_window=_number(raw, "merge_window", 50, int),
            merge_tolerance=_number(raw, "merge_tolerance", 3.0, float),
        )
        cfg.validate()
        return cfg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def _to_nested_list(x):
    if isinstance(x, (list, tuple)):
        return [_to_nested_list(v) for v in x]
    return x


def _to_nested_tuple(x):
    if isinstance(x, (list, tuple)):
        return tuple(_to_nested_tuple(v) for v in x)
    return x


def _section(raw: dict, key: str, where: str = "") -> dict:
    """The nested object raw[key] ({} when absent)."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where}{key}: expected an object, got {value!r}")
    return value


def _number(raw: dict, key: str, default, kind, where: str = ""):
    """raw[key] (or ``default``) converted by ``kind``."""
    value = raw.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}{key}: expected {kind.__name__}, got {value!r}") from None


def _optional_number(raw: dict, key: str, where: str = "", integral: bool = False):
    """raw[key] unconverted (None when absent), after checking it is a
    number (an integer when ``integral``)."""
    value = raw.get(key)
    kind, what = (numbers.Integral, "an integer") if integral else (numbers.Real, "a number")
    if value is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        raise ConfigError(f"{where}{key}: expected {what}, got {value!r}")
    return value


def _initializations(raw: dict) -> tuple[str, ...]:
    kinds = raw.get("initializations", ())
    if not isinstance(kinds, (list, tuple)) or not all(isinstance(kind, str) for kind in kinds):
        raise ConfigError(f"initializations: expected a list of kind names, got {kinds!r}")
    return tuple(kinds)


_LAYER_KINDS = {"dense": DenseLayer, "conv": ConvLayer, "pool": PoolLayer}


def _layer_from_dict(where: str, raw) -> DenseLayer | ConvLayer | PoolLayer:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {raw!r}")
    values = dict(raw)
    kind = values.pop("kind", "dense")
    cls = _LAYER_KINDS.get(kind)
    if cls is None:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name, value in values.items():
        if name not in fields:
            raise ConfigError(f"{where}.{name}: unknown field of a {kind} layer")
        # field types are "int", except has_bias: "bool"
        if fields[name].type == "bool":
            ok = isinstance(value, (bool, np.bool_))
        else:
            ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not ok:
            raise ConfigError(f"{where}.{name}: expected {fields[name].type}, got {value!r}")
    for name, f in fields.items():
        if name not in values and f.default is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing field {name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _network_from_dict(raw: dict) -> NetworkSpec:
    if "layers" not in raw:
        raise ConfigError("network: missing field 'layers'")
    layers = [_layer_from_dict(f"network.layers[{i}]", ld) for i, ld in enumerate(raw["layers"])]
    try:
        return NetworkSpec(
            layers=tuple(layers),
            activation=Activation(raw.get("activation", "relu")),
            output=raw.get("output", OUTPUT_REGRESSION),
        )
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc


def _noise_from_dict(raw: dict, spec: NetworkSpec) -> NoiseSchedule:
    if "delta" in raw:
        return NoiseSchedule.uniform(spec, float(raw["delta"]))
    try:
        return NoiseSchedule(
            delta_z={int(k): float(v) for k, v in raw["delta_z"].items()},
            delta_x={int(k): float(v) for k, v in raw.get("delta_x", {}).items()},
            delta_pool={int(k): float(v) for k, v in raw.get("delta_pool", {}).items()},
        )
    except KeyError as exc:
        raise ConfigError(f"noise: missing field {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def _prior_from_dict(raw: dict, spec: NetworkSpec) -> PriorSpec:
    if raw.get("mode") == "fan_in":
        return PriorSpec.fan_in(spec)
    if "lambda" in raw:
        return PriorSpec.uniform(spec, float(raw["lambda"]))
    try:
        return PriorSpec(
            lambda_w={int(k): float(v) for k, v in raw["lambda_w"].items()},
            lambda_b={int(k): float(v) for k, v in raw.get("lambda_b", {}).items()},
        )
    except KeyError as exc:
        raise ConfigError(f"prior: missing field {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"prior: {exc}") from exc


def _dataset_from_dict(raw: dict) -> DatasetConfig:
    source = raw.get("source")
    if source not in ("synthetic", "idx", "inline"):
        raise ConfigError(f"dataset.source: expected synthetic/idx/inline, got {source!r}")
    if source == "idx" and ("images" not in raw or "labels" not in raw):
        raise ConfigError("dataset: idx source needs images and labels paths")
    if source == "inline" and ("inline_inputs" not in raw or "inline_labels" not in raw):
        raise ConfigError("dataset: inline source needs inline_inputs and inline_labels")
    n = raw.get("n")
    if n != "4x_params":
        n = _optional_number(raw, "n", "dataset.", integral=True)
    return DatasetConfig(
        source=source,
        n=n,
        n_test=_number(raw, "n_test", 0, int, "dataset."),
        delta_gen=_optional_number(raw, "delta_gen", "dataset."),
        noiseless=bool(raw.get("noiseless", False)),
        images=raw.get("images"),
        labels=raw.get("labels"),
        test_images=raw.get("test_images"),
        test_labels=raw.get("test_labels"),
        subset=raw.get("subset"),
        test_subset=raw.get("test_subset"),
        inline_inputs=_to_nested_tuple(raw["inline_inputs"]) if source == "inline" else None,
        inline_labels=_to_nested_tuple(raw["inline_labels"]) if source == "inline" else None,
        path=raw.get("path"),
    )


def _sampler_from_dict(raw: dict) -> SamplerConfig:
    # saved configs may carry "schedule_mode": "sequential" and "workers": 1;
    # those load, while any other mode is refused rather than silently run
    # as the one sweep order there is
    schedule = _section(raw, "schedule", "sampler.")
    for field, mode in (("schedule_mode", raw.get("schedule_mode")), ("schedule.mode", schedule.get("mode"))):
        if mode not in (None, "sequential"):
            raise ConfigError(f"sampler.{field}: the only sweep order is 'sequential', got {mode!r}")
    return SamplerConfig(
        kind=raw.get("kind", "gibbs"),
        posterior=raw.get("posterior", "intermediate"),
        step_size=_optional_number(raw, "step_size", "sampler."),
        leapfrog_steps=_optional_number(raw, "leapfrog_steps", "sampler.", integral=True),
    )


# -- dataset construction ------------------------------------------------


def build_dataset(cfg: ExperimentConfig, rng: RngStream) -> Dataset:
    dc = cfg.dataset
    spec = cfg.network
    if dc.path is not None:
        return ds.load_dataset(dc.path)
    if dc.source == "synthetic":
        n = dc.n
        if n in (None, "4x_params"):
            n = ds.four_times_params(spec)
        gen_noise = None
        if not dc.noiseless:
            delta_gen = dc.delta_gen
            if delta_gen is None:
                gen_noise = cfg.noise
            else:
                gen_noise = NoiseSchedule.uniform(spec, float(delta_gen))
        return ds.generate_teacher_student(
            spec, cfg.prior, int(n), dc.n_test, rng, noise_gen=gen_noise, noiseless=dc.noiseless
        )
    if dc.source == "idx":
        images, labels = ds.load_idx(dc.images, dc.labels, dc.subset)
        inputs = _shape_inputs(spec, images)
        test_inputs = test_labels = None
        if dc.test_images is not None:
            timg, tlab = ds.load_idx(dc.test_images, dc.test_labels, dc.test_subset)
            test_inputs, test_labels = _shape_inputs(spec, timg), tlab
        return Dataset(inputs=inputs, labels=labels, test_inputs=test_inputs, test_labels=test_labels)
    inputs = np.asarray(dc.inline_inputs, dtype=float)
    labels = np.asarray(dc.inline_labels)
    if spec.output == OUTPUT_REGRESSION:
        labels = labels.astype(float)
        if labels.ndim == 1:
            labels = labels.reshape(-1, 1)
    else:
        labels = labels.astype(int)
    return Dataset(inputs=_shape_inputs(spec, inputs), labels=labels)


def _shape_inputs(spec: NetworkSpec, flat: np.ndarray) -> np.ndarray:
    return flat.reshape(len(flat), *spec.layers[0].in_shape)


# -- chain initialization -------------------------------------------------


def _repair_probit_top(z_top: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Swap each row's maximum into the label slot so the argmax holds."""
    z = z_top.copy()
    rows = np.arange(len(z))
    amax = z.argmax(axis=1)
    bad = amax != labels
    if bad.any():
        r = rows[bad]
        a, y = amax[bad], labels[bad]
        za, zy = z[r, a].copy(), z[r, y].copy()
        z[r, a], z[r, y] = zy, za
    return z


def initialize_chain(
    kind: str,
    dataset: Dataset,
    spec: NetworkSpec,
    noise: NoiseSchedule,
    prior: PriorSpec,
    rng: RngStream,
) -> ChainState:
    """Build a starting chain state: informed, zero, random, or gaussian(s).

    informed copies the stored teacher chain; zero sets every unclamped
    variable to zero (probit output scores get a consistent one-hot);
    random draws parameters from the prior and latents from a fresh pass
    of the generative process; gaussian:s draws everything i.i.d. N(0, s^2).
    """
    frame = posteriors.clamped_frame(spec, dataset)
    top = spec.depth + 1
    if kind == "informed":
        if dataset.teacher is None:
            raise MissingTeacher("informed initialization needs a dataset with a stored teacher")
        state = dataset.teacher.copy()
    elif kind == "random":
        W, b = ds.sample_prior_weights(spec, prior, rng)
        state, _ = forward_generate(spec, noise, W, b, frame.X[1], rng)
        if spec.output == OUTPUT_PROBIT:
            state.Z[top] = _repair_probit_top(state.Z[top], frame.labels)
    else:
        if kind == "zero":
            make = np.zeros
        elif kind.startswith("gaussian:"):
            scale = float(kind.split(":", 1)[1])
            make = lambda size: rng.generator.normal(scale=scale, size=size)
        else:
            raise ValueError(f"unknown initialization kind {kind!r}")
        packer = posteriors.FlatPacker.for_intermediate(spec, dataset.n)
        state = packer.state(make(packer.size), frame)
        if spec.output == OUTPUT_PROBIT:
            # drawn after the packed vector and put in place of its output block
            scores = make((dataset.n, spec.out_width))
            if kind == "zero":
                scores[np.arange(dataset.n), frame.labels] = 1.0
            else:
                scores = _repair_probit_top(scores, frame.labels)
            state.Z[top] = scores
    state.X[1], state.labels = frame.X[1], frame.labels
    state.Z.update(frame.Z)
    return state


# -- observables ----------------------------------------------------------


class _Observer:
    """Computes the named observable columns for one chain."""

    def __init__(self, cfg: ExperimentConfig, dataset: Dataset):
        self.cfg = cfg
        self.spec = cfg.network
        self.dataset = dataset
        self.delta = cfg.noise.output_delta
        spec = self.spec
        self.columns: list[str] = []
        if dataset.test_inputs is not None:
            if spec.output == OUTPUT_REGRESSION:
                self.columns.append("test_mse")
            else:
                self.columns.append("test_error")
                if dataset.teacher is not None:
                    self.columns.append("test_mse")
        self.differentiable = spec.activation is not Activation.SIGN
        if self.differentiable:
            self.columns.append("score_U")
        if cfg.sampler.posterior == "intermediate":
            self.columns.append("train_residual")
        if cfg.sampler.kind in ("hmc", "mala"):
            self.columns.append("acceptance_rate")
        self.columns += [f"w{l}_sqnorm" for l in range(1, spec.depth + 1)]

    def _log_posterior_grads(self, state: ChainState) -> dict:
        if self.cfg.sampler.posterior == "intermediate":
            return posteriors.intermediate_log_posterior(state, self.spec, self.cfg.noise, self.cfg.prior)[1]
        return posteriors.classical_log_posterior(state.W, state.b, self.dataset, self.spec, self.delta, self.cfg.prior)[1]

    def observe_state(self, state: ChainState, acceptance: float | None = None) -> dict[str, float]:
        spec, dataset = self.spec, self.dataset
        out: dict[str, float] = {}
        if "test_mse" in self.columns:
            if dataset.teacher is not None:
                out["test_mse"] = test_mse(spec, state.W, state.b, dataset.teacher.W, dataset.teacher.b, dataset.test_inputs)
            else:
                pred = predict(spec, state.W, state.b, dataset.test_inputs)
                y = np.asarray(dataset.test_labels, dtype=float).reshape(pred.shape)
                out["test_mse"] = float(np.sum((pred - y) ** 2) / len(pred))
        if "test_error" in self.columns:
            out["test_error"] = test_error(spec, state.W, state.b, dataset.test_inputs, dataset.test_labels)
        if "score_U" in self.columns:
            out["score_U"] = diagnostics.score_statistic(state, self._log_posterior_grads, self.delta)
        if "train_residual" in self.columns:
            first = spec.weighted_layers[0].op
            resid = state.Z[2] - add_bias(first.product(state.W[1], state.X[1]), state.b.get(1))
            out["train_residual"] = float(np.sum(resid * resid))
        if acceptance is not None:
            out["acceptance_rate"] = acceptance
        for l in range(1, spec.depth + 1):
            out[f"w{l}_sqnorm"] = float(np.sum(state.W[l] * state.W[l]))
        return out


# -- experiment run -------------------------------------------------------


def _chain_label(idx: int, kind: str) -> str:
    return f"chain{idx}_{kind.replace(':', '')}"


def _write_trace(path: Path, columns: list[str], run: samplers.ChainRun):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sweep,wall_s," + ",".join(columns) + "\n")
        for sweep, wall, values in zip(run.times.tolist(), run.wall.tolist(), run.values.tolist()):
            cells = [str(sweep), f"{wall:.3f}"] + [f"{v:.17g}" for v in values]
            fh.write(",".join(cells) + "\n")


def read_trace(path) -> dict[str, diagnostics.TraceSeries]:
    """Parse one trace CSV into a TraceSeries per observable column."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        raw = [line.strip().split(",") for line in fh if line.strip()]
    if header[:2] != ["sweep", "wall_s"]:
        raise ValueError(f"{path}: not a trace file (header {header[:2]})")
    data = np.asarray(raw, dtype=float)
    times = data[:, 0].astype(int)
    wall = data[:, 1]
    out = {}
    for j, name in enumerate(header[2:], start=2):
        out[name] = diagnostics.TraceSeries(times=times, values=data[:, j], wall=wall)
    return out


def _run_single_chain(cfg: ExperimentConfig, dataset: Dataset, idx: int, kind: str, deadline: float | None):
    """Run one chain; the records hold the observer's columns in order."""
    spec = cfg.network
    chain_rng = RngStream(cfg.seed, (idx,))
    step_rng = chain_rng.child(1)
    observer = _Observer(cfg, dataset)
    init_state = initialize_chain(kind, dataset, spec, cfg.noise, cfg.prior, chain_rng.child(0))

    if cfg.sampler.kind == "gibbs":
        schedule = gibbs.SweepSchedule()

        def step(state):
            gibbs.gibbs_sweep(state, spec, cfg.noise, cfg.prior, schedule, step_rng)
            return state, True

        position, state_of = init_state, lambda state: state
    else:
        if cfg.sampler.posterior == "classical":
            target, packer = posteriors.make_classical_target(dataset, spec, cfg.noise.output_delta, cfg.prior)
        else:
            target, packer = posteriors.make_intermediate_target(dataset, spec, cfg.noise, cfg.prior)
        if cfg.sampler.kind == "hmc":
            settings = samplers.HmcSettings(cfg.sampler.step_size, cfg.sampler.leapfrog_steps)
            step = lambda x: samplers.hmc_step(x, target, settings, step_rng)[:2]
        else:
            settings = samplers.MalaSettings(cfg.sampler.step_size)
            step = lambda x: samplers.mala_step(x, target, settings, step_rng)
        frame = posteriors.clamped_frame(spec, dataset)
        position, state_of = packer.pack(vars(init_state)), lambda vec: packer.state(vec, frame)

    def observe(x, rate):
        out = observer.observe_state(state_of(x), rate)
        return [out[c] for c in observer.columns]

    run = samplers.run_chain(step, position, cfg.sweeps, observe, cfg.spacing, deadline)
    return run, observer.columns


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run all configured chains, persist traces, and summarize.

    One trace CSV per chain plus a ``summary.json`` holding final
    observables, acceptance rates, stationarity onsets, and (when an
    informed chain exists) the merge verdict of every other chain against
    the informed equilibrium. Returns the summary dict.
    """
    cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = build_dataset(cfg, RngStream(cfg.seed, (10_000,)))
    deadline = None
    if cfg.max_seconds is not None:
        deadline = time.monotonic() + float(cfg.max_seconds)

    jobs = list(enumerate(cfg.initializations))
    results = {}
    with ThreadPoolExecutor(max_workers=max(1, len(jobs))) as pool:
        futures = {
            pool.submit(_run_single_chain, cfg, dataset, idx, kind, deadline): (idx, kind) for idx, kind in jobs
        }
        for fut, (idx, kind) in futures.items():
            results[(idx, kind)] = fut.result()

    summary = {"chains": [], "merge": {}, "config": cfg.to_dict()}
    traces = {}
    for (idx, kind), (run, columns) in sorted(results.items()):
        label = _chain_label(idx, kind)
        path = out / f"trace_{label}.csv"
        _write_trace(path, columns, run)
        traces[label] = (kind, path, run, columns)
        entry = {
            "label": label,
            "initialization": kind,
            "file": path.name,
            "records": len(run.times),
            "final": dict(zip(columns, run.values[-1].tolist())),
        }
        if cfg.sampler.kind != "gibbs":
            entry["acceptance_rate"] = run.acceptance_rate
        summary["chains"].append(entry)

    merge_obs = _merge_observable(traces)
    informed_label = next((lab for lab, (kind, *_rest) in traces.items() if kind == "informed"), None)
    if merge_obs is not None and informed_label is not None:
        series = {label: _series_of(run, columns, merge_obs) for label, (_k, _p, run, columns) in traces.items()}
        verdicts = diagnostics.merge_verdicts(series, informed_label, merge_obs, cfg.merge_window, cfg.merge_tolerance)
        summary["merge"] = {label: {"observable": merge_obs, **verdict} for label, verdict in verdicts.items()}

    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return summary


def _merge_observable(traces) -> str | None:
    for obs in ("test_mse", "test_error", "w1_sqnorm"):
        if all(obs in columns for (_k, _p, _run, columns) in traces.values()):
            return obs
    return None


def _series_of(run: samplers.ChainRun, columns: list[str], column: str) -> diagnostics.TraceSeries:
    return diagnostics.TraceSeries(times=run.times, values=run.values[:, columns.index(column)])
