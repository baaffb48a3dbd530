"""Experiment orchestration: validated configs, chain initialization,
multi-chain runs with trace persistence, and post-run merge verdicts.

Configs are plain JSON (nested key/value); traces are one CSV per chain
with a ``sweep,wall_s,<observable...>`` header so any plotting stack can
consume them. Chains run concurrently on independent RNG streams, and a
re-run with the same seed reproduces every trace byte-for-byte except
the wall-clock column.
"""
from __future__ import annotations

import contextlib
import dataclasses
import enum
import json
import math
import numbers
import operator
import time
import types
import typing
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
    Dataset,
    LayerSpec,
    NetworkSpec,
    NoiseSchedule,
    PriorSpec,
    ShapeMismatch,
    error_rate,
    forward_generate,
    output_mse,
    predict,
    residual,
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
    source: typing.Literal["synthetic", "idx"]
    n: typing.Literal["4x_params"] | int | None = None
    n_test: int = 0
    delta_gen: float | None = None
    noiseless: bool = False
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    subset: int | None = None
    test_subset: int | None = None
    path: str | None = None


@dataclass(frozen=True)
class SamplerConfig:
    kind: typing.Literal["gibbs", "hmc", "mala"] = "gibbs"
    posterior: typing.Literal["intermediate", "classical"] = "intermediate"
    step_size: float | None = None
    leapfrog_steps: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkSpec
    noise: NoiseSchedule
    prior: PriorSpec
    dataset: DatasetConfig
    sampler: SamplerConfig
    initializations: tuple[str, ...] = ()
    sweeps: int = 1
    spacing: int = 1
    seed: int = 0
    max_seconds: float | None = None
    merge_window: int = 50
    merge_tolerance: float = 3.0

    def validate(self):
        # a window's variance takes two samples; dataset sizes may be unset, and n may be "4x_params"
        for name, low in (
            ("sweeps", 1), ("spacing", 1), ("seed", 0), ("merge_window", 2),
            ("dataset.n", 1), ("dataset.n_test", 0), ("dataset.subset", 1), ("dataset.test_subset", 1),
            ("sampler.leapfrog_steps", 1),
        ):
            value = operator.attrgetter(name)(self)
            if isinstance(value, numbers.Real) and value < low:
                raise ConfigError(f"{name}: must be >= {low}, got {value}")
        for name, value in (
            ("merge_tolerance", self.merge_tolerance), ("dataset.delta_gen", self.dataset.delta_gen), ("max_seconds", self.max_seconds),
            ("sampler.step_size", self.sampler.step_size),
        ):
            if value is not None and not value > 0:
                raise ConfigError(f"{name}: must be > 0, got {value}")
        # the uniform tables hold exactly the layers each table must cover
        for section, full in (("noise", NoiseSchedule.uniform(self.network, 1.0)), ("prior", PriorSpec.uniform(self.network, 1.0))):
            for name, layers in vars(full).items():
                for l in sorted(set(getattr(getattr(self, section), name)) ^ set(layers)):
                    problem = "missing" if l in layers else "no such layer"
                    raise ConfigError(f"{section}.{name}[{l}]: {problem}; this network needs layers {sorted(layers)}")
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
            if init.startswith("gaussian:"):
                if not 0 < _parsed(float, init.removeprefix("gaussian:"), math.nan) < math.inf:
                    raise ConfigError(f"initializations: {init!r} needs a finite positive scale")
            elif init not in ("informed", "zero", "random"):
                raise ConfigError(f"initializations: unknown kind {init!r}")
        if not self.initializations:
            raise ConfigError("initializations: need at least one chain")

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        spec = self.network
        layers = [{"kind": layer.kind, **dataclasses.asdict(layer)} for layer in spec.layers]
        return {
            "seed": self.seed,
            "sweeps": self.sweeps,
            "spacing": self.spacing,
            "max_seconds": self.max_seconds,
            "merge_window": self.merge_window,
            "merge_tolerance": self.merge_tolerance,
            "network": {"activation": spec.activation.value, "output": spec.output, "layers": layers},
            "noise": {name: {str(k): v for k, v in sorted(t.items())} for name, t in vars(self.noise).items()},
            "prior": {name: {str(k): v for k, v in sorted(t.items())} for name, t in vars(self.prior).items()},
            "dataset": {k: v for k, v in vars(self.dataset).items() if v is not None and v is not False},
            "sampler": {k: v for k, v in vars(self.sampler).items() if v is not None},
            "initializations": list(self.initializations),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = _object(raw, "config")
        spec = _typed(NetworkSpec, _section(raw, "network"), "network")
        cfg = _typed(
            cls,
            raw,
            "",
            network=spec,
            noise=_noise_from_dict(_section(raw, "noise"), spec),
            prior=_prior_from_dict(_section(raw, "prior"), spec),
            dataset=_dataset_from_dict(_section(raw, "dataset")),
            sampler=_typed(SamplerConfig, _section(raw, "sampler"), "sampler"),
        )
        cfg.validate()
        return cfg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _parsed(kind, text: str, fallback):
    """kind(text), or ``fallback`` when the text does not parse."""
    try:
        return kind(text)
    except ValueError:
        return fallback


# -- config parsing: one typed walk over the dataclass fields -------------


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    return value


def _section(raw: dict, key: str, where: str = "") -> dict:
    """The nested object raw[key] ({} when absent)."""
    return _object(raw.get(key, {}), where + key)


def _typed(cls, raw: dict, where: str, **given):
    """``cls`` built from the object ``raw``: every key must name a field,
    and its value is checked against that field's type hint. ``given``
    holds fields the caller has already built; a key of the same name in
    ``raw`` is what it was built from."""
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    unknown = [key for key in raw if key not in names]
    if unknown:
        raise ConfigError("; ".join(f"{_join(where, key)}: unknown field" for key in unknown))
    hints = typing.get_type_hints(cls)
    values = dict(given)
    for f in fields:
        if f.name in given:
            continue
        if f.name in raw:
            values[f.name] = _check(raw[f.name], hints[f.name], _join(where, f.name))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{_join(where, f.name)}: missing field")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where or 'config'}: {exc}") from exc


def _join(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


# scalar hint -> (accepted types, refused types, what the error calls it);
# the stored value is hint(value), so an integer given to a float is a float
_SCALARS = {
    int: ((int, np.integer), bool, "an integer"),
    float: (numbers.Real, (bool, np.bool_), "a number"),
    bool: ((bool, np.bool_), (), "true or false"),
    str: (str, (), "a string"),
}


def _check(value, hint, path: str):
    """``value`` checked against the type hint ``hint`` of the field at ``path``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint == LayerSpec:
        return _layer_from_dict(path, value)
    if origin in (types.UnionType, typing.Union):
        if value is None and type(None) in args:
            return None
        *first, last = [a for a in args if a is not type(None)]
        for member in first:
            with contextlib.suppress(ConfigError):
                return _check(value, member, path)
        return _check(value, last, path)
    if origin is typing.Literal:
        if value in args:
            return value
        raise ConfigError(f"{path}: expected {' or '.join(map(repr, args))}, got {value!r}")
    if hint in _SCALARS:
        accepted, refused, what = _SCALARS[hint]
        if isinstance(value, accepted) and not isinstance(value, refused):
            return hint(value)
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
    if isinstance(hint, enum.EnumMeta):
        return hint(_check(value, typing.Literal[tuple(member.value for member in hint)], path))
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(_check(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        # the int-keyed tables of noise and prior; JSON keys are strings
        key_hint, value_hint = args
        table = {}
        for key, v in _object(value, path).items():
            key = _check(_parsed(int, key, key) if isinstance(key, str) else key, key_hint, f"{path}[{key!r}]")
            table[key] = _check(v, value_hint, f"{path}[{key}]")
        return table
    raise TypeError(f"{path}: no config rule for type {hint!r}")


def _layer_from_dict(where: str, raw) -> LayerSpec:
    raw = _object(raw, where)
    kind = raw.get("kind", "dense")
    cls = next((c for c in typing.get_args(LayerSpec) if c.kind == kind), None)
    if cls is None:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
    return _typed(cls, {k: v for k, v in raw.items() if k != "kind"}, where)


def _shorthand(raw: dict, where: str, key: str, hint, build):
    """The section that the one key ``raw[key]`` stands for; it sets every
    table, so no other key may come with it."""
    others = [k for k in raw if k != key]
    if others:
        raise ConfigError(f"{_join(where, others[0])}: cannot be combined with {where}.{key}")
    value = _check(raw[key], hint, f"{where}.{key}")
    try:
        return build(value)
    except ValueError as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from exc


def _noise_from_dict(raw: dict, spec: NetworkSpec) -> NoiseSchedule:
    if "delta" in raw:
        return _shorthand(raw, "noise", "delta", float, lambda delta: NoiseSchedule.uniform(spec, delta))
    return _typed(NoiseSchedule, raw, "noise")


def _prior_from_dict(raw: dict, spec: NetworkSpec) -> PriorSpec:
    if "mode" in raw:
        return _shorthand(raw, "prior", "mode", typing.Literal["fan_in"], lambda _mode: PriorSpec.fan_in(spec))
    if "lambda" in raw:
        return _shorthand(raw, "prior", "lambda", float, lambda lam: PriorSpec.uniform(spec, lam))
    return _typed(PriorSpec, raw, "prior")


def _dataset_from_dict(raw: dict) -> DatasetConfig:
    dc = _typed(DatasetConfig, raw, "dataset")
    if dc.source == "idx" and (dc.images is None or dc.labels is None):
        raise ConfigError("dataset: idx source needs images and labels")
    return dc


# -- dataset construction ------------------------------------------------


def build_dataset(cfg: ExperimentConfig, rng: RngStream) -> Dataset:
    dc = cfg.dataset
    spec = cfg.network
    if dc.path is not None:
        dataset = ds.load_dataset(dc.path)
        _check_fits(spec, dataset, dc.path)
        return dataset
    if dc.source == "synthetic":
        n = ds.four_times_params(spec) if dc.n in (None, "4x_params") else dc.n
        # noiseless labels draw no generation noise, whatever the schedule
        gen_noise = cfg.noise if dc.delta_gen is None else NoiseSchedule.uniform(spec, dc.delta_gen)
        return ds.generate_teacher_student(
            spec, cfg.prior, n, dc.n_test, rng, noise_gen=gen_noise, noiseless=dc.noiseless
        )
    images, labels = ds.load_idx(dc.images, dc.labels, dc.subset)
    inputs = _shape_inputs(spec, images)
    test_inputs = test_labels = None
    if dc.test_images is not None:
        timg, tlab = ds.load_idx(dc.test_images, dc.test_labels, dc.test_subset)
        test_inputs, test_labels = _shape_inputs(spec, timg), tlab
    return Dataset(inputs=inputs, labels=labels, test_inputs=test_inputs, test_labels=test_labels)


def _check_fits(spec: NetworkSpec, dataset: Dataset, path) -> None:
    """A loaded dataset fits the network, or ShapeMismatch names the file:
    every input has the first layer's input shape, and each label row is
    ``spec.out_width`` regression outputs (a 1-D label for a width of 1)
    or an integer class in [0, out_width) for probit. The test split, where
    there is one, is held to the same rules, and a stored teacher has the
    network's weight and bias shapes."""
    splits = [("", dataset.inputs, dataset.labels)]
    if dataset.test_inputs is not None:
        splits.append(("test_", dataset.test_inputs, dataset.test_labels))
    want = spec.layers[0].in_shape
    for prefix, inputs, labels in splits:
        inputs, labels = np.asarray(inputs), np.asarray(labels)
        if inputs.shape[1:] != want:
            raise ShapeMismatch(
                f"{path}: {prefix}inputs have shape {inputs.shape}, the network's first layer wants (n, {', '.join(map(str, want))})"
            )
        if len(labels) != len(inputs):
            raise ShapeMismatch(f"{path}: {len(labels)} {prefix}labels for {len(inputs)} {prefix}inputs")
        if spec.output == OUTPUT_REGRESSION:
            if (labels.shape[1:] or (1,)) != (spec.out_width,):
                raise ShapeMismatch(f"{path}: {prefix}labels have shape {labels.shape}, the network has {spec.out_width} regression outputs")
        elif not (labels.ndim == 1 and labels.dtype.kind in "iu" and np.all((labels >= 0) & (labels < spec.out_width))):
            raise ShapeMismatch(f"{path}: {prefix}labels are not integer classes in [0, {spec.out_width}) for the probit output")
    if dataset.teacher is not None:
        got = [(l, np.shape(w), np.shape(dataset.teacher.b.get(l))) for l, w in sorted(dataset.teacher.W.items())]
        fits = [(l, spec.weight_shape(l), (spec.bias_width(l),) if spec.has_bias(l) else ()) for l in range(1, spec.depth + 1)]
        if got != fits:
            raise ShapeMismatch(f"{path}: the stored teacher's (layer, W, b) shapes are {got}, the network's are {fits}")


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
        # what test_mse compares the student's test outputs with: the fixed
        # teacher's outputs, computed once per chain, or else the labels
        if "test_mse" in self.columns:
            if dataset.teacher is not None:
                self.test_target = predict(spec, dataset.teacher.W, dataset.teacher.b, dataset.test_inputs)
            else:
                self.test_target = np.asarray(dataset.test_labels, dtype=float).reshape(len(dataset.test_inputs), -1)
        if spec.activation is not Activation.SIGN:
            self.columns.append("score_U")
            # the score's gradient layout, built once per chain
            design = spec.weighted_layers[0].design(np.asarray(dataset.inputs, dtype=float))
            if cfg.sampler.posterior == "intermediate":
                self.layout = posteriors.FlatLayout.for_intermediate(spec, dataset.n, cfg.prior, design)
            else:
                self.layout = posteriors.FlatLayout.for_classical(spec, cfg.prior, design)
        if cfg.sampler.posterior == "intermediate":
            self.columns.append("train_residual")
        if cfg.sampler.kind in ("hmc", "mala"):
            self.columns.append("acceptance_rate")
        self.columns += [f"w{l}_sqnorm" for l in range(1, spec.depth + 1)]

    def _log_posterior_grads(self, state: ChainState) -> dict:
        if self.cfg.sampler.posterior == "intermediate":
            return posteriors.intermediate_log_posterior(state, self.spec, self.cfg.noise, self.cfg.prior, layout=self.layout)[1]
        return posteriors.classical_log_posterior(state.W, state.b, self.dataset, self.spec, self.delta, self.cfg.prior, layout=self.layout)[1]

    def observe_state(self, state: ChainState, acceptance: float | None = None) -> dict[str, float]:
        spec, dataset = self.spec, self.dataset
        out: dict[str, float] = {}
        if dataset.test_inputs is not None:
            scores = predict(spec, state.W, state.b, dataset.test_inputs)
        if "test_mse" in self.columns:
            out["test_mse"] = output_mse(scores, self.test_target)
        if "test_error" in self.columns:
            out["test_error"] = error_rate(scores, dataset.test_labels)
        if "score_U" in self.columns:
            out["score_U"] = diagnostics.score_statistic(state, self._log_posterior_grads, self.delta)
        if "train_residual" in self.columns:
            product = spec.weighted_layers[0].product(state.W[1], state.X[1], state.first_design(spec))
            resid = residual(state.Z[2], product, state.b.get(1))
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
    """Parse one trace CSV into a TraceSeries per observable column.

    A file with no records, or a record that is not one number per
    column, is a ValueError naming the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["sweep", "wall_s"]:
            raise ValueError(f"{path}: not a trace file (header {header[:2]})")
        rows = []
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = [_parsed(float, cell, None) for cell in line.strip().split(",")]
            if len(row) != len(header) or None in row:
                raise ValueError(f"{path}, line {number}: expected {len(header)} numbers, got {line.strip()!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}, line 2: no records after the header")
    data = np.asarray(rows)
    times = data[:, 0].astype(int)
    wall = data[:, 1]
    out = {}
    for j, name in enumerate(header[2:], start=2):
        out[name] = diagnostics.TraceSeries(times=times, values=data[:, j], wall=wall)
    return out


def _run_single_chain(cfg: ExperimentConfig, dataset: Dataset, idx: int, kind: str, deadline: float | None, out: Path):
    """Run one chain and write its trace into ``out``. Returns the chain's
    summary entry and its series of each observable column."""
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
        values = observer.observe_state(state_of(x), rate)
        return [values[c] for c in observer.columns]

    run = samplers.run_chain(step, position, cfg.sweeps, observe, cfg.spacing, deadline)
    columns = observer.columns
    label = _chain_label(idx, kind)
    path = out / f"trace_{label}.csv"
    _write_trace(path, columns, run)
    entry = {
        "label": label,
        "initialization": kind,
        "file": path.name,
        "records": len(run.times),
        "final": dict(zip(columns, run.values[-1].tolist())),
    }
    if cfg.sampler.kind != "gibbs":
        entry["acceptance_rate"] = run.acceptance_rate
    series = {c: diagnostics.TraceSeries(times=run.times, values=run.values[:, j]) for j, c in enumerate(columns)}
    return entry, series


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run all configured chains, persist traces, and summarize.

    One trace CSV per chain plus a ``summary.json`` holding final
    observables, acceptance rates, stationarity onsets, and (when an
    informed chain exists) the merge verdict of every other chain against
    the informed equilibrium. Returns the summary dict. The dataset is
    built before ``out_dir`` is made, so a bad input leaves no directory.
    """
    cfg.validate()
    dataset = build_dataset(cfg, RngStream(cfg.seed, (10_000,)))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    deadline = None if cfg.max_seconds is None else time.monotonic() + cfg.max_seconds

    with ThreadPoolExecutor(max_workers=len(cfg.initializations)) as pool:
        futures = [
            pool.submit(_run_single_chain, cfg, dataset, idx, kind, deadline, out)
            for idx, kind in enumerate(cfg.initializations)
        ]
        chains = [fut.result() for fut in futures]

    summary = {"chains": [entry for entry, _series in chains], "merge": {}, "config": cfg.to_dict()}
    informed_label = next((entry["label"] for entry, _series in chains if entry["initialization"] == "informed"), None)
    if informed_label is not None:
        # every chain records the same columns, and w1_sqnorm is always one of them
        merge_obs = next(obs for obs in ("test_mse", "test_error", "w1_sqnorm") if obs in chains[0][1])
        series = {entry["label"]: by_column[merge_obs] for entry, by_column in chains}
        verdicts = diagnostics.merge_verdicts(series, informed_label, merge_obs, cfg.merge_window, cfg.merge_tolerance)
        summary["merge"] = {label: {"observable": merge_obs, **verdict} for label, verdict in verdicts.items()}

    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return summary
