"""Experiment orchestration: validated configs, chain initialization,
multi-chain runs with trace persistence, and post-run merge verdicts.

Configs are plain JSON (nested key/value); traces are one CSV per chain
with a ``sweep,wall_s,<observable...>`` header so any plotting stack can
consume them. A chain's only output is its trace, written record by
record, and the summary and merge verdicts are read back from the traces.
Chains run concurrently on independent RNG streams, and a re-run with
the same seed reproduces every trace byte-for-byte except the
wall-clock column.
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
    "DatasetConfig",
    "SamplerConfig",
    "ExperimentConfig",
    "initialize_chain",
    "build_dataset",
    "dataset_stream",
    "run_experiment",
    "read_trace",
]


class ConfigError(Exception):
    """A config field is missing, malformed, or inconsistent."""


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

    def __post_init__(self):
        if self.source == "idx" and (self.images is None or self.labels is None):
            raise ConfigError("dataset: idx source needs images and labels")
        if self.source == "idx" and (self.test_images is None) != (self.test_labels is None):
            raise ConfigError("dataset: an idx test split needs test_images and test_labels")


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

    def __post_init__(self):
        # a window's variance takes two samples; dataset sizes may be unset, and n may be "4x_params"
        for name, low in (
            ("sweeps", 1), ("spacing", 1), ("seed", 0), ("merge_window", 2),
            ("dataset.n", 1), ("dataset.n_test", 0), ("dataset.subset", 1), ("dataset.test_subset", 1),
            ("sampler.leapfrog_steps", 1),
        ):
            value = operator.attrgetter(name)(self)
            if isinstance(value, numbers.Real) and value < low:
                raise ConfigError(f"{name}: must be >= {low}, got {value}")
        # a variance, step or budget of inf passes every sign check and then
        # breaks the run; a merge band of infinite width calls every chain merged
        for name in ("dataset.delta_gen", "max_seconds", "sampler.step_size", "merge_tolerance"):
            value = operator.attrgetter(name)(self)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name}: must be > 0 and finite, got {value}")
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
            # an archive at dataset.path replaces the source; build_dataset checks it has a teacher
            if init == "informed" and self.dataset.source == "idx" and self.dataset.path is None:
                raise ConfigError("initializations: informed requires a synthetic dataset or an archive with a stored teacher")
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
        return _typed(
            cls,
            raw,
            "",
            network=spec,
            noise=_noise_from_dict(_section(raw, "noise"), spec),
            prior=_prior_from_dict(_section(raw, "prior"), spec),
            dataset=_typed(DatasetConfig, _section(raw, "dataset"), "dataset"),
            sampler=_typed(SamplerConfig, _section(raw, "sampler"), "sampler"),
        )

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


# -- dataset construction ------------------------------------------------


def dataset_stream(seed: int) -> RngStream:
    """The stream a run's synthetic dataset is drawn from, apart from every
    chain's ``(idx,)`` stream, so ``generate`` and ``run`` draw the same data."""
    return RngStream(seed, (10_000,))


def build_dataset(cfg: ExperimentConfig, rng: RngStream) -> Dataset:
    dc, spec = cfg.dataset, cfg.network
    if dc.path is None and dc.source == "synthetic":
        n = ds.four_times_params(spec) if dc.n in (None, "4x_params") else dc.n
        # noiseless labels draw no generation noise, whatever the schedule
        gen_noise = cfg.noise if dc.delta_gen is None else NoiseSchedule.uniform(spec, dc.delta_gen)
        return ds.generate_teacher_student(
            spec, cfg.prior, n, dc.n_test, rng, noise_gen=gen_noise, noiseless=dc.noiseless
        )
    if dc.path is not None:
        dataset, where = ds.load_dataset(dc.path), dc.path
    else:
        images, labels = ds.load_idx(dc.images, dc.labels, dc.subset)
        dataset, where = Dataset(ds.idx_inputs(spec, images, dc.images), labels), f"{dc.images}, {dc.labels}"
        if dc.test_images is not None:
            images, labels = ds.load_idx(dc.test_images, dc.test_labels, dc.test_subset)
            dataset.test_inputs, dataset.test_labels = ds.idx_inputs(spec, images, dc.test_images), labels
            where += f", {dc.test_images}, {dc.test_labels}"
    ds.check_fits(spec, dataset, where)
    if "informed" in cfg.initializations and dataset.teacher is None:
        raise ds.InputError(f"{where}: informed initialization needs a stored teacher, and the archive has no teacher_* arrays")
    return dataset


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
            raise ds.InputError("informed initialization needs a dataset with a stored teacher")
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
        if cfg.sampler.posterior == "classical":
            # the target the chain steps on; its W[1] gradient block is the score
            self.target, self.packer = posteriors.make_classical_target(dataset, spec, self.delta, cfg.prior)
        if cfg.sampler.posterior == "intermediate":
            self.columns.append("train_residual")
            # X[1] is clamped, so its design is the same at every record
            self.design = spec.weighted_layers[0].design(posteriors.clamped_frame(spec, dataset).X[1])
        if cfg.sampler.kind in ("hmc", "mala"):
            self.columns.append("acceptance_rate")
        self.columns += [f"w{l}_sqnorm" for l in range(1, spec.depth + 1)]

    def observe_state(self, state: ChainState, acceptance: float | None = None) -> dict[str, float]:
        spec, dataset = self.spec, self.dataset
        out: dict[str, float] = {}
        if dataset.test_inputs is not None:
            scores = predict(spec, state.W, state.b, dataset.test_inputs)
        if "test_mse" in self.columns:
            out["test_mse"] = output_mse(scores, self.test_target)
        if "test_error" in self.columns:
            out["test_error"] = error_rate(scores, dataset.test_labels)
        if self.cfg.sampler.posterior == "intermediate":
            # on the noisy-layer posterior the W[1] gradient is the prior's
            # term plus the first layer's residual times its design
            layer = spec.weighted_layers[0]
            resid = residual(state.Z[2], layer.product(state.W[1], state.X[1], self.design), state.b.get(1))
            out["train_residual"] = float(np.sum(resid * resid))
            if "score_U" in self.columns:
                # a new C-ordered array: a Gibbs draw leaves W[1] transposed,
                # and a mean over another memory order can move the last bit
                grad = np.multiply(-self.cfg.prior.lambda_w[1], state.W[1], out=np.empty(state.W[1].shape))
                grad += layer.weight_grad(resid, state.X[1], self.design) / self.cfg.noise.delta_z[2]
                out["score_U"] = float(self.delta * np.mean(grad))
        elif "score_U" in self.columns:
            sl, shape = self.packer.slices["W", 1]
            grad = self.target(self.packer.pack({"W": state.W, "b": state.b}))[1]
            out["score_U"] = float(self.delta * np.mean(grad[sl].reshape(shape)))
        if acceptance is not None:
            out["acceptance_rate"] = acceptance
        for l in range(1, spec.depth + 1):
            out[f"w{l}_sqnorm"] = float(np.sum(state.W[l] * state.W[l]))
        return out


# -- experiment run -------------------------------------------------------


def _chain_label(idx: int, kind: str) -> str:
    return f"chain{idx}_{kind.replace(':', '')}"


def _trace_file(label: str) -> str:
    return f"trace_{label}.csv"


def read_trace(path) -> dict[str, diagnostics.TraceSeries]:
    """Parse one trace CSV into a TraceSeries per observable column.

    A file that is not UTF-8 text, repeats a column name, has no records,
    or has a record that is not one finite number per column or whose
    sweep is not a 64-bit integer above the previous record's, is a
    ``datasets.InputError`` naming the file (and the line and column)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header[:2] != ["sweep", "wall_s"]:
                raise ds.InputError(f"{path}: not a trace file (header {header[:2]})")
            repeated = [name for i, name in enumerate(header) if name in header[:i]]
            if repeated:
                raise ds.InputError(f"{path}, line 1: repeated column name {repeated[0]!r}")
            rows = []
            for number, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                cells = line.strip().split(",")
                row = [_parsed(float, cell, None) for cell in cells]
                if len(row) != len(header) or None in row:
                    raise ds.InputError(f"{path}, line {number}: expected {len(header)} numbers, got {line.strip()!r}")
                for name, cell, value in zip(header, cells, row):
                    if not math.isfinite(value):
                        raise ds.InputError(f"{path}, line {number}, column {name!r}: {cell!r} is not a finite number")
                # a sweep count outside int64 would wrap in the integer times
                if not (row[0].is_integer() and abs(row[0]) < 2**63):
                    raise ds.InputError(f"{path}, line {number}: sweep {row[0]!r} is not a 64-bit integer")
                if rows and row[0] <= rows[-1][0]:
                    raise ds.InputError(f"{path}, line {number}: sweep {int(row[0])} does not follow sweep {int(rows[-1][0])}")
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise ds.InputError(f"{path}: not a UTF-8 text trace ({exc.reason})") from None
    if not rows:
        raise ds.InputError(f"{path}, line 2: no records after the header")
    data = np.asarray(rows)
    times = data[:, 0].astype(int)
    wall = data[:, 1]
    out = {}
    for j, name in enumerate(header[2:], start=2):
        out[name] = diagnostics.TraceSeries(times=times, values=data[:, j], wall=wall)
    return out


def _run_single_chain(cfg: ExperimentConfig, dataset: Dataset, idx: int, kind: str, deadline: float | None, out: Path):
    """Run one chain, writing its trace into ``out`` record by record."""
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
            target, packer = observer.target, observer.packer
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

    columns = observer.columns
    # one flushed line per record, so a chain that stops keeps every record it took
    with open(out / _trace_file(_chain_label(idx, kind)), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sweep,wall_s," + ",".join(columns) + "\n")
        start = time.monotonic()

        def record(t, x, rate):
            wall = time.monotonic() - start
            values = observer.observe_state(state_of(x), rate)
            fh.write(",".join([str(t), f"{wall:.3f}"] + [f"{values[c]:.17g}" for c in columns]) + "\n")
            fh.flush()

        samplers.run_chain(step, position, cfg.sweeps, record, cfg.spacing, deadline)


def _chain_entry(label: str, kind: str, series: dict[str, diagnostics.TraceSeries]) -> dict:
    """A chain's summary entry, read off its trace. ``run_chain`` records its
    last step, so the last ``acceptance_rate`` cell is the whole run's rate."""
    final = {c: float(s.values[-1]) for c, s in series.items()}
    entry = {"label": label, "initialization": kind, "file": _trace_file(label), "records": len(series["w1_sqnorm"].times), "final": final}
    if "acceptance_rate" in final:
        entry["acceptance_rate"] = final["acceptance_rate"]
    return entry


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run all configured chains, persist traces, and summarize.

    One trace CSV per chain plus a ``summary.json`` holding each chain's
    final observables and record count, the HMC/MALA acceptance rates,
    the config, and (when an informed chain exists) the merge verdict of
    every other chain against the informed equilibrium. Returns the
    summary dict. The dataset is built before ``out_dir`` is made, so a
    bad input leaves no directory.
    """
    dataset = build_dataset(cfg, dataset_stream(cfg.seed))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    deadline = None if cfg.max_seconds is None else time.monotonic() + cfg.max_seconds

    with ThreadPoolExecutor(max_workers=len(cfg.initializations)) as pool:
        futures = [
            pool.submit(_run_single_chain, cfg, dataset, idx, kind, deadline, out)
            for idx, kind in enumerate(cfg.initializations)
        ]
        for fut in futures:
            fut.result()

    labels = {_chain_label(idx, kind): kind for idx, kind in enumerate(cfg.initializations)}
    traces = {label: read_trace(out / _trace_file(label)) for label in labels}
    summary = {"chains": [_chain_entry(label, kind, traces[label]) for label, kind in labels.items()], "merge": {}, "config": cfg.to_dict()}
    informed_label = next((label for label, kind in labels.items() if kind == "informed"), None)
    if informed_label is not None:
        # every chain records the same columns, and w1_sqnorm is always one of them
        merge_obs = next(obs for obs in ("test_mse", "test_error", "w1_sqnorm") if obs in traces[informed_label])
        series = {label: by_column[merge_obs] for label, by_column in traces.items()}
        verdicts = diagnostics.merge_verdicts(series, informed_label, merge_obs, cfg.merge_window, cfg.merge_tolerance)
        summary["merge"] = {label: {"observable": merge_obs, **verdict} for label, verdict in verdicts.items()}

    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return summary
