"""Command-line entry point.

Subcommands: ``generate`` builds a dataset file, ``run`` executes an
experiment config or preset, ``diagnose`` scores existing trace files,
and ``presets`` lists or prints the shipped configurations.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


from . import datasets as ds
from . import diagnostics, presets
from .harness import ConfigError, ExperimentConfig, build_dataset, read_trace, run_experiment
from .kernels import RngStream
from .network import ShapeMismatch

__all__ = ["main"]


def _load_config(args) -> ExperimentConfig:
    if args.config is not None and args.preset is not None:
        raise ConfigError("pass either --config or --preset, not both")
    if args.config is not None:
        if args.delta is not None:
            raise ConfigError("--delta applies to --preset only")
        path = Path(args.config)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
        cfg = ExperimentConfig.from_dict(raw)
    elif args.preset is not None:
        cfg = presets.get_preset(args.preset, delta=args.delta)
    else:
        raise ConfigError("a --config file or --preset name is required")
    raw = cfg.to_dict()
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.sweeps is not None:
        raw["sweeps"] = args.sweeps
    if args.max_seconds is not None:
        raw["max_seconds"] = args.max_seconds
    if getattr(args, "data", None) is not None:
        raw["dataset"] = dict(raw["dataset"], path=args.data)
    return ExperimentConfig.from_dict(raw)


def _add_config_flags(p, with_data=True):
    p.add_argument("--config", metavar="PATH", help="experiment config JSON")
    p.add_argument("--preset", metavar="NAME", help="named preset configuration")
    p.add_argument("--delta", type=float, default=None, help="override the preset noise level")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--sweeps", type=int, default=None, help="override the sweep budget")
    p.add_argument("--max-seconds", type=float, default=None, help="wall-clock budget with graceful flush")
    if with_data:
        p.add_argument("--data", metavar="PATH", help="pre-generated dataset .npz instead of the config source")


def _cmd_generate(args) -> int:
    cfg = _load_config(args)
    dataset = build_dataset(cfg, RngStream(cfg.seed, (10_000,)))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds.save_dataset(out, dataset)
    info = {
        "path": str(out),
        "n": int(dataset.n),
        "n_test": 0 if dataset.test_inputs is None else int(len(dataset.test_inputs)),
        "teacher": dataset.teacher is not None,
    }
    print(json.dumps(info, indent=2))
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    summary = run_experiment(cfg, args.out)
    print(json.dumps({"out": str(args.out), "chains": [c["label"] for c in summary["chains"]], "merge": summary["merge"]}, indent=2, default=float))
    return 0


def _cmd_diagnose(args) -> int:
    series_by_file = {}
    for path in args.traces:
        try:
            table = read_trace(path)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        if args.observable not in table:
            raise SystemExit(f"{path}: no observable named {args.observable!r} (have {sorted(table)})")
        series_by_file[path] = table[args.observable]

    report = {"observable": args.observable, "window": args.window, "tolerance_sigmas": args.tolerance, "files": {}}
    for path, series in series_by_file.items():
        try:
            onset = diagnostics.stationarity_onset(series, args.window, args.tolerance)
        except ValueError as exc:
            report["files"][str(path)] = {"error": str(exc)}
            continue
        report["files"][str(path)] = {"stationarity_onset": None if onset is None else int(onset)}

    if len(series_by_file) >= 2:
        chains = list(series_by_file.values())
        length = min(len(s.times) for s in chains)
        try:
            times, reports = diagnostics.rhat_series(
                [diagnostics.TraceSeries(c.times[:length], c.values[:length]) for c in chains],
                block=args.window,
            )
            report["rhat_blocks"] = [
                {"time": float(t), "rhat": r.mean_rhat, "percentiles": r.percentiles()}
                for t, r in zip(times, reports)
            ]
        except diagnostics.DegenerateVariance as exc:
            report["rhat_blocks"] = {"error": str(exc)}

    if args.informed is not None:
        if args.informed not in series_by_file:
            raise SystemExit(f"--informed {args.informed}: not one of the trace files")
        report["merge"] = diagnostics.merge_verdicts(series_by_file, args.informed, args.observable, args.window, args.tolerance)

    text = json.dumps(report, indent=2, default=float)
    print(text)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "diagnosis.json").write_text(text + "\n", encoding="utf-8")
    return 0


def _cmd_presets(args) -> int:
    if args.show is not None:
        cfg = presets.get_preset(args.show, delta=args.delta)
        print(cfg.to_json())
        return 0
    for name in presets.preset_names():
        _factory, desc = presets.PRESETS[name]
        print(f"{name:28s} {desc}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nngibbs", description="Sample neural-network posteriors and diagnose thermalization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="build and save a dataset")
    _add_config_flags(p_gen, with_data=False)
    p_gen.add_argument("--out", required=True, metavar="PATH", help="output .npz path")
    p_gen.set_defaults(func=_cmd_generate)

    p_run = sub.add_parser("run", help="run an experiment")
    _add_config_flags(p_run)
    p_run.add_argument("--out", required=True, metavar="DIR", help="output directory for traces and summary")
    p_run.set_defaults(func=_cmd_run)

    p_diag = sub.add_parser("diagnose", help="variance-ratio / stationarity / merge reports on traces")
    p_diag.add_argument("traces", nargs="+", help="trace CSV files")
    p_diag.add_argument("--observable", default="test_mse")
    p_diag.add_argument("--window", type=int, default=50)
    p_diag.add_argument("--tolerance", type=float, default=3.0)
    p_diag.add_argument("--informed", metavar="PATH", help="trace file of the informed chain for merge verdicts")
    p_diag.add_argument("--out", metavar="DIR", help="also write diagnosis.json here")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_pre = sub.add_parser("presets", help="list or show named configurations")
    p_pre.add_argument("--show", metavar="NAME", help="print one preset as JSON")
    p_pre.add_argument("--delta", type=float, default=None, help="noise level for --show")
    p_pre.set_defaults(func=_cmd_presets)

    args = parser.parse_args(argv)
    if args.command == "diagnose":
        # a window's variance takes two samples
        if args.window < 2:
            p_diag.error(f"argument --window: must be >= 2, got {args.window}")
        if not args.tolerance > 0:
            p_diag.error(f"argument --tolerance: must be > 0, got {args.tolerance}")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ShapeMismatch, ds.BadMagic, ds.TruncatedFile, ds.CountMismatch) as exc:
        # each message names the file it is about
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
