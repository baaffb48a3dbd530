"""Print one sha256 per trace file and per summary.json of a fixed set of
short runs, so two source trees can be checked for the same bits.

Each run goes through ``run_experiment`` into a temporary directory. A
trace is hashed without its ``wall_s`` column, the only one that a re-run
at the same seed may change. The ``nngibbs`` package is whatever is
importable, so point ``PYTHONPATH`` at the tree to check:

    PYTHONPATH=src python tools/trace_digests.py > change.txt
    PYTHONPATH=/path/to/parent/src python tools/trace_digests.py > parent.txt
    diff parent.txt change.txt
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import nngibbs
from nngibbs.presets import get_preset
from nngibbs.harness import run_experiment

# the MNIST presets run on a small synthetic dataset, recorded every sweep
_SYNTHETIC = {"source": "synthetic", "n": 60, "n_test": 20}

# (preset, noise level or None for the preset's own, overrides)
RUNS = [
    ("ts-criterion", None, {"sweeps": 300}),
    ("noiseless-gibbs", None, {"sweeps": 100}),
    ("noiseless-hmc-intermediate", 1e-2, {"sweeps": 20}),
    ("noiseless-hmc-classical", 1e-2, {"sweeps": 20}),
    ("noiseless-mala-classical", 1e-2, {"sweeps": 2200}),
    ("mnist-cnn-gibbs", None, {"sweeps": 30, "spacing": 1, "dataset": _SYNTHETIC}),
    ("mnist-cnn-hmc", None, {"sweeps": 10, "spacing": 1, "dataset": _SYNTHETIC}),
    ("mnist-mlp-mala", None, {"sweeps": 50, "spacing": 1, "dataset": _SYNTHETIC}),
]


def trace_digest(path: Path) -> str:
    """sha256 of a trace CSV with its second (``wall_s``) column dropped."""
    h = hashlib.sha256()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            cells = line.rstrip("\n").split(",")
            h.update((",".join(cells[:1] + cells[2:]) + "\n").encode())
    return h.hexdigest()


def main() -> int:
    print(f"# nngibbs from {Path(nngibbs.__file__).parent}", file=sys.stderr)
    for preset, delta, overrides in RUNS:
        cfg = get_preset(preset, delta=delta, **overrides)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            run_experiment(cfg, out)
            for path in sorted(out.glob("trace_*.csv")):
                print(f"{preset} {path.name} {trace_digest(path)}")
            summary = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
            print(f"{preset} summary.json {summary}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
