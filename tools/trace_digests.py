"""Print one sha256 per trace file and per summary.json of a fixed set of
short runs, so two source trees can be checked for the same bits.

Each run goes through ``run_experiment`` into a temporary directory. A
trace is hashed without its ``wall_s`` column, the only one that a re-run
at the same seed may change. The second ``mnist-cnn-gibbs`` run samples
that net's noisy-layer posterior by HMC: it is the one run through the
conv and pool branches of ``intermediate_log_posterior``. The
``mnist-mlp-gibbs`` run has 60 samples for 784 inputs, so it draws W[1]
through the first-layer factor's mean map. The last run reads the ``ts-criterion`` data from an archive that
``save_dataset`` wrote, so its trace lines must equal the synthetic run's:
reading and checking a dataset file moves no bit. Its ``summary.json``
names that archive, and is hashed with the temporary directory taken out
of the path, so every line repeats from run to run.
The ``nngibbs`` package is whatever is importable, so point
``PYTHONPATH`` at the tree to check:

    PYTHONPATH=src python tools/trace_digests.py > change.txt
    PYTHONPATH=/path/to/parent/src python tools/trace_digests.py > parent.txt
    diff parent.txt change.txt
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import nngibbs
from nngibbs.datasets import save_dataset
from nngibbs.harness import build_dataset, run_experiment
from nngibbs.kernels import RngStream
from nngibbs.presets import get_preset

# the MNIST presets run on a small synthetic dataset, recorded every sweep
_SYNTHETIC = {"source": "synthetic", "n": 60, "n_test": 20}
# HMC on the noisy-layer posterior of the conv+pool net
_CNN_HMC = {"kind": "hmc", "posterior": "intermediate", "step_size": 1e-3, "leapfrog_steps": 10}

# (preset, noise level or None for the preset's own, overrides, whether the
# dataset is read from an archive of the one the config generates)
RUNS = [
    ("ts-criterion", None, {"sweeps": 300}, False),
    ("noiseless-gibbs", None, {"sweeps": 100}, False),
    ("noiseless-hmc-intermediate", 1e-2, {"sweeps": 20}, False),
    ("noiseless-hmc-classical", 1e-2, {"sweeps": 20}, False),
    ("noiseless-mala-classical", 1e-2, {"sweeps": 2200}, False),
    ("mnist-cnn-gibbs", None, {"sweeps": 30, "spacing": 1, "dataset": _SYNTHETIC}, False),
    ("mnist-cnn-hmc", None, {"sweeps": 10, "spacing": 1, "dataset": _SYNTHETIC}, False),
    ("mnist-cnn-gibbs", None, {"sweeps": 5, "spacing": 1, "dataset": _SYNTHETIC, "sampler": _CNN_HMC}, False),
    ("mnist-mlp-mala", None, {"sweeps": 50, "spacing": 1, "dataset": _SYNTHETIC}, False),
    ("mnist-mlp-gibbs", None, {"sweeps": 20, "spacing": 1, "dataset": _SYNTHETIC}, False),
    ("ts-criterion", None, {"sweeps": 300}, True),
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
    for preset, delta, overrides, from_archive in RUNS:
        cfg = get_preset(preset, delta=delta, **overrides)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            name = preset
            if from_archive:
                # what ``nngibbs generate`` writes, then ``run --data``
                data, name = out / "data.npz", f"{preset}/archive"
                save_dataset(data, build_dataset(cfg, RngStream(cfg.seed, (10_000,))))
                cfg = dataclasses.replace(cfg, dataset=dataclasses.replace(cfg.dataset, path=str(data)))
            run_experiment(cfg, out)
            for path in sorted(out.glob("trace_*.csv")):
                print(f"{name} {path.name} {trace_digest(path)}")
            summary = (out / "summary.json").read_bytes().replace(f"{out}{os.sep}".encode(), b"")
            summary = hashlib.sha256(summary).hexdigest()
            print(f"{name} summary.json {summary}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
