"""Named experiment presets.

Each preset rebuilds one of the benchmark protocols: the thermalization
criterion comparison on a 50-10-1 teacher-student network, the
noise-level sweep with noiseless labels, and the MNIST MLP/CNN runs.
Hyperparameter tables for HMC and MALA are indexed by the noise level
with three logarithmically spaced values per decade.
"""
from __future__ import annotations

from .harness import ExperimentConfig

__all__ = ["PRESETS", "get_preset", "preset_names", "delta_grid"]


def delta_grid(low_exponent: int, high_exponent: int) -> list[float]:
    """Three logarithmically spaced noise values per decade, descending."""
    grid = []
    k = -3 * high_exponent
    while True:
        val = 10.0 ** (-k / 3.0)
        if val < 10.0**low_exponent * (1 - 1e-12):
            break
        grid.append(float(f"{val:.3g}"))
        k += 1
    return grid


def classical_hmc_params(delta: float) -> dict:
    """Tuned step size / leapfrog count / budget for the loss posterior."""
    if delta > 3.2e-2:
        return {"step_size": 5e-4, "leapfrog_steps": 20, "sweeps": 10_000}
    if delta > 3.2e-3:
        return {"step_size": 5e-5, "leapfrog_steps": 100, "sweeps": 100_000}
    return {"step_size": 5e-5, "leapfrog_steps": 1000, "sweeps": 100_000}


def intermediate_hmc_params(delta: float) -> dict:
    """Tuned step size / leapfrog count / budget for the noisy posterior."""
    if delta > 5e-3:
        return {"step_size": 5e-4, "leapfrog_steps": 1000, "sweeps": 10_000}
    return {"step_size": 5e-5, "leapfrog_steps": 1000, "sweeps": 100_000}


def mala_zero_init_params(delta: float) -> dict:
    """Tuned MALA step size and budget for zero-started chains."""
    table = [
        (3.2e-1, 1e-5, 10**5, 100),
        (3.2e-2, 1e-5, 10**6, 100),
        (1.5e-2, 1e-6, 10**6, 100),
        (1.5e-3, 1e-7, int(1.1e7), 1100),
        (3.2e-4, 1e-8, int(1.1e7), 1100),
        (6.8e-5, 1e-9, int(1.1e7), 1100),
        (1.5e-5, 1e-10, int(1.1e7), 1100),
    ]
    for floor, step, sweeps, spacing in table:
        if delta > floor:
            return {"step_size": step, "sweeps": sweeps, "spacing": spacing}
    return {"step_size": 1e-11, "sweeps": int(1.1e7), "spacing": 1100}


def _dense_net(widths: list[int], activation="relu", output="regression") -> dict:
    layers = [
        {"kind": "dense", "in_width": a, "out_width": b, "has_bias": True}
        for a, b in zip(widths[:-1], widths[1:])
    ]
    return {"activation": activation, "output": output, "layers": layers}


def _teacher_student_base(delta: float, noiseless: bool) -> dict:
    return {
        "seed": 0,
        "spacing": 100,
        "network": _dense_net([50, 10, 1]),
        "noise": {"delta": delta},
        "prior": {"mode": "fan_in"},
        "dataset": {
            "source": "synthetic",
            "n": "4x_params",
            "n_test": 1000,
            "noiseless": noiseless,
        },
    }


def ts_criterion(delta: float = 1e-4, **overrides) -> dict:
    """Thermalization-criterion comparison: Gibbs from informed, zero and
    two random starts on a 50-10-1 teacher-student problem."""
    cfg = _teacher_student_base(delta, noiseless=False)
    cfg["sweeps"] = 2_500_000
    cfg["sampler"] = {"kind": "gibbs", "posterior": "intermediate"}
    cfg["initializations"] = ["informed", "zero", "random", "random"]
    cfg.update(overrides)
    return cfg


def noiseless_gibbs(delta: float = 1e-3, **overrides) -> dict:
    """Noise-sweep protocol entry for Gibbs: noiseless labels, informed
    plus zero starts, fixed step budget."""
    cfg = _teacher_student_base(delta, noiseless=True)
    cfg["sweeps"] = 2_500_000
    cfg["sampler"] = {"kind": "gibbs", "posterior": "intermediate"}
    cfg["initializations"] = ["informed", "zero"]
    cfg.update(overrides)
    return cfg


def noiseless_hmc_classical(delta: float = 1e-3, **overrides) -> dict:
    params = classical_hmc_params(delta)
    cfg = _teacher_student_base(delta, noiseless=True)
    cfg["sweeps"] = params["sweeps"]
    cfg["spacing"] = 10
    cfg["sampler"] = {
        "kind": "hmc",
        "posterior": "classical",
        "step_size": params["step_size"],
        "leapfrog_steps": params["leapfrog_steps"],
    }
    cfg["initializations"] = ["informed", "gaussian:1e-4"]
    cfg.update(overrides)
    return cfg


def noiseless_hmc_intermediate(delta: float = 4.64e-4, **overrides) -> dict:
    params = intermediate_hmc_params(delta)
    cfg = _teacher_student_base(delta, noiseless=True)
    cfg["sweeps"] = params["sweeps"]
    cfg["spacing"] = 10
    cfg["sampler"] = {
        "kind": "hmc",
        "posterior": "intermediate",
        "step_size": params["step_size"],
        "leapfrog_steps": params["leapfrog_steps"],
    }
    cfg["initializations"] = ["informed", "gaussian:1e-4"]
    cfg.update(overrides)
    return cfg


def noiseless_mala_classical(delta: float = 1e-3, **overrides) -> dict:
    params = mala_zero_init_params(delta)
    cfg = _teacher_student_base(delta, noiseless=True)
    cfg["sweeps"] = params["sweeps"]
    cfg["spacing"] = params["spacing"]
    cfg["sampler"] = {"kind": "mala", "posterior": "classical", "step_size": params["step_size"]}
    cfg["initializations"] = ["informed", "gaussian:1e-4"]
    cfg.update(overrides)
    return cfg


def _mnist_dataset(subset: int | None, test_subset: int | None) -> dict:
    d = {
        "source": "idx",
        "images": "train-images-idx3-ubyte",
        "labels": "train-labels-idx1-ubyte",
        "test_images": "t10k-images-idx3-ubyte",
        "test_labels": "t10k-labels-idx1-ubyte",
    }
    if subset:
        d["subset"] = subset
    if test_subset:
        d["test_subset"] = test_subset
    return d


def mnist_mlp_gibbs(subset: int | None = 500, **overrides) -> dict:
    """MLP with 12 hidden units, probit output, zero-started Gibbs."""
    cfg = {
        "seed": 0,
        "sweeps": 20_000,
        "spacing": 100,
        "network": _dense_net([784, 12, 10], output="probit"),
        "noise": {"delta": 2.0},
        "prior": {"lambda_w": {"1": 784, "2": 12}, "lambda_b": {"1": 784, "2": 12}},
        "dataset": _mnist_dataset(subset, 1000),
        "sampler": {"kind": "gibbs", "posterior": "intermediate"},
        "initializations": ["zero"],
    }
    cfg.update(overrides)
    return cfg


def mnist_mlp_hmc(subset: int | None = 500, **overrides) -> dict:
    cfg = mnist_mlp_gibbs(subset)
    cfg["sampler"] = {"kind": "hmc", "posterior": "classical", "step_size": 1e-3, "leapfrog_steps": 200}
    cfg["initializations"] = ["gaussian:0.1"]
    cfg["sweeps"] = 2000
    cfg["spacing"] = 10
    cfg.update(overrides)
    return cfg


def mnist_mlp_mala(subset: int | None = 500, **overrides) -> dict:
    cfg = mnist_mlp_gibbs(subset)
    cfg["sampler"] = {"kind": "mala", "posterior": "classical", "step_size": 2e-6}
    cfg["initializations"] = ["gaussian:1e-4"]
    cfg["sweeps"] = 200_000
    cfg["spacing"] = 1000
    cfg.update(overrides)
    return cfg


def _cnn_net() -> dict:
    # 28x28 -> conv 4x4 stride 2 -> 2x13x13 -> pool 2x2 -> 2x6x6 -> dense 72 -> 10
    return {
        "activation": "relu",
        "output": "probit",
        "layers": [
            {
                "kind": "conv",
                "channels_in": 1,
                "channels_out": 2,
                "in_height": 28,
                "in_width": 28,
                "filter_height": 4,
                "filter_width": 4,
                "stride_y": 2,
                "stride_x": 2,
                "has_bias": True,
            },
            {"kind": "pool", "channels": 2, "in_height": 13, "in_width": 13, "window_height": 2, "window_width": 2},
            {"kind": "dense", "in_width": 72, "out_width": 10, "has_bias": True},
        ],
    }


def mnist_cnn_gibbs(subset: int | None = 300, **overrides) -> dict:
    """Conv + average pool + ReLU + dense classifier, zero-started Gibbs."""
    cfg = {
        "seed": 0,
        "sweeps": 10_000,
        "spacing": 50,
        "network": _cnn_net(),
        "noise": {"delta": 100.0},
        "prior": {"lambda_w": {"1": 16, "2": 72}, "lambda_b": {"1": 16, "2": 72}},
        "dataset": _mnist_dataset(subset, 1000),
        "sampler": {"kind": "gibbs", "posterior": "intermediate"},
        "initializations": ["zero"],
    }
    cfg.update(overrides)
    return cfg


def mnist_cnn_hmc(subset: int | None = 300, **overrides) -> dict:
    cfg = mnist_cnn_gibbs(subset)
    cfg["noise"] = {"delta": 10.0}
    cfg["sampler"] = {"kind": "hmc", "posterior": "classical", "step_size": 1e-3, "leapfrog_steps": 50}
    cfg["initializations"] = ["gaussian:0.1"]
    cfg["sweeps"] = 2000
    cfg["spacing"] = 10
    cfg.update(overrides)
    return cfg


def mnist_cnn_mala(subset: int | None = 300, **overrides) -> dict:
    cfg = mnist_cnn_gibbs(subset)
    cfg["noise"] = {"delta": 10.0}
    cfg["sampler"] = {"kind": "mala", "posterior": "classical", "step_size": 5e-6}
    cfg["initializations"] = ["gaussian:1e-4"]
    cfg["sweeps"] = 200_000
    cfg["spacing"] = 1000
    cfg.update(overrides)
    return cfg


PRESETS = {
    "ts-criterion": (ts_criterion, "teacher-student thermalization comparison, Gibbs, 50-10-1 net"),
    "noiseless-gibbs": (noiseless_gibbs, "noise-sweep entry: Gibbs on noiseless labels"),
    "noiseless-hmc-classical": (noiseless_hmc_classical, "noise-sweep entry: HMC on the loss posterior"),
    "noiseless-hmc-intermediate": (noiseless_hmc_intermediate, "noise-sweep entry: HMC on the noisy posterior"),
    "noiseless-mala-classical": (noiseless_mala_classical, "noise-sweep entry: MALA on the loss posterior"),
    "mnist-mlp-gibbs": (mnist_mlp_gibbs, "MNIST 784-12-10 probit MLP, Gibbs from zero"),
    "mnist-mlp-hmc": (mnist_mlp_hmc, "MNIST MLP, HMC on the loss posterior"),
    "mnist-mlp-mala": (mnist_mlp_mala, "MNIST MLP, MALA on the loss posterior"),
    "mnist-cnn-gibbs": (mnist_cnn_gibbs, "MNIST conv+pool+dense probit net, Gibbs from zero"),
    "mnist-cnn-hmc": (mnist_cnn_hmc, "MNIST CNN, HMC on the loss posterior"),
    "mnist-cnn-mala": (mnist_cnn_mala, "MNIST CNN, MALA on the loss posterior"),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str, delta: float | None = None, **overrides) -> ExperimentConfig:
    """Instantiate a named preset, optionally re-pinning the noise level."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    factory, _desc = PRESETS[name]
    if delta is not None:
        if "delta" in factory.__code__.co_varnames:
            raw = factory(delta=delta, **overrides)
        else:
            overrides.setdefault("noise", {"delta": delta})
            raw = factory(**overrides)
    else:
        raw = factory(**overrides)
    return ExperimentConfig.from_dict(raw)
