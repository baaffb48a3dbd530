"""Named experiment presets.

Each preset rebuilds one of the benchmark protocols: the thermalization
criterion comparison on a 50-10-1 teacher-student network, the
noise-level sweep with noiseless labels, and the MNIST MLP/CNN runs.
The noise sweep tunes each sampler by a table of rows ordered by noise
floor: a row holds for every noise level above its floor that no
earlier row claims, and the last row, at floor 0, for all the rest.
"""
from __future__ import annotations

from functools import partial

from .harness import ExperimentConfig

__all__ = ["PRESETS", "get_preset", "preset_names"]

# (noise floor, sweeps, spacing, sampler settings)
GIBBS = [(0.0, 2_500_000, 100, {})]
CLASSICAL_HMC = [
    (3.2e-2, 10_000, 10, {"step_size": 5e-4, "leapfrog_steps": 20}),
    (3.2e-3, 100_000, 10, {"step_size": 5e-5, "leapfrog_steps": 100}),
    (0.0, 100_000, 10, {"step_size": 5e-5, "leapfrog_steps": 1000}),
]
INTERMEDIATE_HMC = [
    (5e-3, 10_000, 10, {"step_size": 5e-4, "leapfrog_steps": 1000}),
    (0.0, 100_000, 10, {"step_size": 5e-5, "leapfrog_steps": 1000}),
]
# tuned for chains started near zero
MALA_ZERO_INIT = [
    (3.2e-1, 10**5, 100, {"step_size": 1e-5}),
    (3.2e-2, 10**6, 100, {"step_size": 1e-5}),
    (1.5e-2, 10**6, 100, {"step_size": 1e-6}),
    (1.5e-3, int(1.1e7), 1100, {"step_size": 1e-7}),
    (3.2e-4, int(1.1e7), 1100, {"step_size": 1e-8}),
    (6.8e-5, int(1.1e7), 1100, {"step_size": 1e-9}),
    (1.5e-5, int(1.1e7), 1100, {"step_size": 1e-10}),
    (0.0, int(1.1e7), 1100, {"step_size": 1e-11}),
]


def _row(table: list, delta: float) -> tuple:
    """The values of the first row whose floor ``delta`` is above, else of the last row."""
    return next((row[1:] for row in table if delta > row[0]), table[-1][1:])


def _dense_net(widths: list[int], output="regression") -> dict:
    layers = [
        {"kind": "dense", "in_width": a, "out_width": b, "has_bias": True}
        for a, b in zip(widths[:-1], widths[1:])
    ]
    return {"activation": "relu", "output": output, "layers": layers}


# the leading arguments are positional-only, so every keyword is a config override
def _teacher_student(kind: str, posterior: str, table: list, starts: tuple, noiseless: bool, /, delta: float, **overrides) -> dict:
    """A 50-10-1 teacher-student run at noise level ``delta``, its sampler
    tuned by the row of ``table`` that ``delta`` falls in."""
    sweeps, spacing, settings = _row(table, delta)
    cfg = {
        "seed": 0,
        "sweeps": sweeps,
        "spacing": spacing,
        "network": _dense_net([50, 10, 1]),
        "noise": {"delta": delta},
        "prior": {"mode": "fan_in"},
        "dataset": {"source": "synthetic", "n": "4x_params", "n_test": 1000, "noiseless": noiseless},
        "sampler": {"kind": kind, "posterior": posterior, **settings},
        "initializations": list(starts),
    }
    return {**cfg, **overrides}


def ts_criterion(delta: float = 1e-4, **overrides) -> dict:
    """Thermalization-criterion comparison: Gibbs from informed, zero and
    two random starts on a 50-10-1 teacher-student problem."""
    return _teacher_student("gibbs", "intermediate", GIBBS, ("informed", "zero", "random", "random"), False, delta, **overrides)


def _mnist(network: dict, lambdas: dict, delta: float, subset: int, sweeps: int, spacing: int, overrides: dict) -> dict:
    """Zero-started Gibbs on the first ``subset`` MNIST training images,
    scored on the first 1000 test images; ``lambdas`` sets both prior tables."""
    cfg = {
        "seed": 0,
        "sweeps": sweeps,
        "spacing": spacing,
        "network": network,
        "noise": {"delta": delta},
        "prior": {"lambda_w": lambdas, "lambda_b": dict(lambdas)},
        "dataset": {
            "source": "idx",
            "images": "train-images-idx3-ubyte",
            "labels": "train-labels-idx1-ubyte",
            "test_images": "t10k-images-idx3-ubyte",
            "test_labels": "t10k-labels-idx1-ubyte",
            "subset": subset,
            "test_subset": 1000,
        },
        "sampler": {"kind": "gibbs", "posterior": "intermediate"},
        "initializations": ["zero"],
    }
    return {**cfg, **overrides}


def mnist_mlp_gibbs(**overrides) -> dict:
    """MLP with 12 hidden units, probit output, zero-started Gibbs."""
    return _mnist(_dense_net([784, 12, 10], output="probit"), {"1": 784, "2": 12}, 2.0, 500, 20_000, 100, overrides)


def mnist_cnn_gibbs(**overrides) -> dict:
    """Conv + average pool + ReLU + dense classifier, zero-started Gibbs."""
    # 28x28 -> conv 4x4 stride 2 -> 2x13x13 -> pool 2x2 -> 2x6x6 -> dense 72 -> 10
    network = {
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
    return _mnist(network, {"1": 16, "2": 72}, 100.0, 300, 10_000, 50, overrides)


def _loss_posterior(base, sampler: dict, start: str, sweeps: int, spacing: int, delta: float | None = None):
    """The factory of ``base``'s network and data, sampled by HMC or MALA on
    the loss posterior from one ``start``; ``delta`` replaces its noise level."""

    def preset(**overrides) -> dict:
        run = {"sampler": {"posterior": "classical", **sampler}, "initializations": [start], "sweeps": sweeps, "spacing": spacing}
        if delta is not None:
            run["noise"] = {"delta": delta}
        return base(**{**run, **overrides})

    return preset


_GRADIENT_STARTS = ("informed", "gaussian:1e-4")

# the presets that take the noise level: it picks their table rows
_NOISE_SWEEP = {
    "ts-criterion": (ts_criterion, "teacher-student thermalization comparison, Gibbs, 50-10-1 net"),
    "noiseless-gibbs": (
        partial(_teacher_student, "gibbs", "intermediate", GIBBS, ("informed", "zero"), True, delta=1e-3),
        "noise-sweep entry: Gibbs on noiseless labels",
    ),
    "noiseless-hmc-classical": (
        partial(_teacher_student, "hmc", "classical", CLASSICAL_HMC, _GRADIENT_STARTS, True, delta=1e-3),
        "noise-sweep entry: HMC on the loss posterior",
    ),
    "noiseless-hmc-intermediate": (
        partial(_teacher_student, "hmc", "intermediate", INTERMEDIATE_HMC, _GRADIENT_STARTS, True, delta=4.64e-4),
        "noise-sweep entry: HMC on the noisy posterior",
    ),
    "noiseless-mala-classical": (
        partial(_teacher_student, "mala", "classical", MALA_ZERO_INIT, _GRADIENT_STARTS, True, delta=1e-3),
        "noise-sweep entry: MALA on the loss posterior",
    ),
}

PRESETS = {
    **_NOISE_SWEEP,
    "mnist-mlp-gibbs": (mnist_mlp_gibbs, "MNIST 784-12-10 probit MLP, Gibbs from zero"),
    "mnist-mlp-hmc": (
        _loss_posterior(mnist_mlp_gibbs, {"kind": "hmc", "step_size": 1e-3, "leapfrog_steps": 200}, "gaussian:0.1", 2000, 10),
        "MNIST MLP, HMC on the loss posterior",
    ),
    "mnist-mlp-mala": (
        _loss_posterior(mnist_mlp_gibbs, {"kind": "mala", "step_size": 2e-6}, "gaussian:1e-4", 200_000, 1000),
        "MNIST MLP, MALA on the loss posterior",
    ),
    "mnist-cnn-gibbs": (mnist_cnn_gibbs, "MNIST conv+pool+dense probit net, Gibbs from zero"),
    "mnist-cnn-hmc": (
        _loss_posterior(mnist_cnn_gibbs, {"kind": "hmc", "step_size": 1e-3, "leapfrog_steps": 50}, "gaussian:0.1", 2000, 10, delta=10.0),
        "MNIST CNN, HMC on the loss posterior",
    ),
    "mnist-cnn-mala": (
        _loss_posterior(mnist_cnn_gibbs, {"kind": "mala", "step_size": 5e-6}, "gaussian:1e-4", 200_000, 1000, delta=10.0),
        "MNIST CNN, MALA on the loss posterior",
    ),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str, delta: float | None = None, **overrides) -> ExperimentConfig:
    """Instantiate a named preset, optionally re-pinning the noise level.

    A noise-sweep preset is rebuilt at ``delta``; any other preset takes
    ``{"delta": delta}`` as its noise section unless ``overrides`` has one."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    factory, _desc = PRESETS[name]
    if delta is not None:
        if name in _NOISE_SWEEP:
            overrides["delta"] = delta
        else:
            overrides.setdefault("noise", {"delta": delta})
    return ExperimentConfig.from_dict(factory(**overrides))
