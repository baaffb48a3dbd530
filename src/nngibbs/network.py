"""Network specification, chain state, the noisy generative process, and
evaluation metrics.

A network is a stack of weighted layers (dense or convolutional, optionally
followed by average pooling) with one elementwise activation. The latent
chain keeps every pre-activation Z and post-activation X as explicit
variables; the generative process injects independent Gaussian noise at
each of them.

Layer indexing follows the natural chain convention: weighted layers are
numbered l = 1..L, layer l maps X[l] to Z[l+1], X[1] is the clamped input
and Z[L+1] carries the output (clamped to the labels for regression,
argmax-constrained for probit classification).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .kernels import RngStream

__all__ = [
    "ShapeMismatch",
    "Activation",
    "DenseLayer",
    "ConvLayer",
    "PoolLayer",
    "NetworkSpec",
    "NoiseSchedule",
    "PriorSpec",
    "ChainState",
    "Dataset",
    "forward_generate",
    "predict",
    "test_mse",
    "test_error",
    "parameter_count",
]


class ShapeMismatch(Exception):
    """Array shapes do not compose with the network specification."""


class Activation(str, enum.Enum):
    RELU = "relu"
    SIGN = "sign"
    ABS = "abs"
    LINEAR = "linear"  # exact-oracle testing only

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self is Activation.RELU:
            return np.maximum(z, 0.0)
        if self is Activation.SIGN:
            return np.sign(z)
        if self is Activation.ABS:
            return np.abs(z)
        return np.asarray(z, dtype=float)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        """Elementwise derivative; zero subgradient at the ReLU kink."""
        if self is Activation.RELU:
            return (z > 0.0).astype(float)
        if self is Activation.ABS:
            return np.sign(z)
        if self is Activation.LINEAR:
            return np.ones_like(z, dtype=float)
        raise NonDifferentiableActivation("sign activation has no usable gradient")


class NonDifferentiableActivation(Exception):
    """Gradient requested for an activation without one."""


@dataclass(frozen=True)
class DenseLayer:
    in_width: int
    out_width: int
    has_bias: bool = True

    kind = "dense"

    def __post_init__(self):
        if self.in_width < 1 or self.out_width < 1:
            raise ValueError("dense layer widths must be positive")

    @property
    def out_size(self) -> int:
        return self.out_width


@dataclass(frozen=True)
class ConvLayer:
    """2-D convolution, no padding, configurable strides."""

    channels_in: int
    channels_out: int
    in_height: int
    in_width: int
    filter_height: int
    filter_width: int
    stride_y: int = 1
    stride_x: int = 1
    has_bias: bool = True

    kind = "conv"

    def __post_init__(self):
        if self.filter_height > self.in_height or self.filter_width > self.in_width:
            raise ValueError("filter does not fit inside the input")
        if self.stride_y < 1 or self.stride_x < 1:
            raise ValueError("strides must be positive")

    @property
    def out_height(self) -> int:
        return (self.in_height - self.filter_height) // self.stride_y + 1

    @property
    def out_width(self) -> int:
        return (self.in_width - self.filter_width) // self.stride_x + 1

    @property
    def filter_size(self) -> int:
        return self.filter_height * self.filter_width

    @property
    def out_size(self) -> int:
        return self.channels_out * self.out_height * self.out_width


@dataclass(frozen=True)
class PoolLayer:
    """Average pooling; trailing pixels that do not fill a window are dropped."""

    channels: int
    in_height: int
    in_width: int
    window_height: int
    window_width: int

    kind = "pool"

    def __post_init__(self):
        if self.window_height > self.in_height or self.window_width > self.in_width:
            raise ValueError("pooling window does not fit inside the input")

    @property
    def out_height(self) -> int:
        return self.in_height // self.window_height

    @property
    def out_width(self) -> int:
        return self.in_width // self.window_width

    @property
    def out_size(self) -> int:
        return self.channels * self.out_height * self.out_width


LayerSpec = DenseLayer | ConvLayer | PoolLayer

OUTPUT_REGRESSION = "regression"
OUTPUT_PROBIT = "probit"


@dataclass(frozen=True)
class NetworkSpec:
    """Layer stack, shared activation, and output model.

    Supported stacks: any depth of dense layers, or a single conv layer
    (optionally followed by one average pool) feeding dense layers.
    """

    layers: tuple[LayerSpec, ...]
    activation: Activation = Activation.RELU
    output: str = OUTPUT_REGRESSION

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "activation", Activation(self.activation))
        if self.output not in (OUTPUT_REGRESSION, OUTPUT_PROBIT):
            raise ValueError(f"unknown output model {self.output!r}")
        if not self.layers:
            raise ValueError("network needs at least one layer")
        self._validate_stack()

    def _validate_stack(self):
        prev_size = None
        prev_kind = None
        for i, layer in enumerate(self.layers):
            if layer.kind == "pool":
                if prev_kind != "conv":
                    raise ValueError("pooling is only supported directly after a conv layer")
                conv = self.layers[i - 1]
                if (layer.channels, layer.in_height, layer.in_width) != (
                    conv.channels_out,
                    conv.out_height,
                    conv.out_width,
                ):
                    raise ValueError("pool input shape does not match conv output")
            elif layer.kind == "conv":
                if i != 0:
                    raise ValueError("conv layers are only supported at the front of the stack")
            else:
                if prev_size is not None and layer.in_width != prev_size:
                    raise ValueError(
                        f"layer {i}: in_width {layer.in_width} != previous out size {prev_size}"
                    )
            prev_size = layer.out_size
            prev_kind = layer.kind

    @property
    def weighted_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.kind != "pool")

    @property
    def depth(self) -> int:
        """Number of weighted layers L."""
        return len(self.weighted_layers)

    @property
    def is_dense(self) -> bool:
        return all(l.kind == "dense" for l in self.layers)

    @property
    def pool(self) -> PoolLayer | None:
        for l in self.layers:
            if l.kind == "pool":
                return l
        return None

    @property
    def out_width(self) -> int:
        return self.weighted_layers[-1].out_size

    @property
    def n_classes(self) -> int:
        if self.output != OUTPUT_PROBIT:
            raise ValueError("n_classes only defined for probit output")
        return self.out_width

    def weight_shape(self, l: int) -> tuple[int, ...]:
        layer = self.weighted_layers[l - 1]
        if layer.kind == "dense":
            return (layer.out_width, layer.in_width)
        return (layer.channels_out, layer.channels_in, layer.filter_height, layer.filter_width)

    def bias_width(self, l: int) -> int:
        layer = self.weighted_layers[l - 1]
        if layer.kind == "dense":
            return layer.out_width
        return layer.channels_out

    def has_bias(self, l: int) -> bool:
        return self.weighted_layers[l - 1].has_bias

    def hidden_width(self, l: int) -> int:
        """Flattened width of X[l] for l in 2..L (pooling shrinks it)."""
        layer = self.weighted_layers[l - 2]
        if layer.kind == "conv" and self.pool is not None:
            return self.pool.out_size
        return layer.out_size


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-layer noise variances of the generative process.

    ``delta_z[l]`` is the pre-activation noise for l in 2..L+1 (the entry
    at L+1 doubles as the temperature of the plain output-loss posterior),
    ``delta_x[l]`` the post-activation noise for l in 2..L, and
    ``delta_pool[l]`` the noise on a pooling output feeding layer l.
    """

    delta_z: dict[int, float]
    delta_x: dict[int, float]
    delta_pool: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, table in (("delta_z", self.delta_z), ("delta_x", self.delta_x), ("delta_pool", self.delta_pool)):
            for l, v in table.items():
                if not v > 0.0:
                    raise ValueError(f"{name}[{l}] must be positive, got {v!r}")

    @classmethod
    def uniform(cls, spec: NetworkSpec, delta: float) -> "NoiseSchedule":
        big_l = spec.depth
        dz = {l: float(delta) for l in range(2, big_l + 2)}
        dx = {l: float(delta) for l in range(2, big_l + 1)}
        dpool = {2: float(delta)} if spec.pool is not None else {}
        return cls(delta_z=dz, delta_x=dx, delta_pool=dpool)

    @property
    def output_delta(self) -> float:
        return self.delta_z[max(self.delta_z)]


@dataclass(frozen=True)
class PriorSpec:
    """Gaussian prior inverse variances, per weighted layer."""

    lambda_w: dict[int, float]
    lambda_b: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, table in (("lambda_w", self.lambda_w), ("lambda_b", self.lambda_b)):
            for l, v in table.items():
                if not v > 0.0:
                    raise ValueError(f"{name}[{l}] must be positive, got {v!r}")

    @classmethod
    def uniform(cls, spec: NetworkSpec, lam: float) -> "PriorSpec":
        ls = range(1, spec.depth + 1)
        return cls(
            lambda_w={l: float(lam) for l in ls},
            lambda_b={l: float(lam) for l in ls if spec.has_bias(l)},
        )

    @classmethod
    def fan_in(cls, spec: NetworkSpec) -> "PriorSpec":
        """lambda = fan-in of each weighted layer, the usual 1/width scaling."""
        lw, lb = {}, {}
        for l, layer in enumerate(spec.weighted_layers, start=1):
            if layer.kind == "dense":
                lam = float(layer.in_width)
            else:
                lam = float(layer.channels_in * layer.filter_size)
            lw[l] = lam
            if layer.has_bias:
                lb[l] = lam
        return cls(lambda_w=lw, lambda_b=lb)


@dataclass
class ChainState:
    """All sampled variables of one chain.

    W and b are keyed by weighted-layer index 1..L; X by 1..L with X[1]
    the clamped inputs; Z by 2..L+1; P holds pooling outputs where the
    architecture has them. ``labels`` keeps the class indices a probit
    output is constrained to.

    X[1] is clamped: replace it with a new array, never write into it.
    The first-layer weight factor cached in ``_clamped`` (see
    ``gibbs.clamped_factor``) is keyed on the X[1] object, so an in-place
    write would leave a stale factor in use.
    """

    W: dict[int, np.ndarray]
    b: dict[int, np.ndarray | None]
    X: dict[int, np.ndarray]
    Z: dict[int, np.ndarray]
    P: dict[int, np.ndarray] = field(default_factory=dict)
    labels: np.ndarray | None = None
    # gibbs.ClampedFactor of the first weighted layer; copy() leaves it behind
    _clamped: object | None = field(default=None, compare=False, repr=False)

    def copy(self) -> "ChainState":
        return ChainState(
            W={l: w.copy() for l, w in self.W.items()},
            b={l: (v.copy() if v is not None else None) for l, v in self.b.items()},
            X={l: x.copy() for l, x in self.X.items()},
            Z={l: z.copy() for l, z in self.Z.items()},
            P={l: p.copy() for l, p in self.P.items()},
            labels=None if self.labels is None else self.labels.copy(),
        )

    @property
    def n(self) -> int:
        return self.X[1].shape[0]

    def validate(self, spec: NetworkSpec):
        for l in range(1, spec.depth + 1):
            want = spec.weight_shape(l)
            if self.W[l].shape != want:
                raise ShapeMismatch(f"W[{l}] has shape {self.W[l].shape}, expected {want}")
            if spec.has_bias(l) and self.b.get(l) is None:
                raise ShapeMismatch(f"missing bias for layer {l}")
        if spec.output == OUTPUT_PROBIT:
            if self.labels is None:
                raise ShapeMismatch("probit state needs labels")
            top = self.Z[spec.depth + 1]
            if np.any(np.argmax(top, axis=1) != self.labels):
                raise ShapeMismatch("probit argmax constraint violated")


@dataclass
class Dataset:
    """Training data, optional test split, optional generating teacher."""

    inputs: np.ndarray
    labels: np.ndarray
    test_inputs: np.ndarray | None = None
    test_labels: np.ndarray | None = None
    teacher: ChainState | None = None

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def _bias_term(b: np.ndarray | None):
    return 0.0 if b is None else b


def _dense_stack_forward(
    spec: NetworkSpec,
    noise: NoiseSchedule,
    W: dict[int, np.ndarray],
    b: dict[int, np.ndarray | None],
    inputs: np.ndarray,
    gen,
    noiseless: bool,
) -> ChainState:
    n = inputs.shape[0]
    big_l = spec.depth
    state = ChainState(W={l: W[l] for l in W}, b={l: b.get(l) for l in range(1, big_l + 1)}, X={1: inputs}, Z={})
    for l in range(1, big_l + 1):
        mean = state.X[l] @ W[l].T + _bias_term(b.get(l))
        z = mean
        if not noiseless:
            z = mean + gen.normal(scale=np.sqrt(noise.delta_z[l + 1]), size=mean.shape)
        state.Z[l + 1] = z
        if l < big_l:
            x = spec.activation.apply(z)
            if not noiseless:
                x = x + gen.normal(scale=np.sqrt(noise.delta_x[l + 1]), size=x.shape)
            state.X[l + 1] = x
    return state


def forward_generate(
    spec: NetworkSpec,
    noise: NoiseSchedule,
    W: dict[int, np.ndarray],
    b: dict[int, np.ndarray | None],
    inputs: np.ndarray,
    rng: RngStream | None,
    noiseless: bool = False,
) -> tuple[ChainState, np.ndarray]:
    """Run the noisy generative process and return (state, labels).

    Each pre-activation is the affine map of the previous post-activation
    plus N(0, delta_z) noise; each post-activation is the activation of
    the pre-activation plus N(0, delta_x) noise. With ``noiseless`` the
    chain collapses to the deterministic network function; the flag exists
    so zero variances never enter any density.
    """
    inputs = np.asarray(inputs, dtype=float)
    for l in range(1, spec.depth + 1):
        if W[l].shape != spec.weight_shape(l):
            raise ShapeMismatch(f"W[{l}] has shape {W[l].shape}, expected {spec.weight_shape(l)}")
    gen = rng.generator if rng is not None else None
    if gen is None and not noiseless:
        raise ValueError("rng is required unless noiseless")
    if spec.is_dense:
        state = _dense_stack_forward(spec, noise, W, b, inputs, gen, noiseless)
    else:
        from . import conv

        state = conv.forward_generate_conv(spec, noise, W, b, inputs, gen, noiseless)
    top = state.Z[spec.depth + 1]
    if spec.output == OUTPUT_PROBIT:
        labels = np.argmax(top, axis=1)
        state.labels = labels
    else:
        labels = top.copy()
    return state, labels


def predict(spec: NetworkSpec, W: dict[int, np.ndarray], b: dict[int, np.ndarray | None], inputs: np.ndarray) -> np.ndarray:
    """Noiseless forward pass; returns the output scores (n, d_out)."""
    dummy = NoiseSchedule.uniform(spec, 1.0)
    state = None
    if spec.is_dense:
        state = _dense_stack_forward(spec, dummy, W, b, np.asarray(inputs, float), None, True)
    else:
        from . import conv

        state = conv.forward_generate_conv(spec, dummy, W, b, np.asarray(inputs, float), None, True)
    return state.Z[spec.depth + 1]


def test_mse(
    spec: NetworkSpec,
    student_W: dict[int, np.ndarray],
    student_b: dict[int, np.ndarray | None],
    teacher_W: dict[int, np.ndarray],
    teacher_b: dict[int, np.ndarray | None],
    test_inputs: np.ndarray,
) -> float:
    """Mean squared gap between the two noiseless network functions."""
    f_student = predict(spec, student_W, student_b, test_inputs)
    f_teacher = predict(spec, teacher_W, teacher_b, test_inputs)
    if f_student.shape != f_teacher.shape:
        raise ShapeMismatch("student and teacher outputs have different shapes")
    diff = f_student - f_teacher
    return float(np.sum(diff * diff) / diff.shape[0])


def test_error(
    spec: NetworkSpec,
    W: dict[int, np.ndarray],
    b: dict[int, np.ndarray | None],
    test_inputs: np.ndarray,
    test_labels: np.ndarray,
) -> float:
    """Fraction of misclassified points; argmax ties break to the lowest index."""
    scores = predict(spec, W, b, test_inputs)
    pred = np.argmax(scores, axis=1)
    return float(np.mean(pred != np.asarray(test_labels)))


def parameter_count(spec: NetworkSpec) -> int:
    """Total number of weights and biases."""
    total = 0
    for l in range(1, spec.depth + 1):
        total += int(np.prod(spec.weight_shape(l)))
        if spec.has_bias(l):
            total += spec.bias_width(l)
    return total
