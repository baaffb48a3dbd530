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
argmax-constrained for probit classification). A pool after layer l
produces P[l+1], and X[l+1] is the activation of P[l+1] instead of Z[l+1].

Each layer spec is its own arithmetic: ``DenseLayer`` is a ``DenseMap``,
``ConvLayer`` a ``ConvIndexMap`` and ``PoolLayer`` a ``PoolMap``. The
maps declare the geometry fields and derive the output sizes and index
tables once per object; the conv and pool specs add only their channels
and bias flag, keyword-only, and validation. A conv map is a
``DenseMap`` whose weight rows see im2col patch rows, so the product,
the gradients and the bias layout (``unit_rows``) have one body for both
kinds; only the geometry, the design and the output grid are
conv-specific. One ``residual`` serves every pre-activation. The
generative pass, the posteriors and the Gibbs sweep all walk
``spec.weighted_layers`` and call these methods on the specs.
"""
from __future__ import annotations

import enum
import math
from dataclasses import KW_ONLY, dataclass, field, fields
from functools import cached_property

import numpy as np

from .kernels import RngStream

__all__ = [
    "ShapeMismatch",
    "Activation",
    "DenseLayer",
    "ConvLayer",
    "PoolLayer",
    "DenseMap",
    "ConvIndexMap",
    "PoolMap",
    "as_rows",
    "add_bias",
    "sub_bias",
    "unit_rows",
    "residual",
    "NetworkSpec",
    "NoiseSchedule",
    "PriorSpec",
    "BLOCK_KINDS",
    "ChainState",
    "Dataset",
    "forward_generate",
    "noiseless_pass",
    "predict",
    "test_mse",
    "parameter_count",
]


class ShapeMismatch(Exception):
    """Array shapes do not compose with the network specification."""


# (slope, offset) of the piece for z >= 0, then of the piece for z < 0
_PIECES = {
    "relu": ((1.0, 0.0), (0.0, 0.0)),
    "sign": ((0.0, 1.0), (0.0, -1.0)),
    "abs": ((1.0, 0.0), (-1.0, 0.0)),
}


class Activation(str, enum.Enum):
    """An elementwise activation that is one linear piece slope*z + offset
    on each half-line. ``pieces`` is that pair, which the Gibbs Z law
    reads; ``apply`` evaluates the activation and ``derivative`` its slope."""

    RELU = "relu"
    SIGN = "sign"
    ABS = "abs"

    @property
    def pieces(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return _PIECES[self.value]

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self is Activation.RELU:
            return np.maximum(z, 0.0)
        if self is Activation.SIGN:
            return np.sign(z)
        return np.abs(z)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        """Elementwise derivative; zero subgradient at the ReLU kink."""
        if self is Activation.RELU:
            return (z > 0.0).astype(float)
        if self is Activation.ABS:
            return np.sign(z)
        raise NonDifferentiableActivation("sign activation has no usable gradient")


class NonDifferentiableActivation(Exception):
    """Gradient requested for an activation without one."""


def as_rows(x: np.ndarray) -> np.ndarray:
    """Samples as rows: (n, ...) -> (n, features), also for n = 0."""
    return x.reshape(len(x), math.prod(x.shape[1:]))


def _on_axis1(b: np.ndarray, ndim: int) -> np.ndarray:
    """A bias shaped to broadcast along axis 1 (units, or conv channels)."""
    return b.reshape(b.shape + (1,) * (ndim - 2))


def add_bias(mean: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    return mean if b is None else mean + _on_axis1(b, mean.ndim)


def sub_bias(z: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    return z if b is None else z - _on_axis1(b, z.ndim)


def unit_rows(a: np.ndarray) -> np.ndarray:
    """Units (dense) or channels (conv) of axis 1 as rows, one column per
    sample and output position: (n, C, ...) -> (C, n * positions). For a
    dense (n, C) array this is the view a.T."""
    n, c = a.shape[:2]
    return a.reshape(n, c, math.prod(a.shape[2:])).transpose(1, 0, 2).reshape(c, -1)


def residual(z: np.ndarray, product: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Z - W·X - b: what the noise of a pre-activation has to explain."""
    resid = z - product
    if b is not None:
        resid -= _on_axis1(b, resid.ndim)
    return resid


class DenseMap:
    """The linear map of a weighted layer over its design rows.

    ``design(x)`` holds what each weight row sees as its inputs, one row
    per sample (dense) or per sample and output position (conv, whose
    rows are ``im2col`` patches). The product and the gradients have one
    body for both kinds, with rows shaped by ``pre_activation`` and
    ``unit_rows``; only ``w_rhs`` keeps a conv GEMM orientation.
    ``out_grid`` and ``filter_shape`` are empty for a dense layer.
    """

    out_grid: tuple[int, ...] = ()
    filter_shape: tuple[int, ...] = ()

    def design(self, x: np.ndarray) -> np.ndarray:
        return as_rows(x)

    def product(self, w: np.ndarray, x: np.ndarray, design: np.ndarray | None = None) -> np.ndarray:
        """W·X shaped like the pre-activation; ``design`` is ``design(x)``
        when the caller already has it."""
        if design is None:
            design = self.design(x)
        return self.pre_activation(design @ w.reshape(len(w), -1).T, len(x))

    def pre_activation(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Product rows (n * positions, units), one per design row, as the
        pre-activation (n, units, *out_grid); a view for a dense layer."""
        c = rows.shape[1]
        return rows.reshape(n, math.prod(self.out_grid), c).transpose(0, 2, 1).reshape(n, c, *self.out_grid)

    def w_rhs(self, design: np.ndarray, z: np.ndarray, dz: float) -> np.ndarray:
        """Right-hand sides of the weight rows from the bias-free next
        pre-activation, one row per unit or output channel."""
        return (design.T @ unit_rows(z).T / dz).T

    def weight_grad(self, resid: np.ndarray, x: np.ndarray, design: np.ndarray | None = None) -> np.ndarray:
        """Residual times design, shaped like the weights; ``design`` as in ``product``."""
        if design is None:
            design = self.design(x)
        grad = unit_rows(resid) @ design
        return grad.reshape(len(grad), -1, *self.filter_shape)

    def bias_grad(self, resid: np.ndarray) -> np.ndarray:
        """Residual summed per unit or channel, as one GEMV with a ones
        vector: numpy's axis reduction over ``unit_rows`` is ~5x slower."""
        rows = unit_rows(resid)
        return np.ones(rows.shape[1]) @ rows.T


@dataclass(frozen=True)
class ConvIndexMap(DenseMap):
    """A conv layer as a ``DenseMap`` whose weight rows (the filters) see
    im2col patch rows, plus the receptive-field index bookkeeping.

    ``patch_index[a, r]`` is the flat input position covered by filter
    position r when the output sits at flat position a; a runs row-major
    over the output grid and r row-major over the filter. A filter's
    packed weight index is i = channel * filter_size + r, the column
    order of ``im2col``.
    """

    in_height: int
    in_width: int
    filter_height: int
    filter_width: int
    stride_y: int = 1
    stride_x: int = 1

    # derived once per object: the hot path reads these on every product
    @cached_property
    def out_height(self) -> int:
        return (self.in_height - self.filter_height) // self.stride_y + 1

    @cached_property
    def out_width(self) -> int:
        return (self.in_width - self.filter_width) // self.stride_x + 1

    @cached_property
    def out_grid(self) -> tuple[int, ...]:
        return (self.out_height, self.out_width)

    @cached_property
    def filter_shape(self) -> tuple[int, ...]:
        return (self.filter_height, self.filter_width)

    @cached_property
    def patch_index(self) -> np.ndarray:
        ys = np.arange(self.out_height)[:, None] * self.stride_y + np.arange(self.filter_height)[None, :]
        xs = np.arange(self.out_width)[:, None] * self.stride_x + np.arange(self.filter_width)[None, :]
        flat = ys[:, None, :, None] * self.in_width + xs[None, :, None, :]
        return flat.reshape(self.out_positions, self.filter_size)

    @property
    def filter_size(self) -> int:
        return self.filter_height * self.filter_width

    @property
    def out_positions(self) -> int:
        return self.out_height * self.out_width

    @property
    def in_positions(self) -> int:
        return self.in_height * self.in_width

    def nu(self, a: int, r: int) -> int:
        """Flat input position of filter coordinate r at output position a."""
        return int(self.patch_index[a, r])

    def _patch_columns(self, channels: int) -> np.ndarray:
        """Flat (channel, position) input index of every patch entry, shape
        (out_positions, channels * filter_size) in packed weight order."""
        index = np.arange(channels)[None, :, None] * self.in_positions + self.patch_index[:, None, :]
        return index.reshape(self.out_positions, -1)

    def im2col(self, x: np.ndarray) -> np.ndarray:
        """(n, C, H, W) -> (n, out_positions, C * filter_size) patches, C-ordered."""
        n, c = x.shape[0], x.shape[1]
        return np.take(x.reshape(n, c * self.in_positions), self._patch_columns(c), axis=1)

    def design(self, x: np.ndarray) -> np.ndarray:
        """im2col patches as rows: (n * out_positions, C_in * filter_size)."""
        patches = self.im2col(x)
        return patches.reshape(-1, patches.shape[2])

    def conv_mean(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Noise-free convolution output, shape (n, C_out, out_h, out_w).

        ``product`` under its conv name: the package calls ``product``,
        and this stays for the acceptance tests and the benchmark's
        trace points, which name it."""
        return self.product(w, x)

    def w_rhs(self, design: np.ndarray, z: np.ndarray, dz: float) -> np.ndarray:
        # per-kind GEMM orientation: (design^T z)^T is ~3x slower on patch rows, this form moves dense bits
        return unit_rows(z) @ design / dz

    def operator_matrix(self, w: np.ndarray) -> np.ndarray:
        """The conv map as a dense matrix G of shape (C_out*P, C_in*d_in)."""
        c_out, c_in = w.shape[0], w.shape[1]
        p, d = self.out_positions, self.in_positions
        w_flat = w.reshape(c_out, c_in, self.filter_size)
        g = np.zeros((c_out * p, c_in * d))
        rows = np.arange(p)[:, None]
        for alpha in range(c_out):
            for beta in range(c_in):
                g[alpha * p + rows, beta * d + self.patch_index] = w_flat[alpha, beta][None, :]
        return g


@dataclass(frozen=True)
class PoolMap:
    """Average-pooling geometry: windows, retained region, leftovers.

    Every retained input pixel belongs to exactly one window; trailing
    rows/columns that do not fill a window are the discarded set and are
    resampled around their upstream means. Every pool op reduces windows
    through ``window_sum`` and writes them through ``expand``, on the 4-D
    retained region ``x[..., :retained_height, :retained_width]``.
    """

    in_height: int
    in_width: int
    window_height: int
    window_width: int

    # derived once per object: the hot path reads these on every pool_mean
    @cached_property
    def out_height(self) -> int:
        return self.in_height // self.window_height

    @cached_property
    def out_width(self) -> int:
        return self.in_width // self.window_width

    @cached_property
    def k(self) -> int:
        return self.window_height * self.window_width

    @property
    def retained_height(self) -> int:
        return self.out_height * self.window_height

    @property
    def retained_width(self) -> int:
        return self.out_width * self.window_width

    def window_sum(self, x: np.ndarray) -> np.ndarray:
        """Sum of each window, shape (..., out_h, out_w).

        One add per window pixel over the strided slices: each window row
        sums across its columns, then the row sums add up. On C-ordered
        input this is bitwise numpy's sum over the window axes of the region
        split 6-D, which is about ten times slower on those strides."""
        rh, rw, wh, ww = self.retained_height, self.retained_width, self.window_height, self.window_width
        total = None
        for i in range(wh):
            row = x[..., i:rh:wh, 0:rw:ww].copy()
            for j in range(1, ww):
                row += x[..., i:rh:wh, j:rw:ww]
            total = row if total is None else total + row
        return total

    def pool_mean(self, x: np.ndarray) -> np.ndarray:
        return self.window_sum(x) / self.k

    def expand(self, w: np.ndarray) -> np.ndarray:
        """(..., out_h, out_w) -> the retained region, each window's value on its pixels."""
        return np.repeat(np.repeat(w, self.window_height, axis=-2), self.window_width, axis=-1)

    def spread(self, d: np.ndarray, like: np.ndarray) -> np.ndarray:
        """Adjoint of ``pool_mean``: each pooled entry split evenly over its
        window; discarded pixels get zero. The result has the shape and
        memory layout of ``like``, the pool's input."""
        out = np.zeros_like(like)
        out[..., : self.retained_height, : self.retained_width] = self.expand(d / self.k)
        return out


def _require_sizes(layer):
    """Every size of a layer spec (widths, channels, input, filter, window
    and stride) is at least 1; the bias flag is the only other field."""
    for f in fields(layer):
        value = getattr(layer, f.name)
        if not isinstance(value, bool) and value < 1:
            raise ValueError(f"{f.name} must be at least 1, got {value!r}")


@dataclass(frozen=True)
class DenseLayer(DenseMap):
    in_width: int
    out_width: int
    has_bias: bool = True

    kind = "dense"

    def __post_init__(self):
        _require_sizes(self)

    @property
    def in_shape(self) -> tuple[int, ...]:
        return (self.in_width,)

    @property
    def out_shape(self) -> tuple[int, ...]:
        return (self.out_width,)

    @property
    def weight_shape(self) -> tuple[int, ...]:
        return (self.out_width, self.in_width)


@dataclass(frozen=True)
class ConvLayer(ConvIndexMap):
    """2-D convolution, no padding, configurable strides: the geometry of
    ``ConvIndexMap`` (positional) plus keyword-only channels and bias flag."""

    _: KW_ONLY
    channels_in: int
    channels_out: int
    has_bias: bool = True

    kind = "conv"

    def __post_init__(self):
        _require_sizes(self)
        if self.filter_height > self.in_height or self.filter_width > self.in_width:
            raise ValueError("filter does not fit inside the input")

    @property
    def in_shape(self) -> tuple[int, ...]:
        return (self.channels_in, self.in_height, self.in_width)

    @property
    def out_shape(self) -> tuple[int, ...]:
        return (self.channels_out, self.out_height, self.out_width)

    @property
    def weight_shape(self) -> tuple[int, ...]:
        return (self.channels_out, self.channels_in, self.filter_height, self.filter_width)


@dataclass(frozen=True)
class PoolLayer(PoolMap):
    """Average pooling; trailing pixels that do not fill a window are
    dropped. The geometry of ``PoolMap`` plus keyword-only channels."""

    _: KW_ONLY
    channels: int

    kind = "pool"

    def __post_init__(self):
        _require_sizes(self)
        if self.window_height > self.in_height or self.window_width > self.in_width:
            raise ValueError("pooling window does not fit inside the input")

    @property
    def out_shape(self) -> tuple[int, ...]:
        return (self.channels, self.out_height, self.out_width)


LayerSpec = DenseLayer | ConvLayer | PoolLayer

OUTPUT_REGRESSION = "regression"
OUTPUT_PROBIT = "probit"


@dataclass(frozen=True)
class NetworkSpec:
    """Layer stack, shared activation, and output model.

    Supported stacks: dense layers of any depth, optionally behind one
    conv layer at the front, which may be followed by one average pool.
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
            prev_size = math.prod(layer.out_shape)
            prev_kind = layer.kind

    @cached_property
    def weighted_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.kind != "pool")

    @property
    def depth(self) -> int:
        """Number of weighted layers L."""
        return len(self.weighted_layers)

    @cached_property
    def pools(self) -> dict[int, PoolLayer]:
        """Pools keyed by the index l of the output P[l] they produce; a
        pool after weighted layer l - 1 feeds X[l]."""
        pools, l = {}, 1
        for layer in self.layers:
            if layer.kind == "pool":
                pools[l] = layer
            else:
                l += 1
        return pools

    @property
    def out_width(self) -> int:
        return math.prod(self.weighted_layers[-1].out_shape)

    def weight_shape(self, l: int) -> tuple[int, ...]:
        return self.weighted_layers[l - 1].weight_shape

    def bias_width(self, l: int) -> int:
        """One bias per output unit (dense) or output channel (conv)."""
        return self.weight_shape(l)[0]

    def has_bias(self, l: int) -> bool:
        return self.weighted_layers[l - 1].has_bias


def _require_finite_positive(tables):
    """Every entry of every per-layer table of a noise schedule or prior
    (a variance or a precision) is finite and positive."""
    for f in fields(tables):
        for l, v in getattr(tables, f.name).items():
            if not 0.0 < v < math.inf:
                raise ValueError(f"{f.name}[{l}] must be > 0 and finite, got {v!r}")


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-layer noise variances of the generative process.

    ``delta_z[l]`` is the pre-activation noise for l in 2..L+1 (the entry
    at L+1 doubles as the temperature of the plain output-loss posterior),
    ``delta_x[l]`` the post-activation noise for l in 2..L, and
    ``delta_pool[l]`` the noise on a pooling output feeding layer l.
    """

    delta_z: dict[int, float]
    delta_x: dict[int, float] = field(default_factory=dict)
    delta_pool: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        _require_finite_positive(self)

    @classmethod
    def uniform(cls, spec: NetworkSpec, delta: float) -> "NoiseSchedule":
        big_l = spec.depth
        dz = {l: float(delta) for l in range(2, big_l + 2)}
        dx = {l: float(delta) for l in range(2, big_l + 1)}
        dpool = {l: float(delta) for l in spec.pools}
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
        _require_finite_positive(self)

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
            lam = float(np.prod(layer.weight_shape[1:]))
            lw[l] = lam
            if layer.has_bias:
                lb[l] = lam
        return cls(lambda_w=lw, lambda_b=lb)


# the variable blocks of a chain state, each a {layer: array} table
BLOCK_KINDS = ("W", "b", "X", "Z", "P")


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
        blocks = {kind: {l: None if a is None else a.copy() for l, a in getattr(self, kind).items()} for kind in BLOCK_KINDS}
        return ChainState(**blocks, labels=None if self.labels is None else self.labels.copy())

    @property
    def n(self) -> int:
        return self.X[1].shape[0]


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


def _walk(spec: NetworkSpec, W, b, inputs: np.ndarray, noise: NoiseSchedule | None = None, gen=None, design=None) -> ChainState:
    """The generative pass over the weighted layers; noise-free without
    ``gen``. ``design`` is the first layer's design of ``inputs`` when the
    caller already has it."""
    big_l = spec.depth
    state = ChainState(W=dict(W), b={l: b.get(l) for l in range(1, big_l + 1)}, X={1: inputs}, Z={})

    def noisy(mean, table, l):
        return mean if gen is None else mean + gen.normal(scale=np.sqrt(getattr(noise, table)[l]), size=mean.shape)

    for l, layer in enumerate(spec.weighted_layers, start=1):
        mean = layer.product(W[l], state.X[l], design if l == 1 else None)
        z = state.Z[l + 1] = noisy(add_bias(mean, b.get(l)), "delta_z", l + 1)
        if l < big_l:
            pool = spec.pools.get(l + 1)
            if pool is not None:
                z = state.P[l + 1] = noisy(pool.pool_mean(z), "delta_pool", l + 1)
            state.X[l + 1] = noisy(spec.activation.apply(z), "delta_x", l + 1)
    return state


def noiseless_pass(spec: NetworkSpec, W, b, inputs: np.ndarray, design: np.ndarray | None = None) -> ChainState:
    """The network function on ``inputs``, keeping every layer's X, Z and
    P; ``design`` as in ``_walk``."""
    return _walk(spec, W, b, inputs, design=design)


def forward_generate(
    spec: NetworkSpec,
    noise: NoiseSchedule | None,
    W: dict[int, np.ndarray],
    b: dict[int, np.ndarray | None],
    inputs: np.ndarray,
    rng: RngStream | None,
    noiseless: bool = False,
) -> tuple[ChainState, np.ndarray]:
    """Run the noisy generative process and return (state, labels).

    Each pre-activation is the affine map of the previous post-activation
    plus N(0, delta_z) noise; a pool output is the window average plus
    N(0, delta_pool) noise; each post-activation is the activation of the
    pre-activation (or pool output) plus N(0, delta_x) noise. With
    ``noiseless`` the chain collapses to the deterministic network
    function; the flag exists so zero variances never enter any density.
    """
    inputs = np.asarray(inputs, dtype=float)
    want = spec.layers[0].in_shape
    if inputs.shape[1:] != want:
        raise ShapeMismatch(f"inputs have shape {inputs.shape}, the first layer wants (n, {', '.join(map(str, want))})")
    for l in range(1, spec.depth + 1):
        if W[l].shape != spec.weight_shape(l):
            raise ShapeMismatch(f"W[{l}] has shape {W[l].shape}, expected {spec.weight_shape(l)}")
    gen = rng.generator if rng is not None else None
    if gen is None and not noiseless:
        raise ValueError("rng is required unless noiseless")
    state = _walk(spec, W, b, inputs, noise, None if noiseless else gen)
    top = state.Z[spec.depth + 1]
    if spec.output == OUTPUT_PROBIT:
        labels = np.argmax(top, axis=1)
        state.labels = labels
    else:
        labels = top.copy()
    return state, labels


def predict(spec: NetworkSpec, W: dict[int, np.ndarray], b: dict[int, np.ndarray | None], inputs: np.ndarray) -> np.ndarray:
    """Noiseless forward pass; returns the output scores (n, d_out)."""
    return noiseless_pass(spec, W, b, np.asarray(inputs, float)).Z[spec.depth + 1]


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
    return output_mse(f_student, f_teacher)


def output_mse(scores: np.ndarray, target: np.ndarray) -> float:
    """Squared gap summed over outputs, averaged over the rows."""
    diff = scores - target
    return float(np.sum(diff * diff) / diff.shape[0])


def error_rate(scores: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax score is not the label; argmax ties
    break to the lowest index."""
    return float(np.mean(np.argmax(scores, axis=1) != np.asarray(labels)))


def parameter_count(spec: NetworkSpec) -> int:
    """Total number of weights and biases."""
    total = 0
    for l in range(1, spec.depth + 1):
        total += int(np.prod(spec.weight_shape(l)))
        if spec.has_bias(l):
            total += spec.bias_width(l)
    return total
