"""Dataset construction: synthetic teacher-student generation, IDX binary
ingestion, on-disk persistence of generated datasets, and the one check
that a dataset read from a file fits the network.
"""
from __future__ import annotations

import math
import struct
import zipfile
from pathlib import Path

import numpy as np

from .kernels import RngStream
from .network import (
    BLOCK_KINDS,
    ChainState,
    Dataset,
    NetworkSpec,
    NoiseSchedule,
    PriorSpec,
    forward_generate,
    parameter_count,
    predict,
    OUTPUT_PROBIT,
    OUTPUT_REGRESSION,
)
from .posteriors import FlatPacker

__all__ = [
    "InputError",
    "generate_teacher_student",
    "load_idx",
    "idx_inputs",
    "save_dataset",
    "load_dataset",
    "check_fits",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class InputError(Exception):
    """A data or trace file that cannot be used as it is; the message
    names the file, and the array or line where there is one."""


def sample_prior_weights(spec: NetworkSpec, prior: PriorSpec, rng: RngStream):
    """Draw a full parameter set from the Gaussian prior."""
    gen = rng.generator
    W, b = {}, {}
    for l in range(1, spec.depth + 1):
        W[l] = gen.normal(scale=1.0 / np.sqrt(prior.lambda_w[l]), size=spec.weight_shape(l))
        if spec.has_bias(l):
            b[l] = gen.normal(scale=1.0 / np.sqrt(prior.lambda_b[l]), size=spec.bias_width(l))
        else:
            b[l] = None
    return W, b


def generate_teacher_student(
    spec: NetworkSpec,
    prior: PriorSpec,
    n: int,
    n_test: int,
    rng: RngStream,
    noise_gen: NoiseSchedule | None = None,
    noiseless: bool = False,
) -> Dataset:
    """Synthetic dataset from a prior-drawn teacher network.

    Inputs are i.i.d. standard Gaussian; labels come from the noisy
    generative process at the given schedule, or from the plain forward
    pass when ``noiseless``. The teacher's full chain state is kept so a
    sampler can be started exactly at the generating configuration. Test
    labels are always noiseless.
    """
    if noise_gen is None and not noiseless:
        raise ValueError("need a generation noise schedule unless noiseless")
    gen = rng.generator
    shape = spec.layers[0].in_shape
    inputs = gen.standard_normal((n, *shape))
    teacher_W, teacher_b = sample_prior_weights(spec, prior, rng)
    state, labels = forward_generate(spec, noise_gen, teacher_W, teacher_b, inputs, rng, noiseless=noiseless)

    test_inputs = test_labels = None
    if n_test > 0:
        test_inputs = gen.standard_normal((n_test, *shape))
        scores = predict(spec, teacher_W, teacher_b, test_inputs)
        test_labels = np.argmax(scores, axis=1) if spec.output == OUTPUT_PROBIT else scores
    return Dataset(inputs=inputs, labels=labels, test_inputs=test_inputs, test_labels=test_labels, teacher=state)


def four_times_params(spec: NetworkSpec) -> int:
    """The training-set sizing rule: four samples per free parameter."""
    return 4 * parameter_count(spec)


def _read_exact(fh, count: int, path) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise InputError(f"{path}: expected {count} more bytes, found {len(data)}")
    return data


def load_idx(images_path, labels_path, subset: int | None = None):
    """Read an IDX image/label pair into (n, pixels) floats and class ints.

    Big-endian headers, magic 0x00000803 for images and 0x00000801 for
    labels; pixels are flattened row-major and scaled to [0, 1].
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as fh:
        magic, n_img, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise InputError(f"{images_path}: magic {magic:#010x}, expected {IDX_IMAGES_MAGIC:#010x}")
        raw = _read_exact(fh, n_img * rows * cols, images_path)
    with open(labels_path, "rb") as fh:
        magic, n_lab = struct.unpack(">II", _read_exact(fh, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise InputError(f"{labels_path}: magic {magic:#010x}, expected {IDX_LABELS_MAGIC:#010x}")
        raw_labels = _read_exact(fh, n_lab, labels_path)
    if n_img != n_lab:
        raise InputError(f"{images_path}: {n_img} images, but {labels_path}: {n_lab} labels")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n_img, rows * cols).astype(float) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(int)
    if subset is not None:
        images, labels = images[:subset], labels[:subset]
    return images, labels


def save_dataset(path, dataset: Dataset) -> None:
    """Persist a dataset (and any teacher state) as one .npz archive at
    exactly ``path``: no ``.npz`` suffix is added to it."""
    arrays = {"inputs": dataset.inputs, "labels": dataset.labels}
    if dataset.test_inputs is not None:
        arrays["test_inputs"] = dataset.test_inputs
        arrays["test_labels"] = dataset.test_labels
    t = dataset.teacher
    if t is not None:
        for kind in BLOCK_KINDS:
            for l, arr in getattr(t, kind).items():
                if arr is not None:
                    arrays[f"teacher_{kind}_{l}"] = arr
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_dataset(path) -> Dataset:
    """Read a dataset written by ``save_dataset``.

    InputError names the file (and the array) when it is not a .npz
    archive, lacks ``inputs``, ``labels`` or half a test split, holds an
    array that needs pickle, a scalar split array or a teacher array not
    named ``teacher_<W|b|X|Z|P>_<layer>``. ``check_fits`` says whether
    the arrays fit a network.
    """
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise InputError(f"{path}: not a .npz dataset archive, so no 'inputs' array")
    arrays = {}
    with data:
        for key in data.files:
            try:
                # a member that is not a .npy file reads as its raw bytes
                arrays[key] = np.asarray(data[key])
            except (ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise InputError(f"{path}: array {key!r} cannot be read: {exc}") from None
    for key in ("inputs", "labels"):
        if key not in arrays:
            raise InputError(f"{path}: dataset archive has no {key!r} array")
    if ("test_inputs" in arrays) != ("test_labels" in arrays):
        raise InputError(f"{path}: a test split needs both a 'test_inputs' and a 'test_labels' array")
    for key in ("inputs", "labels", "test_inputs", "test_labels"):
        if key in arrays and arrays[key].ndim == 0:
            raise InputError(f"{path}: array {key!r} is a scalar, not one row per sample")
    teacher = None
    # older archives carry an unused copy of the labels as teacher_labels
    teacher_keys = [key for key in arrays if key.startswith("teacher_") and key != "teacher_labels"]
    if teacher_keys:
        blocks = {kind: {} for kind in BLOCK_KINDS}
        for key in teacher_keys:
            kind, _, l = key.removeprefix("teacher_").rpartition("_")
            if kind not in blocks or not l.isdecimal():
                raise InputError(f"{path}: array {key!r} is not named teacher_<W|b|X|Z|P>_<layer>")
            blocks[kind][int(l)] = arrays[key]
        blocks["b"] = {**{l: None for l in blocks["W"]}, **blocks["b"]}
        teacher = ChainState(**blocks)
    return Dataset(arrays["inputs"], arrays["labels"], arrays.get("test_inputs"), arrays.get("test_labels"), teacher)


def idx_inputs(spec: NetworkSpec, images: np.ndarray, path) -> np.ndarray:
    """IDX images, one flat row each, as the network's inputs, or
    InputError names the image file when the pixel count is not the first
    layer's input size."""
    want = spec.layers[0].in_shape
    if images.shape[1] != math.prod(want):
        raise InputError(f"{path}: images have {images.shape[1]} pixels, the network's first layer wants {math.prod(want)} {want}")
    return images.reshape(len(images), *want)


def check_fits(spec: NetworkSpec, dataset: Dataset, where) -> None:
    """A dataset read from a file fits the network, or InputError names
    the file (``where``) and what does not fit. Every array holds finite
    numbers. The inputs have the first layer's input shape and at least
    one row, each with a label: ``spec.out_width`` regression outputs (1-D
    for a width of 1) or an integer class in [0, out_width) for probit; a
    test split likewise. A stored teacher holds exactly the network's
    chain-state blocks at the dataset's size, in their shapes: those of
    ``FlatPacker.for_intermediate``, X[1] and a regression output Z[L+1]."""
    prefixes = ("",) if dataset.test_inputs is None else ("", "test_")
    # each array under its name in the archive, which is also its Dataset field
    named = {prefix + key: np.asarray(getattr(dataset, prefix + key)) for prefix in prefixes for key in ("inputs", "labels")}
    t = dataset.teacher
    blocks = {} if t is None else {(kind, l): np.asarray(a) for kind in BLOCK_KINDS for l, a in getattr(t, kind).items() if a is not None}
    named.update((f"teacher_{kind}_{l}", a) for (kind, l), a in blocks.items())
    for name, a in named.items():
        if a.dtype.kind not in "biuf" or not np.isfinite(a).all():
            raise InputError(f"{where}: array {name!r} holds a value that is not a finite number")
    want = spec.layers[0].in_shape
    for prefix in prefixes:
        inputs, labels = named[prefix + "inputs"], named[prefix + "labels"]
        if inputs.shape[1:] != want:
            raise InputError(f"{where}: {prefix}inputs have shape {inputs.shape}, the network's first layer wants (n, {', '.join(map(str, want))})")
        if len(inputs) == 0:
            raise InputError(f"{where}: {prefix}inputs have no rows")
        if len(labels) != len(inputs):
            raise InputError(f"{where}: {len(labels)} {prefix}labels for {len(inputs)} {prefix}inputs")
        if spec.output == OUTPUT_REGRESSION:
            if (labels.shape[1:] or (1,)) != (spec.out_width,):
                raise InputError(f"{where}: {prefix}labels have shape {labels.shape}, the network has {spec.out_width} regression outputs")
        elif not (labels.ndim == 1 and labels.dtype.kind in "iu" and np.all((labels >= 0) & (labels < spec.out_width))):
            raise InputError(f"{where}: {prefix}labels are not integer classes in [0, {spec.out_width}) for the probit output")
    if t is None:
        return
    table = {(kind, l): shape for kind, l, shape in FlatPacker.for_intermediate(spec, dataset.n).blocks}
    table["X", 1] = (dataset.n, *want)
    if spec.output == OUTPUT_REGRESSION:
        table["Z", spec.depth + 1] = (dataset.n, spec.out_width)
    for kind, l in [*table, *(key for key in blocks if key not in table)]:
        got = f"shape {blocks[kind, l].shape}" if (kind, l) in blocks else "no array"
        need = f"shape {table[kind, l]}" if (kind, l) in table else "no such block"
        if got != need:
            raise InputError(f"{where}: teacher_{kind}_{l}: the file has {got}, the network's teacher has {need}")
