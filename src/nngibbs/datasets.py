"""Dataset construction: synthetic teacher-student generation, IDX binary
ingestion, and on-disk persistence of generated datasets.
"""
from __future__ import annotations

import struct
import zipfile
from pathlib import Path

import numpy as np

from .kernels import RngStream
from .network import (
    ChainState,
    Dataset,
    NetworkSpec,
    NoiseSchedule,
    PriorSpec,
    forward_generate,
    parameter_count,
    predict,
    OUTPUT_PROBIT,
)

__all__ = [
    "BadMagic",
    "TruncatedFile",
    "CountMismatch",
    "generate_teacher_student",
    "load_idx",
    "save_dataset",
    "load_dataset",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class BadMagic(Exception):
    """File does not start with the expected IDX magic number."""


class TruncatedFile(Exception):
    """IDX payload is shorter than its header promises."""


class CountMismatch(Exception):
    """Image and label files disagree on the number of records."""


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
        raise TruncatedFile(f"{path}: expected {count} more bytes, found {len(data)}")
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
            raise BadMagic(f"{images_path}: magic {magic:#010x}, expected {IDX_IMAGES_MAGIC:#010x}")
        raw = _read_exact(fh, n_img * rows * cols, images_path)
    with open(labels_path, "rb") as fh:
        magic, n_lab = struct.unpack(">II", _read_exact(fh, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise BadMagic(f"{labels_path}: magic {magic:#010x}, expected {IDX_LABELS_MAGIC:#010x}")
        raw_labels = _read_exact(fh, n_lab, labels_path)
    if n_img != n_lab:
        raise CountMismatch(f"{images_path}: {n_img} images, but {labels_path}: {n_lab} labels")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n_img, rows * cols).astype(float) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(int)
    if subset is not None:
        images, labels = images[:subset], labels[:subset]
    return images, labels


TEACHER_BLOCKS = ("W", "b", "X", "Z", "P")


def save_dataset(path, dataset: Dataset) -> None:
    """Persist a dataset (and any teacher state) as one .npz archive."""
    arrays = {"inputs": dataset.inputs, "labels": dataset.labels}
    if dataset.test_inputs is not None:
        arrays["test_inputs"] = dataset.test_inputs
        arrays["test_labels"] = dataset.test_labels
    t = dataset.teacher
    if t is not None:
        for kind in TEACHER_BLOCKS:
            for l, arr in getattr(t, kind).items():
                if arr is not None:
                    arrays[f"teacher_{kind}_{l}"] = arr
        if t.labels is not None:
            arrays["teacher_labels"] = t.labels
    np.savez(path, **arrays)


def load_dataset(path) -> Dataset:
    """Read a dataset written by ``save_dataset``.

    A file that is not a .npz archive, or an archive without the
    ``inputs`` or ``labels`` array, raises OSError naming the file and
    the array.
    """
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise OSError(f"{path}: not a .npz dataset archive, so no 'inputs' array")
    with data:
        for key in ("inputs", "labels"):
            if key not in data.files:
                raise OSError(f"{path}: dataset archive has no {key!r} array")
        inputs = data["inputs"]
        labels = data["labels"]
        test_inputs = data["test_inputs"] if "test_inputs" in data else None
        test_labels = data["test_labels"] if "test_labels" in data else None
        teacher = None
        if any(k.startswith("teacher_W_") for k in data.files):
            blocks = {kind: {} for kind in TEACHER_BLOCKS}
            for key in data.files:
                head, _, l = key.rpartition("_")
                kind = head.removeprefix("teacher_")
                if head.startswith("teacher_") and kind in blocks:
                    blocks[kind][int(l)] = data[key]
            blocks["b"] = {l: blocks["b"].get(l) for l in blocks["W"]}
            t_labels = data["teacher_labels"] if "teacher_labels" in data else None
            teacher = ChainState(**blocks, labels=t_labels)
    return Dataset(inputs=inputs, labels=labels, test_inputs=test_inputs, test_labels=test_labels, teacher=teacher)
