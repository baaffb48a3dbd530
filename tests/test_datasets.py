"""Teacher-student generation, IDX ingestion, and dataset persistence."""
import re
import struct

import numpy as np
import pytest

from nngibbs.datasets import (
    InputError,
    four_times_params,
    generate_teacher_student,
    load_dataset,
    load_idx,
    save_dataset,
)
from nngibbs.kernels import RngStream
from nngibbs.network import (
    Activation,
    ConvLayer,
    DenseLayer,
    NetworkSpec,
    NoiseSchedule,
    PoolLayer,
    PriorSpec,
    parameter_count,
    predict,
)


def mlp(widths, output="regression"):
    layers = tuple(DenseLayer(a, b) for a, b in zip(widths[:-1], widths[1:]))
    return NetworkSpec(layers=layers, activation=Activation.RELU, output=output)


class TestTeacherStudent:
    def test_reference_sizing(self):
        spec = mlp([50, 10, 1])
        noise = NoiseSchedule.uniform(spec, 1e-4)
        prior = PriorSpec.fan_in(spec)
        data = generate_teacher_student(spec, prior, n=four_times_params(spec), n_test=100, rng=RngStream(0), noise_gen=noise)
        assert data.inputs.shape == (2084, 50)
        assert data.labels.shape == (2084, 1)
        assert data.teacher is not None
        # label noise sits at the scheduled scale around the teacher outputs
        clean = predict(spec, data.teacher.W, data.teacher.b, data.inputs)
        resid = data.labels - clean
        assert abs(resid.var() - 3e-4) < 1e-4  # three noisy stages propagate

    def test_four_times_rule_arbitrary_widths(self):
        for widths in ([7, 3, 2], [12, 5, 5, 1]):
            spec = mlp(widths)
            assert four_times_params(spec) == 4 * parameter_count(spec)

    def test_same_seed_identical(self):
        spec = mlp([6, 3, 1])
        noise = NoiseSchedule.uniform(spec, 1e-3)
        prior = PriorSpec.fan_in(spec)
        d1 = generate_teacher_student(spec, prior, 20, 10, RngStream(1), noise_gen=noise)
        d2 = generate_teacher_student(spec, prior, 20, 10, RngStream(1), noise_gen=noise)
        np.testing.assert_array_equal(d1.inputs, d2.inputs)
        np.testing.assert_array_equal(d1.labels, d2.labels)
        np.testing.assert_array_equal(d1.teacher.W[1], d2.teacher.W[1])

    def test_noiseless_labels_equal_forward_pass(self):
        spec = mlp([6, 3, 1])
        prior = PriorSpec.fan_in(spec)
        data = generate_teacher_student(spec, prior, 15, 5, RngStream(2), noiseless=True)
        clean = predict(spec, data.teacher.W, data.teacher.b, data.inputs)
        np.testing.assert_array_equal(data.labels, clean)

    @pytest.mark.parametrize("teacher", ["dense-regression", "conv-pool-probit"])
    def test_round_trip_persistence(self, tmp_path, teacher):
        from conftest import assert_bitwise_equal

        if teacher == "dense-regression":
            spec = mlp([6, 3, 1])
        else:
            conv = ConvLayer(channels_in=1, channels_out=2, in_height=5, in_width=5, filter_height=2, filter_width=2)
            spec = NetworkSpec(layers=(conv, PoolLayer(channels=2, in_height=4, in_width=4, window_height=2, window_width=2), DenseLayer(8, 3)), output="probit")
        noise = NoiseSchedule.uniform(spec, 1e-2)
        prior = PriorSpec.fan_in(spec)
        data = generate_teacher_student(spec, prior, 12, 6, RngStream(3), noise_gen=noise)
        path = tmp_path / "data.npz"
        save_dataset(path, data)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.inputs, data.inputs)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        np.testing.assert_array_equal(loaded.test_inputs, data.test_inputs)
        assert_bitwise_equal(loaded.teacher, data.teacher)
        # the data's labels are the teacher's: the archive keeps one copy
        assert loaded.teacher.labels is None


@pytest.mark.parametrize("content", ["text", "empty", "npy", "no-labels"])
def test_load_dataset_names_file_and_array(tmp_path, content):
    path = tmp_path / "data.npz"
    if content == "text":
        path.write_text("not an archive\n", encoding="utf-8")
    elif content == "empty":
        path.write_bytes(b"")
    elif content == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        np.savez(path, inputs=np.zeros((4, 2)))
    array = "labels" if content == "no-labels" else "inputs"
    with pytest.raises(InputError, match=f"{re.escape(str(path))}: .*'{array}' array"):
        load_dataset(path)


def write_idx_pair(tmp_path, images, labels, prefix=""):
    img_path = tmp_path / f"{prefix}imgs"
    lab_path = tmp_path / f"{prefix}labs"
    n, rows, cols = images.shape
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return img_path, lab_path


class TestIdxLoader:
    def test_load_and_scale(self, tmp_path):
        gen = np.random.default_rng(4)
        images = gen.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
        images[0, 0, 0] = 255
        labels = gen.integers(0, 10, size=10)
        img, lab = write_idx_pair(tmp_path, images, labels)
        X, y = load_idx(img, lab)
        assert X.shape == (10, 784)
        assert X[0, 0] == 1.0
        assert X.min() >= 0.0 and X.max() <= 1.0
        np.testing.assert_array_equal(y, labels)
        # flattening is row-major
        assert X[3, 2 * 28 + 5] == images[3, 2, 5] / 255.0

    def test_subset(self, tmp_path):
        images = np.zeros((10, 4, 4), dtype=np.uint8)
        labels = np.arange(10) % 3
        img, lab = write_idx_pair(tmp_path, images, labels)
        X, y = load_idx(img, lab, subset=4)
        assert X.shape == (4, 16)
        np.testing.assert_array_equal(y, labels[:4])

    def test_bad_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), [0, 1])
        bad = tmp_path / "bad"
        bad.write_bytes(struct.pack(">IIII", 0x00000999, 2, 3, 3) + bytes(18))
        with pytest.raises(InputError):
            load_idx(bad, lab)
        badlab = tmp_path / "badlab"
        badlab.write_bytes(struct.pack(">II", 0x00000803, 2) + bytes(2))
        with pytest.raises(InputError):
            load_idx(img, badlab)

    def test_truncated(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((4, 3, 3), dtype=np.uint8), [0, 1, 2, 0])
        short = tmp_path / "short"
        short.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(InputError):
            load_idx(short, lab)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((4, 3, 3), dtype=np.uint8), [0, 1, 2, 0])
        _, lab3 = write_idx_pair(tmp_path, np.zeros((3, 3, 3), dtype=np.uint8), [0, 1, 2], prefix="b_")
        with pytest.raises(InputError):
            load_idx(img, lab3)
