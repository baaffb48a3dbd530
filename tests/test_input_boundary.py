"""The input boundary: a dataset archive, an IDX pair or a config given to
``nngibbs run`` either runs, or ends in one ``input error:`` or ``config
error:`` line with exit 2 and no output directory, never in a traceback.

One plain test per fault that once ended in a traceback, then property
tests that drive ``cli.main`` on generated mutations of tiny archives,
IDX pairs and every preset's config (MacIver et al. 2019, "Hypothesis",
JOSS 4:1891).
"""
import contextlib
import functools
import io
import json
import math
import operator
import struct
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nngibbs.cli import main as cli_main
from nngibbs.presets import get_preset, preset_names


def _config(layers, output, dataset, initializations):
    return {
        "seed": 3,
        "sweeps": 1,
        "network": {"activation": "relu", "output": output, "layers": layers},
        "noise": {"delta": 1e-2},
        "prior": {"mode": "fan_in"},
        "dataset": dataset,
        "sampler": {"kind": "gibbs", "posterior": "intermediate"},
        "initializations": initializations,
    }


_SYNTHETIC = {"source": "synthetic", "n": 12, "n_test": 6}
_DENSE = [
    {"kind": "dense", "in_width": 3, "out_width": 2, "has_bias": True},
    {"kind": "dense", "in_width": 2, "out_width": 1, "has_bias": True},
]
# a conv + pool + probit stack, so the teacher has X, Z and P blocks of every kind
_CONV = [
    {"kind": "conv", "channels_in": 1, "channels_out": 2, "in_height": 5, "in_width": 5, "filter_height": 2, "filter_width": 2},
    {"kind": "pool", "channels": 2, "in_height": 4, "in_width": 4, "window_height": 2, "window_width": 2},
    {"kind": "dense", "in_width": 8, "out_width": 3},
]
CONFIGS = {
    "regression": _config(_DENSE, "regression", _SYNTHETIC, ["informed", "zero"]),
    "conv-probit": _config(_CONV, "probit", _SYNTHETIC, ["informed", "zero"]),
}
# a 16-3-5 probit net read from 4x4 IDX images
IDX_LAYERS = [
    {"kind": "dense", "in_width": 16, "out_width": 3, "has_bias": True},
    {"kind": "dense", "in_width": 3, "out_width": 5, "has_bias": True},
]


def _run(argv, out: Path):
    """Exit code and stderr of ``cli.main(argv)``, which must be exit 0,
    or exit 2 with one ``input error:`` or ``config error:`` line and no
    ``out`` directory."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    text = err.getvalue()
    if code != 0:
        assert code == 2 and text.count("\n") == 1, (code, text)
        assert text.startswith(("input error: ", "config error: ")), text
        assert not out.exists()
    return code, text


def _generate(tmp: Path, name: str) -> dict:
    """The arrays of a ``generate``d archive for ``CONFIGS[name]``."""
    (tmp / f"{name}.json").write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    path = tmp / f"{name}.npz"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["generate", "--config", str(tmp / f"{name}.json"), "--out", str(path)]) == 0
    with np.load(path) as data:
        return dict(data)


def _run_archive(tmp: Path, name: str, arrays: dict):
    (tmp / f"{name}.json").write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    np.savez(tmp / "data.npz", **arrays)
    out = tmp / "out"
    return _run(["run", "--config", str(tmp / f"{name}.json"), "--data", str(tmp / "data.npz"), "--out", str(out)], out)


def _write_idx(tmp: Path, prefix: str, images: np.ndarray, labels) -> tuple[str, str]:
    img, lab = tmp / f"{prefix}images", tmp / f"{prefix}labels"
    n, rows, cols = images.shape
    img.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.astype(np.uint8).tobytes())
    lab.write_bytes(struct.pack(">II", 0x801, len(labels)) + np.asarray(labels, dtype=np.uint8).tobytes())
    return str(img), str(lab)


def _run_idx(tmp: Path, dataset: dict):
    (tmp / "idx.json").write_text(json.dumps(_config(IDX_LAYERS, "probit", dataset, ["zero"])), encoding="utf-8")
    out = tmp / "out"
    return _run(["run", "--config", str(tmp / "idx.json"), "--out", str(out)], out)


# -- one plain test per fault ---------------------------------------------


@pytest.mark.parametrize(
    "fault, why",
    [
        ("test-inputs-only", "a test split needs both a 'test_inputs' and a 'test_labels' array"),
        ("scalar-labels", "array 'labels' is a scalar, not one row per sample"),
        ("zero-rows", "inputs have no rows"),
        ("teacher-x-shape", "teacher_X_2: the file has shape (12, 3), the network's teacher has shape (12, 2)"),
        ("teacher-z-missing", "teacher_Z_2: the file has no array, the network's teacher has shape (12, 2)"),
        ("teacher-extra-block", "teacher_W_3: the file has shape (1, 2), the network's teacher has no such block"),
        ("teacher-layer-not-integer", "array 'teacher_W_x' is not named teacher_<W|b|X|Z|P>_<layer>"),
        ("object-inputs", "array 'inputs' cannot be read: Object arrays cannot be loaded when allow_pickle=False"),
    ],
)
def test_archive_fault_is_an_input_error(tmp_path, fault, why):
    arrays = _generate(tmp_path, "regression")
    if fault == "test-inputs-only":
        del arrays["test_labels"]
    elif fault == "scalar-labels":
        arrays["labels"] = np.float64(1.0)
    elif fault == "zero-rows":
        arrays.update(inputs=np.zeros((0, 3)), labels=np.zeros((0, 1)))
    elif fault == "teacher-x-shape":
        arrays["teacher_X_2"] = np.zeros((12, 3))
    elif fault == "teacher-z-missing":
        del arrays["teacher_Z_2"]
    elif fault == "teacher-extra-block":
        arrays["teacher_W_3"] = np.zeros((1, 2))
    elif fault == "teacher-layer-not-integer":
        arrays["teacher_W_x"] = arrays["teacher_W_1"]
    else:
        arrays["inputs"] = np.array(list(arrays["inputs"]), dtype=object)
    code, err = _run_archive(tmp_path, "regression", arrays)
    assert code == 2 and err == f"input error: {tmp_path / 'data.npz'}: {why}\n"


def test_garbled_array_is_an_input_error(tmp_path):
    arrays = _generate(tmp_path, "regression")
    path = tmp_path / "data.npz"
    with zipfile.ZipFile(path, "w") as archive:
        for key, a in arrays.items():
            buf = io.BytesIO()
            np.save(buf, a)
            archive.writestr(f"{key}.npy", buf.getvalue()[:9] if key == "labels" else buf.getvalue())
    out = tmp_path / "out"
    code, err = _run(["run", "--config", str(tmp_path / "regression.json"), "--data", str(path), "--out", str(out)], out)
    assert code == 2 and err.startswith(f"input error: {path}: array 'labels' cannot be read: ")


def test_generated_archive_runs(tmp_path):
    for name in CONFIGS:
        assert _run_archive(tmp_path, name, _generate(tmp_path, name))[0] == 0


def test_idx_images_of_another_width_are_an_input_error(tmp_path):
    img, lab = _write_idx(tmp_path, "", np.zeros((8, 2, 5)), [0] * 8)
    code, err = _run_idx(tmp_path, {"source": "idx", "images": img, "labels": lab})
    assert code == 2 and err == f"input error: {img}: images have 10 pixels, the network's first layer wants 16 (16,)\n"


def test_idx_label_outside_the_classes_is_an_input_error(tmp_path):
    img, lab = _write_idx(tmp_path, "", np.zeros((8, 4, 4)), [9] + [0] * 7)
    code, err = _run_idx(tmp_path, {"source": "idx", "images": img, "labels": lab})
    assert code == 2 and err == f"input error: {img}, {lab}: labels are not integer classes in [0, 5) for the probit output\n"


@pytest.mark.parametrize("half", ["test_images", "test_labels"])
def test_unpaired_idx_test_split_is_a_config_error(tmp_path, half):
    img, lab = _write_idx(tmp_path, "", np.zeros((8, 4, 4)), [0] * 8)
    dataset = {"source": "idx", "images": img, "labels": lab, half: img if half == "test_images" else lab}
    code, err = _run_idx(tmp_path, dataset)
    assert code == 2 and err == "config error: dataset: an idx test split needs test_images and test_labels\n"


# -- generated mutations ----------------------------------------------------


@st.composite
def _mutated(draw, base: dict) -> dict:
    """``base`` with one to three arrays changed: another dtype, shape or
    rank, a NaN, zero rows, removed, or (a teacher array) renamed."""
    arrays = dict(base)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(arrays)))
        a = arrays[key]
        how = draw(st.sampled_from(["dtype", "rows", "axis", "rank", "nan", "zero-rows", "remove", "rename"]))
        if how == "dtype":
            arrays[key] = a.astype(draw(st.sampled_from([object, bool, complex, str])))
        elif how == "rows" and a.ndim:
            arrays[key] = a[: draw(st.integers(0, len(a)))]
        elif how == "axis" and a.ndim > 1:
            axis = draw(st.integers(1, a.ndim - 1))
            arrays[key] = np.take(a, range(draw(st.integers(0, max(a.shape[axis] - 1, 0)))), axis=axis)
        elif how == "rank":
            arrays[key] = draw(st.sampled_from([a.reshape(-1), a[..., None], a[None], np.asarray(a.flat[0] if a.size else 0.0)]))
        elif how == "nan" and a.size:
            arrays[key] = a.astype(float)
            arrays[key].flat[draw(st.integers(0, a.size - 1))] = np.nan
        elif how == "zero-rows" and a.ndim:
            arrays[key] = a[:0]
        elif how == "remove":
            del arrays[key]
        elif how == "rename" and key.startswith("teacher_"):
            name = draw(st.sampled_from(["teacher_W_x", "teacher_Q_1", "teacher_W_9", "teacher_Z_0", "teacher_b_", "teacher_labels", *sorted(base)]))
            arrays[name] = arrays.pop(key)
    return arrays


@functools.cache
def _base(name: str) -> dict:
    """The generated arrays for ``CONFIGS[name]``, made once per session."""
    with tempfile.TemporaryDirectory() as tmp:
        return _generate(Path(tmp), name)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(CONFIGS)))
def test_mutated_archive_runs_or_is_refused(data, name):
    arrays = data.draw(_mutated(_base(name)))
    with tempfile.TemporaryDirectory() as tmp:
        _run_archive(Path(tmp), name, arrays)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    image_shape=st.sampled_from([(4, 4), (2, 8), (16, 1), (1, 16), (3, 5), (2, 9), (1, 1)]),
    top_label=st.one_of(st.integers(0, 4), st.integers(5, 255)),
    n=st.integers(1, 8),
    test_split=st.booleans(),
)
def test_idx_pair_runs_or_is_refused(image_shape, top_label, n, test_split):
    """The 16-pixel images fit the 16-3-5 net; labels must be below 5."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        labels = np.arange(n) % 5
        labels[-1] = top_label
        images = np.zeros((n, *image_shape))
        img, lab = _write_idx(tmp, "", images, labels)
        dataset = {"source": "idx", "images": img, "labels": lab}
        if test_split:
            dataset["test_images"], dataset["test_labels"] = _write_idx(tmp, "test_", images, labels[::-1])
        code, _err = _run_idx(tmp, dataset)
        assert code == (0 if images[0].size == 16 and top_label < 5 else 2)


# -- generated config mutations ---------------------------------------------

# every preset on a tiny synthetic dataset, so that a run of one sweep is cheap
PRESET_CONFIGS = {name: {**get_preset(name).to_dict(), "dataset": _SYNTHETIC} for name in preset_names()}
# what a node of the config tree becomes; no mutation grows an array
_MUTATIONS = ["wrong-type", 0, -1, math.nan, math.inf, -math.inf, [], True, "remove", "unknown-key"]


def _nodes(tree, path=()):
    """The path of every key and list item under ``tree``."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _at(tree, path):
    return functools.reduce(operator.getitem, path, tree)


@st.composite
def _mutated_config(draw, base: dict) -> dict:
    """``base`` with one or two nodes replaced by a value of the wrong type,
    0, -1, NaN, +-inf, an empty list or ``true``, or removed, or with an
    unknown key added to one of its objects."""
    raw = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(_MUTATIONS))
        if how == "unknown-key":
            objects = [()] + [path for path in _nodes(raw) if isinstance(_at(raw, path), dict)]
            _at(raw, draw(st.sampled_from(objects)))["no_such_field"] = 1
            continue
        *parents, key = draw(st.sampled_from(list(_nodes(raw))))
        parent = _at(raw, parents)
        if how == "remove":
            del parent[key]
        elif how == "wrong-type":
            parent[key] = 1 if isinstance(parent[key], str) else "x"
        else:
            parent[key] = how
    return raw


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(PRESET_CONFIGS)))
def test_mutated_config_runs_or_is_refused(data, name):
    raw = data.draw(_mutated_config(PRESET_CONFIGS[name]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cfg.json").write_text(json.dumps(raw), encoding="utf-8")
        _run(["run", "--config", str(tmp / "cfg.json"), "--sweeps", "1", "--out", str(tmp / "out")], tmp / "out")
