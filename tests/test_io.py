import os
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcmamba.io
from pcmamba.errors import FormatError, InvalidInputError, ParseError
from pcmamba.io import (
    generate_shape,
    load_weights,
    read_xyz,
    save_weights,
    write_xyz,
)
from conftest import random_cloud, small_config
from pcmamba.model import (
    TASK_SEGMENTATION,
    ModelConfig,
    StageConfig,
    build_model,
    forward_classification,
)
from pcmamba.pointset import PointCloud


# ------------------------------------------------------------------- xyz text


def test_read_xyz_basic(tmp_path):
    path = tmp_path / "two.xyz"
    path.write_text("0 0 0\n1 1 1\n")
    cloud = read_xyz(path)
    assert cloud.n_points == 2
    assert cloud.features is None


def test_read_xyz_comment_and_features(tmp_path):
    path = tmp_path / "one.xyz"
    path.write_text("# comment\n0.5 0.5 0.5 9.0\n")
    cloud = read_xyz(path)
    assert cloud.n_points == 1
    np.testing.assert_array_equal(cloud.features, [[9.0]])


def test_read_xyz_errors(tmp_path):
    bad = tmp_path / "bad.xyz"
    bad.write_text("0 0 0\n1 nope 1\n")
    with pytest.raises(ParseError) as err:
        read_xyz(bad)
    assert err.value.line_number == 2
    short = tmp_path / "short.xyz"
    short.write_text("0 1\n")
    with pytest.raises(ParseError):
        read_xyz(short)
    empty = tmp_path / "empty.xyz"
    empty.write_text("# nothing\n")
    with pytest.raises(InvalidInputError):
        read_xyz(empty)


@pytest.mark.parametrize("row", ["0 nan 0 1", "0 0 0 nan", "0 0 0 1e999"])
def test_read_xyz_non_finite_value_names_file(tmp_path, row):
    path = tmp_path / "bad.xyz"
    path.write_text(f"1 1 1 1\n{row}\n")
    with pytest.raises(InvalidInputError, match="bad.xyz"):
        read_xyz(path)


def test_read_xyz_not_utf8_is_parse_error(tmp_path):
    path = tmp_path / "latin.xyz"
    path.write_bytes(b"0 0 0\n\xff\xfe 1 1\n")
    with pytest.raises(ParseError, match="latin.xyz"):
        read_xyz(path)


_XYZ_TOKENS = [
    b"0", b"-1.5", b"2e-3", b"1e308", b"1e999", b"nan", b"-inf", b"1_0", b" ", b"\t",
    b"\n", b"\r", b"#", b"x", b"\x00", b"\xff", b"\xc3", b"\xc3\xa9", b"\xe2\x80\xa8",
]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=200),
        st.lists(st.sampled_from(_XYZ_TOKENS), max_size=80).map(b"".join),
    )
)
def test_read_xyz_arbitrary_bytes_give_cloud_or_typed_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "f.xyz"
    path.write_bytes(raw)
    try:
        cloud = read_xyz(path)
    except (ParseError, InvalidInputError):
        return
    assert isinstance(cloud, PointCloud) and np.isfinite(cloud.coords).all()


def test_xyz_roundtrip_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    cloud = PointCloud(rng.normal(size=(50, 3)) * 100, features=rng.normal(size=(50, 2)))
    path = tmp_path / "cloud.xyz"
    write_xyz(cloud, path)
    back = read_xyz(path)
    np.testing.assert_array_equal(back.coords, cloud.coords)
    np.testing.assert_array_equal(back.features, cloud.features)


# --------------------------------------------------------------------- shapes


def test_sphere_unit_radius():
    cloud = generate_shape("sphere", 500, noise_sigma=0.0, seed=1)
    radii = np.linalg.norm(cloud.coords, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-9)


def test_shapes_deterministic():
    for kind in ("sphere", "cube", "torus", "plane"):
        a = generate_shape(kind, 100, noise_sigma=0.01, seed=7)
        b = generate_shape(kind, 100, noise_sigma=0.01, seed=7)
        np.testing.assert_array_equal(a.coords, b.coords)


def test_torus_mean_axial_radius_matches_analytic():
    # surface-uniform torus (R=1, r=0.4): E[axial distance] = R + r^2 / (2R)
    cloud = generate_shape("torus", 100_000, noise_sigma=0.0, seed=2)
    axial = np.linalg.norm(cloud.coords[:, :2], axis=1)
    expected = 1.0 + 0.4**2 / 2.0
    sem = axial.std() / np.sqrt(len(axial))
    assert abs(axial.mean() - expected) <= 3 * sem


def test_cube_on_surface():
    cloud = generate_shape("cube", 300, noise_sigma=0.0, seed=3)
    on_face = np.isclose(np.abs(cloud.coords), 1.0).any(axis=1)
    assert on_face.all()
    assert np.abs(cloud.coords).max() <= 1.0 + 1e-12


def test_unknown_shape():
    with pytest.raises(ValueError):
        generate_shape("cone", 10)


# ------------------------------------------------------------ weight archives


def test_weights_roundtrip_byte_identical(tmp_path):
    model = build_model(small_config(seed=5))
    p1, p2 = tmp_path / "a.pcmw", tmp_path / "b.pcmw"
    save_weights(model, p1)
    loaded = load_weights(p1, small_config(seed=99))  # different init seed
    save_weights(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for (n1, a1), (n2, a2) in zip(model.named_params(), loaded.named_params()):
        assert n1 == n2
        np.testing.assert_array_equal(a1, a2)


def test_segmentation_weights_roundtrip_byte_identical(tmp_path):
    model = build_model(small_config(task=TASK_SEGMENTATION, seed=5))
    p1, p2 = tmp_path / "a.pcmw", tmp_path / "b.pcmw"
    save_weights(model, p1)
    save_weights(load_weights(p1, small_config(task=TASK_SEGMENTATION, seed=99)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_segmentation_archive_rejected_by_classification_config(tmp_path):
    path = tmp_path / "seg.pcmw"
    save_weights(build_model(small_config(task=TASK_SEGMENTATION)), path)
    with pytest.raises(FormatError) as err:
        load_weights(path, small_config())
    assert "unexpected tensor 'decoder." in str(err.value)
    assert "missing tensor 'head." in str(err.value)


def test_package_import_alone_saves_weights(tmp_path):
    # the benchmark's archive path: `import pcmamba` alone, then the
    # submodules as its attributes; the package re-exports no function
    code = """
import sys, types
import pcmamba

m = pcmamba.model
stages = tuple(m.StageConfig(8, ("xyz",), points, 4) for points in (32, 16, 8, 4))
pcmamba.io.save_weights(m.build_model(m.ModelConfig(stages=stages)), sys.argv[1])
assert not hasattr(pcmamba, "knn")
public = {k: v for k, v in vars(pcmamba).items() if not k.startswith("_")}
assert all(isinstance(v, types.ModuleType) for v in public.values()), sorted(public)
"""
    path = tmp_path / "w.pcmw"
    src = Path(pcmamba.io.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    config = ModelConfig(stages=tuple(StageConfig(8, ("xyz",), p, 4) for p in (32, 16, 8, 4)))
    for (n1, a1), (n2, a2) in zip(
        load_weights(path, config).named_params(), build_model(config).named_params()
    ):
        assert n1 == n2
        np.testing.assert_array_equal(a1, a2)


def test_weights_bad_magic(tmp_path):
    path = tmp_path / "junk.pcmw"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="bad magic"):
        load_weights(path, small_config())


def test_weights_truncated(tmp_path):
    model = build_model(small_config(seed=6))
    path = tmp_path / "w.pcmw"
    save_weights(model, path)
    data = path.read_bytes()
    trunc = tmp_path / "trunc.pcmw"
    trunc.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError):
        load_weights(trunc, small_config())


def test_weights_config_mismatch_names_offender(tmp_path):
    model = build_model(small_config(seed=7))
    path = tmp_path / "w.pcmw"
    save_weights(model, path)
    with pytest.raises(FormatError) as err:
        load_weights(path, small_config(num_classes=5))
    assert "head.logits" in str(err.value)


def _tensors_archive(path, tensors):
    save_weights(SimpleNamespace(named_params=lambda: iter(tensors)), path)
    return path.read_bytes()


def _header_offsets(tensors):
    """Byte offsets of everything in an archive that is not payload: the
    file header, then per tensor its header and the zero pad after it."""
    offsets = list(range(12))  # magic, version, count
    pos = 12
    for name, arr in tensors:
        size = 2 + len(name.encode("utf-8")) + 2 + 8 * arr.ndim
        size += -(pos + size) % 64  # the payload starts at a multiple of 64
        offsets += range(pos, pos + size)
        pos += size + arr.nbytes
    return offsets


_SMALL_TENSORS = [
    ("a.w", np.arange(6.0).reshape(2, 3)),
    ("b", np.linspace(-1.0, 1.0, 4).astype(np.float32)),
    ("c.scale", np.ones(3)),
]
_MODEL_TENSORS = list(build_model(small_config()).named_params())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_archive_header_mutations_load_or_raise_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mut") / "w.pcmw"
    raw = bytearray(_tensors_archive(path, _MODEL_TENSORS))
    offsets = _header_offsets(_MODEL_TENSORS)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        raw[data.draw(st.sampled_from(offsets), label="offset")] = data.draw(
            st.integers(0, 255), label="byte"
        )
    path.write_bytes(bytes(raw))
    try:
        model = load_weights(path, small_config())
    except FormatError:
        return
    assert all(np.isfinite(t).all() for _, t in model.named_params())


@pytest.mark.parametrize("dims", [(2**64 - 1, 3), (2**32, 2**32), (2**62, 0)])
def test_archive_dims_beyond_file_or_address_space(tmp_path, dims):
    path = tmp_path / "w.pcmw"
    raw = bytearray(_tensors_archive(path, _SMALL_TENSORS))
    dims_at = 12 + 2 + len("a.w") + 2
    raw[dims_at : dims_at + 16] = struct.pack("<2Q", *dims)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        load_weights(path, small_config())
    assert "'a.w'" in str(err.value)


def test_archive_rank_beyond_numpy_rejected(tmp_path):
    path = tmp_path / "w.pcmw"
    # the 255 dims then read the payload: -1.0 is about 1.4e19 as a u64
    raw = bytearray(_tensors_archive(path, [("a.w", np.full((300, 3), -1.0))]))
    raw[12 + 2 + len("a.w") + 1] = 255  # rank byte
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="'a.w' has rank 255, more than 32"):
        load_weights(path, small_config())


def test_archive_duplicate_tensor_name_rejected(tmp_path):
    path = tmp_path / "w.pcmw"
    _tensors_archive(path, [("a", np.ones(2)), ("a", np.zeros(3))])
    with pytest.raises(FormatError) as err:
        load_weights(path, small_config())
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_archive_non_finite_tensor_rejected(tmp_path, bad):
    model = build_model(small_config(seed=8))
    name, tensor = list(model.named_params())[3]
    tensor.flat[1] = bad
    path = tmp_path / "w.pcmw"
    save_weights(model, path)
    with pytest.raises(FormatError) as err:
        load_weights(path, small_config())
    assert repr(name) in str(err.value)


def test_header_offsets_cover_all_but_payloads(tmp_path):
    raw = _tensors_archive(tmp_path / "w.pcmw", _SMALL_TENSORS)
    payload = set(range(len(raw))) - set(_header_offsets(_SMALL_TENSORS))
    assert len(payload) == sum(arr.nbytes for _, arr in _SMALL_TENSORS)
    assert bytes(raw[i] for i in sorted(payload)) == b"".join(
        arr.astype(arr.dtype.newbyteorder("<")).tobytes() for _, arr in _SMALL_TENSORS
    )


def test_loaded_arrays_view_the_mapped_archive(tmp_path):
    path = tmp_path / "w.pcmw"
    save_weights(build_model(small_config(seed=9)), path)
    before = path.read_bytes()
    model = load_weights(path, small_config())
    for name, arr in model.named_params():
        assert arr.dtype == np.float64, name
        assert arr.flags.writeable and arr.flags.c_contiguous, name
        assert not arr.flags.owndata, name
        assert arr.ctypes.data % 64 == 0, name
    # the mapping is copy-on-write: the model sees the write, the file does not
    name, arr = next(model.named_params())
    arr[...] = 7.0
    assert (dict(model.named_params())[name] == 7.0).all()
    assert path.read_bytes() == before


def test_float32_payload_loads_as_float64(tmp_path):
    model = build_model(small_config(seed=10))
    params = dict(model.named_params())
    name = "head.logits.w"
    as_f32 = params[name].astype(np.float32)
    path = tmp_path / "w.pcmw"
    save_weights(SimpleNamespace(named_params=lambda: iter({**params, name: as_f32}.items())), path)
    loaded = dict(load_weights(path, small_config()).named_params())
    assert loaded[name].dtype == np.float64 and loaded[name].flags.owndata
    np.testing.assert_array_equal(loaded[name], as_f32.astype(np.float64))
    for other, arr in params.items():
        if other != name:
            np.testing.assert_array_equal(loaded[other], arr)


def test_version_1_archive_rejected_naming_version(tmp_path):
    path = tmp_path / "w.pcmw"
    raw = bytearray(_tensors_archive(path, _SMALL_TENSORS))
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="unsupported version 1"):
        load_weights(path, small_config())


def test_nonzero_padding_rejected(tmp_path):
    path = tmp_path / "w.pcmw"
    raw = bytearray(_tensors_archive(path, _SMALL_TENSORS))
    pad_at = 12 + 2 + len("a.w") + 2 + 16  # first byte after a.w's dims
    raw[pad_at] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="'a.w' has nonzero padding"):
        load_weights(path, small_config())


def test_save_over_the_archive_a_model_maps(tmp_path):
    # the save replaces the file instead of truncating the mapped bytes
    path = tmp_path / "w.pcmw"
    save_weights(build_model(small_config(seed=11)), path)
    before = path.read_bytes()
    model = load_weights(path, small_config())
    save_weights(model, path)
    assert path.read_bytes() == before
    cloud = random_cloud(seed=3)
    expected = forward_classification(build_model(small_config(seed=11)), cloud)
    assert forward_classification(model, cloud).tobytes() == expected.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.pcmw"]


def test_failed_save_leaves_the_old_archive(tmp_path):
    path = tmp_path / "w.pcmw"
    save_weights(build_model(small_config(seed=12)), path)
    before = path.read_bytes()
    tensors = [("a.w", np.ones(3)), ("counts", np.arange(3)), ("c", np.ones(2))]
    with pytest.raises(FormatError, match="'counts' has unsupported dtype"):
        save_weights(SimpleNamespace(named_params=lambda: iter(tensors)), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.pcmw"]
