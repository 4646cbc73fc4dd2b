"""Point-cloud files, synthetic shapes, and binary weight archives.

The text format is one point per line ("x y z [extra feature columns]"),
'#' comments skipped, written back with 17 significant digits so a
write/read round trip is exact. Weight archives are little-endian
regardless of platform: magic "PCMW", u32 version, u32 tensor count, then
per tensor a u16 name length, UTF-8 name, u8 dtype code (0 = f32, 1 = f64),
u8 rank, u64 dims, and the raw data.
"""

from __future__ import annotations

import math
import os
import struct
import sys

import numpy as np

from .errors import FormatError, InvalidInputError, ParseError
from .pointset import PointCloud

MAGIC = b"PCMW"
VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR_KIND = {"f4": 0, "f8": 1}
_MAX_RANK = 32  # the most dims a NumPy array can have (NumPy 1.x)

SHAPE_KINDS = ("sphere", "cube", "torus", "plane")


def read_xyz(path) -> PointCloud:
    """Parse an ASCII xyz file; extra columns become feature channels."""
    coords, feats = [], []
    width = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) < 3:
                    raise ParseError(
                        f"{path}:{lineno}: expected at least 3 columns, got {len(parts)}",
                        line_number=lineno,
                    )
                try:
                    values = [float(p) for p in parts]
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}", line_number=lineno) from exc
                if width is None:
                    width = len(values)
                elif len(values) != width:
                    raise ParseError(
                        f"{path}:{lineno}: inconsistent column count "
                        f"({len(values)} vs {width})",
                        line_number=lineno,
                    )
                coords.append(values[:3])
                feats.append(values[3:])
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not coords:
        raise InvalidInputError(f"{path}: no points found")
    features = np.asarray(feats) if feats and len(feats[0]) else None
    try:
        return PointCloud(coords=np.asarray(coords), features=features)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def write_xyz(cloud: PointCloud, path) -> None:
    """Write a cloud in the xyz text format with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(cloud.n_points):
            row = [f"{v:.17g}" for v in cloud.coords[i]]
            if cloud.features is not None:
                row += [f"{v:.17g}" for v in cloud.features[i]]
            fh.write(" ".join(row) + "\n")


def generate_shape(kind: str, n: int, noise_sigma: float = 0.0, seed: int = 0) -> PointCloud:
    """Seeded uniform surface sample of a unit-scale shape plus Gaussian jitter.

    Shapes: unit sphere; cube surface with half-extent 1; torus with major
    radius 1 and minor radius 0.4; unit plane square in z = 0. Labels carry
    the shape's kind id.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape {kind!r}; valid: {', '.join(SHAPE_KINDS)}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "sphere":
        v = rng.normal(size=(n, 3))
        coords = v / np.linalg.norm(v, axis=1, keepdims=True)
    elif kind == "cube":
        face = rng.integers(0, 6, size=n)
        uv = rng.uniform(-1.0, 1.0, size=(n, 2))
        coords = np.empty((n, 3))
        axis = face // 2
        rows = np.arange(n)
        others = np.array([[1, 2], [0, 2], [0, 1]])[axis]
        coords[rows, axis] = np.where(face % 2 == 0, 1.0, -1.0)
        coords[rows, others[:, 0]] = uv[:, 0]
        coords[rows, others[:, 1]] = uv[:, 1]
    elif kind == "torus":
        major, minor = 1.0, 0.4
        theta = np.empty(n)
        filled = 0
        while filled < n:  # rejection sampling weights theta by R + r*cos(theta)
            cand = rng.uniform(0.0, 2 * np.pi, size=2 * (n - filled))
            accept = rng.uniform(0.0, 1.0, size=cand.size) < (
                (major + minor * np.cos(cand)) / (major + minor)
            )
            took = cand[accept][: n - filled]
            theta[filled : filled + took.size] = took
            filled += took.size
        phi = rng.uniform(0.0, 2 * np.pi, size=n)
        ring = major + minor * np.cos(theta)
        coords = np.stack(
            [ring * np.cos(phi), ring * np.sin(phi), minor * np.sin(theta)], axis=1
        )
    else:  # plane
        coords = np.zeros((n, 3))
        coords[:, :2] = rng.uniform(-1.0, 1.0, size=(n, 2))
    if noise_sigma > 0:
        coords = coords + rng.normal(0.0, noise_sigma, size=coords.shape)
    labels = np.full(n, SHAPE_KINDS.index(kind), dtype=np.int64)
    return PointCloud(coords=coords, labels=labels)


def save_weights(model, path) -> None:
    """Serialize every named tensor of the model to a weight archive."""
    tensors = list(model.named_params())
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors:
            data = np.ascontiguousarray(arr)
            kind = data.dtype.str.lstrip("<>=|")
            if kind not in _CODE_FOR_KIND:
                raise FormatError(f"tensor {name!r} has unsupported dtype {data.dtype}")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", _CODE_FOR_KIND[kind], data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(data.astype(data.dtype.newbyteorder("<"), copy=False).tobytes())


def _read_exact(fh, count, what):
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"truncated archive while reading {what}")
    return data


def _scan_archive(fh, path) -> dict:
    """Check an archive's layout from its headers, reading no payload.

    Returns name -> (dtype, dims, payload offset) in file order. Each
    header's payload is bounded by the bytes left in the file, and its dims
    by what an array can address, before anything is allocated.
    """
    size = os.fstat(fh.fileno()).st_size
    if _read_exact(fh, 4, "magic") != MAGIC:
        raise FormatError(f"{path}: bad magic, not a weight archive")
    version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    layout = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
        try:
            name = _read_exact(fh, name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: tensor name is not valid UTF-8") from exc
        if name in layout:
            raise FormatError(f"{path}: duplicate tensor {name!r}")
        code, rank = struct.unpack("<BB", _read_exact(fh, 2, "tensor header"))
        if code not in _DTYPE_CODES:
            raise FormatError(f"{path}: tensor {name!r} has unknown dtype code {code}")
        if rank > _MAX_RANK:
            raise FormatError(f"{path}: tensor {name!r} has rank {rank}, more than {_MAX_RANK}")
        dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, "dims"))
        dtype = _DTYPE_CODES[code]
        nbytes = math.prod(dims) * dtype.itemsize
        left = size - fh.tell()
        if nbytes > left:
            raise FormatError(
                f"{path}: tensor {name!r} with dims {dims} needs {nbytes} bytes, "
                f"only {left} left in the file"
            )
        # numpy must address the extent of every nonzero dim, even when
        # another dim is 0
        if math.prod(d for d in dims if d) * dtype.itemsize > sys.maxsize:
            raise FormatError(f"{path}: tensor {name!r} has unaddressable dims {dims}")
        layout[name] = (dtype, dims, fh.tell())
        fh.seek(nbytes, os.SEEK_CUR)
    if fh.tell() != size:
        raise FormatError(f"{path}: trailing bytes after last tensor")
    return layout


def _read_tensor(fh, path, name, dtype, offset, out):
    """Read a payload into ``out`` (converting to its dtype) and check it is finite."""
    fh.seek(offset)
    buf = out if out.dtype == dtype and out.flags.c_contiguous else np.empty(out.shape, dtype)
    if fh.readinto(buf.reshape(-1).view(np.uint8)) != buf.nbytes:
        raise FormatError(f"{path}: truncated archive while reading tensor {name!r}")
    if buf is not out:
        out[...] = buf
    if not np.isfinite(out).all():
        raise FormatError(f"{path}: tensor {name!r} holds NaN or Inf")
    return out


def load_weights(path, config):
    """Build a model for ``config`` and fill it from the archive at ``path``.

    Names and shapes are checked against the archive's headers before any
    payload is read; each payload is then read straight into the model's
    own array, which was allocated without drawing random numbers. Name or
    shape mismatches raise a FormatError listing every offender, as does a
    tensor holding NaN or Inf; on error no model is returned (no
    partially-loaded state escapes).
    """
    from .model import _unfilled_model

    model = _unfilled_model(config)
    params = dict(model.named_params())
    with open(path, "rb") as fh:
        layout = _scan_archive(fh, path)
        problems = []
        for name, arr in params.items():
            if name not in layout:
                problems.append(f"missing tensor {name!r}")
            elif layout[name][1] != arr.shape:
                problems.append(
                    f"shape mismatch for {name!r}: archive {layout[name][1]} "
                    f"vs model {arr.shape}"
                )
        problems.extend(f"unexpected tensor {n!r}" for n in layout if n not in params)
        if problems:
            raise FormatError(
                f"{path}: archive does not match the model configuration: "
                + "; ".join(problems)
            )
        for name, arr in params.items():
            dtype, _, offset = layout[name]
            _read_tensor(fh, path, name, dtype, offset, arr)
    return model
