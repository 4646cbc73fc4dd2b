"""Flatten 3-D point clouds into 1-D sequences.

An order is named by a string, one of ``ORDER_NAMES``: the six snake
traversals "xyz" ... "zyx" (axis-permuted variants of a boustrophedon
pairing code), "z" (Morton), "z-trans" (transposed z-order) and "hilbert"
(a 3-D Hilbert curve). Every order quantizes the normalized cloud onto a
grid (``grid_quantize``), gives each cell an integer code
(``order_codes(cells, grid_n, name, mode)``), and sorts points by code
with deterministic tie-breaking (``serialize(cloud, name, grid_n, mode)``).

The pairing code exists in two modes. ``paper_literal`` maps odd rows with
``(n2 + 1) * width - n1``, which collides at row boundaries (the end of an
odd row equals the start of the row two above it). ``bijective`` subtracts
one more (``(n2 + 1) * width - 1 - n1``) and is a true boustrophedon
bijection; it is the default because collisions would make the ordering
depend on sort tie-breaking.
"""

from __future__ import annotations

import numpy as np

from .errors import UndefinedMetricError
from .pointset import NormalizedCloud, PointCloud, canonical_tiebreak_order
from .sample import knn

MODE_PAPER = "paper_literal"
MODE_BIJECTIVE = "bijective"

CTS_NAMES = ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx")
ORDER_NAMES = CTS_NAMES + ("z", "z-trans", "hilbert")

# which input axis plays code role (c1, c2, c3) for each snake variant
_CTS_PERMS = {
    "xyz": (0, 1, 2),
    "xzy": (0, 2, 1),
    "yxz": (1, 0, 2),
    "yzx": (1, 2, 0),
    "zxy": (2, 0, 1),
    "zyx": (2, 1, 0),
}

MAX_GRID_CTS = 1 << 20
MAX_GRID_INTERLEAVE = 1 << 21


def grid_quantize(cloud: NormalizedCloud, grid_n: int) -> np.ndarray:
    """N x 3 int64 grid cells of normalized coords: cell = floor(coord * grid_n).

    A coordinate of exactly 1.0 is clamped into the last cell.
    """
    if grid_n < 1:
        raise ValueError("grid_n must be a positive integer")
    coords = cloud.cloud.coords
    cells = np.floor(coords * grid_n).astype(np.int64)
    np.clip(cells, 0, grid_n - 1, out=cells)
    return cells


def code_func(n1, n2, width: int, mode: str = MODE_BIJECTIVE):
    """Pair two non-negative grid indices into one snake-order code.

    Even rows run forward (``n2 * width + n1``), odd rows run backward. In
    ``paper_literal`` mode the backward row is ``(n2 + 1) * width - n1``;
    in ``bijective`` mode it is ``(n2 + 1) * width - 1 - n1``.

    Accepts scalars or equal-shaped integer arrays and returns an array.
    Requires 0 <= n1 < width.
    """
    n1a = np.asarray(n1, dtype=np.int64)
    n2a = np.asarray(n2, dtype=np.int64)
    if np.any(n1a < 0) or np.any(n1a >= width):
        raise ValueError(f"n1 must lie in [0, {width})")
    if np.any(n2a < 0):
        raise ValueError("n2 must be non-negative")
    if mode == MODE_PAPER:
        backward = (n2a + 1) * width - n1a
    elif mode == MODE_BIJECTIVE:
        backward = (n2a + 1) * width - 1 - n1a
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return np.where(n2a % 2 == 0, n2a * width + n1a, backward)


def _cts_code(cells, grid_n: int, name: str, mode: str):
    """Snake-order code of each row of an N x 3 array of grid cells.

    The two-index pairing is applied twice: first on the roles (c1, c2)
    with width grid_n, then on (inner, c3) with width grid_n**2, since the
    inner code spans [0, grid_n**2). Only that outer width makes the
    composition injective in bijective mode.
    """
    if grid_n > MAX_GRID_CTS:
        raise ValueError(f"grid_n must be <= {MAX_GRID_CTS} for snake codes")
    cells = np.asarray(cells, dtype=np.int64)
    p1, p2, p3 = (cells[:, axis] for axis in _CTS_PERMS[name])
    inner = code_func(p1, p2, width=grid_n, mode=mode)
    outer_width = grid_n * grid_n
    if np.any(inner >= outer_width):
        # only reachable in paper_literal mode at the collision boundary
        inner = np.minimum(inner, outer_width - 1)
    return code_func(inner, p3, width=outer_width, mode=mode)


def _bits_for(grid_n: int) -> int:
    """Bits per axis; grid sizes are rounded up to the next power of two."""
    return max(1, int(np.ceil(np.log2(grid_n))))


def _spread_bits_3(v: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of v so they occupy every third bit."""
    v = v.astype(np.uint64)
    v &= np.uint64(0x1FFFFF)
    v = (v | (v << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
    return v


def morton_code(cells, grid_n: int):
    """z-order (Morton) code per row of N x 3 cells: bit-interleave, x fastest."""
    if grid_n > MAX_GRID_INTERLEAVE:
        raise ValueError(f"grid_n must be <= {MAX_GRID_INTERLEAVE} for interleaving")
    cells = np.asarray(cells, dtype=np.int64)
    return (
        _spread_bits_3(cells[:, 0])
        | (_spread_bits_3(cells[:, 1]) << np.uint64(1))
        | (_spread_bits_3(cells[:, 2]) << np.uint64(2))
    ).astype(np.int64)


def _hilbert_transpose(cells: np.ndarray, bits: int) -> np.ndarray:
    """Skilling transform: grid axes -> transposed Hilbert axes (in place on a copy)."""
    x = cells.astype(np.uint64).copy()
    one = np.uint64(1)
    q = one << np.uint64(bits - 1)
    while q > one:
        p = q - one
        for i in range(3):
            invert = (x[:, i] & q) != 0
            x[invert, 0] ^= p
            t = (x[:, 0] ^ x[:, i]) & p
            t[invert] = 0
            x[:, 0] ^= t
            x[:, i] ^= t
        q >>= one
    for i in range(1, 3):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(len(x), dtype=np.uint64)
    q = one << np.uint64(bits - 1)
    while q > one:
        mask = (x[:, 2] & q) != 0
        t[mask] ^= q - one
        q >>= one
    for i in range(3):
        x[:, i] ^= t
    return x


def hilbert_code(cells, grid_n: int):
    """3-D Hilbert curve index of each row of an N x 3 cell array.

    Bijective on the (power-of-two padded) cube, and consecutive indices are
    always one unit grid step apart. The index is the Morton interleave of
    the transposed Hilbert axes in reverse order: bit b of axis i lands at
    bit 3 * b + 2 - i.
    """
    if grid_n > MAX_GRID_INTERLEAVE:
        raise ValueError(f"grid_n must be <= {MAX_GRID_INTERLEAVE} for interleaving")
    tr = _hilbert_transpose(np.asarray(cells, dtype=np.int64), _bits_for(grid_n))
    return morton_code(tr[:, ::-1], grid_n)


def order_codes(cells, grid_n: int, name: str, mode: str = MODE_BIJECTIVE) -> np.ndarray:
    """Integer code per row of an N x 3 cell array along the named order.

    ``mode`` selects the pairing code of the six snake orders; the z-orders
    and the Hilbert curve have one code each.
    """
    if name in _CTS_PERMS:
        return _cts_code(cells, grid_n, name, mode)
    if name == "z":
        return morton_code(cells, grid_n)
    if name == "z-trans":
        # z-order with axis roles rotated to (y, z, x)
        return morton_code(np.asarray(cells)[:, (1, 2, 0)], grid_n)
    if name == "hilbert":
        return hilbert_code(cells, grid_n)
    raise ValueError(f"unknown order name {name!r}; valid names: {', '.join(ORDER_NAMES)}")


def serialize(
    cloud: NormalizedCloud, name: str, grid_n: int = 64, mode: str = MODE_BIJECTIVE
) -> np.ndarray:
    """Permutation that orders the points along the named 1-D traversal.

    Points are stably sorted by their cell code; ties (points in the same
    cell) keep ``canonical_tiebreak_order`` (coordinates, then input index),
    so the serialized coordinate sequence is a pure function of the geometry.
    """
    codes = order_codes(grid_quantize(cloud, grid_n), grid_n, name, mode)
    canon = canonical_tiebreak_order(cloud.cloud.coords)
    return canon[np.argsort(codes[canon], kind="stable")]


def count_code_collisions(
    cloud: NormalizedCloud, name: str, grid_n: int, mode: str = MODE_BIJECTIVE
) -> int:
    """Number of points sharing a code with a point in a *different* cell.

    Zero for any bijective ordering; positive in paper_literal mode whenever
    the row-boundary collision of the backward-row formula is hit.
    """
    cells = grid_quantize(cloud, grid_n)
    codes = order_codes(cells, grid_n, name, mode)
    pairs = np.unique(np.column_stack((codes, cells)), axis=0)  # distinct (code, cell)
    _, cells_per_code = np.unique(pairs[:, 0], return_counts=True)
    return int(cells_per_code[cells_per_code > 1].sum())


def locality_metrics(cloud: PointCloud, perms, window: int = 8) -> list:
    """How spatially local each of several serializations of one cloud is.

    Returns one dict per permutation in ``perms``. ``mean_gap`` is the mean
    Euclidean distance between consecutive points in serialized order.
    ``adjacency_rate`` is the fraction of consecutive pairs that are
    mutually within each other's ``window`` nearest neighbors (self
    excluded). The neighbor table is computed once and shared by all
    permutations.
    """
    coords = cloud.coords
    n = len(coords)
    if n < 2:
        raise UndefinedMetricError("locality metrics need at least 2 points")
    if window < 1:
        raise ValueError("window must be >= 1")
    k = min(window + 1, n)  # +1 because the query point itself ranks first
    hood = knn(coords, coords, k).neighbors
    out = []
    for perm in perms:
        perm = np.asarray(perm)
        gaps = np.linalg.norm(np.diff(coords[perm], axis=0), axis=1)
        # consecutive points differ, so "b is a neighbor of a, self excluded"
        # is just "b is in a's row"
        a, b = perm[:-1], perm[1:]
        mutual = (hood[a] == b[:, None]).any(axis=1) & (hood[b] == a[:, None]).any(axis=1)
        out.append(
            {
                "mean_gap": float(gaps.mean()),
                "adjacency_rate": int(np.count_nonzero(mutual)) / (n - 1),
            }
        )
    return out
