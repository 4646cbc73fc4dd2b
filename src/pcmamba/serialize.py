"""Flatten 3-D point clouds into 1-D sequences.

Every order quantizes the normalized cloud onto a grid (``grid_quantize``),
gives each cell an integer code (``order_codes(cells, grid_n, name, mode)``,
the one way to get codes), and sorts points by code with deterministic
tie-breaking (``serialize(cloud, name, grid_n, mode)``).

An order is one row of ``_ORDERS``: a code ("snake", "morton" or
"hilbert") and the input axis that plays each of the code's three roles.
The six snake orders "xyz" ... "zyx" take the axes in name order, "z" and
"hilbert" take (x, y, z), and "z-trans" takes (y, z, x).

The snake code is the paper's boustrophedon pairing (``code_func``) applied
twice, in one of two modes. ``paper_literal`` maps odd rows with
``(n2 + 1) * width - n1``, which collides at row boundaries (the end of an
odd row equals the start of the row two above it). ``bijective`` subtracts
one more (``(n2 + 1) * width - 1 - n1``) and is a true boustrophedon
bijection; it is the default because collisions would make the ordering
depend on sort tie-breaking. The Morton and Hilbert codes have one form,
which both modes give.
"""

from __future__ import annotations

import numpy as np

from .errors import UndefinedMetricError
from .pointset import NormalizedCloud, PointCloud, canonical_tiebreak_order
from .sample import knn

MODE_PAPER = "paper_literal"
MODE_BIJECTIVE = "bijective"

# name: (code, the input axis that plays each of the code's roles)
_ORDERS = {
    "xyz": ("snake", (0, 1, 2)),
    "xzy": ("snake", (0, 2, 1)),
    "yxz": ("snake", (1, 0, 2)),
    "yzx": ("snake", (1, 2, 0)),
    "zxy": ("snake", (2, 0, 1)),
    "zyx": ("snake", (2, 1, 0)),
    "z": ("morton", (0, 1, 2)),
    "z-trans": ("morton", (1, 2, 0)),
    "hilbert": ("hilbert", (0, 1, 2)),
}
ORDER_NAMES = tuple(_ORDERS)
CTS_NAMES = tuple(name for name, (code, _) in _ORDERS.items() if code == "snake")

# largest grid_n per code: snake codes span grid_n**3, and interleaving
# packs 21 bits per axis into 63
_GRID_LIMITS = {"snake": 1 << 20, "morton": 1 << 21, "hilbert": 1 << 21}


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


def order_codes(cells, grid_n: int, name: str, mode: str = MODE_BIJECTIVE) -> np.ndarray:
    """int64 code per row of an N x 3 cell array along the named order.

    ``mode`` must be one of the two modes for every order; only the snake
    code reads it. The snake code pairs roles (c1, c2) with width grid_n,
    then (inner, c3) with width grid_n**2, since the inner code spans
    [0, grid_n**2); only that outer width makes the composition injective
    in bijective mode. The Morton code interleaves the role bits, c1
    fastest. The Hilbert code is bijective on the (power-of-two padded)
    cube, and consecutive codes are always one unit grid step apart. It is
    the Morton interleave of the Skilling-transposed axes in reverse order:
    bit b of transposed axis i lands at bit 3 * b + 2 - i.
    """
    if name not in _ORDERS:
        raise ValueError(f"unknown order name {name!r}; valid names: {', '.join(ORDER_NAMES)}")
    if mode not in (MODE_PAPER, MODE_BIJECTIVE):
        raise ValueError(f"unknown mode {mode!r}; valid modes: {MODE_PAPER}, {MODE_BIJECTIVE}")
    code, roles = _ORDERS[name]
    if grid_n > _GRID_LIMITS[code]:
        raise ValueError(f"grid_n must be <= {_GRID_LIMITS[code]} for {code} codes")
    c = np.asarray(cells, dtype=np.int64)[:, roles]
    if code == "snake":
        inner = code_func(c[:, 0], c[:, 1], width=grid_n, mode=mode)
        # only paper_literal mode reaches grid_n**2, at the collision boundary
        np.minimum(inner, grid_n * grid_n - 1, out=inner)
        return code_func(inner, c[:, 2], width=grid_n * grid_n, mode=mode)
    if code == "hilbert":
        c = _hilbert_transpose(c, _bits_for(grid_n))[:, ::-1]
    return (
        _spread_bits_3(c[:, 0])
        | (_spread_bits_3(c[:, 1]) << np.uint64(1))
        | (_spread_bits_3(c[:, 2]) << np.uint64(2))
    ).astype(np.int64)


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
