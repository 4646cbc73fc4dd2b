"""Downsampling and neighborhood construction.

Everything here is deterministic: farthest-point sampling starts from the
lexicographically smallest point, and k-nearest-neighbor ties are broken
by lexicographic coordinates then input index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .pointset import canonical_tiebreak_order

# Distance entries per kNN block (rows x base points): two float64 blocks
# of 8 MB each, so a large query costs 16 MB of scratch.
_BLOCK_ENTRIES = 1_000_000

# Nearest sources averaged per target, and target rows per gather of source
# features, in interpolate_features.
_INTERP_K = 3
_INTERP_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class NeighborhoodIndex:
    """K nearest base points per center, rows sorted by ascending distance."""

    centers: np.ndarray
    neighbors: np.ndarray

    def __post_init__(self):
        centers = np.ascontiguousarray(self.centers, dtype=np.int64)
        neighbors = np.ascontiguousarray(self.neighbors, dtype=np.int64)
        if neighbors.ndim != 2 or len(neighbors) != len(centers):
            raise ValueError("neighbors must be (len(centers), k)")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "neighbors", neighbors)

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]


def _coords_of(coords) -> np.ndarray:
    return np.ascontiguousarray(coords, dtype=np.float64)


def farthest_point_sample(cloud, m: int) -> np.ndarray:
    """Greedy max-min subset of m point indices.

    The greedy pass starts at the lexicographically smallest point, which
    makes the selection a pure function of geometry. Each pass picks the
    point farthest from the selected set (``argmax`` of the running min
    squared distance, so ties keep the earliest index), then lowers the
    running minimum by its squared distances. Those are accumulated as dx*dx + dy*dy + dz*dz over
    three contiguous coordinate vectors into preallocated buffers. A
    selected point's running minimum is set to -1, so the m indices are
    distinct even when the cloud has fewer than m distinct points: once all
    remaining distances are 0, the earliest unselected index is taken.
    """
    coords = _coords_of(cloud)
    n = len(coords)
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in [1, {n}], got {m}")
    first = int(canonical_tiebreak_order(coords)[0])
    x, y, z = (np.ascontiguousarray(coords[:, j]) for j in range(3))
    d2, cand, sq = np.empty(n), np.empty(n), np.empty(n)

    def sq_dists_from(i, out):
        np.subtract(x, x[i], out=out)
        np.multiply(out, out, out=out)
        np.subtract(y, y[i], out=sq)
        np.multiply(sq, sq, out=sq)
        np.add(out, sq, out=out)
        np.subtract(z, z[i], out=sq)
        np.multiply(sq, sq, out=sq)
        np.add(out, sq, out=out)

    selected = np.empty(m, dtype=np.int64)
    selected[0] = first
    sq_dists_from(first, d2)
    d2[first] = -1.0
    for i in range(1, m):
        nxt = int(d2.argmax())
        selected[i] = nxt
        sq_dists_from(nxt, cand)
        np.minimum(d2, cand, out=d2)
        d2[nxt] = -1.0
    return selected


def _k_smallest(d2: np.ndarray, k: int, spare: np.ndarray) -> np.ndarray:
    """Columns of the k smallest entries per row, ordered by (value, column).

    A partial sort of a copy (``ndarray.partition`` in ``spare``) finds
    each row's k-th smallest value; the candidates are the columns at or
    below it. A row with exactly k candidates keeps them all. Only when some
    row has more, because several columns tie at the k-th value, are the
    candidates ordered by (value, column) so that those rows keep every
    strictly smaller column and then the lowest tied columns.
    """
    rows, n = d2.shape
    np.copyto(spare, d2)
    spare.partition(k - 1, axis=1)
    flat = np.flatnonzero(d2 <= spare[:, k - 1 : k])
    r, cand = np.divmod(flat, n)
    counts = np.bincount(r, minlength=rows)
    if (counts > k).any():
        # flatnonzero lists columns ascending within a row and lexsort is
        # stable, so this orders candidates by (row, value, column)
        cand = cand[np.lexsort((d2.ravel()[flat], r))]
    cols = cand[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def knn(query_coords, base_coords, k: int) -> NeighborhoodIndex:
    """Exact k nearest base points per query point.

    Squared distances are accumulated from explicit coordinate differences
    as dx*dx + dy*dy + dz*dz (no expanded quadratic form), so equal
    distances are exactly equal and the tie rule is meaningful: the nearer
    base point wins, then the lexicographically smaller base coordinates,
    then the smaller base index. Base points are pre-sorted into that
    canonical order, and each row keeps its k smallest distances by partial
    selection (``ndarray.partition`` finds the k-th distance) with exact
    tie resolution at that distance, never a full sort. Query rows are
    processed in blocks of at most ~1M distances.
    """
    query = _coords_of(query_coords)
    base = _coords_of(base_coords)
    n = len(base)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if not np.isfinite(query).all():
        raise InvalidInputError("query coords contain NaN or Inf")
    # Column j of a distance row is the base point of canonical rank j, so
    # among equal distances the smaller column wins.
    base_rank = canonical_tiebreak_order(base)
    base_cols = [np.ascontiguousarray(base[base_rank, j]) for j in range(3)]
    block_rows = max(1, min(len(query), _BLOCK_ENTRIES // n))
    d2_buf = np.empty((block_rows, n))
    sq_buf = np.empty((block_rows, n))
    neighbors = np.empty((len(query), k), dtype=np.int64)
    for s in range(0, len(query), block_rows):
        block = query[s : s + block_rows]
        d2, sq = d2_buf[: len(block)], sq_buf[: len(block)]
        for j, col in enumerate(base_cols):
            diff = sq if j else d2
            np.subtract(block[:, j, None], col, out=diff)
            np.multiply(diff, diff, out=diff)
            if j:
                d2 += sq
        neighbors[s : s + len(block)] = base_rank[_k_smallest(d2, k, sq)]
    return NeighborhoodIndex(centers=np.arange(len(query)), neighbors=neighbors)


def interpolate_features(target_coords, source_coords, source_features) -> np.ndarray:
    """Inverse-distance-weighted feature transfer from source to target points.

    Each target gets the 1/d-weighted average of its 3 nearest sources; a
    target that coincides exactly with a source copies that source's feature.
    The (rows, 3, C) gather of source features runs in blocks of
    ``_INTERP_BLOCK_ROWS`` target rows; each row's arithmetic is the same
    as in one pass over all rows.
    """
    target = _coords_of(target_coords)
    source = _coords_of(source_coords)
    feats = np.asarray(source_features, dtype=np.float64)
    if len(source) == 0:
        raise InvalidInputError("interpolation needs at least one source point")
    if len(source) < _INTERP_K:
        raise ValueError(f"need at least {_INTERP_K} source points, got {len(source)}")
    hood = knn(target, source, _INTERP_K)
    diffs = target[:, None, :] - source[hood.neighbors]
    dist = np.sqrt((diffs**2).sum(axis=2))  # (M, 3), rows ascending
    out = np.empty((len(target), feats.shape[1]), dtype=feats.dtype)
    exact = dist[:, 0] == 0.0
    if exact.any():
        out[exact] = feats[hood.neighbors[exact, 0]]
    rest = np.flatnonzero(~exact)
    w = 1.0 / dist[rest]
    w /= w.sum(axis=1, keepdims=True)
    for s in range(0, len(rest), _INTERP_BLOCK_ROWS):
        rows = rest[s : s + _INTERP_BLOCK_ROWS]
        gathered = feats[hood.neighbors[rows]]
        out[rows] = np.einsum("mk,mkc->mc", w[s : s + _INTERP_BLOCK_ROWS], gathered)
    return out
