"""Point-cloud containers, unit-cube normalization, and canonical ordering.

Coordinates are stored as 64-bit floats so that ordering decisions
(serialization codes, tie-breaks) are reproducible bit-for-bit. A
``NormalizedCloud`` marks a cloud whose coordinates already lie in the unit
cube, the input the serialization orders quantize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericRangeError


@dataclass(frozen=True)
class PointCloud:
    """N points with 3-D coordinates plus optional per-point features.

    Immutable after construction; all operations on it are pure functions.
    """

    coords: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise InvalidInputError(f"coords must be N x 3, got shape {coords.shape}")
        if coords.shape[0] < 1:
            raise InvalidInputError("a point cloud needs at least one point")
        if not np.isfinite(coords).all():
            raise InvalidInputError("coords contain NaN or Inf")
        object.__setattr__(self, "coords", coords)
        if self.features is not None:
            feats = np.ascontiguousarray(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != coords.shape[0]:
                raise InvalidInputError(
                    f"features must have one row per point, got {feats.shape} "
                    f"for {coords.shape[0]} points"
                )
            if not np.isfinite(feats).all():
                raise InvalidInputError("features contain NaN or Inf")
            object.__setattr__(self, "features", feats)

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class NormalizedCloud:
    """A cloud whose coords live in [0, 1]^3."""

    cloud: PointCloud


def normalize_unit_cube(cloud: PointCloud) -> NormalizedCloud:
    """Min-max scale coords isotropically into the unit cube.

    A single scale (the largest axis extent) is used for all three axes so
    that axis-permuted serialization variants see undistorted geometry. An
    axis with zero extent maps to 0.5; a fully degenerate cloud (single
    point or coincident points) uses scale 1 by convention. Finite
    coordinates whose extent exceeds the float64 range raise a
    NumericRangeError.
    """
    coords = cloud.coords
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    with np.errstate(over="ignore"):
        extent = hi - lo
    if not np.isfinite(extent).all():
        raise NumericRangeError(
            f"coordinate extent {extent.tolist()} (from min {lo.tolist()} to "
            f"max {hi.tolist()}) exceeds the float64 range"
        )
    scale = float(extent.max())
    if scale <= 0.0:
        scale = 1.0
    normalized = (coords - lo) / scale
    normalized[:, extent <= 0.0] = 0.5
    return NormalizedCloud(PointCloud(coords=normalized, features=cloud.features))


def canonical_tiebreak_order(rows: np.ndarray) -> np.ndarray:
    """Stable lexicographic permutation of (N, C) rows by every column in
    order: x, then y, then z for coordinates, then any feature columns.

    Only equal rows keep their relative input order, so the rows taken in
    this order are a pure function of the multiset of rows (``-0.0`` and
    ``0.0`` compare equal; ``encode`` makes every zero positive first).
    """
    rows = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(rows).all():
        raise InvalidInputError("coords or features contain NaN or Inf")
    # np.lexsort: last key is primary, and the sort is stable.
    return np.lexsort(rows.T[::-1])
