"""Point-cloud containers, unit-cube normalization, and canonical ordering.

Coordinates are stored as 64-bit floats so that ordering decisions
(serialization codes, tie-breaks) are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class PointCloud:
    """N points with 3-D coordinates plus optional per-point features/labels.

    Immutable after construction; all operations on it are pure functions.
    """

    coords: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

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
        if self.labels is not None:
            labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            if labels.shape != (coords.shape[0],):
                raise InvalidInputError("labels must be a length-N integer vector")
            object.__setattr__(self, "labels", labels)

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    def select(self, indices) -> "PointCloud":
        """Sub-cloud at the given point indices (features/labels carried along)."""
        idx = np.asarray(indices)
        return PointCloud(
            coords=self.coords[idx],
            features=None if self.features is None else self.features[idx],
            labels=None if self.labels is None else self.labels[idx],
        )


@dataclass(frozen=True)
class NormalizedCloud:
    """A cloud whose coords live in [0, 1]^3, plus the inverse transform.

    ``denormalize`` (coords * original_scale + original_min) recovers the
    inputs; a zero-extent axis stores an offset so the round trip still holds.
    """

    cloud: PointCloud
    original_min: np.ndarray = field(repr=False)
    original_scale: float = 1.0

    def denormalize(self) -> np.ndarray:
        return self.cloud.coords * self.original_scale + self.original_min


def normalize_unit_cube(cloud: PointCloud) -> NormalizedCloud:
    """Min-max scale coords isotropically into the unit cube.

    A single scale (the largest axis extent) is used for all three axes so
    that axis-permuted serialization variants see undistorted geometry. An
    axis with zero extent maps to 0.5; a fully degenerate cloud (single
    point or coincident points) uses scale 1 by convention.
    """
    coords = cloud.coords
    lo = coords.min(axis=0)
    extent = coords.max(axis=0) - lo
    scale = float(extent.max())
    if scale <= 0.0:
        scale = 1.0
    normalized = (coords - lo) / scale
    degenerate = extent <= 0.0
    if degenerate.any():
        normalized = normalized.copy()
        normalized[:, degenerate] = 0.5
        # keep denormalization exact on flat axes
        lo = lo.copy()
        lo[degenerate] = coords[0, degenerate] - 0.5 * scale
    out = PointCloud(coords=normalized, features=cloud.features, labels=cloud.labels)
    return NormalizedCloud(cloud=out, original_min=lo, original_scale=scale)


def canonical_tiebreak_order(coords: np.ndarray) -> np.ndarray:
    """Stable lexicographic permutation by (x, then y, then z).

    Points with identical coordinates keep their relative input order, so the
    result is a pure function of the multiset of coordinates.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if not np.isfinite(coords).all():
        raise InvalidInputError("coords contain NaN or Inf")
    # np.lexsort: last key is primary, and the sort is stable.
    return np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
