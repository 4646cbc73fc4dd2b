"""Geometric affine normalization and residual-MLP local aggregation.

A neighborhood of K points is normalized against its center by the global
RMS of the deviations, lifted per neighbor through a residual MLP, reduced
by a channel-wise max over the K neighbors, and refined per center by a
second residual MLP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .nn import AffineMap, Params, rms_norm, silu
from .sample import NeighborhoodIndex

# Entries (rows x the widest layer width) per block of centers in
# local_aggregate and gam_sigma: 192 neighbor rows (16 centers at K = 12) at
# D = 384, 96 at D = 768, 384 at D = 192. Each intermediate is then 576 KB,
# whatever the cloud, instead of growing with M * K * D (the whole deviation
# array is 38 MB at stage 0 of "pcm"), so it stays in cache.
_BLOCK_ENTRIES = 73_728


@dataclass
class GAMParams(Params):
    """Per-channel scale/shift for the geometric affine normalization.

    ``alpha`` multiplies the normalized deviations, ``beta``
    (zero-initialized) shifts them, ``delta`` guards the division.
    """

    alpha: np.ndarray
    beta: np.ndarray
    delta: float = 1e-5

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @classmethod
    def init(cls, d: int):
        return cls(alpha=np.ones(d), beta=np.zeros(d))


def _center_blocks(m: int, k: int, width: int) -> list:
    """Bounds of balanced blocks of the m centers, each block at most
    ``_BLOCK_ENTRIES`` entries of k rows of ``width`` channels per center.

    Blocks are balanced rather than cut at a fixed size with a short
    remainder: a matrix product of one or a few rows takes another BLAS
    kernel (gemv, or OpenBLAS's small-matrix path) whose summation order
    differs, which would change the bits of those rows.
    """
    n_blocks = -(-m // max(1, _BLOCK_ENTRIES // (k * width)))
    return [m * i // n_blocks for i in range(n_blocks + 1)]


def gam_sigma(features: np.ndarray, neighborhood: NeighborhoodIndex, bounds=None) -> np.float64:
    """RMS of neighbor deviations from their centers, one scalar per cloud.

    sigma = sqrt(mean over all centers i, neighbors j, channels of
    (f_j - f_i)^2). The sum of squares is accumulated block by block of
    centers (``bounds``, by default ``_center_blocks`` at the feature
    width), so no (M, K, D) array is formed. Each block is squared in place
    and summed by numpy's own pairwise ``np.add.reduce``, not a BLAS dot
    product, whose rounding would depend on the BLAS thread count. The
    running sum is a numpy float64: under ``np.errstate(over="raise")`` a
    total that overflows raises even when every block's sum is finite.
    """
    centers, neighbors = neighborhood.centers, neighborhood.neighbors
    m, k = neighbors.shape
    if bounds is None:
        bounds = _center_blocks(m, k, features.shape[1])
    total = np.float64(0.0)
    for start, end in zip(bounds, bounds[1:]):
        dev = features[neighbors[start:end]]
        dev -= features[centers[start:end]][:, None, :]
        dev *= dev
        total += np.add.reduce(dev, axis=None)
    return np.sqrt(total / (m * k * features.shape[1]))


def gam_normalize(
    features: np.ndarray,
    neighborhood: NeighborhoodIndex,
    params: GAMParams,
) -> np.ndarray:
    """alpha * (f_j - f_i) / (sigma + delta) + beta for every neighbor j of
    every center i, as an (M, K, D) array, with sigma from ``gam_sigma``."""
    dev = features[neighborhood.neighbors]
    dev -= features[neighborhood.centers][:, None, :]
    out = params.alpha * dev
    out /= gam_sigma(features, neighborhood) + params.delta
    out += params.beta
    return out


@dataclass
class ResidualMLP(Params):
    """x + norm(affine2(silu(norm(affine1(x))))) with equal in/out width."""

    affine1: AffineMap
    affine2: AffineMap
    norm1_scale: np.ndarray
    norm2_scale: np.ndarray

    @classmethod
    def init(cls, rng: np.random.Generator, d: int):
        return cls(
            affine1=AffineMap.init(rng, d, d),
            affine2=AffineMap.init(rng, d, d),
            norm1_scale=np.ones(d),
            norm2_scale=np.ones(d),
        )

    def __call__(self, x):
        h = silu(rms_norm(self.affine1(x), self.norm1_scale))
        out = rms_norm(self.affine2(h), self.norm2_scale)
        out += x
        return out


@dataclass
class MLPStack(Params):
    """A width-changing entry affine, present only when the widths differ,
    followed by one residual block; ``blocks`` holds that block."""

    entry: AffineMap | None
    blocks: list = field(default_factory=list)

    @classmethod
    def init(cls, rng, d_in: int, d_out: int):
        entry = None if d_in == d_out else AffineMap.init(rng, d_in, d_out)
        return cls(entry=entry, blocks=[ResidualMLP.init(rng, d_out)])

    @property
    def d_in(self) -> int:
        if self.entry is not None:
            return self.entry.d_in
        return self.blocks[0].affine1.d_in

    def __call__(self, x):
        # the first affine (entry or affine1) checks the input width
        if self.entry is not None:
            x = self.entry(x)
        for block in self.blocks:
            x = block(x)
        return x


def _fold(lin: np.ndarray, const: np.ndarray, affine: AffineMap):
    """``affine(lin[j] - lin[i] + const)`` as ``out[j] - out[i] + out_const``."""
    return lin @ affine.w.T, affine.w @ const + affine.b


def _rows(lin: np.ndarray, const: np.ndarray, neighbors, centers) -> np.ndarray:
    """``lin[j] - lin[i] + const`` for every neighbor j of every center i,
    as (len(centers) * K, D) rows."""
    out = lin[neighbors]
    out -= (lin[centers] - const)[:, None, :]
    return out.reshape(-1, lin.shape[1])


def local_aggregate(
    features: np.ndarray,
    neighborhood: NeighborhoodIndex,
    phi1: MLPStack,
    phi2: MLPStack,
    gam: GAMParams,
) -> np.ndarray:
    """Per-center features: phi2(maxpool_K(phi1(GAM(neighbors)))).

    The max over the K neighbors makes the result invariant to neighbor
    order and to duplicated neighbors. The GAM affine, phi1's optional
    entry affine and its block's ``affine1`` are linear in the
    deviation f_j - f_i, so they run once per point, as ``Q = F @ W'.T``,
    and each neighbor row is gathered as ``Q[j] - Q[i] + c`` (likewise the
    entry output, which the residual needs). Everything per neighbor row
    runs on balanced blocks of centers of at most ``_BLOCK_ENTRIES``
    entries at phi1's widest width, so no intermediate grows with M * K * D:
    first ``gam_sigma``'s sum of squares, then the rest of phi1 and the max.
    phi2 runs once on the pooled (M, D) rows. sigma's blocked sum and the
    folding move results by rounding only (about 1e-15 at unit scale);
    every row is computed the same way whatever the blocking.
    """
    if features.shape[-1] != gam.alpha.shape[0]:
        raise ConfigurationError(
            f"GAM expects {gam.alpha.shape[0]} channels, got {features.shape[-1]}"
        )
    if features.shape[-1] != phi1.d_in:
        raise ConfigurationError(
            f"stack expects {phi1.d_in} input channels, got {features.shape[-1]}"
        )
    centers, neighbors = neighborhood.centers, neighborhood.neighbors
    (block,) = phi1.blocks
    m, k = neighbors.shape
    bounds = _center_blocks(m, k, max(phi1.d_in, block.affine2.d_out))
    sigma = gam_sigma(features, neighborhood, bounds)
    lin = features * (gam.alpha / (sigma + gam.delta))
    const = gam.beta
    if phi1.entry is not None:
        lin, const = _fold(lin, const, phi1.entry)
    q, q_const = _fold(lin, const, block.affine1)
    pooled = np.empty((m, block.affine2.d_out), dtype=lin.dtype)
    for start, end in zip(bounds, bounds[1:]):
        nb, ctr = neighbors[start:end], centers[start:end]
        h = silu(rms_norm(_rows(q, q_const, nb, ctr), block.norm1_scale))
        lifted = rms_norm(block.affine2(h), block.norm2_scale)
        lifted += _rows(lin, const, nb, ctr)
        lifted.reshape(end - start, k, -1).max(axis=1, out=pooled[start:end])
    del lin, q  # per-point arrays that phi2 does not need
    return phi2(pooled)
