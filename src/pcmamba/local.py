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
from .nn import AffineMap, rms_norm, silu
from .sample import NeighborhoodIndex

# Neighbor rows per block in local_aggregate (64 centers at K = 12). Each
# intermediate is then (768, D), 2.4 MB at D = 384, instead of (M*K, D),
# 38 MB at stage 0 of "pcm": small enough to stay in cache and below the
# size at which every temporary is mapped and page-faulted afresh.
_BLOCK_NEIGHBOR_ROWS = 768


@dataclass
class GAMParams:
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

    def named_params(self, prefix: str):
        yield f"{prefix}.alpha", self.alpha
        yield f"{prefix}.beta", self.beta


def _rms(dev: np.ndarray) -> float:
    # the sum of squares as one dot product of the flat view, without an
    # array of squares the size of dev
    flat = dev.reshape(-1)
    return float(np.sqrt(np.dot(flat, flat) / flat.size))


def gam_sigma(neighborhood_features: np.ndarray, center_features: np.ndarray) -> float:
    """RMS of neighbor deviations from their centers, one scalar per cloud.

    sigma = sqrt(mean over all centers, neighbors, channels of
    (f_ij - f_i)^2).
    """
    return _rms(neighborhood_features - center_features[:, None, :])


def gam_normalize(
    neighborhood_features: np.ndarray,
    center_features: np.ndarray,
    params: GAMParams,
) -> np.ndarray:
    """alpha * (f_ij - f_i) / (sigma + delta) + beta, elementwise."""
    dev = neighborhood_features - center_features[:, None, :]
    out = params.alpha * dev
    out /= _rms(dev) + params.delta
    out += params.beta
    return out


@dataclass
class ResidualMLP:
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

    def named_params(self, prefix: str):
        yield from self.affine1.named_params(f"{prefix}.affine1")
        yield from self.affine2.named_params(f"{prefix}.affine2")
        yield f"{prefix}.norm1_scale", self.norm1_scale
        yield f"{prefix}.norm2_scale", self.norm2_scale


@dataclass
class MLPStack:
    """Optional width-changing entry affine followed by residual blocks."""

    entry: AffineMap | None
    blocks: list = field(default_factory=list)

    @classmethod
    def init(cls, rng, d_in: int, d_out: int, depth: int = 1):
        entry = None if d_in == d_out else AffineMap.init(rng, d_in, d_out)
        return cls(entry=entry, blocks=[ResidualMLP.init(rng, d_out) for _ in range(depth)])

    @property
    def d_in(self) -> int:
        if self.entry is not None:
            return self.entry.d_in
        return self.blocks[0].affine1.d_in

    def __call__(self, x):
        if x.shape[-1] != self.d_in:
            raise ConfigurationError(
                f"stack expects {self.d_in} input channels, got {x.shape[-1]}"
            )
        if self.entry is not None:
            x = self.entry(x)
        for block in self.blocks:
            x = block(x)
        return x

    def named_params(self, prefix: str):
        if self.entry is not None:
            yield from self.entry.named_params(f"{prefix}.entry")
        for i, block in enumerate(self.blocks):
            yield from block.named_params(f"{prefix}.block{i}")


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
    order and to duplicated neighbors. sigma is taken once over the whole
    deviation array. The GAM affine, phi1's optional entry affine and the
    first block's ``affine1`` are linear in the deviation f_j - f_i, so
    they run once per point, as ``Q = F @ W'.T``, and each neighbor row
    is gathered as ``Q[j] - Q[i] + c`` (likewise the entry output, which
    the residual needs). The rest of phi1 and the max then run on blocks
    of centers of about ``_BLOCK_NEIGHBOR_ROWS`` neighbor rows each, so
    their intermediates stay in cache, and phi2 runs once on the pooled
    rows. The folding moves results by rounding only (about 1e-15 at unit
    scale); every row is computed the same way whatever the blocking.
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
    dev = features[neighbors]  # (M, K, D_in)
    dev -= features[centers][:, None, :]
    sigma = _rms(dev)
    del dev
    lin = features * (gam.alpha / (sigma + gam.delta))
    const = gam.beta
    if phi1.entry is not None:
        lin, const = _fold(lin, const, phi1.entry)
    first, rest = phi1.blocks[0], phi1.blocks[1:]
    q, q_const = _fold(lin, const, first.affine1)
    m, k = neighbors.shape
    # Blocks are balanced rather than cut at a fixed size with a short
    # remainder: a matrix product of one or a few rows takes another BLAS
    # kernel (gemv, or OpenBLAS's small-matrix path) whose summation order
    # differs, which would change the bits of those rows.
    n_blocks = -(-m // max(1, _BLOCK_NEIGHBOR_ROWS // k))
    bounds = [m * i // n_blocks for i in range(n_blocks + 1)]
    pooled = np.empty((m, first.affine2.d_out), dtype=lin.dtype)
    for start, end in zip(bounds, bounds[1:]):
        nb, ctr = neighbors[start:end], centers[start:end]
        h = silu(rms_norm(_rows(q, q_const, nb, ctr), first.norm1_scale))
        lifted = rms_norm(first.affine2(h), first.norm2_scale)
        lifted += _rows(lin, const, nb, ctr)
        for block in rest:
            lifted = block(lifted)
        lifted.reshape(end - start, k, -1).max(axis=1, out=pooled[start:end])
    return phi2(pooled)
