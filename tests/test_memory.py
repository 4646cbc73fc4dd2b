"""Working-set bounds under ``tracemalloc``: no intermediate of the forward
pass may grow with M * K * D (neighbor rows times width) or with N * C
(input points times decoder width), and a Mamba layer holds a bounded
number of (M, D) sequences."""

import tracemalloc

import numpy as np
import pytest

from pcmamba.local import GAMParams, MLPStack, local_aggregate
from pcmamba.model import TASK_SEGMENTATION, build_model, forward_segmentation, preset_config
from pcmamba.pointset import PointCloud
from pcmamba.sample import NeighborhoodIndex, knn
from pcmamba.ssm import SelectiveSSMLayer, bidirectional_mamba


def _peak_bytes(fn):
    """``fn()`` and the peak of traced memory during it, above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _aggregate(m, k=32, d=16):
    rng = np.random.Generator(np.random.PCG64(m))
    feats = rng.normal(size=(m, d))
    hood = NeighborhoodIndex(np.arange(m), rng.integers(0, m, size=(m, k)))
    phi1, phi2 = MLPStack.init(rng, d, d), MLPStack.init(rng, d, d)
    gam = GAMParams.init(d)
    return _peak_bytes(lambda: local_aggregate(feats, hood, phi1, phi2, gam))


def test_local_aggregate_peak_grows_with_points_not_neighbor_rows():
    # the per-point folded rows, the pooled rows and the output are (M, D)
    # each, so the peak grows by a few outputs when M quadruples; an
    # (M, K, D) array would add K = 32 of them
    small, small_peak = _aggregate(1024)
    large, large_peak = _aggregate(4096)
    assert large_peak - small_peak <= 5 * (large.nbytes - small.nbytes)


@pytest.mark.parametrize("m, d", [(1036, 384), (268, 768)])
def test_bidirectional_mamba_peak_at_most_5_5_sequences(m, d):
    # stage 0 and stage 3 of "pcm" (with 2 x 6 prompt tokens): while the
    # backward direction runs, the forward output, u, the gate and dt (which
    # the scan overwrites with y) are live, plus one temporary of the conv or
    # softplus; an (M, 2 Di) in-projection or a separate y adds one more
    rng = np.random.Generator(np.random.PCG64(m))
    x = rng.normal(size=(m, d))
    fwd, bwd = SelectiveSSMLayer.init(rng, d), SelectiveSSMLayer.init(rng, d)
    _, peak = _peak_bytes(lambda: bidirectional_mamba(x, fwd, bwd))
    assert peak <= 5.5 * x.nbytes


def test_knn_peak_grows_by_its_output_only():
    # 256 and 1024 queries against 1024 base points: the distance blocks
    # are the same size for both, so only the neighbor table grows
    rng = np.random.Generator(np.random.PCG64(3))
    base = rng.normal(size=(1024, 3))
    queries = rng.normal(size=(256, 3)), rng.normal(size=(1024, 3))
    (small, small_peak), (large, large_peak) = (_peak_bytes(lambda: knn(q, base, 12)) for q in queries)

    def size(hood):
        return hood.centers.nbytes + hood.neighbors.nbytes

    assert large_peak - small_peak <= size(large) - size(small)


def test_segmentation_forward_peak_below_20_mb():
    # pcm-tiny on 8192 points: the logits (1 MB) are the only (N, C) array;
    # interpolating the 192-wide stage-0 features to all points first would
    # take 12.6 MB more
    grid = np.meshgrid(np.arange(16), np.arange(16), np.arange(32), indexing="ij")
    cloud = PointCloud(np.stack(grid, axis=-1).reshape(-1, 3).astype(np.float64))
    model = build_model(preset_config("pcm-tiny", task=TASK_SEGMENTATION, seed=0))
    logits, peak = _peak_bytes(lambda: forward_segmentation(model, cloud))
    assert logits.shape == (8192, 15)
    assert peak < 20 * 2**20
