import numpy as np
import pytest

from pcmamba import checks
from pcmamba.errors import ConfigurationError
from pcmamba.local import (
    _BLOCK_ENTRIES,
    GAMParams,
    MLPStack,
    _center_blocks,
    gam_normalize,
    gam_sigma,
    local_aggregate,
)
from pcmamba.nn import AffineMap, rms_norm, silu
from pcmamba.sample import NeighborhoodIndex


def test_sigma_zero_when_neighbors_equal_centers():
    feats = np.random.default_rng(0).normal(size=(5, 3))
    hood = NeighborhoodIndex(centers=np.arange(5), neighbors=np.tile(np.arange(5)[:, None], 4))
    assert gam_sigma(feats, hood) == 0.0


def test_sigma_unit_for_unit_deviations():
    feats = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, -1.0]])
    hood = NeighborhoodIndex(centers=np.zeros(3), neighbors=np.tile([1, 2, 1, 2], (3, 1)))
    assert gam_sigma(feats, hood) == 1.0


def _hood(seed, m, k, d):
    """Random (M, K, D) neighbourhood features and (M, D) centre features."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(size=(m, k, d)), rng.normal(size=(m, d))


def test_sigma_matches_triple_loop():
    assert checks.gam_sigma_matches_oracle(*_hood(1, 10, 6, 7)).passed


def test_normalize_neighbors_equal_centers_gives_beta():
    rng = np.random.Generator(np.random.PCG64(2))
    centers = rng.normal(size=(4, 5))
    assert checks.gam_degenerate_gives_beta(centers, 3, rng.normal(size=5)).passed


def test_normalize_unit_rms():
    assert checks.gam_unit_rms(*_hood(3, 8, 5, 6)).passed


def test_normalize_alpha_linearity():
    assert checks.gam_alpha_linearity(*_hood(4, 6, 4, 3)).passed


def test_delta_must_be_positive():
    with pytest.raises(ValueError):
        GAMParams(alpha=np.ones(3), beta=np.zeros(3), delta=0.0)


def _toy_setup(seed, m=7, k=4, d_in=5, d_out=6):
    rng = np.random.Generator(np.random.PCG64(seed))
    feats = rng.normal(size=(m + 5, d_in))
    hood = NeighborhoodIndex(centers=np.arange(m), neighbors=rng.integers(0, m + 5, size=(m, k)))
    phi1 = MLPStack.init(rng, d_in, d_out)
    phi2 = MLPStack.init(rng, d_out, d_out)
    gam = GAMParams.init(d_in)
    return feats, hood, phi1, phi2, gam


def test_local_aggregate_k1_degenerate_pool():
    feats, _, phi1, phi2, gam = _toy_setup(6)
    hood = NeighborhoodIndex(centers=np.arange(7), neighbors=np.arange(7)[:, None] + 1)
    out = local_aggregate(feats, hood, phi1, phi2, gam)
    g = gam_normalize(feats, hood, gam)
    expected = phi2(phi1(g[:, 0, :]))
    # local_aggregate folds the linear maps of phi1's first layer per point,
    # which moves the rows by rounding only
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def test_local_aggregate_duplicate_neighbors_no_change():
    feats, hood, phi1, phi2, gam = _toy_setup(7)
    out = local_aggregate(feats, hood, phi1, phi2, gam)
    doubled = NeighborhoodIndex(hood.centers, np.hstack([hood.neighbors, hood.neighbors]))
    np.testing.assert_array_equal(out, local_aggregate(feats, doubled, phi1, phi2, gam))


def test_local_aggregate_neighbor_permutation_invariant():
    feats, hood, phi1, phi2, gam = _toy_setup(8)
    out = local_aggregate(feats, hood, phi1, phi2, gam)
    rng = np.random.Generator(np.random.PCG64(9))
    shuffled = hood.neighbors.copy()
    for row in shuffled:
        rng.shuffle(row)
    hood2 = NeighborhoodIndex(centers=hood.centers, neighbors=shuffled)
    np.testing.assert_array_equal(out, local_aggregate(feats, hood2, phi1, phi2, gam))


def test_local_aggregate_matches_straight_line_oracle():
    feats, hood, phi1, phi2, gam = _toy_setup(10)
    out = local_aggregate(feats, hood, phi1, phi2, gam)
    m, k = hood.neighbors.shape
    sigma = gam_sigma(feats, hood)
    rows = []
    for i in range(m):
        lifted = []
        for j in range(k):
            dev = feats[hood.neighbors[i, j]] - feats[hood.centers[i]]
            g = gam.alpha * dev / (sigma + gam.delta) + gam.beta
            h = phi1.entry(g)
            blk = phi1.blocks[0]
            h = h + rms_norm(blk.affine2(silu(rms_norm(blk.affine1(h), blk.norm1_scale))), blk.norm2_scale)
            lifted.append(h)
        pooled = np.max(np.stack(lifted), axis=0)
        blk2 = phi2.blocks[0]
        h2 = pooled + rms_norm(
            blk2.affine2(silu(rms_norm(blk2.affine1(pooled), blk2.norm1_scale))),
            blk2.norm2_scale,
        )
        rows.append(h2)
    np.testing.assert_allclose(out, np.stack(rows), rtol=1e-6, atol=1e-12)


def test_local_aggregate_channel_mismatch_raises():
    feats, hood, phi1, phi2, gam = _toy_setup(11)
    with pytest.raises(ConfigurationError):
        local_aggregate(feats[:, :3], hood, phi1, phi2, GAMParams.init(3))


# ---------------------------------------------- row blocks and dense primitives


def _textbook_affine(a, x):
    return x @ a.w.T + a.b


def _textbook_rms_norm(x, scale):
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-8) * scale


def _textbook_silu(x):
    return x / (1.0 + np.exp(-x))


def _textbook_stack(stack, x):
    if stack.entry is not None:
        x = _textbook_affine(stack.entry, x)
    for blk in stack.blocks:
        h = _textbook_silu(_textbook_rms_norm(_textbook_affine(blk.affine1, x), blk.norm1_scale))
        x = x + _textbook_rms_norm(_textbook_affine(blk.affine2, h), blk.norm2_scale)
    return x


def _one_shot_aggregate(features, hood, phi1, phi2, gam):
    """Whole-array composition: every neighbor row at once, no blocks."""
    neigh = features[hood.neighbors]
    dev = neigh - features[hood.centers][:, None, :]
    sigma = float(np.sqrt((dev * dev).mean()))
    g = gam.alpha * dev / (sigma + gam.delta) + gam.beta
    m, k, d_in = g.shape
    lifted = _textbook_stack(phi1, g.reshape(m * k, d_in)).reshape(m, k, -1)
    return _textbook_stack(phi2, lifted.max(axis=1))


def _centers_per_block(k, d_in, d_out):
    return _BLOCK_ENTRIES // (k * max(d_in, d_out))


# (m, k, d_in, d_out, with_beta) and the number of center blocks each case
# is meant to cross
_ORACLE_CASES = [
    # entry affine, M not a block multiple
    ((3 * _centers_per_block(4, 5, 6) + 37, 4, 5, 6, True), 4),
    # no entry, beta = 0
    ((4 * _centers_per_block(5, 6, 6) + 11, 5, 6, 6, False), 5),
    # K = 1, one row past whole blocks
    ((3 * _centers_per_block(1, 4, 7) + 1, 1, 4, 7, True), 4),
    # two blocks of nearly half size
    ((_centers_per_block(12, 8, 8) + 1, 12, 8, 8, True), 2),
    # fewer centers than one block
    ((7, 3, 5, 6, True), 1),
]


def test_oracle_cases_cross_intended_blocks():
    for (m, k, d_in, d_out, _), n_blocks in _ORACLE_CASES:
        assert len(_center_blocks(m, k, max(d_in, d_out))) - 1 == n_blocks


@pytest.mark.parametrize("m, k, d_in, d_out, with_beta", [case for case, _ in _ORACLE_CASES])
def test_local_aggregate_equals_one_shot_oracle(m, k, d_in, d_out, with_beta):
    rng = np.random.Generator(np.random.PCG64(m * k))
    feats = rng.normal(size=(m + 5, d_in))
    hood = NeighborhoodIndex(
        centers=rng.permutation(m + 5)[:m], neighbors=rng.integers(0, m + 5, size=(m, k))
    )
    phi1 = MLPStack.init(rng, d_in, d_out)
    phi2 = MLPStack.init(rng, d_out, d_out)
    gam = GAMParams(
        alpha=rng.uniform(0.5, 2.0, size=d_in),
        beta=rng.normal(size=d_in) if with_beta else np.zeros(d_in),
    )
    for stack in (phi1, phi2):
        for _, arr in stack.named_params("phi"):
            if arr.ndim == 1:  # biases and norm scales start at 0 and 1
                arr[:] = rng.normal(size=arr.shape)
    keep = feats.copy()
    out = local_aggregate(feats, hood, phi1, phi2, gam)
    expected = _one_shot_aggregate(feats, hood, phi1, phi2, gam)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(feats, keep)


def test_sigma_overflow_across_blocks_raises():
    # two center blocks whose sums of squares are 1e308 each: finite per
    # block, but the total overflows, which must raise and not give inf
    k, d = 1, 4
    m = 2 * _centers_per_block(k, d, d)
    assert len(_center_blocks(m, k, d)) - 1 == 2
    feats = np.zeros((2 * m, d))
    feats[m:] = np.sqrt(1e308 / (m // 2 * k * d))
    hood = NeighborhoodIndex(centers=np.arange(m), neighbors=m + np.arange(m)[:, None])
    rng = np.random.Generator(np.random.PCG64(13))
    phi1, phi2 = MLPStack.init(rng, d, d), MLPStack.init(rng, d, d)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        local_aggregate(feats, hood, phi1, phi2, GAMParams.init(d))


@pytest.mark.parametrize("shape", [(7,), (40, 9), (3, 4, 6), "strided"])
def test_primitives_match_textbook_and_keep_input(shape):
    rng = np.random.Generator(np.random.PCG64(12))
    if shape == "strided":
        x = (rng.normal(size=(40, 18)) * 10)[:, ::2]
    else:
        x = rng.normal(size=shape) * 10
    keep = x.copy()
    d = x.shape[-1]
    scale = rng.normal(size=d)
    affine = AffineMap(w=rng.normal(size=(5, d)), b=rng.normal(size=5))
    np.testing.assert_array_equal(silu(x), _textbook_silu(x))
    np.testing.assert_array_equal(rms_norm(x, scale), _textbook_rms_norm(x, scale))
    np.testing.assert_array_equal(affine(x), _textbook_affine(affine, x))
    np.testing.assert_array_equal(x, keep)
