import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmamba.errors import InvalidInputError
from pcmamba.sample import farthest_point_sample, interpolate_features, knn


def fps_oracle(coords, m, first):
    """O(N*m) reference: recompute min distance to the selected set each step
    and take the earliest unselected index at the maximum."""
    selected = [first]
    for _ in range(m - 1):
        d = np.min(
            np.linalg.norm(coords[:, None, :] - coords[selected][None, :, :], axis=2),
            axis=1,
        )
        d[selected] = -1.0
        selected.append(int(np.argmax(d)))
    return np.array(selected)


def knn_oracle(query, base, k):
    """Full stable sort of every row by (squared distance, x, y, z, index).

    Squared distances use the same per-axis differences as ``knn``, so exact
    ties stay exact ties.
    """
    d = query[:, None, :] - base[None, :, :]
    d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2]
    keys = [np.broadcast_to(col, d2.shape) for col in (np.arange(len(base)), *base.T[::-1])]
    return np.lexsort((*keys, d2), axis=-1)[:, :k]


@st.composite
def clouds(
    draw, kinds=("random", "lattice", "duplicated"), spacings=(1.0, 0.25, 0.1), max_points=40
):
    """Small clouds: uniform, on an integer lattice (massive distance ties),
    or built from a few points repeated many times."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, max_points))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return rng.uniform(-1.0, 1.0, size=(n, 3))
    if kind == "lattice":
        spacing = draw(st.sampled_from(spacings))
        return rng.integers(0, 3, size=(n, 3)) * spacing
    distinct = rng.uniform(size=(draw(st.integers(1, max(1, n // 3))), 3))
    return distinct[rng.integers(0, len(distinct), size=n)]


# ------------------------------------------------------------------------ fps


def test_fps_two_points_on_line():
    coords = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    np.testing.assert_array_equal(farthest_point_sample(coords, 2), [0, 1])


def test_fps_m_equals_n_returns_all():
    rng = np.random.Generator(np.random.PCG64(0))
    coords = rng.uniform(size=(17, 3))
    idx = farthest_point_sample(coords, 17)
    assert sorted(idx.tolist()) == list(range(17))


def test_fps_matches_greedy_oracle():
    rng = np.random.Generator(np.random.PCG64(1))
    coords = rng.uniform(size=(100, 3))
    got = farthest_point_sample(coords, 10)
    expected = fps_oracle(coords, 10, int(got[0]))
    np.testing.assert_array_equal(got, expected)


def test_fps_rejects_bad_m():
    with pytest.raises(ValueError):
        farthest_point_sample(np.zeros((4, 3)), 5)


def test_fps_spreads_better_than_random():
    rng = np.random.Generator(np.random.PCG64(123))
    coords = rng.uniform(size=(200, 3))

    def min_pairwise(idx):
        sub = coords[idx]
        d = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=2)
        return d[np.triu_indices(len(sub), 1)].min()

    fps_d = min_pairwise(farthest_point_sample(coords, 20))
    for seed in range(100):
        random_idx = np.random.Generator(np.random.PCG64(seed)).choice(200, size=20, replace=False)
        assert min_pairwise(random_idx) <= fps_d


# lattice spacings are powers of two here: fps_oracle compares square roots,
# which must not merge distinct squared distances into a false tie
@settings(max_examples=150, deadline=None)
@given(clouds(kinds=("lattice", "duplicated"), spacings=(1.0, 0.25)), st.data())
def test_fps_matches_oracle_on_ties(coords, data):
    m = data.draw(st.integers(1, len(coords)), label="m")
    got = farthest_point_sample(coords, m)
    first = np.lexsort((np.arange(len(coords)), coords[:, 2], coords[:, 1], coords[:, 0]))[0]
    assert got[0] == first
    np.testing.assert_array_equal(got, fps_oracle(coords, m, first))


@settings(max_examples=150, deadline=None)
@given(clouds(), st.data())
def test_fps_indices_distinct(coords, data):
    m = data.draw(st.integers(1, len(coords)), label="m")
    got = farthest_point_sample(coords, m)
    assert len(got) == m
    assert len(np.unique(got)) == m


def test_fps_few_distinct_points_example():
    coords = np.tile(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), (10, 1))
    np.testing.assert_array_equal(farthest_point_sample(coords, 6), [0, 1, 2, 3, 4, 5])


# ------------------------------------------------------------------------ knn


def test_knn_self_is_first():
    rng = np.random.Generator(np.random.PCG64(2))
    coords = rng.uniform(size=(30, 3))
    hood = knn(coords, coords, 4)
    np.testing.assert_array_equal(hood.neighbors[:, 0], np.arange(30))


def test_knn_matches_bruteforce():
    rng = np.random.Generator(np.random.PCG64(3))
    base = rng.uniform(size=(50, 3))
    query = rng.uniform(size=(20, 3))
    hood = knn(query, base, 8)
    for i in range(20):
        d = np.linalg.norm(base - query[i], axis=1)
        expected = np.argsort(d, kind="stable")[:8]
        np.testing.assert_array_equal(hood.neighbors[i], expected)


@settings(max_examples=300, deadline=None)
@given(clouds(), st.data())
def test_knn_matches_full_sort_oracle(base, data):
    n = len(base)
    k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="k")
    if data.draw(st.booleans(), label="self query"):
        query = base
    else:
        query = data.draw(clouds(max_points=25), label="query")
    np.testing.assert_array_equal(knn(query, base, k).neighbors, knn_oracle(query, base, k))


def test_knn_matches_oracle_across_row_blocks():
    # 4800 base points: distances are computed in blocks of a few hundred
    # query rows, so 1200 queries span two blocks; the lattice ties massively
    rng = np.random.Generator(np.random.PCG64(8))
    grid = np.stack(np.meshgrid(np.arange(20), np.arange(20), np.arange(12), indexing="ij"), -1)
    base = grid.reshape(-1, 3) * 0.1
    on_lattice = base[rng.choice(len(base), 800, replace=False)]
    query = np.concatenate([on_lattice, rng.uniform(0, 2, (400, 3))])
    for k in (1, 7):
        np.testing.assert_array_equal(knn(query, base, k).neighbors, knn_oracle(query, base, k))


def test_knn_tie_prefers_lexicographically_smaller():
    base = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    hood = knn(np.zeros((1, 3)), base, 2)
    np.testing.assert_array_equal(hood.neighbors[0], [1, 0])


def test_knn_rejects_large_k():
    with pytest.raises(ValueError):
        knn(np.zeros((2, 3)), np.zeros((2, 3)), 3)


def test_knn_rejects_non_finite_query():
    with pytest.raises(InvalidInputError):
        knn(np.array([[0.0, np.nan, 0.0]]), np.zeros((2, 3)), 1)


# -------------------------------------------------------------- interpolation


def test_interpolate_exact_match_copies_source():
    source = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]])
    feats = np.array([[1.0], [2.0], [3.0]])
    out = interpolate_features(source[:1], source, feats, k=2)
    np.testing.assert_array_equal(out, [[1.0]])


def test_interpolate_midpoint_symmetric():
    source = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    feats = np.array([[0.0], [2.0]])
    out = interpolate_features(np.array([[0.5, 0.0, 0.0]]), source, feats, k=2)
    np.testing.assert_allclose(out, [[1.0]])


def test_interpolate_matches_direct_formula():
    rng = np.random.Generator(np.random.PCG64(6))
    source = rng.uniform(size=(40, 3))
    feats = rng.normal(size=(40, 5))
    target = rng.uniform(size=(15, 3))
    out = interpolate_features(target, source, feats, k=3)
    for i, t in enumerate(target):
        d = np.linalg.norm(source - t, axis=1)
        nearest = np.argsort(d, kind="stable")[:3]
        w = 1.0 / d[nearest]
        w /= w.sum()
        np.testing.assert_allclose(out[i], w @ feats[nearest], rtol=1e-6, atol=1e-12)


def test_interpolate_idempotent_k1():
    rng = np.random.Generator(np.random.PCG64(7))
    coords = rng.uniform(size=(25, 3))
    feats = rng.normal(size=(25, 4))
    out = interpolate_features(coords, coords, feats, k=1)
    np.testing.assert_array_equal(out, feats)


def test_interpolate_needs_sources():
    with pytest.raises(ValueError):
        interpolate_features(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 1)), k=3)
