import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmamba.errors import InvalidInputError, NumericRangeError
from pcmamba.pointset import PointCloud, canonical_tiebreak_order, normalize_unit_cube


def test_cloud_validation():
    with pytest.raises(InvalidInputError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(InvalidInputError):
        PointCloud(np.array([[0.0, np.nan, 0.0]]))
    with pytest.raises(InvalidInputError):
        PointCloud(np.zeros((2, 3)), features=np.zeros((3, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cloud_rejects_non_finite_features(bad):
    features = np.zeros((2, 1))
    features[1, 0] = bad
    with pytest.raises(InvalidInputError, match="features contain NaN or Inf"):
        PointCloud(np.zeros((2, 3)), features=features)


def test_normalize_cube_corners():
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]))
    norm = normalize_unit_cube(cloud)
    np.testing.assert_array_equal(norm.cloud.coords, [[0, 0, 0], [1, 1, 1]])


def test_normalize_single_point_degenerate():
    norm = normalize_unit_cube(PointCloud(np.array([[5.0, 5.0, 5.0]])))
    np.testing.assert_array_equal(norm.cloud.coords, [[0.5, 0.5, 0.5]])


def test_normalize_flat_axis_maps_to_half():
    # z extent is zero; x/y span 4
    cloud = PointCloud(np.array([[0.0, 0.0, 7.0], [4.0, 2.0, 7.0]]))
    norm = normalize_unit_cube(cloud)
    np.testing.assert_array_equal(norm.cloud.coords, [[0.0, 0.0, 0.5], [1.0, 0.5, 0.5]])


def _unscale(norm, coords):
    """Undo the isotropic map on axes of non-zero extent: scale is the largest
    extent (1 for a single point), the offset each axis's minimum."""
    lo = coords.min(axis=0)
    scale = (coords.max(axis=0) - lo).max() or 1.0
    return norm.cloud.coords * scale + lo


def test_normalize_roundtrip_random():
    rng = np.random.Generator(np.random.PCG64(0))
    coords = rng.normal(0.0, 50.0, size=(100, 3)) + np.array([10.0, -40.0, 3.0])
    norm = normalize_unit_cube(PointCloud(coords))
    assert norm.cloud.coords.min() >= 0.0 and norm.cloud.coords.max() <= 1.0
    np.testing.assert_allclose(_unscale(norm, coords), coords, rtol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_normalize_roundtrip_property(points):
    coords = np.asarray(points, dtype=np.float64)
    norm = normalize_unit_cube(PointCloud(coords))
    assert norm.cloud.coords.min() >= -1e-12
    assert norm.cloud.coords.max() <= 1.0 + 1e-12
    flat = coords.max(axis=0) == coords.min(axis=0)
    assert (norm.cloud.coords[:, flat] == 0.5).all()
    back = _unscale(norm, coords)
    scale = max(1.0, np.abs(coords).max())
    assert np.abs(back - coords)[:, ~flat].max(initial=0.0) <= 1e-6 * scale


def test_canonical_order_lexicographic():
    order = canonical_tiebreak_order(np.array([[1.0, 0, 0], [0.0, 0, 0]]))
    np.testing.assert_array_equal(order, [1, 0])


def test_canonical_order_stability():
    order = canonical_tiebreak_order(np.array([[3.0, 1, 2], [3.0, 1, 2]]))
    np.testing.assert_array_equal(order, [0, 1])


def test_canonical_order_sorts_feature_columns_after_coordinates():
    rows = np.array([[1.0, 0, 0, 5.0], [0.0, 0, 0, 9.0], [0.0, 0, 0, -2.0], [1.0, 0, 0, 5.0]])
    np.testing.assert_array_equal(canonical_tiebreak_order(rows), [2, 1, 0, 3])


def test_canonical_order_permutation_oracle():
    rng = np.random.Generator(np.random.PCG64(1))
    coords = rng.uniform(size=(64, 3))
    perm = rng.permutation(64)
    a = coords[canonical_tiebreak_order(coords)]
    shuffled = coords[perm]
    b = shuffled[canonical_tiebreak_order(shuffled)]
    np.testing.assert_array_equal(a, b)


@pytest.mark.filterwarnings("error")
def test_normalize_extent_beyond_float_range_raises_naming_it():
    coords = np.array([[-1e308, 0.0, 0.0], [1e308, 1.0, 1.0]])
    with pytest.raises(NumericRangeError, match=r"coordinate extent \[inf, 1\.0, 1\.0\]"):
        normalize_unit_cube(PointCloud(coords))


def test_normalize_largest_finite_extent_stays_in_unit_cube():
    coords = np.array([[-8e307, 0.0, 0.0], [8e307, 1.0, 2.0]])
    norm = normalize_unit_cube(PointCloud(coords)).cloud.coords
    assert np.isfinite(norm).all() and norm.min() >= 0.0 and norm.max() <= 1.0
