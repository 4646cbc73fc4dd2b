import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmamba import checks
from pcmamba import serialize as ser
from pcmamba.errors import UndefinedMetricError
from pcmamba.pointset import NormalizedCloud, PointCloud, normalize_unit_cube


def _load_oracles():
    """The benchmark's reference codes, built from their textbook definitions."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def full_grid(n):
    r = range(n)
    return np.array(list(itertools.product(r, r, r)), dtype=np.int64)


def norm_cloud(coords):
    return normalize_unit_cube(PointCloud(np.asarray(coords, dtype=np.float64)))


# --------------------------------------------------------------- quantization


def test_grid_quantize_examples():
    # coords already in [0,1]^3, wrapped without rescaling
    nc = NormalizedCloud(PointCloud(np.array([[0.5, 0.5, 0.5], [1.0, 0.0, 1.0]])))
    cells = ser.grid_quantize(nc, 16)
    np.testing.assert_array_equal(cells[0], [8, 8, 8])
    np.testing.assert_array_equal(cells[1], [15, 0, 15])


def test_grid_quantize_range():
    rng = np.random.Generator(np.random.PCG64(3))
    nc = norm_cloud(rng.uniform(size=(1000, 3)))
    cells = ser.grid_quantize(nc, 32)
    assert cells.dtype == np.int64
    assert cells.min() >= 0 and cells.max() <= 31


def test_grid_quantize_rejects_zero():
    with pytest.raises(ValueError):
        ser.grid_quantize(norm_cloud([[0.0, 0.0, 0.0]]), 0)


# ------------------------------------------------------------------ code_func


def test_code_func_zero_case():
    assert ser.code_func(0, 0, 4, ser.MODE_PAPER) == 0
    assert ser.code_func(0, 0, 4, ser.MODE_BIJECTIVE) == 0


def test_code_func_direct_evaluation():
    assert ser.code_func(3, 1, 4, ser.MODE_PAPER) == 5
    assert ser.code_func(3, 1, 4, ser.MODE_BIJECTIVE) == 4


def test_code_func_paper_boundary_collision():
    assert ser.code_func(0, 1, 4, ser.MODE_PAPER) == 8
    assert ser.code_func(0, 2, 4, ser.MODE_PAPER) == 8


def test_code_func_rejects_out_of_range():
    with pytest.raises(ValueError):
        ser.code_func(4, 0, 4)
    with pytest.raises(ValueError):
        ser.code_func(-1, 0, 4)


# ------------------------------------------------------------- snake orders


def test_cts_zero_cell():
    for name in ser.CTS_NAMES:
        assert ser.order_codes(np.array([[0, 0, 0]]), 4, name)[0] == 0


def test_cts_bijective_enumeration_grid2():
    codes = ser.order_codes(full_grid(2), 2, "xyz")
    assert sorted(codes.tolist()) == list(range(8))


@pytest.mark.parametrize("grid_n", [2, 4, 8, 16])
@pytest.mark.parametrize("name", ser.CTS_NAMES)
def test_cts_bijective_and_snake(grid_n, name):
    # an oracle per name, beside checks.orders_bijective and
    # checks.orders_unit_steps (the worst of the six names): the codes are
    # exactly 0 .. grid_n**3 - 1, and consecutive codes are one unit step apart
    cells = full_grid(grid_n)
    codes = ser.order_codes(cells, grid_n, name)
    np.testing.assert_array_equal(np.sort(codes), np.arange(grid_n**3))
    steps = np.abs(np.diff(cells[np.argsort(codes)], axis=0)).sum(axis=1)
    assert (steps == 1).all()


def test_paper_literal_collides():
    for grid_n in (2, 4, 8, 16):
        assert checks.paper_literal_collides(grid_n).passed


def test_axis_variant_relation_exhaustive():
    assert checks.axis_variant_identity().passed


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
    st.sampled_from(ser.CTS_NAMES),
)
def test_cts_code_within_range_property(cell, name):
    code = ser.order_codes(np.array([cell]), 8, name)[0]
    assert 0 <= code < 8**3


# --------------------------------------------------------- morton and hilbert


def test_morton_examples():
    assert ser.order_codes(np.array([[0, 0, 0]]), 2, "z")[0] == 0
    assert ser.order_codes(np.array([[1, 1, 1]]), 2, "z")[0] == 7


def test_hilbert_zero():
    assert ser.order_codes(np.array([[0, 0, 0]]), 4, "hilbert")[0] == 0


def _hilbert_code_bitwise(cells, grid_n):
    """The Hilbert index assembled one bit at a time: for each bit plane from
    the top, the bits of the transposed axes 0, 1, 2 in that order."""
    bits = ser._bits_for(grid_n)
    tr = ser._hilbert_transpose(np.asarray(cells, dtype=np.int64), bits)
    code = np.zeros(len(tr), dtype=np.uint64)
    for b in range(bits - 1, -1, -1):
        for i in range(3):
            code = (code << np.uint64(1)) | ((tr[:, i] >> np.uint64(b)) & np.uint64(1))
    return code.astype(np.int64)


def test_hilbert_code_matches_bitwise_oracle_on_full_grids():
    for grid_n in range(2, 65):
        axis = np.arange(grid_n)
        cells = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        codes = ser.order_codes(cells, grid_n, "hilbert")
        assert (codes == _hilbert_code_bitwise(cells, grid_n)).all(), grid_n


@pytest.mark.parametrize("grid_n", [1 << 10, 1 << 21])
def test_hilbert_code_matches_bitwise_oracle_on_large_grids(grid_n):
    cells = np.random.Generator(np.random.PCG64(grid_n)).integers(0, grid_n, size=(5000, 3))
    codes = ser.order_codes(cells, grid_n, "hilbert")
    assert (codes == _hilbert_code_bitwise(cells, grid_n)).all()


def test_hilbert_bijective_unit_steps_grid4():
    assert checks.orders_bijective("hilbert_bijective", ("hilbert",), 4).passed
    assert checks.orders_unit_steps("hilbert_unit_steps", ("hilbert",), 4).passed


def test_morton_bijective_grid8():
    assert checks.orders_bijective("morton_bijective", ("z",), 8).passed


def test_orders_unit_steps_measures_the_morton_jumps():
    # the z-order is bijective but jumps between octants
    res = checks.orders_unit_steps("z", ("z",), 4)
    assert res.name == "z_grid4"
    assert not res.passed and res.measured > 0


def test_orders_bijective_reports_shared_codes(monkeypatch):
    order_codes = ser.order_codes
    monkeypatch.setattr(ser, "order_codes", lambda *args: order_codes(*args) // 2)
    res = checks.orders_bijective("cts_bijective", ser.CTS_NAMES, 4)
    # 64 cells share 32 codes in pairs
    assert not res.passed and res.measured == 32


def test_grid_limits_enforced():
    # snake codes span grid_n**3 < 2**63; interleaving keeps 21 bits per axis
    for name in ser.ORDER_NAMES:
        limit = 1 << 20 if name in ser.CTS_NAMES else 1 << 21
        corner = np.array([[limit - 1] * 3])
        assert 0 <= int(ser.order_codes(corner, limit, name)[0]) < limit**3, name
        with pytest.raises(ValueError, match="grid_n must be <="):
            ser.order_codes(corner, limit + 1, name)


@pytest.mark.parametrize("mode", ["bogus", "paper"])
@pytest.mark.parametrize("name", ser.ORDER_NAMES)
def test_unknown_mode_rejected_for_every_order(name, mode):
    # "paper" is the CLI spelling; the library mode is "paper_literal"
    with pytest.raises(ValueError, match="unknown mode"):
        ser.order_codes(np.array([[0, 0, 0]]), 4, name, mode)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([name for name in ser.ORDER_NAMES if name != "hilbert"]),
    st.one_of(st.integers(1, 40), st.sampled_from([64, 1000, 1 << 20])),
    st.data(),
)
def test_codes_match_the_benchmark_oracle(name, grid_n, data):
    axis = st.integers(0, grid_n - 1)
    cells = data.draw(st.lists(st.tuples(axis, axis, axis), min_size=1, max_size=40))
    codes = ser.order_codes(np.array(cells), grid_n, name)
    assert codes.tolist() == oracles.order_codes(cells, name, grid_n)


# ------------------------------------------------------------------ serialize


def test_serialize_singleton():
    perm = ser.serialize(norm_cloud([[0.3, 0.3, 0.3]]), "xyz", 4)
    np.testing.assert_array_equal(perm, [0])


def test_serialize_cell_centers_follow_snake():
    # oracle: enumerate the 8 cells, order them by direct code evaluation
    cells = full_grid(2)
    codes = ser.order_codes(cells, 2, "xyz")
    expected_cells = cells[np.argsort(codes)]
    centers = (cells + 0.5) / 2.0
    nc = norm_cloud(centers)
    perm = ser.serialize(nc, "xyz", 2)
    visited = ser.grid_quantize(nc, 2)[perm]
    np.testing.assert_array_equal(visited, expected_cells)


def test_serialize_pure_function_of_geometry():
    assert checks.serialize_pure_function(np.random.Generator(np.random.PCG64(5)), 128).passed


def test_serialize_tie_break_by_coords_then_index():
    # two points in one cell: lexicographically smaller coordinate first
    nc = norm_cloud([[0.2, 0.9, 0.9], [0.1, 0.9, 0.9], [0.1, 0.9, 0.9]])
    perm = ser.serialize(nc, "xyz", 1)
    np.testing.assert_array_equal(perm, [1, 2, 0])


def test_refinement_preserves_distinction():
    assert checks.refinement_preserves_distinction(np.random.Generator(np.random.PCG64(11))).passed


# ----------------------------------------------------------- locality metrics


def test_locality_collinear_exact():
    coords = np.zeros((10, 3))
    coords[:, 0] = np.arange(10) * 0.125
    cloud = PointCloud(coords)
    metrics = ser.locality_metrics(cloud, [np.arange(10)], window=2)[0]
    assert metrics["mean_gap"] == 0.125


def test_locality_full_grid_one_step():
    cells = full_grid(4)
    nc = norm_cloud((cells + 0.5) / 4.0)
    perm = ser.serialize(nc, "xyz", 4)
    metrics = ser.locality_metrics(nc.cloud, [perm], window=6)[0]
    # consecutive cells are L1-adjacent (checks.orders_unit_steps), so every gap is
    # one grid step
    assert metrics["mean_gap"] == pytest.approx(
        np.linalg.norm(np.diff(nc.cloud.coords[perm], axis=0), axis=1)[0]
    )


def test_locality_random_permutation_worse_than_cts():
    rng = np.random.Generator(np.random.PCG64(17))
    coords = rng.uniform(size=(512, 3))
    nc = norm_cloud(coords)
    cts_perm = ser.serialize(nc, "xyz", 8)
    random_perm = rng.permutation(512)
    cts, rnd = ser.locality_metrics(nc.cloud, [cts_perm, random_perm], 4)
    cts_gap, rnd_gap = cts["mean_gap"], rnd["mean_gap"]
    assert rnd_gap > cts_gap


def test_locality_needs_two_points():
    with pytest.raises(UndefinedMetricError):
        ser.locality_metrics(PointCloud(np.zeros((1, 3))), [np.array([0])], 2)


def test_collision_count_paper_mode():
    cells = full_grid(4)
    centers = (cells + 0.5) / 4.0
    nc = norm_cloud(centers)
    assert ser.count_code_collisions(nc, "xyz", 4, ser.MODE_PAPER) > 0
    assert ser.count_code_collisions(nc, "xyz", 4) == 0


def test_serialize_rejects_unknown_name():
    with pytest.raises(ValueError, match="'spiral'; valid names: xyz, xzy"):
        ser.serialize(norm_cloud([[0.3, 0.3, 0.3]]), "spiral", 4)
