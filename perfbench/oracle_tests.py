"""Hand-worked cases for the benchmark's oracles.

Run with ``python3 perfbench/oracle_tests.py`` (or name the file to pytest).
The traced benchmark run also runs them before it trusts the oracles.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402


def line(*xs):
    return np.array([[x, 0.0, 0.0] for x in xs])


def test_knn_row_breaks_ties_by_coordinates_then_index():
    # distances to 0.5: 0.25 for x=0 and both x=1, 2.25 for x=2 and x=-1
    base = line(0.0, 2.0, -1.0, 1.0, 1.0)
    assert oracles.knn_row(base, np.array([0.5, 0.0, 0.0]), 5) == [0, 3, 4, 2, 1]
    assert oracles.knn_row(base, np.array([0.5, 0.0, 0.0]), 2) == [0, 3]


def test_knn_rows_flags_a_wrong_row():
    base = line(0.0, 1.0, 3.0)
    good = np.array([[0, 1], [2, 1]])
    assert oracles.check_knn_rows(line(0.0, 3.0), base, 2, good, [0, 1]) is None
    bad = np.array([[1, 0], [2, 1]])
    assert oracles.check_knn_rows(line(0.0, 3.0), base, 2, bad, [0]) is not None


def test_fps_check_accepts_the_greedy_walk():
    # start at x=0; 10 is farthest; then 3 (gap 3) beats 1 (gap 1)
    coords = line(0.0, 1.0, 3.0, 10.0)
    assert oracles.check_fps_steps(coords, np.array([0, 3, 2, 1]), [1, 2, 3]) is None
    assert oracles.check_fps_steps(coords, np.array([0, 2, 3, 1]), [1]) is not None
    assert oracles.check_fps_steps(coords, np.array([3, 0, 2, 1]), []) is not None


def test_fps_check_wants_the_earliest_index_on_a_tie():
    # after 0 and 4 are taken, 2 is 2 away; then 1 and 3 tie at 1, index 3 wins
    coords = line(0.0, 2.0, 4.0, 1.0, 3.0)
    assert oracles.check_fps_steps(coords, np.array([0, 2, 1, 3, 4]), [1, 2, 3, 4]) is None
    assert oracles.check_fps_steps(coords, np.array([0, 2, 1, 4, 3]), [3]) is not None


def test_snake_walk_of_a_2x2x2_grid():
    cells = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 0, 1), (0, 0, 1)]
    assert oracles.order_codes(cells, "xyz", 2) == list(range(8))
    # zyx: z runs along rows, y across rows, x across layers
    assert oracles.order_codes([(0, 0, 1), (1, 0, 0)], "zyx", 2) == [1, 7]


def test_snake_walk_takes_unit_steps_on_a_4x4x4_grid():
    cells = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
    for name in oracles.SNAKE_AXES:
        walk = [c for _, c in sorted(zip(oracles.order_codes(cells, name, 4), cells))]
        assert sorted(oracles.order_codes(cells, name, 4)) == list(range(64))
        assert all(sum(abs(a - b) for a, b in zip(p, q)) == 1 for p, q in zip(walk, walk[1:]))


def test_morton_codes():
    cells = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 0, 0), (3, 3, 3)]
    assert oracles.order_codes(cells, "z", 4) == [1, 2, 4, 7, 8, 63]
    assert oracles.order_codes([(1, 0, 0), (0, 1, 0)], "z-trans", 4) == [4, 1]


def test_locality_of_a_line():
    # walk 0,1,2,3; with window 1 point 1's neighbor is 0 (tie with 2 goes to
    # the smaller x) and point 2's is 1, so only the first pair is mutual
    unit = line(0.0, 1.0, 2.0, 3.0)
    sets = oracles.self_neighbor_sets(unit, 1)
    assert sets == [{1}, {0}, {1}, {2}]
    mean_gap, rate = oracles.locality(unit, [0, 1, 2, 3], sets)
    assert mean_gap == 1.0
    assert rate == 1 / 3


def test_unit_cube_and_grid_cells():
    unit = oracles.unit_cube(np.array([[0.0, 0.0, 5.0], [2.0, 1.0, 5.0]]))
    assert unit.tolist() == [[0.0, 0.0, 0.5], [1.0, 0.5, 0.5]]
    assert oracles.grid_cells(unit, 4) == [(0, 0, 2), (3, 2, 2)]


def run_all() -> list:
    """Run every test in this file; return the names of those that failed."""
    failed = []
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError:
                failed.append(name)
    return failed


if __name__ == "__main__":
    bad = run_all()
    for name in bad:
        print(f"FAIL {name}")
    print(f"oracle tests: {'FAIL' if bad else 'ok'}")
    sys.exit(1 if bad else 0)
