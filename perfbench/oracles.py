"""Independent reference computations the benchmark checks the program against.

Each oracle is written from the documented rule, not from the program's
code path: the kNN oracle ranks candidates with a plain Python sort on
(distance, x, y, z, index); the farthest-point check recomputes max-min
distances from scratch at sampled steps; the snake and Morton codes are
built from their textbook definitions. Squared distances use the same
per-axis differences as the program, so exact ties stay exact ties.
"""

from __future__ import annotations

import math

import numpy as np


def sq_dists(base: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from one point q to every row of base, per-axis."""
    d = base - q
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


def knn_row(base: np.ndarray, q: np.ndarray, k: int) -> list:
    """The k nearest base indices to q by (distance, x, y, z, index)."""
    d2 = sq_dists(base, q)
    kth = np.partition(d2, k - 1)[k - 1]
    cand = np.flatnonzero(d2 <= kth).tolist()
    cand.sort(key=lambda j: (d2[j], base[j, 0], base[j, 1], base[j, 2], j))
    return cand[:k]


def check_knn_rows(query, base, k, neighbors, rows) -> str | None:
    """None if the given rows of a kNN result follow the tie rule, else why not."""
    for r in rows:
        want = knn_row(base, query[r], k)
        got = neighbors[r].tolist()
        if got != want:
            return f"knn row {r} (k={k}, base {len(base)}): got {got[:6]}..., want {want[:6]}..."
    return None


def lexicographic_first(coords: np.ndarray) -> int:
    """Index of the smallest point by (x, y, z), the smallest index among equals."""
    return min(range(len(coords)), key=lambda i: (coords[i, 0], coords[i, 1], coords[i, 2], i))


def check_fps_steps(coords: np.ndarray, selected: np.ndarray, steps) -> str | None:
    """Max-min check of a farthest-point selection started at the lexicographic minimum.

    Step i must pick the earliest index among the points farthest from
    ``selected[:i]``; each checked step recomputes those distances from
    scratch.
    """
    selected = np.asarray(selected)
    if len(set(selected.tolist())) != len(selected):
        return "farthest_point_sample returned a repeated index"
    first = lexicographic_first(coords)
    if int(selected[0]) != first:
        return f"farthest_point_sample starts at {int(selected[0])}, want {first}"
    for i in steps:
        nearest = np.full(len(coords), np.inf)
        for s in range(0, i, 64):
            block = coords[selected[s : min(i, s + 64)]]
            d = coords[None, :, :] - block[:, None, :]
            d2 = d[:, :, 0] * d[:, :, 0] + d[:, :, 1] * d[:, :, 1] + d[:, :, 2] * d[:, :, 2]
            np.minimum(nearest, d2.min(axis=0), out=nearest)
        far = nearest.max()
        want = int(np.flatnonzero(nearest == far)[0])
        if int(selected[i]) != want:
            return f"farthest_point_sample step {i} picked {int(selected[i])}, want {want}"
    return None


def snake_rank(c1: int, c2: int, c3: int, g: int) -> int:
    """Position of a cell on the boustrophedon walk of a g x g x g grid.

    The walk sweeps c1 along rows, rows along c2 to fill a layer, and layers
    along c3; every other row and every other layer is walked backwards.
    """
    row = c1 if c2 % 2 == 0 else g - 1 - c1
    layer = c2 * g + row
    if c3 % 2 == 1:
        layer = g * g - 1 - layer
    return c3 * g * g + layer


def morton_rank(x: int, y: int, z: int, bits: int) -> int:
    """Bit interleave with x in the lowest bit of each triple."""
    code = 0
    for b in range(bits):
        code |= ((x >> b) & 1) << (3 * b)
        code |= ((y >> b) & 1) << (3 * b + 1)
        code |= ((z >> b) & 1) << (3 * b + 2)
    return code


SNAKE_AXES = {
    "xyz": (0, 1, 2),
    "xzy": (0, 2, 1),
    "yxz": (1, 0, 2),
    "yzx": (1, 2, 0),
    "zxy": (2, 0, 1),
    "zyx": (2, 1, 0),
}


def order_codes(cells: list, name: str, g: int) -> list:
    """Reference code of every cell for a snake variant, "z" or "z-trans"."""
    if name in SNAKE_AXES:
        a, b, c = SNAKE_AXES[name]
        return [snake_rank(cell[a], cell[b], cell[c], g) for cell in cells]
    bits = max(1, (g - 1).bit_length())
    if name == "z":
        return [morton_rank(x, y, z, bits) for x, y, z in cells]
    if name == "z-trans":
        return [morton_rank(y, z, x, bits) for x, y, z in cells]
    raise ValueError(f"no reference code for order {name!r}")


def unit_cube(coords: np.ndarray) -> np.ndarray:
    """Min-max scale by the largest extent; a flat axis sits at 0.5."""
    lo = coords.min(axis=0)
    extent = coords.max(axis=0) - lo
    scale = float(extent.max()) or 1.0
    out = (coords - lo) / scale
    out[:, extent <= 0.0] = 0.5
    return out


def grid_cells(unit: np.ndarray, g: int) -> list:
    return [
        tuple(min(g - 1, max(0, math.floor(v * g))) for v in row) for row in unit.tolist()
    ]


def self_neighbor_sets(unit: np.ndarray, window: int) -> list:
    """Each point's ``window`` nearest others (self removed from the k = window + 1 list)."""
    k = min(window + 1, len(unit))
    return [set(knn_row(unit, unit[i], k)) - {i} for i in range(len(unit))]


def locality(unit: np.ndarray, codes: list, neighbor_sets: list) -> tuple:
    """(mean_gap, adjacency_rate) of the walk that sorts points by (code, x, y, z, index)."""
    pts = unit.tolist()
    walk = sorted(range(len(pts)), key=lambda i: (codes[i], pts[i][0], pts[i][1], pts[i][2], i))
    gaps = [math.dist(pts[a], pts[b]) for a, b in zip(walk, walk[1:])]
    mutual = sum(
        1 for a, b in zip(walk, walk[1:]) if b in neighbor_sets[a] and a in neighbor_sets[b]
    )
    return math.fsum(gaps) / len(gaps), mutual / (len(pts) - 1)
