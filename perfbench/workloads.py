"""The three workloads: their seeded inputs, one request each, and output checks.

Inputs are made here from the workload seed with numpy's PCG64, never with
the program's own shape generator, so a change to the program cannot change
what it is measured on. A round is a fixed list of requests; a run attempts
whole rounds only. Round r of seed s draws its clouds from the stream
(s, r, slot), so every request gets a distinct cloud.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import oracles

JITTER = 0.01
WARM_N = 256  # points in the untimed warm-up request, which touches every weight
SHAPES = ("sphere", "cube", "torus", "plane")


def shape_cloud(kind: str, n: int, rng: np.random.Generator, jitter: float) -> np.ndarray:
    """n points on the surface of a unit-scale shape, plus Gaussian jitter."""
    if kind == "sphere":
        v = rng.normal(size=(n, 3))
        pts = v / np.linalg.norm(v, axis=1, keepdims=True)
    elif kind == "cube":
        face = rng.integers(0, 6, size=n)
        pts = rng.uniform(-1.0, 1.0, size=(n, 3))
        pts[np.arange(n), face // 2] = np.where(face % 2 == 0, 1.0, -1.0)
    elif kind == "torus":
        theta = rng.uniform(0.0, 2 * np.pi, size=n)
        phi = rng.uniform(0.0, 2 * np.pi, size=n)
        ring = 1.0 + 0.4 * np.cos(theta)
        pts = np.stack([ring * np.cos(phi), ring * np.sin(phi), 0.4 * np.sin(theta)], axis=1)
    elif kind == "plane":
        pts = np.zeros((n, 3))
        pts[:, :2] = rng.uniform(-1.0, 1.0, size=(n, 2))
    else:
        raise ValueError(f"unknown shape {kind!r}")
    if jitter > 0:
        pts = pts + rng.normal(0.0, jitter, size=pts.shape)
    return pts


def lattice(nx: int, ny: int, nz: int) -> np.ndarray:
    """Integer lattice points, x slowest: every point has exact distance ties."""
    grid = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, 3).astype(np.float64)


def write_xyz(coords: np.ndarray, path: Path) -> None:
    """17 significant digits, so reading the file back gives the same floats."""
    np.savetxt(path, coords, fmt="%.17g")


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class Workload:
    name = ""
    preset = None  # (preset name, task, classes) for the forward workloads

    def make_round(self, seed: int, r: int, workdir: Path) -> list:
        """The requests of round r: one dict per request, with an "arg" to send."""
        raise NotImplementedError

    def request(self, pcm, model, item):
        """Send one request through the program's public API; return its output."""
        raise NotImplementedError

    def check_round(self, items: list, outputs: list) -> list:
        """Problems found in one round's outputs (empty when all is well)."""
        raise NotImplementedError

    def warm_item(self, workdir: Path) -> dict:
        """A small fixed request of the same kind, sent once before timing."""
        raise NotImplementedError

    def check_fixed(self, pcm, workdir: Path) -> list:
        """Checks on fixed inputs, run once per run outside the timed loop."""
        return []

    def same_output(self, a, b) -> bool:
        return bits_equal(a, b)


class ClsPcm1024(Workload):
    """pcm classification of 1024-point jittered shapes; each cloud is sent
    twice, the second time with its points shuffled."""

    name = "cls-pcm-1024"
    preset = ("pcm", "classification", 15)
    n = 1024

    def make_round(self, seed, r, workdir):
        items = []
        for slot, kind in enumerate(SHAPES):
            rng = np.random.default_rng([seed, r, slot])
            coords = shape_cloud(kind, self.n, rng, JITTER)
            perm = rng.permutation(self.n)
            items.append({"shape": kind, "arg": coords})
            items.append({"shape": kind, "arg": coords[perm], "perm": perm})
        return items

    def request(self, pcm, model, item):
        return pcm.model.forward_classification(model, pcm.pointset.PointCloud(item["arg"]))

    def warm_item(self, workdir):
        return {"arg": shape_cloud("sphere", WARM_N, np.random.default_rng(0), JITTER)}

    def check_round(self, items, outputs):
        problems = []
        for i in range(0, len(items), 2):
            shape = items[i]["shape"]
            a, b = outputs[i], outputs[i + 1]
            if a.shape != (self.preset[2],) or not np.isfinite(a).all():
                problems.append(f"{shape}: logits are not {self.preset[2]} finite values")
            elif not bits_equal(a, b):
                problems.append(f"{shape}: logits change when the points are shuffled")
        return problems


class SegTiny8192(Workload):
    """pcm-tiny segmentation of 8192-point clouds read from xyz files; each
    cloud is sent twice, the second time with its points shuffled."""

    name = "seg-tiny-8192"
    preset = ("pcm-tiny", "part_segmentation", 50)
    n = 8192
    kinds = ("torus", "cube", "plane", "lattice")

    def make_round(self, seed, r, workdir):
        items = []
        for slot, kind in enumerate(self.kinds):
            rng = np.random.default_rng([seed, r, slot])
            if kind == "lattice":
                coords = lattice(16, 16, 32)
            else:
                coords = shape_cloud(kind, self.n, rng, 0.0 if kind == "plane" else JITTER)
            perm = rng.permutation(self.n)
            for tag, pts in (("a", coords), ("b", coords[perm])):
                path = workdir / f"seg-{r}-{slot}{tag}.xyz"
                write_xyz(pts, path)
                items.append({"shape": kind, "arg": str(path)})
            items[-1]["perm"] = perm
        return items

    def request(self, pcm, model, item):
        cloud = pcm.io.read_xyz(item["arg"])
        return pcm.model.forward_segmentation(model, cloud)

    def warm_item(self, workdir):
        path = workdir / "seg-warm.xyz"
        write_xyz(shape_cloud("torus", WARM_N, np.random.default_rng(0), JITTER), path)
        return {"arg": str(path)}

    def check_round(self, items, outputs):
        problems = []
        for i in range(0, len(items), 2):
            shape, perm = items[i]["shape"], items[i + 1]["perm"]
            a, b = outputs[i], outputs[i + 1]
            if a.shape != (self.n, self.preset[2]) or not np.isfinite(a).all():
                problems.append(f"{shape}: labels are not {self.n} x {self.preset[2]} finite values")
            elif not bits_equal(a[perm], b):
                problems.append(f"{shape}: labels do not follow the points when shuffled")
        return problems


ORDER_NAMES = ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx", "z", "z-trans", "hilbert")
ORACLE_ORDERS = ORDER_NAMES[:8]  # every snake variant and both z-orders
WINDOW = 8  # the CLI's default --window


def run_cli(pcm, argv):
    """pcmamba.cli.main in-process; returns (exit code, report text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pcm.cli.main(argv)
    return code, out.getvalue()


def read_csv(path) -> list:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [dict(zip(lines[0].split(","), row.split(","))) for row in lines[1:]]


def close(a: float, b: float) -> bool:
    """The CSV holds 10 significant digits."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


class Locality2048(Workload):
    """`pcmamba serialize --compare-all --grid 64` on 2048-point jittered shapes."""

    name = "locality-2048"
    n = 2048
    grid = 64

    def make_round(self, seed, r, workdir):
        items = []
        for slot, kind in enumerate(SHAPES):
            rng = np.random.default_rng([seed, r, slot])
            coords = shape_cloud(kind, self.n, rng, JITTER)
            path = workdir / f"loc-{r}-{slot}.xyz"
            write_xyz(coords, path)
            out = workdir / f"loc-{r}-{slot}.csv"
            argv = ["serialize", "--input", str(path), "--compare-all", "--grid", str(self.grid)]
            items.append({"shape": kind, "coords": coords, "csv": out, "arg": argv + ["--out", str(out)]})
        return items

    def request(self, pcm, model, item):
        code, report = run_cli(pcm, item["arg"])
        if code != 0:
            raise RuntimeError(f"pcmamba serialize exited with {code}")
        return report + Path(item["csv"]).read_text(encoding="utf-8")

    def same_output(self, a, b):
        return a == b

    def warm_item(self, workdir):
        path, out = workdir / "loc-warm.xyz", workdir / "loc-warm.csv"
        write_xyz(shape_cloud("sphere", WARM_N, np.random.default_rng(0), JITTER), path)
        argv = ["serialize", "--input", str(path), "--compare-all", "--grid", str(self.grid)]
        return {"csv": out, "arg": argv + ["--out", str(out)]}

    def check_round(self, items, outputs):
        problems = []
        for item in items:
            problems += [f"{item['shape']}: {p}" for p in self._check(item["coords"], item["csv"], self.grid)]
        return problems

    @staticmethod
    def _check(coords, csv_path, grid) -> list:
        rows = read_csv(csv_path)
        if [row["order"] for row in rows] != list(ORDER_NAMES):
            return [f"orders are {[row['order'] for row in rows]}"]
        problems = [
            f"{row['order']}: collision_count={row['collision_count']}"
            for row in rows
            if row["collision_count"] != "0"
        ]
        unit = oracles.unit_cube(coords)
        cells = oracles.grid_cells(unit, grid)
        sets = oracles.self_neighbor_sets(unit, WINDOW)
        for row in rows:
            if row["order"] not in ORACLE_ORDERS:
                continue
            gap, rate = oracles.locality(unit, oracles.order_codes(cells, row["order"], grid), sets)
            if not (close(float(row["mean_gap"]), gap) and close(float(row["adjacency_rate"]), rate)):
                problems.append(
                    f"{row['order']}: mean_gap={row['mean_gap']} adjacency_rate="
                    f"{row['adjacency_rate']}, oracle {gap:.10g} {rate:.10g}"
                )
        return problems

    def check_fixed(self, pcm, workdir):
        """An 8x8x8 lattice at --grid 8: every snake and Hilbert step is one spacing."""
        coords = lattice(8, 8, 8)
        path, out = workdir / "lattice8.xyz", workdir / "lattice8.csv"
        write_xyz(coords, path)
        code, _ = run_cli(
            pcm, ["serialize", "--input", str(path), "--compare-all", "--grid", "8", "--out", str(out)]
        )
        if code != 0:
            return [f"lattice 8x8x8: pcmamba serialize exited with {code}"]
        spacing = 1.0 / 7.0  # unit-cube spacing of 8 points per axis
        problems = []
        for row in read_csv(out):
            if row["order"] in oracles.SNAKE_AXES or row["order"] == "hilbert":
                if not (float(row["adjacency_rate"]) == 1.0 and close(float(row["mean_gap"]), spacing)):
                    problems.append(
                        f"lattice 8x8x8 {row['order']}: mean_gap={row['mean_gap']} "
                        f"adjacency_rate={row['adjacency_rate']}"
                    )
        return problems + [f"lattice 8x8x8: {p}" for p in Locality2048._check(coords, out, 8)]


WORKLOADS = {w.name: w for w in (ClsPcm1024(), SegTiny8192(), Locality2048())}
