"""The invariants behind the paper's claims, each computed in exactly one place.

Each public function checks one invariant and returns a CheckResult with the
measured error and its tolerance; exact structural checks use a tolerance of
0 and report a violation count. What differs between callers is an argument:
random streams (one Generator per trial, so a caller may draw all trials from
one stream or seed each trial itself), shapes, data, orders and models.

``pcmamba verify`` runs the four suites at the end of the module. The
acceptance criteria and the unit tests call the same functions with their own
seeds and shapes instead of computing an invariant again. A check that only
its suite computes (discretization stability, scan linearity and causality,
block determinism, stage token counts, finite activations) is written inline
in that suite.

    criterion 1   orders_bijective, orders_unit_steps, paper_literal_collides (grids 2-16)
    criterion 2   axis_variant_identity
    criterion 3   scan_equals_conv (one generator per seed 0-99)
    criterion 4   zoh_exact_values (b = 3), zoh_series_matches_closed
    criterion 5   adjoint_matches_finite_differences (seeds 300-319)
    criterion 6   gam_sigma_matches_oracle, gam_unit_rms
    criterion 7   permutation_commutes (full pcm-tiny, both tasks)
    criterion 8   parameter_budget
    criterion 11  probe_gradient_matches_finite_differences
    criterion 12  seeded_build_deterministic

Criteria 9 and 10 measure timings and calibrated locality ratios, not
invariants, and stay in the test module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import serialize as ser
from . import ssm
from .local import GAMParams, gam_normalize, gam_sigma
from .model import (
    PUBLISHED_SIZES,
    TASK_CLASSIFICATION,
    TASK_SEGMENTATION,
    ModelConfig,
    StageConfig,
    _unfilled_model,
    build_model,
    count_parameters,
    encode,
    forward_classification,
    forward_segmentation,
    preset_config,
    softmax_xent_grad,
)
from .pointset import PointCloud, normalize_unit_cube
from .sample import NeighborhoodIndex


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float


def _check(name, measured, tolerance):
    return CheckResult(name, bool(measured <= tolerance), float(measured), float(tolerance))


def _differing(name, a, b):
    """Exact equality of two arrays; measures the number of differing entries."""
    return _check(name, int((np.asarray(a) != np.asarray(b)).sum()), 0)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# serialization


def _full_grid(grid_n):
    r = range(grid_n)
    return np.array(list(itertools.product(r, r, r)), dtype=np.int64)


def _duplicates(codes):
    return len(codes) - len(np.unique(codes))


def orders_bijective(label, names, grid_n):
    """No two cells of the full grid share a code, in any of the named orders."""
    cells = _full_grid(grid_n)
    worst = max(_duplicates(ser.order_codes(cells, grid_n, name)) for name in names)
    return _check(f"{label}_grid{grid_n}", worst, 0)


def orders_unit_steps(label, names, grid_n):
    """Each of the named orders walks the full grid in unit L1 steps; measures
    the largest deviation from a step of one along any of the walks."""
    cells = _full_grid(grid_n)
    worst = 0
    for name in names:
        steps = np.abs(np.diff(cells[np.argsort(ser.order_codes(cells, grid_n, name))], axis=0))
        worst = max(worst, int(np.abs(steps.sum(axis=1) - 1).max()))
    return _check(f"{label}_grid{grid_n}", worst, 0)


def paper_literal_collides(grid_n):
    """Passes when the paper's literal pairing code gives two cells one code."""
    collisions = _duplicates(ser.order_codes(_full_grid(grid_n), grid_n, "xyz", ser.MODE_PAPER))
    return CheckResult(f"paper_literal_collides_grid{grid_n}", collisions > 0, collisions, 1.0)


def axis_variant_identity():
    """yxz(a, b, c) == xyz(b, a, c) on every cell of the 8^3 grid."""
    cells = _full_grid(8)
    yxz, swapped = ser.order_codes(cells, 8, "yxz"), ser.order_codes(cells[:, (1, 0, 2)], 8, "xyz")
    return _differing("axis_variant_identity_grid8", yxz, swapped)


def serialize_pure_function(rng, n):
    """Every order visits the same coordinates for an n-point cloud and a
    shuffled copy, at grid 32."""
    coords = rng.uniform(0, 1, size=(n, 3))
    nc = normalize_unit_cube(PointCloud(coords))
    ns = normalize_unit_cube(PointCloud(coords[rng.permutation(n)]))
    mismatch = 0
    for name in ser.ORDER_NAMES:
        a = nc.cloud.coords[ser.serialize(nc, name, 32)]
        b = ns.cloud.coords[ser.serialize(ns, name, 32)]
        mismatch += int(not np.array_equal(a, b))
    return _check("serialize_pure_function_of_geometry", mismatch, 0)


def refinement_preserves_distinction(rng):
    """Points sharing a grid-4 cell share their grid-2 cell."""
    nc = normalize_unit_cube(PointCloud(rng.uniform(0, 1, size=(200, 3))))
    coarse = ser.order_codes(ser.grid_quantize(nc, 2), 2, "xyz")
    fine = ser.order_codes(ser.grid_quantize(nc, 4), 4, "xyz")
    merged = sum(int(np.any((fine == f) & (coarse != c))) for f, c in zip(fine, coarse))
    return _check("refinement_preserves_distinction", merged, 0)


# ---------------------------------------------------------------------------
# ssm


def scan_equals_conv(trials):
    """Recurrence vs global convolution, one random time-invariant system per
    generator, discretized once and passed as the same arrays to both."""
    worst = 0.0
    for rng in trials:
        s = int(rng.integers(1, 17))
        m = int(rng.integers(1, 257))
        a = rng.uniform(-2.0, -0.05, size=s)
        b = rng.normal(size=s)
        c = rng.normal(size=s)
        dt = float(rng.uniform(0.1, 1.0))
        x = rng.normal(size=m)
        a_bar, b_bar = ssm.discretize(dt, a, b)
        diff = np.abs(ssm.scan(x, a_bar, b_bar, c) - ssm.conv_form(x, a_bar, b_bar, c))
        worst = max(worst, float(diff.max()))
    return _check("scan_equals_conv", worst, 1e-6)


def zoh_exact_values(b):
    """dt = ln 2 and a = -1 give a_bar = 1/2 and b_bar = b/2."""
    a_bar, b_bar = ssm.discretize(np.log(2.0), np.array([-1.0]), np.array([b]))
    return _check("zoh_exact_values", max(abs(a_bar[0] - 0.5), abs(b_bar[0] - 0.5 * b)), 1e-15)


def zoh_series_matches_closed():
    """The series branch at |dt*a| = 1e-7 agrees with expm1(z)/z."""
    _, series = ssm.discretize(1e-7, np.array([1.0]), np.array([1.0]))
    closed = np.expm1(1e-7)
    return _check("zoh_series_matches_closed", abs(series[0] - closed) / closed, 1e-12)


def adjoint_matches_finite_differences(trials):
    """scan_backward vs central finite differences of g . scan(x, a_bar, b_bar, c)
    in every coordinate, one random (M, S) = (32, 8) problem per generator.

    The 2 * (M + 3MS) perturbed problems of a trial and the unperturbed one
    run as one recurrence along the batch axis of ``ssm._recur``; the
    unperturbed column must reproduce ``ssm.scan`` to 1e-12, so the finite
    differences are taken of scan itself."""
    m, s, h = 32, 8, 1e-5
    worst = 0.0
    for rng in trials:
        x = rng.normal(size=m)
        a_bar = rng.uniform(0.2, 0.99, size=(m, s))
        b_bar = rng.normal(size=(m, s))
        c = rng.normal(size=(m, s))
        g = rng.normal(size=m)
        grads = ssm.scan_backward(x, a_bar, b_bar, c, g)
        # column i moves coordinate i of (x, a_bar, b_bar, c) by +h, column
        # n + i by -h, and the last column is unperturbed
        theta = np.concatenate([x, a_bar.ravel(), b_bar.ravel(), c.ravel()])
        n = theta.size
        batch = np.concatenate([theta + h * np.eye(n), theta - h * np.eye(n), [theta]]).T
        xs = batch[:m]  # (M, 2n + 1)
        a_bars, b_bars, cs = batch[m:].reshape(3, m, s, 2 * n + 1).transpose(0, 1, 3, 2)
        states = np.empty(a_bars.shape)  # (M, 2n + 1, S)
        ssm._recur(a_bars, b_bars * xs[:, :, None], np.zeros(a_bars.shape[1:]), states)
        loss = g @ np.einsum("tps,tps->tp", cs, states)
        base = float(g @ ssm.scan(x, a_bar, b_bar, c))
        if abs(loss[-1] - base) > 1e-12 * (1.0 + abs(base)):
            worst = np.inf
        fd = (loss[:n] - loss[n:-1]) / (2 * h)
        grad = np.concatenate([grads[k].ravel() for k in ("x", "a_bar", "b_bar", "c")])
        worst = max(worst, float((np.abs(grad - fd) / (1.0 + np.abs(fd))).max()))
    return _check("adjoint_matches_finite_differences", worst, 1e-4)


# ---------------------------------------------------------------------------
# gam


def _as_cloud(neigh, centers):
    """(M, K, D) neighbourhood and (M, D) centre features as one feature
    array and the NeighborhoodIndex into it that the model's GAM takes."""
    m, k, d = neigh.shape
    features = np.concatenate([np.reshape(neigh, (m * k, d)), centers])
    return features, NeighborhoodIndex(m * k + np.arange(m), np.arange(m * k).reshape(m, k))


def gam_sigma_matches_oracle(neigh, centers):
    """gam_sigma of (M, K, D) neighbourhoods equals a scalar triple loop."""
    acc = 0.0
    for i, j, q in np.ndindex(neigh.shape):
        acc += (neigh[i, j, q] - centers[i, q]) ** 2
    oracle = np.sqrt(acc / neigh.size)
    sigma = gam_sigma(*_as_cloud(neigh, centers))
    return _check("gam_sigma_matches_oracle", abs(sigma - oracle), 1e-7)


def _unit_gam(d, alpha=1.0):
    return GAMParams(alpha=np.full(d, alpha), beta=np.zeros(d), delta=1e-300)


def gam_unit_rms(neigh, centers):
    """With alpha = 1, beta = 0 and delta -> 0 the output has unit RMS."""
    out = gam_normalize(*_as_cloud(neigh, centers), _unit_gam(neigh.shape[2]))
    return _check("gam_unit_rms", abs(float(np.sqrt((out * out).mean())) - 1.0), 1e-6)


def gam_alpha_linearity(neigh, centers):
    cloud = _as_cloud(neigh, centers)
    one = gam_normalize(*cloud, _unit_gam(neigh.shape[2]))
    two = gam_normalize(*cloud, _unit_gam(neigh.shape[2], 2.0))
    return _check("gam_alpha_linearity", float(np.abs(two - 2 * one).max()), 0.0)


def gam_degenerate_gives_beta(centers, k, beta):
    """K neighbours equal to their centre normalize to exactly beta."""
    same = np.broadcast_to(centers[:, None, :], (len(centers), k, len(beta)))
    params = GAMParams(alpha=np.ones(len(beta)), beta=beta)
    out = gam_normalize(*_as_cloud(same, centers), params)
    return _check("gam_degenerate_gives_beta", float(np.abs(out - beta).max()), 0.0)


# ---------------------------------------------------------------------------
# model


def _small_config(task=TASK_CLASSIFICATION, seed=0):
    stages = tuple(
        StageConfig(channels=c, serializations=(name,), points=p, k_neighbors=k)
        for c, name, p, k in zip(
            (16, 16, 32, 32), ("xyz", "xzy", "z", "hilbert"), (64, 32, 16, 8), (8, 8, 8, 4)
        )
    )
    return ModelConfig(stages=stages, n_p=2, grid_n=16, task=task, num_classes=3, seed=seed)


def permutation_commutes(name, models, rows, perms):
    """Points given as coordinate then feature columns (``rows``, none for plain
    coordinates), which may share coordinates: under each permutation, the
    logits of a model with a classification ``head`` stay and those of a
    segmentation model follow their points, bit for bit."""
    differing = 0
    for model in models:
        invariant = model.head is not None
        forward = forward_classification if invariant else forward_segmentation
        out = forward(model, PointCloud(rows[:, :3], rows[:, 3:]))
        for perm in perms:
            shuffled = forward(model, PointCloud(rows[perm, :3], rows[perm, 3:]))
            differing += int((shuffled != (out if invariant else out[perm])).sum())
    return _check(name, differing, 0)


def seeded_build_deterministic(config, cloud):
    """Two builds of a classification config: same parameters, same logits."""
    m1, m2 = build_model(config), build_model(config)
    same = all(np.array_equal(a, b) for (_, a), (_, b) in zip(m1.named_params(), m2.named_params()))
    logits = forward_classification(m1, cloud), forward_classification(m2, cloud)
    return _check("seeded_build_deterministic", 0.0 if same and np.array_equal(*logits) else 1.0, 0)


def parameter_budget(preset):
    """The preset's parameter count is within 15% of the published size."""
    count = count_parameters(_unfilled_model(preset_config(preset)))
    deviation = abs(count / PUBLISHED_SIZES[preset][0] - 1.0)
    return _check(f"params_{preset.replace('-', '_')}_within_15pct", deviation, 0.15)


def probe_gradient_matches_finite_differences(rng):
    """softmax_xent_grad vs central finite differences in every weight and bias
    of a 3-class probe on 40 random 6-feature rows."""
    h = 1e-6
    x = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    w = rng.normal(size=(3, 6)) * 0.1
    b = rng.normal(size=3) * 0.1
    _, gw, gb = softmax_xent_grad(w, b, x, y)
    worst = 0.0
    for arr, grad in ((w, gw), (b, gb)):
        for i in np.ndindex(arr.shape):
            keep = arr[i]
            arr[i] = keep + h
            up = softmax_xent_grad(w, b, x, y)[0]
            arr[i] = keep - h
            down = softmax_xent_grad(w, b, x, y)[0]
            arr[i] = keep
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(grad[i] - fd) / (1.0 + abs(fd)))
    return _check("probe_gradient_matches_finite_differences", worst, 1e-5)


# ---------------------------------------------------------------------------
# suites


def serialization_checks(seed: int = 0):
    rng = _rng(seed)
    results = []
    for grid_n in (2, 4, 8, 16):
        results += [
            orders_bijective("cts_bijective", ser.CTS_NAMES, grid_n),
            orders_unit_steps("cts_snake", ser.CTS_NAMES, grid_n),
            paper_literal_collides(grid_n),
        ]
    return results + [
        axis_variant_identity(),
        orders_bijective("hilbert_bijective", ("hilbert",), 4),
        orders_unit_steps("hilbert_unit_steps", ("hilbert",), 4),
        orders_bijective("morton_bijective", ("z",), 4),
        serialize_pure_function(rng, 256),
        refinement_preserves_distinction(rng),
    ]


def ssm_checks(seed: int = 0):
    rng = _rng(seed)
    results = [
        scan_equals_conv(itertools.repeat(rng, 100)),
        zoh_exact_values(1.0),
        zoh_series_matches_closed(),
    ]
    # a < 0 implies |a_bar| < 1
    a, dt = rng.uniform(-50.0, -1e-6, size=1000), rng.uniform(1e-6, 10.0, size=1000)
    a_bar, _ = ssm.discretize(dt, a, np.ones(1000))
    results += [
        _check("discretization_stability", int((np.abs(a_bar) >= 1).sum()), 0),
        adjoint_matches_finite_differences(itertools.repeat(rng, 20)),
    ]
    # scan is exactly linear in x, and a change at the middle step never
    # reaches earlier outputs
    m, s = 64, 4
    x = rng.normal(size=m)
    params = rng.uniform(0.2, 0.95, size=(m, s)), rng.normal(size=(m, s)), rng.normal(size=(m, s))
    y = ssm.scan(x, *params)
    xp = x.copy()
    xp[m // 2] += 10.0
    layer = ssm.SelectiveSSMLayer.init(_rng(seed), 16)
    tokens = _rng(seed + 1).normal(size=(40, 16))
    first, second = ssm.mamba_block(tokens, layer), ssm.mamba_block(tokens, layer)
    return results + [
        _check("scan_linearity_exact", np.abs(ssm.scan(2.0 * x, *params) - 2.0 * y).max(), 0.0),
        _check("scan_causality", np.abs(ssm.scan(xp, *params)[: m // 2] - y[: m // 2]).max(), 0.0),
        _differing("mamba_block_deterministic", first, second),
    ]


def gam_checks(seed: int = 0):
    rng = _rng(seed)
    hood = rng.normal(size=(20, 8, 6)), rng.normal(size=(20, 6))
    return [
        gam_sigma_matches_oracle(*hood),
        gam_unit_rms(*hood),
        gam_alpha_linearity(*hood),
        gam_degenerate_gives_beta(hood[1], 8, rng.normal(size=6)),
    ]


def model_checks(seed: int = 0):
    rng = _rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(1024, 3))
    model = build_model(preset_config("pcm-tiny", num_classes=5, seed=seed))
    cls_perm = [rng.permutation(1024)]
    # segmentation equivariance on a smaller config for speed
    seg_model = build_model(_small_config(task=TASK_SEGMENTATION, seed=seed))
    small, seg_perm = rng.uniform(0.0, 1.0, size=(128, 3)), [rng.permutation(128)]
    results = [
        permutation_commutes("classification_permutation_invariant", [model], coords, cls_perm),
        permutation_commutes("segmentation_permutation_equivariant", [seg_model], small, seg_perm),
    ]
    cloud = PointCloud(coords)
    counts = [len(f) for f in encode(model, cloud).stage_feats]
    # logits are finite on 100 uniform 64-point clouds
    small_cls = build_model(_small_config(seed=seed))
    clouds = (PointCloud(_rng(s).uniform(0.0, 1.0, size=(64, 3))) for s in range(1000, 1100))
    bad = sum(not np.isfinite(forward_classification(small_cls, c)).all() for c in clouds)
    # 64 points with two feature columns, the last 32 at the coordinates of the first 32
    feat_rng = _rng(seed + 2)
    rows = feat_rng.uniform(0.0, 1.0, size=(64, 5))
    rows[32:, :3] = rows[:32, :3]
    tasks = (TASK_CLASSIFICATION, TASK_SEGMENTATION)
    feat_models = [build_model(replace(_small_config(t, seed), in_features=2)) for t in tasks]
    perms = [feat_rng.permutation(64) for _ in range(5)]
    return results + [
        _check("stage_token_counts", int(counts != [1024, 512, 256, 128]), 0),
        _check("activations_finite_100_clouds", int(bad), 0),
        seeded_build_deterministic(_small_config(seed=seed), PointCloud(coords[:200])),
        parameter_budget("pcm-tiny"),
        parameter_budget("pcm"),
        permutation_commutes("coincident_points_permutation_invariant", feat_models, rows, perms),
    ]


SUITES = {
    "serialization": serialization_checks,
    "ssm": ssm_checks,
    "gam": gam_checks,
    "model": model_checks,
}


def run_suite(name: str, seed: int = 0):
    if name == "all":
        return [res for suite in SUITES.values() for res in suite(seed)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(SUITES)} or all")
    return SUITES[name](seed)
