import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcmamba.local
import pcmamba.model
import pcmamba.ssm
from conftest import random_cloud, small_config
from pcmamba.errors import DegenerateLabelsError, InvalidInputError
from pcmamba.model import (
    TASK_CLASSIFICATION,
    TASK_SEGMENTATION,
    build_model,
    count_parameters,
    encode,
    estimate_flops,
    forward_classification,
    forward_segmentation,
    preset_config,
    train_linear_probe,
)
from pcmamba.nn import AffineMap, silu
from pcmamba.pointset import PointCloud
from pcmamba.sample import INTERP_K, interpolate_features
from pcmamba.ssm import SelectiveSSMLayer


# ---------------------------------------------------------------------- build


def test_build_deterministic():
    m1 = build_model(small_config())
    m2 = build_model(small_config())
    for (n1, a1), (n2, a2) in zip(m1.named_params(), m2.named_params()):
        assert n1 == n2
        np.testing.assert_array_equal(a1, a2)


def test_distinct_seeds_distinct_parameters_and_logits():
    cloud = random_cloud()
    l0 = forward_classification(build_model(small_config(seed=0)), cloud)
    l1 = forward_classification(build_model(small_config(seed=1)), cloud)
    assert not np.array_equal(l0, l1)


def test_affine_parameter_count():
    affine = AffineMap.init(np.random.Generator(np.random.PCG64(0)), 7, 5)
    assert affine.w.size + affine.b.size == 7 * 5 + 5


def test_extra_layer_adds_exactly_one_layer_of_parameters():
    base = count_parameters(build_model(small_config(stage3_layers=1)))
    bigger = count_parameters(build_model(small_config(stage3_layers=2)))
    layer = SelectiveSSMLayer.init(np.random.Generator(np.random.PCG64(0)), 24)
    per_direction = sum(arr.size for _, arr in layer.named_params("x"))
    assert bigger - base == 2 * per_direction


# -------------------------------------------------------------------- forward


def test_classification_permutation_invariance_bit_exact():
    cloud = random_cloud(n=96, seed=3)
    model = build_model(small_config())
    logits = forward_classification(model, cloud)
    rng = np.random.Generator(np.random.PCG64(4))
    shuffled = PointCloud(cloud.coords[rng.permutation(96)])
    np.testing.assert_array_equal(logits, forward_classification(model, shuffled))


def test_constant_feature_cloud_finite():
    cloud = random_cloud(n=64, seed=5, features=np.ones((64, 2)))
    model = build_model(small_config(in_features=2))
    logits = forward_classification(model, cloud)
    assert np.isfinite(logits).all()


def test_too_few_points_rejected():
    model = build_model(small_config())
    with pytest.raises(InvalidInputError):
        forward_classification(model, random_cloud(n=4))


def test_feature_channel_mismatch_rejected():
    model = build_model(small_config())
    with pytest.raises(InvalidInputError):
        forward_classification(model, random_cloud(n=64, features=np.ones((64, 2))))


def test_resampling_larger_clouds():
    model = build_model(small_config())
    logits = forward_classification(model, random_cloud(n=200, seed=6))
    assert logits.shape == (3,) and np.isfinite(logits).all()


def test_token_counts_follow_schedule():
    model = build_model(small_config())
    enc = encode(model, random_cloud(n=64, seed=7))
    assert [len(f) for f in enc.stage_feats] == [48, 24, 12, 6]
    assert [len(c) for c in enc.stage_coords] == [48, 24, 12, 6]


def test_segmentation_shape_and_equivariance():
    model = build_model(small_config(task=TASK_SEGMENTATION, num_classes=5))
    cloud = random_cloud(n=80, seed=8)
    out = forward_segmentation(model, cloud)
    assert out.shape == (80, 5)
    perm = np.random.Generator(np.random.PCG64(9)).permutation(80)
    out_perm = forward_segmentation(model, PointCloud(cloud.coords[perm]))
    np.testing.assert_array_equal(out_perm, out[perm])


_CLS_MODEL = build_model(small_config())
_SEG_MODEL = build_model(small_config(task=TASK_SEGMENTATION, num_classes=5))
_BUDGET = small_config().stages[-1].points


def degenerate_coords(kind, n, rng):
    """Coincident, collinear, planar, stage-4-budget-sized or far-offset clouds."""
    if kind == "coincident":
        return np.tile(rng.normal(size=3), (n, 1))
    if kind == "collinear":
        return rng.normal(size=3) + rng.uniform(-1, 1, size=(n, 1)) * rng.normal(size=3)
    if kind == "axis-line":
        return np.column_stack([rng.uniform(size=n), np.zeros(n), np.zeros(n)])
    if kind == "planar":
        return rng.uniform(-1, 1, size=(n, 2)) @ rng.normal(size=(2, 3))
    if kind == "axis-plane":
        return np.column_stack([rng.uniform(size=(n, 2)), np.full(n, 0.25)])
    if kind == "budget":
        return rng.uniform(size=(_BUDGET, 3))
    return rng.uniform(-1e3, 1e3, size=(n, 3)) + rng.choice([-1e15, 1e15], size=3)


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(
        ["coincident", "collinear", "axis-line", "planar", "axis-plane", "budget", "offset"]
    ),
    st.integers(_BUDGET, 80),
    st.integers(0, 2**32 - 1),
)
def test_degenerate_clouds_finite_and_shuffle_invariant(kind, n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    cloud = PointCloud(degenerate_coords(kind, n, rng))
    logits = forward_classification(_CLS_MODEL, cloud)
    assert np.isfinite(logits).all()
    assert np.isfinite(forward_segmentation(_SEG_MODEL, cloud)).all()
    shuffled = PointCloud(cloud.coords[rng.permutation(cloud.n_points)])
    np.testing.assert_array_equal(forward_classification(_CLS_MODEL, shuffled), logits)


_FEATURE_MODELS = {
    task: build_model(small_config(task=task, in_features=2))
    for task in (TASK_CLASSIFICATION, TASK_SEGMENTATION)
}


def _forward(task, rows):
    forward = forward_classification if task == TASK_CLASSIFICATION else forward_segmentation
    return forward(_FEATURE_MODELS[task], PointCloud(rows[:, :3], rows[:, 3:]))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([TASK_CLASSIFICATION, TASK_SEGMENTATION]),
    st.integers(_BUDGET, 64),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
)
def test_coincident_points_with_features_permutation_invariant(task, n, distinct, seed):
    # n points on at most `distinct` coordinates, each with its own feature
    # columns, and some entries set to 0.0 or -0.0
    rng = np.random.Generator(np.random.PCG64(seed))
    coords = rng.uniform(-1, 1, size=(distinct, 3))[rng.integers(0, distinct, size=n)]
    rows = np.hstack([coords, rng.normal(size=(n, 2))])
    zeros = rng.uniform(size=rows.shape) < 0.1
    rows[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    perm = rng.permutation(n)
    out, shuffled = _forward(task, rows), _forward(task, rows[perm])
    np.testing.assert_array_equal(shuffled, out if task == TASK_CLASSIFICATION else out[perm])
    # the sign of a zero changes no output bit
    rows[zeros] = -rows[zeros]
    np.testing.assert_array_equal(_forward(task, rows), out)


def test_segmentation_zero_head_uniform():
    model = build_model(small_config(task=TASK_SEGMENTATION, num_classes=4))
    model.decoder.classifier.w[:] = 0.0
    model.decoder.classifier.b[:] = 0.0
    out = forward_segmentation(model, random_cloud(n=48, seed=10))
    np.testing.assert_array_equal(out, np.zeros((48, 4)))


def _interpolate_then_classify(model, cloud):
    """The decoder with the last interpolation first: interpolate the
    stage-0 features to every input point, then classify the (N, C0) rows."""
    enc = encode(model, cloud)
    f = enc.stage_feats[3]
    for (t1, t2), lvl in zip(model.decoder.transforms, (2, 1, 0)):
        up = interpolate_features(enc.stage_coords[lvl], enc.stage_coords[lvl + 1], f)
        f = t2(silu(t1(np.hstack([up, enc.stage_feats[lvl]]))))
    full = interpolate_features(enc.full_coords, enc.stage_coords[0], f)
    logits = model.decoder.classifier(full)
    out = np.empty_like(logits)
    out[enc.canonical_perm] = logits
    return out


@pytest.mark.parametrize("kind", ["jittered", "lattice"])
def test_segmentation_classify_then_interpolate_matches_old_order(kind):
    # clouds larger than the stage-0 budget of 48, so most points are
    # interpolated; the lattice also has points that copy a source exactly
    rng = np.random.Generator(np.random.PCG64(15))
    if kind == "lattice":
        grid = np.meshgrid(np.arange(6), np.arange(6), np.arange(5), indexing="ij")
        coords = np.stack(grid, axis=-1).reshape(-1, 3).astype(np.float64)
    else:
        coords = rng.normal(size=(300, 3))
    model = build_model(small_config(task=TASK_SEGMENTATION, num_classes=5))
    model.decoder.classifier.b[:] = rng.normal(size=5)
    cloud = PointCloud(coords)
    expected = _interpolate_then_classify(model, cloud)
    np.testing.assert_allclose(forward_segmentation(model, cloud), expected, rtol=0, atol=1e-12)


def test_wrong_task_rejected():
    model = build_model(small_config())
    with pytest.raises(Exception):
        forward_segmentation(model, random_cloud())


def test_pcm_preset_forward_smoke():
    # the full preset is the only config routing z-trans through the pipeline
    cloud = random_cloud(n=256, seed=14)
    logits = forward_classification(build_model(preset_config("pcm", num_classes=7)), cloud)
    assert logits.shape == (7,) and np.isfinite(logits).all()


# ---------------------------------------------------------------------- flops


def test_flops_positive_and_monotone_in_layers():
    base = estimate_flops(build_model(small_config(stage3_layers=1)), 64)
    more = estimate_flops(build_model(small_config(stage3_layers=2)), 64)
    assert 0 < base < more


def _count_executed_macs(monkeypatch):
    """Wrap the program's dense steps so each adds its multiply-accumulates
    to the returned counter: rows x weight size for every ``AffineMap`` call
    and every ``local._fold`` product (its points and the constant row),
    tokens x the per-token terms of each Mamba direction, read from that
    layer's arrays, and ``INTERP_K`` weights per interpolated row and
    channel."""
    counted = [0]

    def wrap(owner, name, macs):
        inner = getattr(owner, name)

        def counting(*args, **kwargs):
            counted[0] += int(macs(*args))
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    def mamba(x, layer, *_):
        weights = (
            layer.in_proj_w, layer.conv_w, layer.dt_down_w, layer.dt_up_w,
            layer.b_proj_w, layer.c_proj_w, layer.out_proj_w,
        )
        recurrence = 4 * layer.d_inner * layer.state_size  # dt*A, dt*u*B, update, readout
        return len(x) * (sum(w.size for w in weights) + recurrence + layer.d_inner)

    wrap(AffineMap, "__call__", lambda self, x: x.size // x.shape[-1] * self.w.size)
    wrap(pcmamba.local, "_fold", lambda lin, const, affine: (len(lin) + 1) * affine.w.size)
    wrap(pcmamba.ssm, "mamba_block", mamba)
    wrap(pcmamba.model, "interpolate_features", lambda t, s, f: len(t) * INTERP_K * f.shape[1])
    return counted


@pytest.mark.parametrize("preset", ["pcm-tiny", "pcm"])
@pytest.mark.parametrize("task", ["classification", TASK_SEGMENTATION])
def test_estimate_flops_equals_executed_macs(monkeypatch, preset, task):
    model = build_model(preset_config(preset, task=task, num_classes=15))
    forward = forward_classification if model.head is not None else forward_segmentation
    counted = _count_executed_macs(monkeypatch)
    forward(model, random_cloud(n=1024, seed=21))
    assert counted[0] == estimate_flops(model, 1024)


def test_segmentation_flops_grow_with_points_by_the_last_interpolation_only():
    # above the stage-0 budget only the interpolation of the logits to every
    # input point grows: 3 weights per point and class
    model = build_model(small_config(task=TASK_SEGMENTATION, num_classes=5))
    assert estimate_flops(model, 1000) - estimate_flops(model, 100) == 900 * 3 * 5


# ---------------------------------------------------------------------- probe


def test_probe_separable_blobs():
    rng = np.random.Generator(np.random.PCG64(11))
    x = np.vstack([rng.normal(0.0, 0.3, size=(50, 2)), rng.normal(4.0, 0.3, size=(50, 2))])
    y = np.repeat([0, 1], 50)
    probe = train_linear_probe(x, y, epochs=400, lr=0.5, seed=0)
    assert probe.train_accuracy == 1.0


def test_probe_shuffled_labels_near_chance():
    rng = np.random.Generator(np.random.PCG64(12))
    x = rng.normal(size=(600, 4))
    y = rng.integers(0, 3, size=600)
    probe = train_linear_probe(x, y, epochs=200, lr=0.5, seed=0)
    p = 1.0 / 3.0
    sigma = np.sqrt(p * (1 - p) / 600)
    assert abs(probe.train_accuracy - p) <= 3 * sigma


def test_probe_rejects_single_class():
    with pytest.raises(DegenerateLabelsError):
        train_linear_probe(np.zeros((10, 2)), np.zeros(10, dtype=int))
