"""Four-stage encoder, classification head, and segmentation decoder.

Each stage downsamples with deterministic farthest-point sampling, gathers
k-nearest neighborhoods, aggregates them locally, and then runs its Mamba
layers, each over its own serialization of the current points. Sequences
are un-permuted back to a canonical spatial order after every layer so the
per-layer orders stay independent.

The whole forward pass is a pure function of the point geometry: inputs are
reordered canonically on entry (and segmentation outputs mapped back), so
permuting an input cloud cannot change a single bit of the output. One
seeded 64-bit PCG64 generator, consumed in a fixed build order, drives every
parameter initialization.

Each step (the stem, a stage's local aggregation, one Mamba layer, the
classification head, the segmentation decoder) runs under ``_numeric_step``:
a value that overflows or turns invalid raises a NumericRangeError naming
the step instead of running on into the output.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

import numpy as np

from .embed import OrderPromptBank, attach_prompts, positional_embed, strip_prompts
from .errors import ConfigurationError, DegenerateLabelsError, InvalidInputError, NumericRangeError
from .local import GAMParams, MLPStack, local_aggregate
from .nn import AffineMap, Params, param_slots, silu
from .pointset import NormalizedCloud, PointCloud, canonical_tiebreak_order, normalize_unit_cube
from .sample import INTERP_K, NeighborhoodIndex, farthest_point_sample, interpolate_features, knn
from .serialize import ORDER_NAMES, serialize
from .ssm import SelectiveSSMLayer, bidirectional_mamba

TASK_CLASSIFICATION = "classification"
TASK_SEGMENTATION = "part_segmentation"

# Width of the hidden layer of the classification head.
HEAD_HIDDEN = 256


def _require_count(config, minimums):
    """Raise ConfigurationError naming the first field that is not an integer
    at or above its minimum (bool is not an integer here)."""
    for name, minimum in minimums.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
            raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class StageConfig:
    """Width, per-layer serialization orders (one Mamba layer each), and sampling of a stage."""

    channels: int
    serializations: tuple
    points: int
    k_neighbors: int = 12

    def __post_init__(self):
        _require_count(self, {"channels": 1, "points": 1, "k_neighbors": 1})
        for name in self.serializations:
            if name not in ORDER_NAMES:
                raise ConfigurationError(
                    f"unknown serialization {name!r}; valid names: {', '.join(ORDER_NAMES)}"
                )


@dataclass(frozen=True)
class ModelConfig:
    """What varies between models; the Mamba layer's shape and the prompt
    width are ``ssm.STATE_SIZE``, ``ssm.CONV_WIDTH`` and ``embed.PROMPT_WIDTH``."""

    stages: tuple
    n_p: int = 6
    grid_n: int = 64
    task: str = TASK_CLASSIFICATION
    num_classes: int = 15
    seed: int = 0
    in_features: int = 0

    def __post_init__(self):
        if len(self.stages) != 4:
            raise ConfigurationError("the encoder has exactly four stages")
        if self.task not in (TASK_CLASSIFICATION, TASK_SEGMENTATION):
            raise ConfigurationError(f"unknown task {self.task!r}")
        _require_count(self, {"n_p": 0, "grid_n": 1, "num_classes": 2, "in_features": 0})
        # the decoder interpolates from INTERP_K points of every stage
        for l, stage in enumerate(self.stages):
            if self.task == TASK_SEGMENTATION and stage.points < INTERP_K:
                msg = f"stage {l} points must be >= {INTERP_K} for segmentation, got {stage.points}"
                raise ConfigurationError(msg)

    @property
    def order_names(self) -> tuple:
        seen = []
        for stage in self.stages:
            for name in stage.serializations:
                if name not in seen:
                    seen.append(name)
        return tuple(seen)


# Table-driven presets: channels {384,384,768,768} / {192,192,384,384},
# one Mamba layer per serialization ({1,2,2,4} / {1,1,2,2}), six order
# prompts, point schedule {1024,512,256,128}.
_PRESETS = {
    "pcm": dict(
        channels=(384, 384, 768, 768),
        serializations=(
            ("xyz",),
            ("xzy", "yxz"),
            ("yzx", "zxy"),
            ("zyx", "hilbert", "z", "z-trans"),
        ),
    ),
    "pcm-tiny": dict(
        channels=(192, 192, 384, 384),
        serializations=(("xyz",), ("xzy",), ("yxz", "yzx"), ("zxy", "zyx")),
    ),
}

POINT_SCHEDULE = (1024, 512, 256, 128)

# Sizes the paper reports for the presets: (parameters, multiply-accumulates
# for one 1024-point forward pass).
PUBLISHED_SIZES = {"pcm-tiny": (6.9e6, 11.0e9), "pcm": (34.2e6, 45.0e9)}


def preset_config(
    name: str,
    task: str = TASK_CLASSIFICATION,
    num_classes: int = 15,
    seed: int = 0,
    in_features: int = 0,
) -> ModelConfig:
    """Named architecture presets: "pcm" and "pcm-tiny"."""
    if name not in _PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}")
    preset = _PRESETS[name]
    stages = tuple(
        StageConfig(channels=c, serializations=s, points=p)
        for c, s, p in zip(preset["channels"], preset["serializations"], POINT_SCHEDULE)
    )
    return ModelConfig(
        stages=stages, task=task, num_classes=num_classes, seed=seed, in_features=in_features
    )


@dataclass
class StageModule(Params):
    gam: GAMParams
    phi1: MLPStack
    phi2: MLPStack
    layers: list  # [(fwd, bwd) SelectiveSSMLayer pairs], one per serialization


@dataclass
class SegDecoder(Params):
    transforms: list  # per level: (AffineMap concat->D, AffineMap D->D)
    classifier: AffineMap


@dataclass
class Model(Params):
    config: ModelConfig
    stem: MLPStack
    stages: list
    pos_maps: list  # per stage: AffineMap from 3-D coordinates to its width
    prompt_bank: OrderPromptBank
    head: list | None = None  # classification: [AffineMap, AffineMap]
    decoder: SegDecoder | None = None


def build_model(config: ModelConfig) -> Model:
    """Deterministically initialize all parameters from ``config.seed``."""
    return _assemble(config, np.random.Generator(np.random.PCG64(config.seed)))


class _NoDraw:
    """Generator stand-in whose draws are uninitialized arrays.

    For models whose every parameter is about to be overwritten (loading an
    archive): no random numbers are drawn and no weight page is touched.
    """

    def uniform(self, low, high, size):
        return np.empty(size)

    def normal(self, loc, scale, size):
        return np.empty(size)


def _unfilled_model(config: ModelConfig) -> Model:
    """A model of the right shapes whose random parameters hold garbage."""
    return _assemble(config, _NoDraw())


def _assemble(config: ModelConfig, rng) -> Model:
    d1 = config.stages[0].channels
    stem = MLPStack.init(rng, 3 + config.in_features, d1)
    stages = []
    d_prev = d1
    for sc in config.stages:
        d = sc.channels
        gam = GAMParams.init(d_prev)
        phi1 = MLPStack.init(rng, d_prev, d)
        phi2 = MLPStack.init(rng, d, d)
        layers = [
            (SelectiveSSMLayer.init(rng, d), SelectiveSSMLayer.init(rng, d))
            for _ in sc.serializations
        ]
        stages.append(StageModule(gam=gam, phi1=phi1, phi2=phi2, layers=layers))
        d_prev = d
    pos_maps = [AffineMap.init(rng, 3, sc.channels) for sc in config.stages]
    bank = OrderPromptBank.init(
        rng, config.order_names, [sc.channels for sc in config.stages], config.n_p
    )
    head = None
    decoder = None
    d_last = config.stages[-1].channels
    if config.task == TASK_CLASSIFICATION:
        head = [
            AffineMap.init(rng, d_last, HEAD_HIDDEN),
            AffineMap.init(rng, HEAD_HIDDEN, config.num_classes),
        ]
    else:
        transforms = []
        for lvl in (2, 1, 0):
            d = config.stages[lvl].channels
            d_above = config.stages[lvl + 1].channels
            transforms.append(
                (AffineMap.init(rng, d_above + d, d), AffineMap.init(rng, d, d))
            )
        classifier = AffineMap.init(rng, config.stages[0].channels, config.num_classes)
        decoder = SegDecoder(transforms=transforms, classifier=classifier)
    return Model(
        config=config,
        stem=stem,
        stages=stages,
        pos_maps=pos_maps,
        prompt_bank=bank,
        head=head,
        decoder=decoder,
    )


@dataclass
class EncodeResult:
    pooled: np.ndarray  # (D_last,) channel-wise max over final tokens
    stage_coords: list  # normalized coords per stage (canonical order)
    stage_feats: list  # features per stage, after that stage's Mamba layers
    full_coords: np.ndarray  # all input points, normalized, canonical order
    canonical_perm: np.ndarray  # input index of each canonical position


def _subsample(coords: np.ndarray, budget: int) -> np.ndarray:
    """Sorted indices of at most ``budget`` points: all of them, or a
    farthest-point sample of ``budget`` when there are more."""
    if len(coords) <= budget:
        return np.arange(len(coords))
    return np.sort(farthest_point_sample(coords, budget))


@contextlib.contextmanager
def _numeric_step(step: str, note: str = ""):
    """Run the block under ``np.errstate(over="raise", invalid="raise")``;
    re-raise a FloatingPointError or NumericRangeError from it as a
    NumericRangeError that names ``step``, with ``note`` appended."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except (FloatingPointError, NumericRangeError) as exc:
            raise NumericRangeError(f"out of range in {step}: {exc}{note}") from exc


def encode(model: Model, cloud: PointCloud) -> EncodeResult:
    """Run the four-stage encoder; see the module docstring for the pipeline.

    The canonical order sorts whole input rows, coordinates then features,
    with every zero made positive first, so points that share coordinates
    are ordered by their features and equal rows are equal bit for bit.
    """
    cfg = model.config
    if cloud.n_points < cfg.stages[-1].points:
        raise InvalidInputError(
            f"need at least {cfg.stages[-1].points} points, got {cloud.n_points}"
        )
    if cloud.features.shape[1] != cfg.in_features:
        raise InvalidInputError(
            f"model expects {cfg.in_features} feature channels, "
            f"cloud has {cloud.features.shape[1]}"
        )

    rows = np.hstack([cloud.coords, cloud.features])
    rows += 0.0  # -0.0 + 0.0 is 0.0
    canon = canonical_tiebreak_order(rows)
    rows = rows[canon]
    full_coords = normalize_unit_cube(PointCloud(rows[:, :3])).cloud.coords

    keep = _subsample(full_coords, cfg.stages[0].points)
    coords = full_coords[keep]
    stem_in = np.hstack([coords, rows[keep, 3:]])
    # coordinates are normalized, so only feature columns or weights can
    # overflow; an encoder step's error reports the largest feature column
    note = f"; the largest |feature column| is {np.abs(stem_in[:, 3:]).max(initial=0.0):.3g}"
    stage_coords, stage_feats = [], []
    with _numeric_step("stem", note):
        feats = model.stem(stem_in)
    for l, (sc, stage) in enumerate(zip(cfg.stages, model.stages)):
        with _numeric_step(f"stage {l} local aggregation", note):
            centers = _subsample(coords, sc.points)
            k = min(sc.k_neighbors, len(coords))
            hood = NeighborhoodIndex(centers, knn(coords[centers], coords, k).neighbors)
            feats = local_aggregate(feats, hood, stage.phi1, stage.phi2, stage.gam)
        coords = coords[centers]
        for j, (name, (fwd, bwd)) in enumerate(zip(sc.serializations, stage.layers)):
            with _numeric_step(f"stage {l} layer {j} ({name})", note):
                perm = serialize(NormalizedCloud(PointCloud(coords)), name, cfg.grid_n)
                seq = feats[perm] + positional_embed(coords[perm], model.pos_maps[l])
                seq = attach_prompts(seq, name, model.prompt_bank, l)
                seq = bidirectional_mamba(seq, fwd, bwd)
                seq = strip_prompts(seq, cfg.n_p)
                feats = np.empty_like(seq)
                feats[perm] = seq
        stage_coords.append(coords)
        stage_feats.append(feats)

    return EncodeResult(
        pooled=stage_feats[-1].max(axis=0),
        stage_coords=stage_coords,
        stage_feats=stage_feats,
        full_coords=full_coords,
        canonical_perm=canon,
    )


def forward_classification(model: Model, cloud: PointCloud) -> np.ndarray:
    """Class logits for one cloud; invariant to input point order."""
    if model.head is None:
        raise ConfigurationError("model was built for segmentation, not classification")
    enc = encode(model, cloud)
    hidden, logits = model.head
    with _numeric_step("classification head"):
        return logits(silu(hidden(enc.pooled)))


def forward_segmentation(model: Model, cloud: PointCloud) -> np.ndarray:
    """Per-point logits (N x num_classes) in the input point order.

    The decoder refines the stage features back up to stage 0, classifies
    the stage-0 rows, and interpolates their logits to all N input points.
    Interpolation weights are convex and the classifier is affine, so this
    equals classifying the interpolated stage-0 features up to rounding,
    without forming an (N, C0) feature array.
    """
    if model.decoder is None:
        raise ConfigurationError("model was built for classification, not segmentation")
    enc = encode(model, cloud)
    f = enc.stage_feats[3]
    with _numeric_step("segmentation decoder"):
        for (t1, t2), lvl in zip(model.decoder.transforms, (2, 1, 0)):
            up = interpolate_features(enc.stage_coords[lvl], enc.stage_coords[lvl + 1], f)
            f = t2(silu(t1(np.hstack([up, enc.stage_feats[lvl]]))))
        logits = model.decoder.classifier(f)
        logits_canon = interpolate_features(enc.full_coords, enc.stage_coords[0], logits)
    out = np.empty_like(logits_canon)
    out[enc.canonical_perm] = logits_canon
    return out


def count_parameters(model: Model) -> int:
    """Exact scalar parameter count."""
    return sum(int(arr.size) for _, arr in model.named_params())


def _weights(module) -> int:
    """Total size of the weight matrices of ``module`` (its arrays in a
    field named ``w`` or ``*_w``): the multiply-accumulates of one row
    through them."""
    return sum(
        getattr(owner, key).size
        for _, owner, key in param_slots(module)
        if key == "w" or str(key).endswith("_w")
    )


def _mamba_macs_per_token(layer: SelectiveSSMLayer) -> int:
    """One direction per token: its projection and conv weights (the
    ``*_w`` arrays), 4 per state and channel for the recurrence (dt * A,
    dt * u * B, the update, the readout) and one per channel for the gate."""
    return _weights(layer) + 4 * layer.a_log.size + layer.d_inner


def estimate_flops(model: Model, n_points: int) -> int:
    """Multiply-accumulates that one forward pass over ``n_points`` points executes.

    Each term is rows times the size of the weight a step multiplies, read
    from the model's modules as ``encode`` and ``forward_*`` run them: the
    stem per point; per stage, the GAM, phi1 entry and first ``affine1``
    folded (``local._fold``) over the previous stage's points plus one
    constant row, the rest of phi1 per neighbor row and phi2 per center;
    per layer, the positional and prompt affines and both Mamba directions
    per token; then the head, or the decoder with its interpolation
    weights, the classifier on the stage-0 rows and the last interpolation
    over ``num_classes`` channels. Elementwise work (norms, activations),
    index manipulation and sorting are not counted.
    """
    cfg = model.config
    # points per stage: each stage keeps at most its point budget
    _, *counts = itertools.accumulate((sc.points for sc in cfg.stages), min, initial=n_points)
    n_prev = counts[0]
    total = n_prev * _weights(model.stem)
    for l, (sc, stage) in enumerate(zip(cfg.stages, model.stages)):
        m, k = counts[l], min(sc.k_neighbors, n_prev)
        phi1 = stage.phi1
        folded = sum(a.w.size for a in (phi1.entry, phi1.blocks[0].affine1) if a is not None)
        total += (n_prev + 1) * folded + m * k * (_weights(phi1) - folded)
        total += m * _weights(stage.phi2)
        tokens = m + 2 * cfg.n_p
        for fwd, bwd in stage.layers:
            total += tokens * (_mamba_macs_per_token(fwd) + _mamba_macs_per_token(bwd))
            total += m * model.pos_maps[l].w.size
            total += cfg.n_p * model.prompt_bank.stage_proj[l].w.size
        n_prev = m
    if model.head is not None:
        return int(total + sum(a.w.size for a in model.head))  # one pooled row
    for (t1, t2), lvl in zip(model.decoder.transforms, (2, 1, 0)):
        total += counts[lvl] * (INTERP_K * cfg.stages[lvl + 1].channels + t1.w.size + t2.w.size)
    classifier = model.decoder.classifier
    total += counts[0] * classifier.w.size + n_points * INTERP_K * classifier.d_out
    return int(total)


# Gradient steps and step size of the linear probe.
PROBE_EPOCHS = 300
PROBE_LR = 0.5


@dataclass
class ProbeResult:
    weights: np.ndarray  # (C, D)
    bias: np.ndarray  # (C,)
    train_accuracy: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(features @ self.weights.T + self.bias, axis=1)


def softmax_xent_grad(weights, bias, features, labels):
    """Loss and hand-coded gradients of softmax cross-entropy (mean over rows)."""
    logits = features @ weights.T + bias
    logits = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    m = len(labels)
    loss = -np.log(probs[np.arange(m), labels] + 1e-300).mean()
    delta = probs.copy()
    delta[np.arange(m), labels] -= 1.0
    delta /= m
    return loss, delta.T @ features, delta.sum(axis=0)


def train_linear_probe(features: np.ndarray, labels: np.ndarray, seed: int = 0) -> ProbeResult:
    """Full-batch gradient-descent softmax regression on frozen features:
    ``PROBE_EPOCHS`` steps of size ``PROBE_LR`` from a seeded start."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise DegenerateLabelsError("need at least two classes to fit a probe")
    n_classes = int(classes.max()) + 1
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = rng.normal(0.0, 0.01, size=(n_classes, features.shape[1]))
    bias = np.zeros(n_classes)
    for _ in range(PROBE_EPOCHS):
        _, gw, gb = softmax_xent_grad(weights, bias, features, labels)
        weights -= PROBE_LR * gw
        bias -= PROBE_LR * gb
    preds = np.argmax(features @ weights.T + bias, axis=1)
    return ProbeResult(
        weights=weights, bias=bias, train_accuracy=float((preds == labels).mean())
    )
