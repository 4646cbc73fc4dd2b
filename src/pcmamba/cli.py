"""Command-line surface.

Subcommands: ``serialize`` (locality analysis of the ordering strategies),
``forward`` (classification/segmentation inference), ``verify`` (invariant
suites), ``bench`` (linear-complexity scaling measurement), ``inspect``
(parameter/FLOP accounting), and ``probe`` (frozen-feature linear probe).

Reports are plain ``key=value`` lines, sections separated by blank lines;
tabular output is CSV with a header row. The count flags (``--n``,
``--grid``, ``--window``, ``--channels``, ``--repeat``, ``--per-class`` and
each ``--lengths`` entry) take positive integers; any other value is a
usage error. ``--config`` takes a preset name or a config JSON whose
fields are exactly those of ``StageConfig`` and ``ModelConfig`` less
``task``, ``seed`` and ``in_features``. Exit codes: 0 success, 1
verification failure, 2 usage or configuration error (a config JSON with a
missing, unknown, mistyped or non-positive field, or an unknown
serialization name), 3 I/O, format or numeric-range error (an xyz file
that is not UTF-8 text, coordinates whose extent exceeds the float64
range, feature columns or weights that overflow a computation);
``EXIT_CODES`` maps each error class to its code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import MISSING, fields

import numpy as np

from . import serialize as ser
from .checks import run_suite
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateLabelsError,
    FormatError,
    InvalidInputError,
    NumericRangeError,
    ParseError,
    UndefinedMetricError,
)
from .io import SHAPE_KINDS, generate_shape, load_weights, read_xyz
from .model import (
    _PRESETS,
    PUBLISHED_SIZES,
    TASK_CLASSIFICATION,
    TASK_SEGMENTATION,
    ModelConfig,
    StageConfig,
    _unfilled_model,
    build_model,
    encode,
    estimate_flops,
    forward_classification,
    forward_segmentation,
    preset_config,
    train_linear_probe,
)
from .pointset import PointCloud, normalize_unit_cube
from .serialize import locality_metrics
from .ssm import SelectiveSSMLayer, mamba_block

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


# Exit code of every error class in ``pcmamba.errors`` (README, "CLI"); an
# exception of another class takes the code of its nearest listed base.
EXIT_CODES = {
    UsageError: EXIT_USAGE,
    ConfigurationError: EXIT_USAGE,
    ContractViolationError: EXIT_USAGE,
    DegenerateLabelsError: EXIT_USAGE,
    UndefinedMetricError: EXIT_USAGE,
    FormatError: EXIT_IO,
    InvalidInputError: EXIT_IO,
    NumericRangeError: EXIT_IO,
    ParseError: EXIT_IO,
    OSError: EXIT_IO,
    ValueError: EXIT_USAGE,
}


def _emit(lines):
    sys.stdout.write("".join(line + "\n" for line in lines))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _load_cloud(args) -> PointCloud:
    if getattr(args, "input", None):
        return read_xyz(args.input)
    if getattr(args, "gen", None):
        return generate_shape(args.gen, args.n, noise_sigma=0.0, seed=args.seed)
    raise UsageError("provide --input PATH or --gen SHAPE")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


# ---------------------------------------------------------------------------
# serialize


def cmd_serialize(args) -> int:
    cloud = _load_cloud(args)
    mode = ser.MODE_PAPER if args.mode == "paper" else ser.MODE_BIJECTIVE
    normalized = normalize_unit_cube(cloud)
    names = list(ser.ORDER_NAMES) if args.compare_all else [args.order]
    lines = [
        f"n={cloud.n_points}",
        f"grid_n={args.grid}",
        f"mode={args.mode}",
        f"window={args.window}",
    ]
    perms = [ser.serialize(normalized, name, args.grid, mode) for name in names]
    all_metrics = locality_metrics(normalized.cloud, perms, window=args.window)
    rows = []
    for name, metrics in zip(names, all_metrics):
        collisions = ser.count_code_collisions(normalized, name, args.grid, mode)
        lines.append("")
        lines.append(f"order={name}")
        lines.append(f"mean_gap={_fmt(metrics['mean_gap'])}")
        lines.append(f"adjacency_rate={_fmt(metrics['adjacency_rate'])}")
        lines.append(f"collision_count={collisions}")
        rows.append((name, _fmt(metrics["mean_gap"]), _fmt(metrics["adjacency_rate"]), collisions))
    _emit(lines)
    if args.out:
        if args.compare_all:
            _write_csv(args.out, ("order", "mean_gap", "adjacency_rate", "collision_count"), rows)
        else:
            _write_csv(
                args.out,
                ("position", "point_index"),
                list(enumerate(perms[0].tolist())),
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# config resolution


# ModelConfig fields that the command line sets, not a config file
_CLI_FIELDS = ("task", "seed", "in_features")


def _check_keys(where, raw, cls):
    valid = [f.name for f in fields(cls) if f.name not in _CLI_FIELDS]
    for key in raw:
        if key not in valid:
            hint = " (the command line sets it)" if key in _CLI_FIELDS else ""
            raise ConfigurationError(
                f"{where}: {key!r} is not a config field{hint}; valid: {', '.join(valid)}"
            )


def config_from_file(path, task, num_classes, in_features=0, seed=0) -> ModelConfig:
    """Model config from a JSON object: its keys are ModelConfig's fields
    except task, seed and in_features, which the command line sets, and its
    "stages" list holds objects whose keys are StageConfig's fields. A field
    the file leaves out takes the dataclass default (``num_classes`` the
    given one); the value checks are those of the dataclasses."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not isinstance(raw.get("stages"), list):
        raise ConfigurationError(f"{path}: expected a JSON object with a 'stages' list")
    _check_keys(str(path), raw, ModelConfig)
    stages = []
    for i, s in enumerate(raw["stages"]):
        if not isinstance(s, dict):
            raise ConfigurationError(f"{path}: stage {i} must be a JSON object")
        _check_keys(f"{path}: stage {i}", s, StageConfig)
        missing = [f.name for f in fields(StageConfig) if f.default is MISSING and f.name not in s]
        if missing:
            raise ConfigurationError(f"{path}: stage {i} lacks {', '.join(missing)}")
        names = s["serializations"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ConfigurationError(f"{path}: stage {i} serializations must be a list of names")
        stages.append(StageConfig(**{**s, "serializations": tuple(names)}))
    return ModelConfig(
        **{"num_classes": num_classes, **raw, "stages": tuple(stages)},
        task=task,
        seed=seed,
        in_features=in_features,
    )


def _resolve_config(name_or_path, task, num_classes, in_features=0, seed=0) -> ModelConfig:
    if name_or_path in _PRESETS:
        return preset_config(
            name_or_path, task=task, num_classes=num_classes, seed=seed, in_features=in_features
        )
    return config_from_file(name_or_path, task, num_classes, in_features, seed)


# ---------------------------------------------------------------------------
# forward


def cmd_forward(args) -> int:
    cloud = _load_cloud(args)
    task = TASK_CLASSIFICATION if args.task == "cls" else TASK_SEGMENTATION
    num_classes = 15 if args.task == "cls" else 50
    in_features = 0 if cloud.features is None else cloud.features.shape[1]
    config = _resolve_config(args.config, task, num_classes, in_features, seed=args.seed)
    if args.weights:
        model = load_weights(args.weights, config)
    else:
        model = build_model(config)
    if args.task == "cls":
        logits = forward_classification(model, cloud)
        header = [f"class_{i}" for i in range(len(logits))]
        rows = [[_fmt(v) for v in logits]]
    else:
        per_point = forward_segmentation(model, cloud)
        header = ["point", "label"]
        rows = [(i, int(lab)) for i, lab in enumerate(per_point.argmax(axis=1))]
    _emit(
        [
            f"task={args.task}",
            f"config={args.config}",
            f"n={cloud.n_points}",
            f"seed={args.seed}",
            f"num_classes={model.config.num_classes}",
        ]
    )
    if args.out:
        _write_csv(args.out, header, rows)
    else:
        _emit([""] + [",".join(header)] + [",".join(str(v) for v in r) for r in rows])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    lines = [f"suite={args.suite}", f"seed={args.seed}", ""]
    for res in results:
        status = "pass" if res.passed else "fail"
        lines.append(f"{res.name}.status={status}")
        lines.append(f"{res.name}.measured={_fmt(res.measured)}")
        lines.append(f"{res.name}.tolerance={_fmt(res.tolerance)}")
    failed = sum(not r.passed for r in results)
    lines.append("")
    lines.append(f"checks={len(results)}")
    lines.append(f"failed={failed}")
    _emit(lines)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# bench


def _time_round_robin(jobs, repeat):
    """Time each job ``repeat`` times, interleaved so machine-load drift
    spreads evenly across jobs. Each job is (key, fn, inner): fn runs
    ``inner`` times per measurement so every timed unit has comparable
    duration (short jobs would otherwise absorb scheduler noise
    disproportionately). Returns per-call {key: (min, median)}."""
    times = {key: [] for key, _, _ in jobs}
    for _ in range(repeat):
        for key, fn, inner in jobs:
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            times[key].append((time.perf_counter() - t0) / inner)
    return {k: (min(v), float(np.median(v))) for k, v in times.items()}


def _attention_baseline(x):
    # naive full score matrix in row blocks; quadratic in sequence length
    m, d = x.shape
    out = np.empty_like(x)
    block = 1024
    scale = 1.0 / np.sqrt(d)
    for s in range(0, m, block):
        scores = (x[s : s + block] @ x.T) * scale
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
        out[s : s + block] = scores @ x
    return out


def fit_exponent(lengths, times) -> float:
    slope, _ = np.polyfit(np.log(np.asarray(lengths, dtype=float)), np.log(times), 1)
    return float(slope)


def run_bench(lengths, channels=64, repeat=3, seed=0):
    """Median wall times per sequence length plus fitted log-log exponents,
    for the Mamba block and for the quadratic attention baseline.

    Repetitions are interleaved across lengths (round robin) so slow drift
    in machine load biases every length equally rather than skewing the
    fitted slope.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    layer = SelectiveSSMLayer.init(rng, channels)
    sequences = {m: rng.normal(size=(m, channels)) for m in lengths}
    longest = max(lengths)
    jobs = [
        (("ssm", m), lambda m=m: mamba_block(sequences[m], layer), max(1, longest // m))
        for m in lengths
    ]
    # quadratic kernel: inner count scales with (longest/m)^2
    jobs += [
        (
            ("attention_baseline", m),
            lambda m=m: _attention_baseline(sequences[m]),
            max(1, (longest // m) ** 2),
        )
        for m in lengths
    ]
    for _, fn, _ in jobs:  # warm-up pass: first-touch allocations, code paths
        fn()
    timed = _time_round_robin(jobs, repeat)
    rows = []
    exponents = {}
    ratios = {}
    for kernel in ("ssm", "attention_baseline"):
        medians = []
        for m in lengths:
            tmin, tmed = timed[(kernel, m)]
            rows.append(
                {"n_points": m, "kernel": kernel, "time_min_s": tmin, "time_median_s": tmed}
            )
            medians.append(tmed)
        exponents[kernel] = fit_exponent(lengths, medians)
        ratios[kernel] = medians[-1] / medians[0]
    return rows, exponents, ratios


def cmd_bench(args) -> int:
    lengths = args.lengths
    if len(lengths) < 2 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise UsageError("--lengths must be at least two strictly increasing integers")
    rows, exponents, ratios = run_bench(
        lengths, channels=args.channels, repeat=args.repeat, seed=args.seed
    )
    lines = [f"channels={args.channels}", f"repeat={args.repeat}", ""]
    for kernel, exp in exponents.items():
        lines.append(f"exponent.{kernel}={_fmt(exp)}")
    for kernel, ratio in ratios.items():
        # median-time growth from the shortest to the longest length
        lines.append(f"time_ratio.{kernel}={_fmt(ratio)}")
    lines.append("")
    header = ("n_points", "kernel", "time_min_s", "time_median_s")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in header))
    _emit(lines)
    if args.out:
        _write_csv(args.out, header, [[_fmt(r[k]) for k in header] for r in rows])
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(args) -> int:
    config = _resolve_config(args.config, TASK_CLASSIFICATION, 15)
    model = _unfilled_model(config)  # counts and MACs read no parameter value
    groups: dict[str, int] = {}
    for name, arr in model.named_params():
        top = name.split(".")[0]
        groups[top] = groups.get(top, 0) + int(arr.size)
    total = sum(groups.values())
    lines = [f"config={args.config}"]
    for name in sorted(groups):
        lines.append(f"params.{name}={groups[name]}")
    lines.append(f"params.total={total}")
    flops = estimate_flops(model, args.n)
    lines.append(f"flops.n_points={args.n}")
    lines.append(f"flops.total_mac={flops}")
    if args.config in PUBLISHED_SIZES:
        pub_params, pub_flops = PUBLISHED_SIZES[args.config]
        lines.append(f"published.params={int(pub_params)}")
        lines.append(f"published.flops={int(pub_flops)}")
        lines.append(f"params.ratio_to_published={_fmt(total / pub_params)}")
    _emit(lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# probe


def make_probe_corpus(classes=3, per_class=100, n=1024, seed=0):
    """Seeded sphere/cube/torus(/plane) clouds, Gaussian jitter 0.02, with class labels."""
    if not 2 <= classes <= len(SHAPE_KINDS):
        raise UsageError(f"--classes must be in [2, {len(SHAPE_KINDS)}]")
    clouds, labels = [], []
    for c in range(classes):
        for i in range(per_class):
            shape_seed = seed * 1_000_003 + c * 10_007 + i
            clouds.append(generate_shape(SHAPE_KINDS[c], n, 0.02, shape_seed))
            labels.append(c)
    return clouds, np.asarray(labels, dtype=np.int64)


def probe_features(model, clouds) -> np.ndarray:
    return np.stack([encode(model, c).pooled for c in clouds])


def run_probe(classes=3, per_class=100, n=1024, seed=0):
    clouds, labels = make_probe_corpus(classes, per_class, n, seed)
    model = build_model(preset_config("pcm-tiny", num_classes=classes, seed=seed))
    feats = probe_features(model, clouds)
    # deterministic 80/20 split, stratified by construction order
    idx = np.arange(len(clouds))
    test_mask = (idx % 5) == 4
    train_x, test_x = feats[~test_mask], feats[test_mask]
    train_y, test_y = labels[~test_mask], labels[test_mask]
    mean = train_x.mean(axis=0)
    std = train_x.std(axis=0) + 1e-8
    probe = train_linear_probe((train_x - mean) / std, train_y, seed=seed)
    test_pred = probe.predict((test_x - mean) / std)
    return {
        "train_accuracy": probe.train_accuracy,
        "test_accuracy": float((test_pred == test_y).mean()),
        "n_train": int((~test_mask).sum()),
        "n_test": int(test_mask.sum()),
    }


def cmd_probe(args) -> int:
    stats = run_probe(classes=args.classes, per_class=args.per_class, n=args.n, seed=args.seed)
    _emit(
        [
            f"classes={args.classes}",
            f"per_class={args.per_class}",
            f"n={args.n}",
            f"seed={args.seed}",
            f"n_train={stats['n_train']}",
            f"n_test={stats['n_test']}",
            f"probe.train_accuracy={_fmt(stats['train_accuracy'])}",
            f"probe.test_accuracy={_fmt(stats['test_accuracy'])}",
        ]
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _positive_ints(text) -> list:
    """A comma-separated list of positive integers (empty entries skipped)."""
    return [_positive_int(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmamba",
        description="Point-cloud serialization, SSM kernels, and forward inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", help="xyz file: 'x y z [features...]' per line")
        p.add_argument("--gen", choices=("sphere", "cube", "torus", "plane"))
        p.add_argument("--n", type=_positive_int, default=1024, help="points for --gen")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("serialize", help="serialization locality analysis")
    add_io(p)
    p.add_argument("--order", default="xyz", help=f"one of: {', '.join(ser.ORDER_NAMES)}")
    p.add_argument("--grid", type=_positive_int, default=64)
    p.add_argument("--mode", choices=("paper", "bijective"), default="bijective")
    p.add_argument("--window", type=_positive_int, default=8)
    p.add_argument("--compare-all", action="store_true")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_serialize)

    p = sub.add_parser("forward", help="forward inference")
    p.add_argument("--config", default="pcm-tiny", help="pcm | pcm-tiny | config JSON path")
    p.add_argument("--task", choices=("cls", "seg"), default="cls")
    add_io(p)
    p.add_argument("--weights", help="weight archive to load")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument(
        "--suite",
        choices=("serialization", "ssm", "gam", "model", "all"),
        default="all",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="scaling benchmark of the sequence kernels")
    p.add_argument("--lengths", type=_positive_ints, default="1024,2048,4096,8192")
    p.add_argument("--channels", type=_positive_int, default=64)
    p.add_argument("--repeat", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("inspect", help="parameter and FLOP accounting")
    p.add_argument("--config", default="pcm-tiny")
    p.add_argument("--n", type=_positive_int, default=1024)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("probe", help="linear probe on frozen pooled features")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", type=_positive_int, default=100)
    p.add_argument("--n", type=_positive_int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
