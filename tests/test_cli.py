import contextlib
import inspect
import io
import json
import re
import time
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import small_config
from pcmamba.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, config_from_file, main
from pcmamba.errors import ConfigurationError
from pcmamba.io import generate_shape, write_xyz
from pcmamba.model import TASK_CLASSIFICATION, TASK_SEGMENTATION, ModelConfig, StageConfig
from pcmamba.pointset import PointCloud
from pcmamba.serialize import ORDER_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_report(text):
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


# ModelConfig fields that the command line sets and a config file may not
CLI_FIELDS = ("task", "seed", "in_features")

# conftest.small_config() as a config file holds it, with JSON lists
SMALL_CONFIG = json.loads(
    json.dumps({k: v for k, v in asdict(small_config()).items() if k not in CLI_FIELDS})
)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


# ------------------------------------------------------------------ serialize


def test_serialize_report_contract(capsys):
    code, out = run(
        capsys, "serialize", "--gen", "sphere", "--n", "512", "--seed", "0",
        "--order", "xyz", "--grid", "16",
    )
    report = parse_report(out)
    assert code == EXIT_OK
    assert report["n"] == "512"
    assert "mean_gap" in report and "adjacency_rate" in report


def test_serialize_unknown_order_is_usage_error(capsys):
    code, _ = run(capsys, "serialize", "--gen", "sphere", "--order", "spiral")
    assert code == EXIT_USAGE


def test_serialize_paper_mode_flags_collisions(capsys, tmp_path):
    # full grid-4 cell centers
    cells = np.array(
        [[x, y, z] for x in range(4) for y in range(4) for z in range(4)], dtype=float
    )
    cloud = PointCloud((cells + 0.5) / 4.0)
    path = tmp_path / "grid.xyz"
    write_xyz(cloud, path)
    code, out = run(
        capsys, "serialize", "--input", str(path), "--order", "xyz",
        "--grid", "4", "--mode", "paper",
    )
    report = parse_report(out)
    assert code == EXIT_OK
    assert int(report["collision_count"]) > 0


def test_serialize_compare_all_table(capsys, tmp_path):
    out_csv = tmp_path / "orders.csv"
    code, out = run(
        capsys, "serialize", "--gen", "sphere", "--n", "256", "--seed", "1",
        "--grid", "8", "--compare-all", "--out", str(out_csv),
    )
    assert code == EXIT_OK
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "order,mean_gap,adjacency_rate,collision_count"
    assert len(lines) == 10  # header + nine orders
    assert out.count("order=") == 9


def test_serialize_compare_all_cts_comparable_to_hilbert(capsys, tmp_path):
    # uniform cloud at ~one point per cell: every snake variant's mean gap
    # stays within 1.5x of the Hilbert curve's (measured ~1.1-1.2)
    rng = np.random.default_rng(2)
    path = tmp_path / "uniform.xyz"
    write_xyz(PointCloud(rng.uniform(size=(512, 3))), path)
    out_csv = tmp_path / "orders.csv"
    code, _ = run(
        capsys, "serialize", "--input", str(path), "--grid", "8",
        "--compare-all", "--out", str(out_csv),
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    gaps = {r[0]: float(r[1]) for r in rows}
    for name in ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx"):
        assert gaps[name] <= 1.5 * gaps["hilbert"]


def test_serialize_missing_input_file(capsys):
    code, _ = run(capsys, "serialize", "--input", "/nonexistent/file.xyz")
    assert code == EXIT_IO


# -------------------------------------------------------------------- forward


def test_forward_cls_deterministic_csv(capsys, tmp_path, config_file):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code, _ = run(
            capsys, "forward", "--config", config_file, "--task", "cls",
            "--gen", "sphere", "--n", "64", "--seed", "3", "--out", str(out),
        )
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_forward_cls_invariant_to_input_shuffle(capsys, tmp_path, config_file):
    cloud = generate_shape("torus", 64, noise_sigma=0.0, seed=5)
    shuffled = PointCloud(cloud.coords[np.random.default_rng(0).permutation(64)])
    outs = []
    for i, cl in enumerate((cloud, shuffled)):
        path = tmp_path / f"c{i}.xyz"
        write_xyz(cl, path)
        out_csv = tmp_path / f"l{i}.csv"
        code, _ = run(
            capsys, "forward", "--config", config_file, "--task", "cls",
            "--input", str(path), "--seed", "3", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        outs.append(out_csv.read_text())
    assert outs[0] == outs[1]


def test_forward_seg_row_count(capsys, tmp_path, config_file):
    out_csv = tmp_path / "seg.csv"
    code, _ = run(
        capsys, "forward", "--config", config_file, "--task", "seg",
        "--gen", "cube", "--n", "72", "--seed", "4", "--out", str(out_csv),
    )
    assert code == EXIT_OK
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "point,label"
    assert len(lines) == 1 + 72


def test_forward_weights_roundtrip(capsys, tmp_path, config_file):
    from pcmamba.io import save_weights
    from pcmamba.model import build_model

    weights = tmp_path / "w.pcmw"
    save_weights(build_model(config_from_file(config_file, "classification", 3, seed=3)), weights)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out, extra in ((out1, ["--weights", str(weights)]), (out2, [])):
        code, _ = run(
            capsys, "forward", "--config", config_file, "--task", "cls",
            "--gen", "plane", "--n", "64", "--seed", "3", "--out", str(out), *extra,
        )
        assert code == EXIT_OK
    # seeded init and archive round trip agree (same seed => same parameters)
    assert out1.read_text() == out2.read_text()


def test_forward_input_with_feature_columns(capsys, tmp_path, config_file):
    rng = np.random.default_rng(6)
    cloud = PointCloud(rng.uniform(size=(64, 3)), features=rng.normal(size=(64, 2)))
    path = tmp_path / "feat.xyz"
    write_xyz(cloud, path)
    out_csv = tmp_path / "logits.csv"
    code, _ = run(
        capsys, "forward", "--config", config_file, "--task", "cls",
        "--input", str(path), "--seed", "0", "--out", str(out_csv),
    )
    assert code == EXIT_OK
    assert out_csv.read_text().count("\n") == 2  # header + one logits row


def test_forward_too_few_points(capsys, config_file):
    code, _ = run(
        capsys, "forward", "--config", config_file, "--gen", "sphere", "--n", "4",
    )
    assert code == EXIT_IO


def _with_stage0(**changes):
    stage = {k: v for k, v in {**SMALL_CONFIG["stages"][0], **changes}.items() if v is not None}
    return {**SMALL_CONFIG, "stages": [stage] + SMALL_CONFIG["stages"][1:]}


@pytest.mark.parametrize(
    "config, field",
    [
        ({}, "stages"),
        (_with_stage0(serializations=None), "serializations"),
        (_with_stage0(num_layers=1), "num_layers"),
        ({**SMALL_CONFIG, "stages": 5}, "stages"),
        ([SMALL_CONFIG], "stages"),
        (_with_stage0(channels="12"), "channels"),
        (_with_stage0(channels=0), "channels"),
        (_with_stage0(serializations="xyz"), "serializations"),
        ({**SMALL_CONFIG, "state_size": 0}, "state_size"),
        ({**SMALL_CONFIG, "n_p": -1}, "n_p"),
        (_with_stage0(serializations=["spiral"]), "spiral"),
        ({**SMALL_CONFIG, "state_sise": 4}, "state_sise"),
        (_with_stage0(k_neighbours=3), "k_neighbours"),
        ({**SMALL_CONFIG, "seed": 1}, "seed"),
    ],
    ids=[
        "empty", "no-serializations", "num_layers-in-file", "stages-int", "top-level-list",
        "channels-str", "channels-0", "serializations-str", "state_size-0", "n_p-negative",
        "serialization-unknown", "top-level-typo", "stage-typo", "seed-in-file",
    ],
)
def test_forward_malformed_config_exits_2(capsys, tmp_path, config, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code = main(["forward", "--config", str(path), "--gen", "sphere", "--n", "100"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and field in err


def test_segmentation_stage_below_interp_k_points_exits_2(capsys, tmp_path):
    # the decoder interpolates from 3 points of every stage; a missing input
    # file would exit 3, so exit 2 shows the config is checked first
    config = json.loads(json.dumps(SMALL_CONFIG))
    config["stages"][3]["points"] = 2
    path = tmp_path / "two.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigurationError, match="stage 3 points"):
        config_from_file(path, TASK_SEGMENTATION, 50)
    assert config_from_file(path, TASK_CLASSIFICATION, 15).stages[3].points == 2
    missing = str(tmp_path / "missing.xyz")
    code = main(["forward", "--config", str(path), "--task", "seg", "--input", missing])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and err.startswith("error: stage 3 points")


def test_small_config_file_loads_back(config_file):
    # the file's num_classes (3) wins over the one given (15)
    assert config_from_file(config_file, TASK_CLASSIFICATION, 15) == small_config()


_JUNK = st.one_of(
    st.integers(-2, 48),
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(st.characters(codec="utf-8"), max_size=8),
    st.lists(st.one_of(st.sampled_from(ORDER_NAMES), st.integers(-2, 48), st.text(max_size=3))),
)
_KEYS = st.one_of(
    st.sampled_from(sorted({f.name for cls in (StageConfig, ModelConfig) for f in fields(cls)})),
    st.text(st.characters(codec="utf-8"), max_size=10),
)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from((["inspect"], ["forward", "--gen", "sphere", "--n", "48"])),
)
def test_fuzzed_config_exits_0_2_or_3(tmp_path_factory, data, command):
    # one key of the top level or of one stage is changed or added; ints
    # stay small enough that no draw allocates more than a few MB
    config = json.loads(json.dumps(SMALL_CONFIG))
    stage = data.draw(st.one_of(st.none(), st.integers(0, 3)), label="stage")
    target = config if stage is None else config["stages"][stage]
    change = data.draw(st.booleans(), label="change an existing key")
    key = data.draw(st.sampled_from(sorted(target)) if change else _KEYS, label="key")
    small_int = data.draw(st.booleans(), label="small int")
    target[key] = data.draw(st.integers(-2, 48) if small_int else _JUNK, label="value")
    valid = {f.name for f in fields(ModelConfig if stage is None else StageConfig)}
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], "--config", str(path), *command[1:]])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO)
    assert "Traceback" not in err.getvalue()
    if key not in valid or key in CLI_FIELDS:
        assert code == EXIT_USAGE and repr(key) in err.getvalue()


def test_forward_non_utf8_xyz_exits_3(capsys, tmp_path, config_file):
    path = tmp_path / "latin.xyz"
    path.write_bytes(b"0 0 0\n\xff\xfe 1 1\n")
    code = main(["forward", "--config", config_file, "--input", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("error:") and str(path) in err


@pytest.mark.filterwarnings("error")
def test_forward_nan_feature_exits_3_naming_file(capsys, tmp_path, config_file):
    rng = np.random.default_rng(7)
    rows = [" ".join(f"{v:.17g}" for v in row) for row in rng.uniform(size=(64, 4))]
    rows[5] = "0.5 0.5 0.5 nan"
    path = tmp_path / "nan_feature.xyz"
    path.write_text("\n".join(rows) + "\n")
    code = main(["forward", "--config", config_file, "--input", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("error:") and str(path) in err and "features" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "scale, expected",
    # at 1e153 the stem still runs; the sum of squares that sets the local
    # aggregation's sigma overflows
    [(1e200, EXIT_IO), (1e250, EXIT_IO), (-1e200, EXIT_IO), (1e153, EXIT_IO), (1e150, EXIT_OK)],
)
def test_forward_overflowing_feature_column_exits_3(capsys, tmp_path, scale, expected):
    rng = np.random.default_rng(8)
    cloud = PointCloud(rng.uniform(size=(256, 3)), features=scale * rng.uniform(0.5, 1, (256, 1)))
    path = tmp_path / "feature.xyz"
    write_xyz(cloud, path)
    code = main(["forward", "--config", "pcm-tiny", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == expected
    if expected == EXIT_IO:
        assert err.startswith("error:") and "overflow" in err and "feature column" in err
        assert "Traceback" not in err
    else:
        assert err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["forward", "serialize"])
def test_coordinate_extent_beyond_float_range_exits_3(capsys, tmp_path, config_file, command):
    rng = np.random.default_rng(9)
    path = tmp_path / "huge.xyz"
    write_xyz(PointCloud(rng.uniform(-1.0, 1.0, size=(200, 3)) * 1e308), path)
    config = ["--config", config_file] if command == "forward" else []
    code = main([command, *config, "--input", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("error: coordinate extent [inf, inf, inf]")
    assert "float64 range" in err and "NaN" not in err


def test_forward_overflowing_dt_bias_exits_3(capsys, tmp_path, config_file):
    from pcmamba.io import save_weights
    from pcmamba.model import build_model

    model = build_model(config_from_file(config_file, "classification", 3, seed=3))
    for name, tensor in model.named_params():
        if name.endswith("dt_bias"):
            tensor[...] = 1e308  # dt * A and dt * u * B overflow in the scan
    weights = tmp_path / "overflow.pcmw"
    save_weights(model, weights)
    code = main(
        ["forward", "--config", config_file, "--task", "cls", "--gen", "plane",
         "--n", "64", "--seed", "3", "--weights", str(weights)]
    )
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("error:") and "overflow" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "task, tensor, step",
    [
        ("cls", "head.0.w", "classification head"),
        ("seg", "decoder.transforms.0.0.w", "segmentation decoder"),
        ("cls", "stages.1.layers.0.0.dt_bias", "stage 1 layer 0 (xzy)"),
    ],
)
def test_forward_overflowing_weight_exits_3_naming_step(
    capsys, tmp_path, config_file, task, tensor, step
):
    from pcmamba.io import save_weights
    from pcmamba.model import build_model

    task_name, classes = ("classification", 15) if task == "cls" else ("part_segmentation", 50)
    model = build_model(config_from_file(config_file, task_name, classes))
    dict(model.named_params())[tensor][...] = 1e308
    weights = tmp_path / "overflow.pcmw"
    save_weights(model, weights)
    code = main(
        ["forward", "--config", config_file, "--task", task, "--gen", "sphere",
         "--n", "64", "--weights", str(weights)]
    )
    out, err = capsys.readouterr()
    assert code == EXIT_IO
    assert err.startswith("error:") and "overflow" in err and step in err
    assert "Traceback" not in err and "nan" not in out


def test_forward_nan_weights_exits_3(capsys, tmp_path, config_file):
    from pcmamba.io import save_weights
    from pcmamba.model import build_model

    model = build_model(config_from_file(config_file, "classification", 3, seed=3))
    name, tensor = next(model.named_params())
    tensor.flat[0] = np.nan
    weights = tmp_path / "nan.pcmw"
    save_weights(model, weights)
    code = main(
        ["forward", "--config", config_file, "--task", "cls", "--gen", "plane",
         "--n", "64", "--seed", "3", "--weights", str(weights)]
    )
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("error:") and repr(name) in err


# --------------------------------------------------------------------- verify


def test_verify_gam_suite_passes_and_repeats(capsys):
    code1, out1 = run(capsys, "verify", "--suite", "gam", "--seed", "0")
    code2, out2 = run(capsys, "verify", "--suite", "gam", "--seed", "0")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert "gam_unit_rms.status=pass" in out1


def test_verify_ssm_suite_report_contract(capsys):
    code, out = run(capsys, "verify", "--suite", "ssm", "--seed", "0")
    report = parse_report(out)
    assert code == EXIT_OK
    assert report["scan_equals_conv.status"] == "pass"
    assert float(report["scan_equals_conv.measured"]) <= 1e-6
    assert "adjoint_matches_finite_differences.measured" in report


def test_verify_all_suites_pass_and_reports_identical(capsys):
    code1, out1 = run(capsys, "verify", "--suite", "all", "--seed", "0")
    code2, out2 = run(capsys, "verify", "--suite", "all", "--seed", "0")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    report = parse_report(out1)
    assert report["failed"] == "0"
    assert report["activations_finite_100_clouds.status"] == "pass"
    assert report["classification_permutation_invariant.status"] == "pass"
    assert report["coincident_points_permutation_invariant.status"] == "pass"


def test_verify_failure_exit_code(capsys, monkeypatch):
    from pcmamba import cli as cli_mod
    from pcmamba.checks import CheckResult

    monkeypatch.setattr(
        cli_mod, "run_suite", lambda suite, seed=0: [CheckResult("synthetic", False, 1.0, 0.0)]
    )
    code, out = run(capsys, "verify", "--suite", "gam")
    assert code == EXIT_VERIFY_FAILED
    assert "synthetic.status=fail" in out


def _documented_exit_codes():
    """Error class name -> exit code, from the table in README "CLI"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    codes = {}
    for code, classes in re.findall(r"^\| (\d) \|[^|]*\|(.*)\|$", section, re.M):
        for name in re.findall(r"`(\w+)`", classes):
            codes[name] = int(code)
    return codes


def test_every_error_class_exits_with_documented_code(capsys, monkeypatch):
    from pcmamba import cli as cli_mod
    from pcmamba import errors

    documented = _documented_exit_codes()
    classes = [
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    ]
    assert classes
    for cls in classes:
        assert cls.__name__ in documented, f"{cls.__name__} has no documented exit code"
        assert cli_mod.EXIT_CODES[cls] == documented[cls.__name__]

        def fail(args, cls=cls):
            raise cls(f"synthetic {cls.__name__}")

        monkeypatch.setattr(cli_mod, "cmd_inspect", fail)
        code = main(["inspect"])
        assert code == documented[cls.__name__], cls.__name__
        assert f"error: synthetic {cls.__name__}" in capsys.readouterr().err


def test_verify_serialization_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "serialization")
    report = parse_report(out)
    assert code == EXIT_OK
    for grid in (2, 4, 8, 16):
        assert report[f"cts_bijective_grid{grid}.status"] == "pass"
        assert report[f"cts_snake_grid{grid}.status"] == "pass"
    assert report["failed"] == "0"


# ---------------------------------------------------------------------- bench


def test_bench_report_contract(capsys):
    code, out = run(
        capsys, "bench", "--lengths", "128,256,512", "--channels", "16",
        "--repeat", "3",
    )
    report = parse_report(out)
    assert code == EXIT_OK
    assert "exponent.ssm" in report
    assert "exponent.attention_baseline" in report
    assert float(report["time_ratio.ssm"]) > 0
    assert "n_points,kernel,time_min_s,time_median_s" in out
    assert out.count(",ssm,") == 3 and out.count(",attention_baseline,") == 3


def test_bench_time_is_linear_in_the_longest_length(capsys):
    # both kernels repeat longest // m times at length m, so a long last
    # length costs one call per kernel and repetition, not (4096 / 1) ** 2
    t0 = time.perf_counter()
    code, out = run(capsys, "bench", "--lengths", "1,4096", "--repeat", "1")
    assert code == EXIT_OK and out.count(",attention_baseline,") == 2
    assert time.perf_counter() - t0 < 30.0


def test_bench_has_no_baseline_option(capsys):
    # the attention baseline always runs
    code, _ = run(capsys, "bench", "--lengths", "128,256", "--baseline", "none")
    assert code == EXIT_USAGE


def test_bench_rejects_non_increasing_lengths(capsys):
    code, _ = run(capsys, "bench", "--lengths", "512,256")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["forward", "--gen", "sphere", "--n", "0"],
        ["serialize", "--gen", "sphere", "--n", "-3"],
        ["serialize", "--gen", "sphere", "--grid", "0"],
        ["serialize", "--gen", "sphere", "--window", "0"],
        ["inspect", "--n", "-5"],
        ["bench", "--channels", "0"],
        ["bench", "--lengths", "0,4"],
        ["bench", "--repeat", "0"],
        ["probe", "--per-class", "0"],
        ["probe", "--n", "0"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_count_flags_must_be_positive(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "is not a positive integer" in err
    assert "Traceback" not in err


# -------------------------------------------------------------------- inspect


def test_inspect_pcm_tiny_params(capsys):
    code, out = run(capsys, "inspect", "--config", "pcm-tiny")
    report = parse_report(out)
    assert code == EXIT_OK
    total = int(report["params.total"])
    assert abs(total - 6.9e6) <= 0.15 * 6.9e6
    assert report["published.params"] == "6900000"
    assert "flops.total_mac" in report


def test_inspect_pcm_params(capsys):
    code, out = run(capsys, "inspect", "--config", "pcm")
    report = parse_report(out)
    assert code == EXIT_OK
    total = int(report["params.total"])
    assert abs(total - 34.2e6) <= 0.15 * 34.2e6


def test_inspect_groups_sum_to_total_with_one_line_per_stage(capsys):
    code, out = run(capsys, "inspect", "--config", "pcm")
    report = parse_report(out)
    assert code == EXIT_OK
    groups = {
        k: int(v) for k, v in report.items()
        if k.startswith("params.") and k not in ("params.total", "params.ratio_to_published")
    }
    assert sorted(k for k in groups if k.startswith("params.stages.")) == [
        f"params.stages.{i}" for i in range(4)
    ]
    assert sum(groups.values()) == int(report["params.total"])


def test_inspect_has_no_seed(capsys):
    # inspect draws no weights, so a seed could change no output
    assert main(["inspect", "--seed", "0"]) == EXIT_USAGE
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


# ---------------------------------------------------------------------- probe


def test_probe_runs_small(capsys):
    code, out = run(
        capsys, "probe", "--classes", "2", "--per-class", "5", "--n", "160", "--seed", "0",
    )
    report = parse_report(out)
    assert code == EXIT_OK
    assert 0.0 <= float(report["probe.test_accuracy"]) <= 1.0
    assert report["n_train"] == "8" and report["n_test"] == "2"


def test_usage_error_exit_code(capsys):
    assert main(["serialize", "--mode", "bogus"]) == EXIT_USAGE
    assert main(["nope"]) == EXIT_USAGE



# ------------------------------------------------------------------- fuzzing


def _fuzz_input(directory, kind):
    path = directory / "input.xyz"
    if kind == "directory":
        path.mkdir()
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "non-UTF-8":
        path.write_bytes(b"0 0 0\n\xff\xfe 1 1\n")
    elif kind in ("valid", "features", "huge extent"):
        rng = np.random.default_rng(5)
        coords = rng.uniform(-1.0, 1.0, size=(64, 3)) * (1e308 if kind == "huge extent" else 1.0)
        features = rng.uniform(size=(64, 1)) if kind == "features" else None
        write_xyz(PointCloud(coords, features=features), path)
    return path  # "missing": never created


def _fuzz_weights(directory, kind, task, data):
    path = directory / "w.pcmw"
    if kind == "missing":
        return path
    from pcmamba.io import save_weights
    from pcmamba.model import build_model

    model = build_model(
        small_config(task=TASK_CLASSIFICATION if task == "cls" else TASK_SEGMENTATION)
    )
    save_weights(model, path)
    raw = bytearray(path.read_bytes())
    if kind == "empty":
        raw = bytearray()
    elif kind == "truncated":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="keep bytes")]
    elif kind == "header-mutated":
        # magic, version, count and the first tensor's header before its dims
        header = 12 + 2 + len(next(model.named_params())[0]) + 2
        raw[data.draw(st.integers(0, header - 1), label="offset")] = data.draw(
            st.integers(0, 255), label="byte"
        )
    path.write_bytes(bytes(raw))
    return path


_INPUT_KINDS = ("missing", "directory", "empty", "non-UTF-8", "valid", "features", "huge extent")
_WEIGHT_KINDS = (None, "missing", "empty", "truncated", "header-mutated", "valid")
_JUNK_TEXT = st.text(max_size=4)


def _often(valid, other):
    """Draws a valid value about half the time, and otherwise any of ``other``."""
    return st.one_of(st.sampled_from(valid), other)


# small entries keep each example's bench run short
_LENGTHS = st.one_of(
    st.lists(st.integers(1, 48), min_size=2, max_size=4, unique=True).map(sorted),
    st.lists(
        st.one_of(st.integers(-3, 48), st.sampled_from(["", " ", "x", "1.5", "0x10"])),
        max_size=4,
    ),
).map(lambda entries: ",".join(map(str, entries)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(("forward", "serialize", "bench", "verify")))
def test_fuzzed_cli_arguments_exit_0_2_or_3(tmp_path_factory, data, command):
    directory = tmp_path_factory.mktemp("cli")
    if command in ("forward", "serialize"):
        kind = data.draw(_often(["valid"], st.sampled_from(_INPUT_KINDS)), label="input")
        argv = [command, "--input", str(_fuzz_input(directory, kind))]
    if command == "forward":
        config = directory / "small.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        task = data.draw(st.sampled_from(["cls", "seg"]), label="task")
        argv += ["--config", str(config), "--task", task]
        weights = data.draw(
            _often([None, "valid"], st.sampled_from(_WEIGHT_KINDS)), label="weights"
        )
        if weights is not None:
            argv += ["--weights", str(_fuzz_weights(directory, weights, task, data))]
    elif command == "serialize":
        order = data.draw(_often(ORDER_NAMES, _JUNK_TEXT), label="order")
        mode = data.draw(_often(["paper", "bijective"], _JUNK_TEXT), label="mode")
        argv += [f"--order={order}", f"--mode={mode}", "--grid", "8"]
    elif command == "bench":
        lengths = data.draw(_LENGTHS, label="lengths")
        argv = [command, f"--lengths={lengths}", "--channels", "4", "--repeat", "1"]
    else:  # the model and all suites take seconds each and run in their own tests
        suite = data.draw(_often(["serialization", "ssm", "gam"], _JUNK_TEXT), label="suite")
        argv = [command, f"--suite={suite}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"{command} exits {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO), (argv, err.getvalue())
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue()
    if code != EXIT_OK:
        assert err.getvalue().startswith(("error:", "usage:")), err.getvalue()
    if command in ("forward", "serialize") and kind not in ("valid", "features"):
        assert code in (EXIT_USAGE, EXIT_IO)
    if command == "forward" and weights in ("missing", "empty", "truncated"):
        assert code == EXIT_IO, err.getvalue()
