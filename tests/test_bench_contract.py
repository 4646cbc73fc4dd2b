"""The call shapes that the benchmark's per-layer trace reads.

``perfbench/tracer.py`` wraps the program's public functions from outside
and reads their arguments, for example ``args[0].cloud.n_points`` of
``serialize``. This test loads the tracer as it is and sends one request of
each workload kind through it on a small model, so that a signature change
fails here rather than in a traced benchmark run. A second test runs the
worker's archive path, ``--make-archive`` then ``--setup-only --archive``.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pcmamba.cli
import pcmamba.model
from conftest import random_cloud, small_config
from pcmamba.model import TASK_SEGMENTATION, build_model, estimate_flops


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _serialize_report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pcmamba.cli.main(["serialize", "--gen", "sphere", "--n", "128", "--compare-all"])
    return code, out.getvalue()


def test_traced_requests_equal_untraced_and_count_work():
    cls_model = build_model(small_config())
    seg_model = build_model(small_config(task=TASK_SEGMENTATION))
    cloud = random_cloud(n=96, seed=4)
    # through the module, as the benchmark's workloads call them, so the
    # tracer's wrappers are the functions called
    requests = (
        lambda: pcmamba.model.forward_classification(cls_model, cloud),
        lambda: pcmamba.model.forward_segmentation(seg_model, cloud),
        _serialize_report,
    )
    plain = [request() for request in requests]
    tracer = _load_tracer().Tracer(estimate_flops)
    with tracer.request():
        traced = [request() for request in requests]

    assert traced[0].tobytes() == plain[0].tobytes()
    assert traced[1].tobytes() == plain[1].tobytes()
    assert traced[2] == plain[2] and plain[2][0] == 0
    metrics = tracer.per_request()
    # the tracer adds estimate_flops(model, cloud.n_points) per forward
    n = cloud.n_points
    assert tracer.counts["model.macs"] == estimate_flops(cls_model, n) + estimate_flops(seg_model, n)
    for name in (
        "serialize.serialize.points",
        "local.local_aggregate.neighbor_rows",
        "sample.knn.calls",
    ):
        assert metrics[name] > 0, name


ROOT = Path(__file__).resolve().parents[1]


def _worker(*args):
    """The benchmark's worker as ``perfbench/run.py`` starts it; its last line, parsed."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_worker_builds_and_loads_an_archive(tmp_path):
    archive = tmp_path / "seg-tiny.pcmw"
    made = _worker("--workload", "seg-tiny-8192", "--make-archive", str(archive))
    assert made == {"archive": str(archive)}
    assert [p.name for p in tmp_path.iterdir()] == [archive.name]
    setup = _worker("--workload", "seg-tiny-8192", "--setup-only", "--archive", str(archive))
    assert isinstance(setup["setup_s"], float) and setup["setup_s"] > 0
    assert Path(setup["program"]).is_relative_to(ROOT / "src")
