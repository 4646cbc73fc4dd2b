"""pcmamba benchmark: one workload, one closed-loop client, one JSON result.

    python3 perfbench/run.py --workload cls-pcm-1024 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``). ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones. Weight archives are built once into ``.perfbench_cache/``
and reused while the program's sources are unchanged. The environment goes
to ``env.*`` lines; the last line of standard output is the JSON result.
Timings are wall-clock only: no hardware counters, no whole-machine tracing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
CACHE = ROOT / ".perfbench_cache"
WORKLOADS = ("cls-pcm-1024", "seg-tiny-8192", "locality-2048")
FORWARD = {"cls-pcm-1024": "pcm-cls15", "seg-tiny-8192": "pcm-tiny-seg50"}
SETUP_SAMPLES = 5  # set-ups per run, the worker's own included; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {"latency_p50_s": "s", "clouds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """PYTHONPATH to this checkout's program; BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        env[var] = str(min(int(current), threads) if current.isdigit() and int(current) > 0 else threads)
    return env


def call_worker(args, deadline) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=worker_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args[:2])} ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args[:2])} exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pcmamba").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def archive_for(workload: str, deadline) -> str | None:
    """The workload's weight archive, built on first use for these sources."""
    if workload not in FORWARD:
        return None
    CACHE.mkdir(exist_ok=True)
    path = CACHE / f"{FORWARD[workload]}-{source_digest()}.pcmw"
    if not path.exists():
        for stale in CACHE.glob(f"{FORWARD[workload]}-*.pcmw"):
            stale.unlink()
        call_worker(["--workload", workload, "--make-archive", str(path)], deadline)
    return str(path)


def environment(worker_env_report: dict) -> list:
    """env.* report lines; the worker reports what it saw of numpy and BLAS."""
    lines = [f"env.{key}={value}" for key, value in worker_env_report.items()]
    return lines + [
        f"env.nproc={nproc()}",
        f"env.machine={platform.machine()}",
        "env.hardware_counters=none",
        "env.whole_machine_tracing=none",
        "env.client=closed loop, 1 client, 1 process",
    ]


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "pcmamba" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src' / 'pcmamba'}")
    archive = archive_for(args.workload, deadline)
    workdir = CACHE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        common += ["--archive", archive] if archive else []
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(call_worker(common + ["--setup-only"], deadline)["setup_s"])
        result = call_worker(
            common
            + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)],
            deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = (ROOT / "src" / "pcmamba" / "__init__.py").resolve()
    if Path(result["program"]) != expected:
        raise BenchError(f"measured {result['program']}, not {expected}")
    if not args.trace:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples"] = setups
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="pcmamba end-to-end and per-layer benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lines = [f"workload={args.workload}", f"seed={args.seed}", f"trace={args.trace}"]
    lines += environment(result["env"])
    lines.append(f"attempted={result['attempted']}")
    lines.append(f"failed={result['failed']}")
    for problem in result["problems"]:
        lines.append(f"problem={problem}")
    if "oracle_checked" in result:
        lines.append(f"oracle.knn_calls_checked={result['oracle_checked']['knn']}")
        lines.append(f"oracle.fps_calls_checked={result['oracle_checked']['fps']}")
    if "setup_samples" in result:
        lines.append("setup_samples_s=" + ",".join(f"{s:.6f}" for s in result["setup_samples"]))
    metrics = {}
    for name, value in result["metrics"].items():
        unit = END_TO_END_UNITS.get(name) or per_layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name}={value!r} {unit}")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("gmac_per_s", "GMAC/s"), ("_per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
