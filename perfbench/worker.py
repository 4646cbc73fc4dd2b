"""One workload in one process: set up, run the closed loop, check, report.

Started by run.py with the program's ``src`` on PYTHONPATH and the BLAS
thread count fixed. Modes:

  --make-archive PATH   build the preset's seeded model and save its weights
  --setup-only          import the program (and load the weights), report the time
  (default)             set up, then run whole rounds of the workload

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()  # before numpy or the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def set_up(workload_name: str, archive: str | None):
    """Import the program and load the weights: the work before a first request."""
    import pcmamba
    import pcmamba.cli  # noqa: F401  (locality requests enter through the CLI)

    model = None
    if archive:
        from workloads import WORKLOADS

        preset, task, classes = WORKLOADS[workload_name].preset
        config = pcmamba.model.preset_config(preset, task=task, num_classes=classes)
        model = pcmamba.io.load_weights(archive, config)
    return pcmamba, model


def environment() -> dict:
    """Python, numpy, BLAS and the thread count BLAS reports in this process."""
    import ctypes
    import glob
    import platform

    import numpy as np

    env = {"python": platform.python_version(), "numpy": np.__version__, "blas": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name', 'unknown')}-{blas.get('version', '')}".rstrip("-")
    except (KeyError, TypeError):
        pass
    env["blas_threads"] = "unreported"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    env["openblas_num_threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return env


def timed(workload, pcm, model, item):
    t0 = time.perf_counter()
    out = workload.request(pcm, model, item)
    return out, time.perf_counter() - t0


def run_rounds(workload, seconds, seed, workdir, round_fn):
    """Start whole rounds until their wall time reaches ``seconds``; returns that time."""
    spent, r = 0.0, 0
    while spent < seconds:
        items = workload.make_round(seed, r, workdir)
        t0 = time.perf_counter()
        round_fn(r, items)
        spent += time.perf_counter() - t0
        r += 1
    return spent


def loop(workload, pcm, model, seed, seconds, workdir):
    """Untraced closed loop: end-to-end metrics."""
    latencies, problems = [], []
    failed = attempted = 0
    rounds = []

    def one_round(r, items):
        nonlocal failed, attempted
        outputs = []
        for item in items:
            attempted += 1
            try:
                out, dt = timed(workload, pcm, model, item)
            except Exception as exc:  # a failed request is counted, not fatal
                failed += 1
                problems.append(f"request failed: {type(exc).__name__}: {exc}")
                out, dt = None, None
            outputs.append(out)
            if dt is not None:
                latencies.append(dt)
        rounds.append((items, outputs))

    workload.request(pcm, model, workload.warm_item(workdir))  # one-off page-ins; not timed
    wall = run_rounds(workload, seconds, seed, workdir, one_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for items, outputs in rounds:
        if all(out is not None for out in outputs):
            problems += workload.check_round(items, outputs)
    problems += workload.check_fixed(pcm, workdir)
    done = attempted - failed
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "latency_p50_s": statistics.median(latencies) if latencies else 0.0,
            "clouds_per_s": done / wall,
            "peak_rss_mb": peak_rss_mb,
        },
    }


def traced_loop(workload, pcm, model, seed, seconds, workdir, tracer, setup_problems):
    """Each request is sent untraced and traced, in alternating order; outputs must agree bit for bit."""
    import numpy as np

    import oracles

    rng = np.random.default_rng([seed, 7])
    plain, traced_times, problems = [], [], list(setup_problems)
    failed = attempted = 0
    checked = {"knn": 0, "fps": 0}

    def oracle_checks():
        for query, base, k, neighbors in tracer.knn_log:
            rows = rng.choice(len(query), size=min(8, len(query)), replace=False)
            bad = oracles.check_knn_rows(query, base, k, neighbors, sorted(rows.tolist()))
            if bad:
                problems.append(bad)
            checked["knn"] += 1
        for coords, selected in tracer.fps_log:
            m = len(selected)
            steps = sorted({1, *rng.integers(1, m, size=2).tolist()}) if m > 1 else []
            bad = oracles.check_fps_steps(coords, selected, steps)
            if bad:
                problems.append(bad)
            checked["fps"] += 1

    def one_round(r, items):
        nonlocal failed, attempted
        outputs = []
        for i, item in enumerate(items):
            attempted += 2
            try:
                # alternate which goes first: a repeated input runs warmer the second time
                if i % 2:
                    out, dt = timed(workload, pcm, model, item)
                with tracer.request():
                    out_t, dt_t = timed(workload, pcm, model, item)
                if not i % 2:
                    out, dt = timed(workload, pcm, model, item)
            except Exception as exc:
                failed += 2
                problems.append(f"request failed: {type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            oracle_checks()
            plain.append(dt)
            traced_times.append(dt_t)
            if not workload.same_output(out, out_t):
                problems.append(f"{item['shape']}: traced output differs from untraced output")
            outputs.append(out)
        if all(out is not None for out in outputs):
            problems.extend(workload.check_round(items, outputs))

    workload.request(pcm, model, workload.warm_item(workdir))
    run_rounds(workload, seconds, seed, workdir, one_round)
    problems += workload.check_fixed(pcm, workdir)
    if checked["knn"] == 0:
        problems.append("no knn call was checked against the oracle")
    if workload.preset and checked["fps"] == 0:
        problems.append("no farthest_point_sample call was checked against the oracle")
    metrics = tracer.per_request()
    metrics["trace.request_s"] = statistics.median(traced_times) if traced_times else 0.0
    metrics["trace.overhead_s"] = (
        metrics["trace.request_s"] - statistics.median(plain) if plain else 0.0
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "oracle_checked": checked,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--archive", help="weight archive of the workload's preset")
    p.add_argument("--make-archive", metavar="PATH")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", default=".")
    args = p.parse_args(argv)

    if args.make_archive:
        import pcmamba

        from workloads import WORKLOADS

        preset, task, classes = WORKLOADS[args.workload].preset
        config = pcmamba.model.preset_config(preset, task=task, num_classes=classes)
        tmp = f"{args.make_archive}.{os.getpid()}.tmp"
        pcmamba.io.save_weights(pcmamba.model.build_model(config), tmp)
        os.replace(tmp, args.make_archive)
        print(json.dumps({"archive": args.make_archive}))
        return 0

    if args.trace:
        import pcmamba  # imported first so the tracer can see its modules
        import pcmamba.cli  # noqa: F401

        import oracle_tests
        from tracer import Tracer

        tracer = Tracer(pcmamba.model.estimate_flops)
        with tracer.tracing():
            pcm, model = set_up(args.workload, args.archive)
        setup_problems = [f"oracle self-test failed: {name}" for name in oracle_tests.run_all()]
    else:
        pcm, model = set_up(args.workload, args.archive)
    setup_s = time.perf_counter() - SETUP_START
    pcm_file = Path(pcm.__file__).resolve()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "program": str(pcm_file)}))
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    if args.trace:
        result = traced_loop(
            workload, pcm, model, args.seed, args.seconds, workdir, tracer, setup_problems
        )
    else:
        result = loop(workload, pcm, model, args.seed, args.seconds, workdir)
        result["setup_s"] = setup_s
    result["program"] = str(pcm_file)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
