"""Steadiness mode: run workloads repeatedly and report each metric's spread.

    python3 perfbench/steady.py --runs 1          # every workload once
    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workloads seg-tiny-8192 --runs 5 --trace 1
    python3 perfbench/steady.py --runs 10 --write-bounds

Each run is the command in BENCHMARK.json with its ``run_seconds`` and a
new seed. For every workload and metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, plus the share of failed
requests. ``--write-bounds`` sets each end-to-end bound in BENCHMARK.json to
three times the widest spread seen on any workload, at least FLOOR and at
most CAP; ``setup_s`` gets CAP, since set-up time moves with the file cache.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
FLOOR, CAP = 0.05, 0.25


def one_run(spec, workload, seed, trace) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        problems = [line for line in lines if line.startswith("problem=")]
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks: {problems}")
    return result


def spread(values) -> tuple:
    """(median, q1, q3, (q3 - q1) / median); one value has no spread."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="repeat benchmark runs and report their spread")
    p.add_argument("--workloads", default=",".join(names), help="comma-separated names")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-bounds", action="store_true", help="set end-to-end bounds in BENCHMARK.json")
    args = p.parse_args(argv)

    widest = {}
    for workload in args.workloads.split(","):
        results = [
            one_run(spec, workload, seed, args.trace)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(
            f"workload={workload} runs={args.runs} attempted={attempted} failed={failed} "
            f"failed_share={','.join(map(str, shares))}"
        )
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            med, q1, q3, share = spread(values)
            widest[metric] = max(widest.get(metric, 0.0), share)
            print(f"  {metric}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} {unit} spread={share:.4f}")
            print("    values=" + ",".join(f"{v:.6g}" for v in values))

    if args.write_bounds:
        if args.trace:
            raise SystemExit("bounds are set from untraced runs (--trace 0)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name == "setup_s":
                metric["bound"] = CAP
            elif name in widest:
                metric["bound"] = min(CAP, max(FLOOR, math.ceil(300 * widest[name]) / 100))
        SPEC.write_text(json.dumps(spec, indent=2) + "\n")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name in widest:
            print(f"bound {name}={metric['bound']} widest_spread={widest[name]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
