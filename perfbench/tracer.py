"""Spans and counters around the program's public functions, from outside it.

``Tracer.tracing()`` swaps each traced function for a wrapper in every
loaded ``pcmamba`` module that refers to it (so ``from .sample import knn``
call sites are covered) and restores the originals on exit. A wrapper
records wall time; a span's self time is its duration minus the full time
of the wrapped calls inside it, wrapper cost included, so bookkeeping done
in a child (hashing kNN inputs, copying arrays for the oracles) is charged
to no span. Helpers that are not wrapped count toward their caller.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name); the two forward functions share one span.
TRACED = (
    ("pointset", "canonical_tiebreak_order", "pointset.canonical_tiebreak_order"),
    ("pointset", "normalize_unit_cube", "pointset.normalize_unit_cube"),
    ("sample", "knn", "sample.knn"),
    ("sample", "farthest_point_sample", "sample.farthest_point_sample"),
    ("sample", "interpolate_features", "sample.interpolate_features"),
    ("local", "local_aggregate", "local.local_aggregate"),
    ("serialize", "serialize", "serialize.serialize"),
    ("serialize", "locality_metrics", "serialize.locality_metrics"),
    ("serialize", "count_code_collisions", "serialize.count_code_collisions"),
    ("embed", "positional_embed", "embed.positional_embed"),
    ("embed", "attach_prompts", "embed.attach_prompts"),
    ("ssm", "selective_ssm", "ssm.selective_ssm"),
    ("ssm", "mamba_block", "ssm.mamba_block"),
    ("ssm", "bidirectional_mamba", "ssm.bidirectional_mamba"),
    ("model", "encode", "model.encode"),
    ("model", "forward_classification", "model.forward"),
    ("model", "forward_segmentation", "model.forward"),
    ("io", "load_weights", "io.load_weights"),
    ("io", "read_xyz", "io.read_xyz"),
    ("cli", "main", "cli.main"),
)

SPANS = tuple(dict.fromkeys(span for _, _, span in TRACED))


def _coords(x) -> np.ndarray:
    return np.asarray(getattr(x, "coords", x), dtype=np.float64)


def _digest(a: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).digest()


def _mlp_macs_per_row(stack) -> int:
    affines = [] if stack.entry is None else [stack.entry]
    for block in stack.blocks:
        affines += [block.affine1, block.affine2]
    return sum(int(a.w.size) for a in affines)


def _mamba_block_macs(tokens: int, layer) -> int:
    """Multiply-accumulates of one direction, term by term as in model.estimate_flops."""
    di, s = layer.d_inner, layer.state_size
    per_token = (
        layer.in_proj_w.size
        + layer.conv_w.size
        + layer.dt_down_w.size
        + layer.dt_up_w.size
        + layer.b_proj_w.size
        + layer.c_proj_w.size
        + 4 * di * s
        + di
        + layer.out_proj_w.size
    )
    return tokens * int(per_token)


class Tracer:
    """Per-span self time, inclusive time, calls and work counters.

    ``knn_log`` and ``fps_log`` keep copies of the inputs and outputs of the
    current request's kNN and farthest-point calls for the oracle checks.
    """

    def __init__(self, estimate_flops):
        self.estimate_flops = estimate_flops
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.distinct_ratios = []
        self.requests = 0
        self._stack = []
        self._knn_keys = set()
        self._knn_calls = 0
        self.knn_log = []
        self.fps_log = []

    # -- counters ---------------------------------------------------------

    def _count(self, span, args, kwargs, result):
        if span == "sample.knn":
            query, base = _coords(args[0]), _coords(args[1])
            k = int(args[2] if len(args) > 2 else kwargs["k"])
            self.counts["sample.knn.distance_evals"] += len(query) * len(base)
            self._knn_keys.add((_digest(query), _digest(base), k))
            self._knn_calls += 1
            self.knn_log.append((query.copy(), base.copy(), k, result.neighbors.copy()))
        elif span == "sample.farthest_point_sample":
            coords = _coords(args[0])
            m = int(args[1] if len(args) > 1 else kwargs["m"])
            self.counts["sample.farthest_point_sample.distance_evals"] += len(coords) * m
            start = args[2] if len(args) > 2 else kwargs.get("start", "deterministic_min")
            if start == "deterministic_min":
                self.fps_log.append((coords.copy(), np.array(result)))
        elif span == "local.local_aggregate":
            hood, phi1, phi2 = args[1], args[2], args[3]
            rows, centers = hood.neighbors.size, len(hood.centers)
            self.counts["local.local_aggregate.neighbor_rows"] += rows
            self.counts["local.local_aggregate.macs"] += rows * _mlp_macs_per_row(
                phi1
            ) + centers * _mlp_macs_per_row(phi2)
        elif span == "ssm.selective_ssm":
            u, layer = args[0], args[1]
            self.counts["ssm.selective_ssm.state_updates"] += u.size * layer.state_size
        elif span == "ssm.mamba_block":
            self.counts["ssm.mamba_block.macs"] += _mamba_block_macs(len(args[0]), args[1])
        elif span == "serialize.serialize":
            self.counts["serialize.serialize.points"] += args[0].cloud.n_points
        elif span == "model.forward":
            model, cloud = args[0], args[1]
            self.counts["model.macs"] += self.estimate_flops(model, cloud.n_points)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, span, fn):
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                inner = self._stack.pop()
                self.self_s[span] += (t1 - t0) - inner
                self.total_s[span] += t1 - t0
                self.calls[span] += 1
            self._count(span, args, kwargs, result)
            if self._stack:
                self._stack[-1] += time.perf_counter() - t_in
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    @contextlib.contextmanager
    def tracing(self):
        """Trace every call made inside the block; restore the program on exit."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "pcmamba"]
        swapped = []
        for mod_name, fn_name, span in TRACED:
            original = getattr(sys.modules[f"pcmamba.{mod_name}"], fn_name)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in swapped:
                setattr(mod, attr, original)

    @contextlib.contextmanager
    def request(self):
        """Trace one request; its kNN inputs are deduplicated within it."""
        self._knn_keys.clear()
        self._knn_calls = 0
        self.knn_log.clear()
        self.fps_log.clear()
        with self.tracing():
            yield self
        self.requests += 1
        if self._knn_calls:
            self.distinct_ratios.append(len(self._knn_keys) / self._knn_calls)

    # -- report -----------------------------------------------------------

    def per_request(self) -> dict:
        """Per-request averages of the traced requests (load_weights: per load)."""
        n = max(self.requests, 1)

        def rate(work, span):
            return work / self.total_s[span] if self.total_s[span] > 0 else 0.0

        out = {f"{span}.self_s": self.self_s[span] / n for span in SPANS}
        out["io.load_weights.self_s"] = self.self_s["io.load_weights"] / max(
            self.calls["io.load_weights"], 1
        )
        for span in (
            "sample.knn",
            "sample.farthest_point_sample",
            "pointset.canonical_tiebreak_order",
            "local.local_aggregate",
            "ssm.selective_ssm",
            "serialize.serialize",
        ):
            out[f"{span}.calls"] = self.calls[span] / n
        for name in (
            "sample.knn.distance_evals",
            "sample.farthest_point_sample.distance_evals",
            "local.local_aggregate.neighbor_rows",
            "ssm.selective_ssm.state_updates",
            "serialize.serialize.points",
        ):
            out[name] = self.counts[name] / n
        ratios = self.distinct_ratios
        out["sample.knn.distinct_input_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
        out["local.local_aggregate.gmac_per_s"] = (
            rate(self.counts["local.local_aggregate.macs"], "local.local_aggregate") / 1e9
        )
        out["ssm.selective_ssm.state_updates_per_s"] = rate(
            self.counts["ssm.selective_ssm.state_updates"], "ssm.selective_ssm"
        )
        out["ssm.mamba_block.gmac_per_s"] = (
            rate(self.counts["ssm.mamba_block.macs"], "ssm.mamba_block") / 1e9
        )
        out["model.gmac_per_s"] = rate(self.counts["model.macs"], "model.forward") / 1e9
        return out
