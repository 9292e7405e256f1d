"""In-memory spans around the public functions of each expmc layer.

Functions are wrapped from outside, where they are looked up: a module
that did ``from .matops import combined_prox`` calls the name in its own
namespace, so the patch goes there (``expmc.estimator.combined_prox``),
not on the defining module. Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, meta]``; ``parent`` is the index of
the enclosing span or -1. ``summarize`` turns the spans of one pass into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from time import perf_counter

# (module, attribute path inside it, span name). The span name's prefix
# before the first dot is the layer.
PATCHES = [
    ("numpy.linalg", "svd", "linalg.svd"),
    ("expmc.matops", "svt", "matops.svt"),
    ("expmc.estimator", "combined_prox", "matops.combined_prox"),
    ("expmc.estimator", "nuclear_norm", "matops.nuclear_norm"),
    ("expmc.bench", "nuclear_norm", "matops.nuclear_norm"),
    ("expmc.estimator", "operator_norm", "matops.operator_norm"),
    ("expmc.bench", "operator_norm", "matops.operator_norm"),
    ("expmc.estimator", "neg_loglik", "estimator.neg_loglik"),
    ("expmc.estimator", "gradient", "estimator.gradient"),
    ("expmc.bench", "gradient", "estimator.gradient"),
    ("expmc.bench", "oracle_lambda", "estimator.oracle_lambda"),
    ("expmc.bench", "fit", "estimator.fit"),
    ("expmc.cli", "solve", "estimator.fit"),
    ("expmc.families", "ExponentialFamily.interval_constants", "families.interval_constants"),
    ("expmc.families", "ExponentialFamily.sample", "families.sample"),
    ("expmc.sampling", "SamplingScheme.draw", "sampling.draw"),
    ("expmc.bench", "rademacher_norm_estimate", "sampling.rademacher_norm_estimate"),
    ("expmc.bench", "gen_truth", "bench.gen_truth"),
    ("expmc.bench", "simulate", "bench.simulate"),
    ("expmc.bench", "resolve_lambda", "bench.resolve_lambda"),
    ("expmc.bench", "rate_sweep", "bench.rate_sweep"),
    ("expmc.bench", "concentration_check", "bench.concentration_check"),
    ("expmc.bench", "risk_report", "metrics.risk_report"),
    ("expmc.bench", "bound_value", "metrics.bound_value"),
    ("expmc.bench", "write_rows_csv", "io.write_rows_csv"),
    ("expmc.cli", "save_matrix_csv", "io.save_matrix_csv"),
    ("expmc.cli", "save_observations_csv", "io.save_observations_csv"),
    ("expmc.cli", "write_manifest", "io.write_manifest"),
]
IO_WRITERS = {"io.write_rows_csv", "io.save_matrix_csv", "io.save_observations_csv", "io.write_manifest"}


def svd_flops(a, compute_uv: bool) -> float:
    """Flop model of a thin LAPACK SVD of an ``m x n`` matrix (Golub & Van Loan,
    R-SVD): ``6 m n^2 + 20 n^3`` with vectors, ``4 m n^2 - 4 n^3 / 3`` without,
    for ``m >= n``. Computed from the shape, not counted by hardware."""
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    return 6.0 * m * n * n + 20.0 * n**3 if compute_uv else 4.0 * m * n * n - 4.0 * n**3 / 3.0


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the wrappers in."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, meta_fn=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid][1] = t0
                spans[sid][2] = t1
            if meta_fn is not None:
                spans[sid][4] = meta_fn(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        import expmc.cli

        for module, path, name in PATCHES:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, _meta_fn(name, original)))
        for cmd_name, cmd in expmc.cli.main.commands.items():
            self._saved.append((cmd, "callback", cmd.callback))
            cmd.callback = self._wrap("cli." + cmd_name.replace("-", "_"), cmd.callback)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_to(self, fh) -> None:
        """One JSON line per span: id, name, start, end, parent and its counts."""
        for i, (name, t0, t1, parent, meta) in enumerate(self.spans):
            rec = {"id": i, "name": name, "start": t0, "end": t1, "parent": parent}
            if meta:
                rec.update(meta)
            fh.write(json.dumps(rec) + "\n")


def _meta_fn(name: str, original):
    """Counts recorded at the boundary: SVD flops, prox cycle cap, bytes
    written, solver iterations."""
    if name == "linalg.svd":
        def svd_meta(args, kwargs, out):
            compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
            return {"flop": svd_flops(args[0] if args else kwargs["a"], bool(compute_uv))}
        return svd_meta
    if name == "matops.combined_prox":
        sig = inspect.signature(original)

        def prox_meta(args, kwargs, out):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return {"max_iters": int(bound.arguments["max_iters"])}
        return prox_meta
    if name in IO_WRITERS:
        def io_meta(args, kwargs, out):
            path = out if isinstance(out, (str, os.PathLike)) else args[0]
            return {"bytes": os.path.getsize(path)}
        return io_meta
    if name == "estimator.fit":
        def fit_meta(args, kwargs, out):
            return {"iterations": int(out.iterations), "accepted": len(out.objective_trace) - 1}
        return fit_meta
    return None


# Inclusive seconds and call counts are reported for these span names.
TIMED = [
    "matops.combined_prox", "matops.svt", "linalg.svd", "matops.nuclear_norm",
    "matops.operator_norm", "estimator.fit", "estimator.gradient", "estimator.neg_loglik",
    "estimator.oracle_lambda", "families.interval_constants", "families.sample",
    "sampling.draw", "sampling.rademacher_norm_estimate", "bench.simulate", "bench.gen_truth",
    "metrics.risk_report", "metrics.bound_value", "io.write_rows_csv", "io.save_matrix_csv",
    "io.save_observations_csv",
]
SELF_TIMED = ["matops.combined_prox", "estimator.fit"]
LAYER_SELF = ["bench", "cli"]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``<name>.s`` is inclusive time, counted once per outermost span of that
    name; ``.self_s`` subtracts the time covered by direct child spans.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0

    def outermost(i):
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    cycles = capped = svd_flop = io_bytes = iterations = accepted = 0
    prox_cycles: dict[int, int] = {}
    for i, (name, t0, t1, parent, meta) in enumerate(spans):
        dur = t1 - t0
        own = dur - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if outermost(i):
            incl[name] = incl.get(name, 0.0) + dur
        if name == "matops.svt" and parent >= 0 and spans[parent][0] == "matops.combined_prox":
            prox_cycles[parent] = prox_cycles.get(parent, 0) + 1
        if meta:
            svd_flop += meta.get("flop", 0.0)
            io_bytes += meta.get("bytes", 0)
            iterations += meta.get("iterations", 0)
            accepted += meta.get("accepted", 0)
    prox_calls = calls.get("matops.combined_prox", 0)
    for i, (name, _, _, _, meta) in enumerate(spans):
        if name == "matops.combined_prox":
            c = prox_cycles.get(i, 0)
            cycles += c
            capped += c >= meta["max_iters"]

    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = incl.get(name, 0.0)
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in LAYER_SELF:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["matops.combined_prox.cycles"] = cycles
    out["matops.combined_prox.capped_frac"] = capped / prox_calls if prox_calls else 0.0
    out["linalg.svd.gflop"] = svd_flop / 1e9
    out["estimator.fit.iterations"] = iterations
    out["estimator.fit.prox_per_iter"] = prox_calls / accepted if accepted else 0.0
    out["io.bytes_written"] = io_bytes
    return out


UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "cycles": "count", "iterations": "count",
    "capped_frac": "ratio", "prox_per_iter": "ratio", "gflop": "GFLOP", "bytes_written": "B",
}


def unit(key: str) -> str:
    return UNITS[key.rsplit(".", 1)[1]]
