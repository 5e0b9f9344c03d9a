"""Traced run: per-layer self times, call counts and guard headroom.

The traced run replays all three workloads serially (one worker) with the
lapbs layer functions wrapped from outside the package, so each call is a
span.  A layer's self time is its spans' time minus the time of the layer
spans nested in them (``cn.march2d`` minus its ``fem2d.factor`` calls, say).
The same problems also run untraced at one worker, which gives the
coverage and overhead of the trace, and once more pooled, which gives the
parallel layer's figures.
"""

import functools
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from lapbs import analytic, cn, experiments, fem1d, fem2d, inversion, parallel

import workloads

# Solve-residual guards, as the fem modules apply them.
BANDED_TOL = 1e-12
SPARSE_TOL = 1e-10

HOOK = "trace.hook"          # harness work done inside the trace
SETUP_SPANS = ("experiments.reference_load",)


class Tracer:
    """Spans kept in memory, with self time and calls totalled per name."""

    def __init__(self):
        self.spans = []                    # (name, start, end)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.peaks = {}
        self._child_s = []

    @contextmanager
    def span(self, name):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += end - start
            self.self_s[name] += end - start - child
            self.calls[name] += 1
            self.spans.append((name, start, end))

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def count_exact(self, exact):
        """Wrap the exact-solution callable handed to ``l2_error``."""
        def counted(x):
            self.counts["analytic.exact_calls"] += 1
            self.counts["analytic.exact_points"] += int(np.size(x))
            return exact(x)
        return counted


def _banded_headroom(tracer, args, result):
    bands, rhs = args[0]
    sol = getattr(result, "values", result)
    res = bands[1] * sol
    res[:-1] += bands[0, 1:] * sol[1:]
    res[1:] += bands[2, :-1] * sol[:-1]
    scale = np.linalg.norm(bands) * np.linalg.norm(sol) + np.linalg.norm(rhs)
    tracer.peak("fem1d.residual_headroom",
                np.linalg.norm(res - rhs) / (BANDED_TOL * max(scale, 1.0)))


def _sparse_headroom(tracer, args, result):
    a, rhs = args[0]
    scale = np.linalg.norm(rhs)
    if scale > 0:
        tracer.peak("fem2d.residual_headroom",
                    np.linalg.norm(a @ result - rhs) / (SPARSE_TOL * scale))


def _lu_nnz(tracer, args, result):
    tracer.peak("fem2d.lu_nnz", result.L.nnz + result.U.nnz)


def _steps(tracer, args, result):
    tracer.counts["cn.steps"] += args[2].steps


def _imag_residual(tracer, args, result):
    ensemble, times = args[0], args[1]
    invert_at = inversion.invert_at
    invert_at = getattr(invert_at, "__wrapped__", invert_at)
    for t in times:
        _, residual = invert_at(ensemble, t, return_residual=True)
        tracer.peak("inversion.imag_residual_max", residual)


def _count_invert(tracer, args, result):
    tracer.counts["inversion.invert_calls"] += 1


# (module, attribute, span name or None to count only, hook)
LAYERS = [
    (experiments, "reference_solution", "experiments.reference_load", None),
    (parallel, "solve_ensemble", "parallel.solve_ensemble", None),
    (fem1d, "assemble", "fem1d.assemble", None),
    (fem1d, "solve", "fem1d.solve", _banded_headroom),
    (fem2d, "build_matrices", "fem2d.build", None),
    (fem2d, "assemble2d", "fem2d.assemble", None),
    (fem2d, "splu", "fem2d.factor", _lu_nnz),
    (cn, "splu", "fem2d.factor", _lu_nnz),
    (fem2d, "solve2d", "fem2d.solve", _sparse_headroom),
    (fem2d, "relative_l2", "fem2d.relative_l2", None),
    (inversion, "invert_many", "inversion.invert", _imag_residual),
    (inversion, "invert_at", None, _count_invert),
    (analytic, "l2_error", "analytic.l2_error", None),
    (cn, "march1d", "cn.march1d", _steps),
    (cn, "march2d", "cn.march2d", _steps),
]


def _wrap(tracer, fn, name, hook):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        if hook is not None:
            with tracer.span(HOOK):
                try:
                    hook(tracer, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # a layer whose signature changed loses its guard
                    # figure, not the whole traced run
                    tracer.counts[HOOK + "_errors"] += 1
        return result
    return call


@contextmanager
def traced(tracer):
    """Wrap every layer function that exists; restore them on exit."""
    saved = []
    try:
        for module, attr, name, hook in LAYERS:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, name, hook))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def node_times(spans, start, end):
    """Per-node work (assembly + factor + solve) of one serial ensemble."""
    times, pending = [], 0.0
    for name, s, e in sorted((sp for sp in spans if start <= sp[1] <= end),
                             key=lambda sp: sp[1]):
        if name == "fem2d.assemble":
            pending += e - s
        elif name == "fem2d.solve":
            times.append(pending + e - s)
            pending = 0.0
    return times


def blas_slowdown(pinned, default):
    """Median default-threading time over the pinned median, and the
    quartile spread of the default-threading times over their median."""
    base = statistics.median(pinned)
    med = statistics.median(default)
    q1, _, q3 = statistics.quantiles(default, n=4)
    return med / base, (q3 - q1) / med


def run(seed, size, blas_probe):
    """All per-layer metrics; ``blas_probe(default_threads)`` returns the
    pooled 2D ensemble times measured in a separate process."""
    built = [workloads.build(w, seed, size) for w in workloads.WORKLOADS]
    problems = [p for w in built for p in w.problems]
    pool_problem = next(p for p in problems if p.name == "table6_dirichlet")

    tracer = Tracer()
    with traced(tracer):
        workloads.load_reference()
    # untraced and traced runs alternate problem by problem, so that a
    # drift in machine load between them does not read as trace overhead
    serial, replay = workloads.PassResult(), workloads.PassResult()
    for p in problems:
        serial.merge(workloads.run_pass([p], workers=1, keep=True))
        with traced(tracer):
            replay.merge(workloads.run_pass([p], workers=1, keep=True,
                                            exact_wrap=tracer.count_exact))
    pooled = workloads.run_pass([pool_problem], keep=True)
    one = serial.outputs.get(pool_problem.name)
    two = pooled.outputs.get(pool_problem.name)
    bitwise = (one is not None and two is not None
               and np.array_equal(one.ensemble.values, two.ensemble.values))

    nodes = node_times(tracer.spans,
                       *replay.windows.get(pool_problem.name, (0.0, 0.0)))
    ideal = max(sum(nodes[w::workloads.POOL_WORKERS])
                for w in range(workloads.POOL_WORKERS))
    slowdown, spread = blas_slowdown(blas_probe(False), blas_probe(True))

    untraced_s = serial.price_s + serial.verify_s
    layer_s = sum(v for k, v in tracer.self_s.items()
                  if k != HOOK and k not in SETUP_SPANS)
    serial_s = one.row.wall_time if one else math.nan
    pool_s = two.row.wall_time if two else math.nan
    s, c, n = tracer.self_s, tracer.calls, tracer.counts
    metrics = {
        "fem1d.assemble_s": s["fem1d.assemble"],
        "fem1d.assemble_calls": c["fem1d.assemble"],
        "fem1d.solve_s": s["fem1d.solve"],
        "analytic.l2_error_s": s["analytic.l2_error"],
        "analytic.exact_calls": n["analytic.exact_calls"],
        "analytic.exact_points": n["analytic.exact_points"],
        "fem2d.build_s": s["fem2d.build"],
        "fem2d.assemble_s": s["fem2d.assemble"],
        "fem2d.assemble_calls": c["fem2d.assemble"],
        "fem2d.factor_s": s["fem2d.factor"],
        "fem2d.factor_calls": c["fem2d.factor"],
        "fem2d.solve_s": s["fem2d.solve"],
        "fem2d.lu_nnz": tracer.peaks.get("fem2d.lu_nnz", 0),
        "fem2d.relative_l2_s": s["fem2d.relative_l2"],
        "cn.march1d_s": s["cn.march1d"],
        "cn.march2d_s": s["cn.march2d"],
        "cn.steps": n["cn.steps"],
        "parallel.serial_s": serial_s,
        "parallel.pool_s": pool_s,
        "parallel.speedup": serial_s / pool_s,
        "parallel.pool_overhead_s": pool_s - ideal,
        "parallel.bitwise_equal": int(bitwise),
        "parallel.blas_default_slowdown": slowdown,
        "parallel.blas_default_slowdown_spread": spread,
        "inversion.invert_s": s["inversion.invert"],
        "inversion.invert_calls": n["inversion.invert_calls"],
        "inversion.imag_residual_max":
            tracer.peaks.get("inversion.imag_residual_max", 0.0),
        "experiments.reference_load_s": s["experiments.reference_load"],
        "contour.margin": min(w.margin for w in built),
        "fem1d.residual_headroom":
            tracer.peaks.get("fem1d.residual_headroom", 0.0),
        "fem2d.residual_headroom":
            tracer.peaks.get("fem2d.residual_headroom", 0.0),
        "trace.coverage": layer_s / untraced_s,
        "trace.overhead_s":
            replay.price_s + replay.verify_s - untraced_s,
    }
    # the bit-identity of the 1- and 2-worker ensembles is one more check
    attempted = serial.attempted + pooled.attempted + replay.attempted + 1
    failed = serial.failed + pooled.failed + replay.failed + (not bitwise)
    if tracer.counts[HOOK + "_errors"]:
        print(f"trace: {tracer.counts[HOOK + '_errors']} guard hooks failed; "
              "their figures read 0", file=sys.stderr)
    return metrics, attempted, failed
