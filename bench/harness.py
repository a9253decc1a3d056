"""Measurement loops, metrics and output of the benchmark; ``run.py`` is the entry point.

With ``--trace 0`` a run reports the end-to-end metrics of BENCHMARK.json from
untraced operations; with ``--trace 1`` it reports the per-layer metrics
from traced operations, interleaved with untraced ones to measure the
tracing overhead. The last line of standard output is one JSON object; the
line before it holds the details (quality numbers, failures by type,
warnings, environment). ``bench/README.md`` explains each metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import layers
from pgd.errors import NumericalError
from tracer import Tracer
from workloads import WORKLOADS, CheckFailed, derive_seed

MIN_OPS = 3  # operations run even when --seconds is shorter than they take
# Time of reference() when the box is not busy (2-core x86-64 VM, NumPy 2.4 with
# OpenBLAS 0.3.31). End-to-end times are scaled to this speed; see README.md.
REFERENCE_S = 0.043
# Errors the package raises for a failed operation (BlowUpError is a NumericalError):
# recorded by type, never fatal.
PACKAGE_ERRORS = (NumericalError, ValueError)


@dataclass
class Op:
    """Outcome of one operation."""

    problem: int  # index of the set-up problem it ran on
    wall: float = 0.0
    cpu: float = 0.0
    work: int = 0  # completed work units: particle-steps or solves
    quality: dict = field(default_factory=dict)
    failure: str | None = None  # exception type, or the failed check
    warnings: list = field(default_factory=list)  # RuntimeWarnings recorded during the op
    span: int | None = None  # trace span of a traced op


def run_op(wl, problems: list, i: int, seed: int, tracer: Tracer | None = None) -> Op:
    """Time operation ``i`` on its problem, then check its output."""
    op = Op(problem=i % len(problems))
    problem = problems[op.problem]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out, work = wl.op(problem, seed)
            else:
                with tracer.active(wl.denoiser(problem)), tracer.span("op") as op.span:
                    out, work = wl.op(problem, seed)
        except PACKAGE_ERRORS as exc:
            op.failure = type(exc).__name__
        op.wall, op.cpu = time.perf_counter() - t0, time.process_time() - c0
    op.warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if op.failure is None:
        try:
            op.quality = wl.check(problem, out)
            op.work = work
        except CheckFailed as exc:
            op.failure = f"CheckFailed: {exc}"
    return op


def setup_problems(wl, seed: int, tracer: Tracer | None = None, after=None):
    """Build ``wl.setups`` problems, calling ``after()`` after each.

    Returns the problems, their set-up times and, when traced, their spans.
    """
    problems, times, spans = [], [], []
    for p in range(wl.setups):
        t0 = time.perf_counter()
        if tracer is None:
            problems.append(wl.setup(derive_seed(seed, 0, p)))
        else:
            with tracer.active(), tracer.span("setup") as span:
                problems.append(wl.setup(derive_seed(seed, 0, p)))
            spans.append(span)
        times.append(time.perf_counter() - t0)
        if after is not None:
            after()
    return problems, times, spans


def tail(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it.

    A run holds 6 to 30 operations, too few for a percentile above the median
    with 10 samples beyond it, so the tail is the 90th percentile.
    """
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((600, 600)) + 600.0 * np.eye(600)
_REF_RHS = _REF_RNG.standard_normal(600)


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed kernel that does not use ``pgd``.

    It mixes the two kinds of work the workloads do: interpreter-bound
    operations on small arrays (as in the stencils) and a dense LAPACK solve
    (as in the denoiser and the helmholtz solve). The box slows both when it
    is busy, the first more than the second.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    a = np.arange(256.0).reshape(16, 16)
    for _ in range(2000):
        a = np.roll(a, 1, axis=0) * 0.5 + a[::-1] * 0.5
    for _ in range(3):
        np.linalg.solve(_REF_MATRIX, _REF_RHS)
    return time.perf_counter() - t0, time.process_time() - c0


def speed_factors(refs: list[tuple[float, float]], kind: int) -> list[float]:
    """``REFERENCE_S`` over the mean of the reference times on either side of each interval.

    ``refs`` holds one reference before the first interval and one after each;
    ``kind`` 0 uses wall time, 1 CPU time.
    """
    return [2.0 * REFERENCE_S / (a[kind] + b[kind]) for a, b in zip(refs, refs[1:])]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


def quality_summary(ops: list[Op]) -> dict[str, float]:
    """Medians of each quality number over the completed operations; log-evidence spread."""
    done = [op for op in ops if op.failure is None]
    keys = sorted({k for op in done for k in op.quality if k != "log_z"})
    out = {k: statistics.median(op.quality[k] for op in done if k in op.quality) for k in keys}
    by_problem: dict[int, list[float]] = {}
    for op in done:
        if "log_z" in op.quality:
            by_problem.setdefault(op.problem, []).append(op.quality["log_z"])
    spreads = [statistics.variance(v) for v in by_problem.values() if len(v) > 1]
    if spreads:
        out["log_z_sd"] = float(np.sqrt(np.mean(spreads)))
    return out


def measure(wl, seed: int, seconds: float):
    """Untraced run: set-ups, then operations until ``seconds`` have passed.

    The reference kernel runs before the first set-up and after every set-up
    and operation; each time is scaled by the box speed seen on either side.
    """
    refs = [reference()]
    problems, setup_times, _ = setup_problems(wl, seed, after=lambda: refs.append(reference()))
    ops: list[Op] = []
    t0 = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - t0 < seconds:
        ops.append(run_op(wl, problems, len(ops), derive_seed(seed, 1, len(ops))))
        refs.append(reference())
    elapsed = time.perf_counter() - t0

    wall_f, cpu_f = speed_factors(refs, 0), speed_factors(refs, 1)
    n_setup = len(setup_times)
    scaled = [(op, wall_f[n_setup + i], cpu_f[n_setup + i]) for i, op in enumerate(ops)]
    # times of completed operations; if every one failed, their times to failure
    done = [t for t in scaled if t[0].failure is None] or scaled
    walls = [op.wall * f for op, f, _ in done]
    raw_walls = [op.wall for op, _, _ in done]
    work = sum(op.work for op in ops)
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in zip(setup_times, wall_f)), "s"),
        "run_s_p50": (statistics.median(walls), "s"),
        "run_s_tail": (tail(walls)[0], "s"),
        "cpu_s_p50": (statistics.median(op.cpu * f for op, _, f in done), "s"),
        "work_per_s": (work / sum(op.wall * f for op, f, _ in scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "unscaled": {
            "setup_s": statistics.median(setup_times),
            "run_s_p50": statistics.median(raw_walls),
            "run_s_tail": tail(raw_walls)[0],
            "cpu_s_p50": statistics.median(op.cpu for op, _, _ in done),
            "work_per_s": work / elapsed,
        },
        "reference_s": {"median": statistics.median(r[0] for r in refs), "min": min(r[0] for r in refs),
                        "max": max(r[0] for r in refs)},
        "run_s_tail": {"percentile": 90, "samples": len(walls), "beyond": tail(walls)[1]},
        "work_unit": wl.work_unit,
        "quality": quality_summary(ops),
        "runtime_warnings": sum(len(op.warnings) for op in ops),
        "setup_s_all": setup_times,
        "op_wall_s": [op.wall for op in ops],
    }
    return metrics, ops, detail


def measure_traced(wl, seed: int, seconds: float):
    """Traced run: traced set-ups, then pairs of one untraced and one traced operation
    on the same seed, alternating which goes first, until ``seconds`` have passed.
    Per-layer metrics come from the first ``wl.trace_ops`` traced operations; the
    tracing overhead from every pair."""
    tracer = Tracer()
    problems, _, setup_spans = setup_problems(wl, seed, tracer)
    ops: list[Op] = []
    traced: list[Op] = []
    ratios: list[float] = []
    t0 = time.perf_counter()
    while len(traced) < max(wl.trace_ops, MIN_OPS) or time.perf_counter() - t0 < seconds:
        i = len(traced)
        op_seed = derive_seed(seed, 1, i)
        if i % 2:
            t_op = run_op(wl, problems, i, op_seed, tracer)
            u_op = run_op(wl, problems, i, op_seed)
        else:
            u_op = run_op(wl, problems, i, op_seed)
            t_op = run_op(wl, problems, i, op_seed, tracer)
        ops += [u_op, t_op]
        traced.append(t_op)
        if t_op.failure is None and u_op.failure is None:
            ratios.append(t_op.wall / u_op.wall)
    metrics = layers.per_layer(wl, tracer, traced[: wl.trace_ops], setup_spans)
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0 if ratios else 0.0, "frac")
    detail = {
        "trace_pairs": len(traced),
        "spans": len(tracer.name),
    }
    return metrics, ops, detail


def report_warnings(ops: list[Op]) -> None:
    """Show each distinct recorded RuntimeWarning once on stderr, with its count."""
    counts = Counter(
        (w.category.__name__, str(w.message), w.filename, w.lineno) for op in ops for w in op.warnings
    )
    for (cat, msg, fname, line), n in counts.items():
        print(f"{fname}:{line}: {cat}: {msg} (x{n})", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    measure_fn = measure_traced if args.trace else measure
    metrics, ops, detail = measure_fn(wl, args.seed, args.seconds)
    failures = Counter(op.failure for op in ops if op.failure)
    detail.update(
        workload=wl.name,
        trace=args.trace,
        fail_frac={k: n / len(ops) for k, n in failures.items()},
        environment=environment(args.seed),
    )
    report_warnings(ops)

    failed = sum(failures.values())
    checks_failed = sum(n for k, n in failures.items() if k.startswith("CheckFailed"))
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": checks_failed == 0 and failed < len(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0

