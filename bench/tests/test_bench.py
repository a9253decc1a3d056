"""Self-test of the benchmark's tracer and output contract.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import layers  # noqa: E402
from pgd.errors import BlowUpError  # noqa: E402
from pgd.grid import Field  # noqa: E402
from tracer import MODULE_TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
COUNT_UNITS = ("calls/pstep", "calls/step", "iters", "frac", "count/op", "bytes")


@pytest.fixture(scope="module", params=["darcy_gem_pbs", "conjugate_gem_tds", "elliptic_datagen"])
def setup(request):
    wl = WORKLOADS[request.param]
    problems, _, _ = harness.setup_problems(wl, SEED)
    return wl, problems


def originals(wl, problems):
    names = {(m, a): vars(importlib.import_module(m))[a] for m, a, _ in MODULE_TARGETS}
    names["Field.__post_init__"] = vars(Field)["__post_init__"]
    den = wl.denoiser(problems[0])
    names["denoiser"] = dict(vars(den)) if den is not None else None
    return names


def traced_counts(wl, problems) -> dict[str, float]:
    tracer = Tracer()
    ops = [harness.run_op(wl, problems, i, 100 + i, tracer) for i in range(2)]
    assert all(op.failure is None for op in ops)
    metrics = layers.per_layer(wl, tracer, ops, [])
    return {name: value for name, (value, unit) in metrics.items() if unit in COUNT_UNITS}


def test_tracer_restores_every_name(setup):
    wl, problems = setup
    before = originals(wl, problems)
    tracer = Tracer()
    harness.run_op(wl, problems, 0, 7, tracer)
    assert len(tracer.name) > 1
    assert originals(wl, problems) == before


def test_traced_call_counts_repeat(setup):
    wl, problems = setup
    first, second = traced_counts(wl, problems), traced_counts(wl, problems)
    assert first == second
    if wl.particles:
        assert first["guidance.loglik_calls_per_pstep"] > 0


def test_tracing_leaves_results_bit_identical(setup):
    wl, problems = setup
    fresh = harness.run_op(wl, problems, 1, 11)
    traced = harness.run_op(wl, problems, 1, 11, Tracer())
    after = harness.run_op(wl, problems, 1, 11)
    assert fresh.failure is None and traced.failure is None and after.failure is None
    assert after.quality == fresh.quality
    assert traced.quality == fresh.quality


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS["conjugate_gem_tds"]
    metrics, ops, _ = harness.measure(wl, SEED, 0.0)
    assert len(ops) == harness.MIN_OPS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    assert all(v > 0 for v, _ in metrics.values())
    problems, _, _ = harness.setup_problems(wl, SEED)
    tracer = Tracer()
    layer = layers.per_layer(wl, tracer, [harness.run_op(wl, problems, 0, 1, tracer)], [])
    layer["trace.overhead_frac"] = (0.0, "frac")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_tail_percentile():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 0)
    assert harness.tail([float(v) for v in range(1, 41)]) == (36.0, 4)


def test_run_fails_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "darcy_gem_pbs", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_elliptic_check_rejects_a_wrong_solve():
    wl = WORKLOADS["elliptic_datagen"]
    out, _ = wl.op(None, SEED)
    system, samples = out[0]
    bad = Field(samples[0].spec, samples[0].values + np.eye(48)[None] * np.array([0.0, 1e-3])[:, None, None])
    with pytest.raises(harness.CheckFailed):
        wl.check(None, [(system, [bad])])


class FlakyWorkload:
    """Operation ``seed`` fails in a different way for seeds 0 to 2."""

    setups = 1

    def denoiser(self, problem):
        return None

    def op(self, problem, seed):
        if seed == 0:
            raise ValueError("field values must be finite")
        if seed == 1:
            raise BlowUpError("non-finite state", step=3)
        np.log(np.zeros(1))
        return seed, 1

    def check(self, problem, out):
        if out == 2:
            raise harness.CheckFailed("wrong output")
        return {}


def test_failures_are_recorded_by_type_and_warnings_counted():
    ops = [harness.run_op(FlakyWorkload(), [None], 0, seed) for seed in range(4)]
    assert [op.failure for op in ops] == ["ValueError", "BlowUpError", "CheckFailed: wrong output", None]
    assert [op.work for op in ops] == [0, 0, 0, 1]
    assert all(len(op.warnings) == 1 for op in ops[2:])
