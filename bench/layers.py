"""Per-layer metrics of a traced run, one entry per BENCHMARK.json ``per_layer`` metric.

Counts are per particle-step (``_per_pstep``, N x K per operation) or per
step (``_per_step``, K per operation) and repeat exactly for a given seed.
Times (``_s``) are seconds per operation. Every number is the median over
the traced operations; a metric a workload has no use for reads 0.
Solver metrics also take in the traced set-ups, where darcy_gem_pbs and
grayscott_sosag do their solves.
"""

from __future__ import annotations

import statistics

from tracer import STENCIL_SPANS, Tracer

GRID_SPANS = (*STENCIL_SPANS, "grid.shift")
ELLIPTIC_KINDS = ("poisson", "helmholtz", "darcy")
CG_KINDS = ("poisson", "darcy")


def _calls(agg, *names) -> int:
    return sum(agg[n][0] for n in names if n in agg)


def _total(agg, *names) -> float:
    return sum(agg[n][1] for n in names if n in agg)


def _self(agg, *names) -> float:
    return sum(agg[n][2] for n in names if n in agg)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_layer(wl, tracer: Tracer, ops: list, setup_spans: list[int]) -> dict[str, tuple[float, str]]:
    """Metrics from the traced operations ``ops`` and the traced set-ups."""
    roots = [op.span for op in ops if op.failure is None]
    aggs = [tracer.aggregate(r) for r in roots]
    psteps, steps = wl.particles * wl.steps, wl.steps

    def per_pstep(*names) -> float:
        return _median(_calls(a, *names) / psteps for a in aggs) if psteps else 0.0

    def per_step(*names) -> float:
        return _median(_calls(a, *names) / steps for a in aggs) if steps else 0.0

    def self_s(*names) -> float:
        return _median(_self(a, *names) for a in aggs)

    def total_s(*names) -> float:
        return _median(_total(a, *names) for a in aggs)

    m = {
        "grid.shift_calls_per_pstep": (per_pstep("grid.shift"), "calls/pstep"),
        "grid.stencil_calls_per_pstep": (per_pstep(*STENCIL_SPANS), "calls/pstep"),
        "grid.stencil_self_s": (self_s(*GRID_SPANS), "s"),
        "grid.field_validations_per_pstep": (per_pstep("grid.Field.__post_init__"), "calls/pstep"),
        "residuals.residual_calls_per_pstep": (per_pstep("residuals.residual"), "calls/pstep"),
        "residuals.grad_calls_per_pstep": (per_pstep("residuals.residual_sq_grad"), "calls/pstep"),
        "residuals.residual_self_s": (self_s("residuals.residual"), "s"),
        "residuals.grad_self_s": (self_s("residuals.residual_sq_grad"), "s"),
        "guidance.loglik_calls_per_pstep": (per_pstep("guidance.log_likelihood"), "calls/pstep"),
        "guidance.loglik_self_s": (self_s("guidance.log_likelihood"), "s"),
        "guidance.grad_calls_per_pstep": (per_pstep("guidance.data_log_likelihood_grad"), "calls/pstep"),
        "guidance.grad_self_s": (self_s("guidance.data_log_likelihood_grad"), "s"),
        "samplers.proposal_self_s": (self_s("samplers.gem_core", "samplers.heun_core"), "s"),
        "smc.self_s": (self_s("op") if psteps else 0.0, "s"),
        "priors.denoise_calls_per_step": (per_step("priors.denoise"), "calls/step"),
        "priors.denoise_s": (total_s("priors.denoise"), "s"),
        "priors.vjp_calls_per_step": (per_step("priors.vjp"), "calls/step"),
        "priors.vjp_s": (total_s("priors.vjp"), "s"),
        "smc.tds_term_s": (total_s("guidance.tds_transition_term"), "s"),
        "smc.resample_s": (total_s("smc.multinomial_resample"), "s"),
        "smc.resample_frac": (per_step("smc.multinomial_resample"), "frac"),
    }

    fracs = [f for r in roots for pos, f in tracer.ancestor_fracs if pos in tracer.subtree(r)]
    m["smc.unique_ancestor_frac"] = (_median(fracs) if fracs else float(psteps > 0), "frac")
    m["smc.runtime_warnings"] = (_median(len(op.warnings) for op in ops), "count/op")

    solve_roots = setup_spans + roots
    for kind in ELLIPTIC_KINDS:
        spans = [s for r in solve_roots for s in tracer.find(r, f"solvers.solve_elliptic.{kind}")]
        m[f"solvers.solve_s.{kind}"] = (_median(tracer.end[s] - tracer.start[s] for s in spans), "s")
        if kind in CG_KINDS:
            iters = (_calls(tracer.aggregate(s), *STENCIL_SPANS) for s in spans)
            m[f"solvers.cg_iters.{kind}"] = (_median(iters), "iters")
    dense = [cells for kind, cells in tracer.solve_cells if kind == "helmholtz"]
    m["solvers.dense_bytes.helmholtz"] = (8.0 * max(dense) ** 2 if dense else 0.0, "bytes")
    rd_s = sum(_total(tracer.aggregate(r), "solvers.simulate_rd") for r in solve_roots)
    rd_steps = sum(tracer.rd_steps)
    m["solvers.rd_step_us"] = (1e6 * rd_s / rd_steps if rd_steps else 0.0, "us")
    return m
