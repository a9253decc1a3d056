"""Particle system over reverse-time proposals: weighting, resampling, diagnostics.

The engine propagates N particles with the guided Euler-Maruyama or churned
second-order proposal, accumulates log-potentials under the tds or pbs
weighting scheme, resamples multinomially when the effective sample size
falls below a threshold fraction of N, and tracks a running log-evidence
estimate (the normalizer of the underlying Feynman-Kac model).

The pbs scheme weights with the point twist, the likelihood of the denoiser's
reconstruction. The tds scheme weights and guides with the point twist plus
:func:`~pgd.guidance.twist_correction`, which adds the Tweedie posterior
covariance of the clean state to the observation terms and is exact for
Gaussian priors with linear observations. Additive constants, the twist's
normalizer among them, are dropped, so the log-evidence estimate is defined
up to a constant.

Particles evolve as rows of an (N, d) array drawn from per-particle streams
keyed by (seed, particle index); resampling uses its own stream. Each stream
fills its particle's Gaussian noise for a block of steps at once, sized so
that the (N, steps, d) block stays within :data:`NOISE_BLOCK_BYTES`. One
(c, d) draw equals c successive (d,) draws bit for bit, so the block size
never changes a run. A single chain is a run with N = 1: it walks the
proposal cores of :mod:`pgd.samplers` on the particle-0 stream, and the
unguided or deterministic chains are runs with zero guidance weights or no
churn.

The likelihood of each reconstruction is evaluated once: under ``gem`` the
twist that weights a particle is computed together with its data-space
gradient, which travels with the reconstruction (through resampling too)
and guides the next step.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError
from .grid import Field, GridSpec
from .guidance import (
    GuidanceContext,
    GuidanceWeights,
    log_likelihood,
    tds_transition_term,
    twist_correction,
)
from .priors import Denoiser, NoiseSchedule
from .residuals import PdeSystem, StateLayout
from .samplers import churn_gamma, gem_core, heun_core, particle_stream
from .solvers import Observations

PROPOSALS = ("gem", "sosag")
SCHEMES = ("tds", "pbs")
ESTIMATE_MODES = ("best", "weighted_mean", "random")
NOISE_BLOCK_BYTES = 1 << 20  # budget of the per-run block of pre-drawn step noise


@dataclass(frozen=True)
class SmcConfig:
    particle_count: int
    schedule: NoiseSchedule
    weights: GuidanceWeights = field(default_factory=GuidanceWeights)
    proposal: str = "gem"
    scheme: str = "pbs"
    resample_threshold: float = 0.5
    s_churn: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.particle_count < 1:
            raise ValueError("particle_count must be >= 1")
        if self.proposal not in PROPOSALS:
            raise ValueError(f"proposal must be one of {PROPOSALS}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.scheme == "tds" and self.proposal != "gem":
            raise ValueError(
                "tds weighting needs a point-evaluable proposal density; "
                "the churned second-order proposal only supports pbs"
            )
        if not 0.0 < self.resample_threshold <= 1.0:
            raise ValueError("resample_threshold must lie in (0, 1]")
        if self.s_churn < 0:
            raise ValueError("s_churn must be nonnegative")


@dataclass
class ParticlePopulation:
    """Weighted particles plus the cached intermediate log-likelihoods."""

    spec: GridSpec
    states: np.ndarray  # (N, d)
    log_weights: np.ndarray  # (N,), unnormalized
    cached_loglik: np.ndarray  # (N,), at the current (state, sigma)
    step_index: int
    ancestors: np.ndarray | None = None  # from the most recent resampling

    @property
    def count(self) -> int:
        return self.states.shape[0]

    def normalized_weights(self) -> np.ndarray:
        m = np.max(self.log_weights)
        if not np.isfinite(m):
            raise ValueError("cannot normalize degenerate weights")
        lw = self.log_weights - m
        w = np.exp(lw)
        return w / w.sum()


def ess(log_weights: np.ndarray) -> float:
    """Effective sample size 1 / sum(w^2) of the normalized weights, in log space."""
    lw = np.asarray(log_weights, dtype=float)
    m = np.max(lw)
    if not np.isfinite(m):
        raise ValueError("effective sample size undefined: all weights vanish")
    w = np.exp(lw - m)
    s = w.sum()
    return float(s * s / (w @ w))


def multinomial_resample(
    population: ParticlePopulation, rng: np.random.Generator
) -> ParticlePopulation:
    """N categorical draws from the normalized weights; weights reset to uniform."""
    probs = population.normalized_weights()
    n = population.count
    ancestors = rng.choice(n, size=n, p=probs)
    return ParticlePopulation(
        spec=population.spec,
        states=population.states[ancestors],
        log_weights=np.zeros(n),
        cached_loglik=population.cached_loglik[ancestors],
        step_index=population.step_index,
        ancestors=ancestors,
    )


@dataclass
class SmcDiagnostics:
    """Per-iteration trace: state-level step index, pre-resampling ESS,
    whether resampling fired, and the running log-evidence estimate."""

    steps: list[int] = field(default_factory=list)
    ess_trace: list[float] = field(default_factory=list)
    resampled: list[bool] = field(default_factory=list)
    log_evidence_trace: list[float] = field(default_factory=list)
    log_evidence: float = 0.0

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["step", "ess", "resampled_flag", "log_evidence_running"])
            for s, e, r, z in zip(self.steps, self.ess_trace, self.resampled, self.log_evidence_trace):
                writer.writerow([s, repr(float(e)), int(r), repr(float(z))])

    def write_json(self, path) -> None:
        summary = {
            "iterations": len(self.steps),
            "resample_count": int(sum(self.resampled)),
            "final_ess": self.ess_trace[-1] if self.ess_trace else None,
            "log_evidence": self.log_evidence,
        }
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    return float(m + math.log(np.exp(a - m).sum()))


def _log_mean_increment(log_weights: np.ndarray, potentials: np.ndarray) -> float:
    """log sum_i w_i exp(potential_i) under the weights normalized from ``log_weights``."""
    return _logsumexp(log_weights + potentials) - _logsumexp(log_weights)


def _require_finite(rows: np.ndarray, step: int, what: str) -> None:
    """Raise :class:`BlowUpError` at the first particle whose row is not finite."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        particle = int(bad[0])
        raise BlowUpError(
            f"non-finite {what} for particle {particle} at step {step}", step=step, particle=particle
        )


def smc_run(
    config: SmcConfig,
    denoiser: Denoiser,
    obs: Observations,
    system: PdeSystem | None,
    layout: StateLayout,
) -> tuple[ParticlePopulation, SmcDiagnostics]:
    """Run the full particle system from k = K down to 0.

    Initialization draws particles from N(0, sigma_max^2 I) and applies the
    tempered twist of the initial states as the initial weight. Each iteration
    propagates with the configured proposal, adds the scheme's incremental
    log-potential, refreshes the cached twists, and resamples when
    ESS <= threshold * N (recorded ESS is pre-resampling).

    Under pbs the twist is the point likelihood of the reconstruction. Under
    tds it adds :func:`~pgd.guidance.twist_correction`, in the initial
    weights, the incremental weights and the gem guidance alike; its
    covariance is built once per noise level, and its gradient is pulled back
    together with the likelihood's. Constants are dropped.

    Under gem, the twist's data-space gradient is evaluated with the twist
    whenever another step follows, and handed to that step's
    :func:`~pgd.samplers.gem_core`. Step noise is drawn c steps at a time per
    particle, c = max(1, min(K, NOISE_BLOCK_BYTES // (8 N d))).
    """
    ctx = GuidanceContext(obs=obs, system=system, layout=layout, weights=config.weights)
    spec = ctx.spec
    d = spec.size
    n = config.particle_count
    sched = config.schedule
    rho = config.weights.temper_rho
    gamma = churn_gamma(config.s_churn, sched.steps)

    streams = [particle_stream(config.seed, i) for i in range(n)]
    resample_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(config.seed), spawn_key=(1,))
    )

    def twist_log(x: np.ndarray, x_hat: np.ndarray, sigma: float, k: int):
        """Per-row twist at (x, sigma) and, when step k guides with it, its data-space gradient."""
        if config.proposal == "gem" and k > 0:
            ll, grad = log_likelihood(ctx, x_hat, grad=True)
        else:
            ll, grad = log_likelihood(ctx, x_hat), None
        if config.scheme != "tds":
            return ll, grad
        corr, corr_grad = twist_correction(ctx, denoiser, x, x_hat, sigma)
        return ll + corr, None if grad is None else grad + corr_grad

    states = np.stack([sched.sigma_max * s.standard_normal(d) for s in streams])
    denoised = denoiser.denoise(states, sched.sigma_max)
    _require_finite(denoised, sched.steps, "reconstruction")
    cached_ll, data_grad = twist_log(states, denoised, sched.sigma_max, sched.steps)
    log_w = rho * cached_ll
    log_evidence = _log_mean_increment(np.zeros(n), log_w)

    pop = ParticlePopulation(
        spec=spec, states=states, log_weights=log_w, cached_loglik=cached_ll, step_index=sched.steps
    )
    diag = SmcDiagnostics()

    block_steps = max(1, min(sched.steps, NOISE_BLOCK_BYTES // (8 * n * d)))
    noise = np.empty((n, block_steps, d))
    for k in range(sched.steps, 0, -1):
        sigma_k, sigma_next = sched.sigma_at(k), sched.sigma_at(k - 1)
        j = (sched.steps - k) % block_steps
        if j == 0:
            for row, s in zip(noise, streams):
                s.standard_normal(out=row[: min(block_steps, k)])
        z = noise[:, j]

        if config.proposal == "gem":
            samples, mean_em, mean_gd = gem_core(
                pop.states,
                z,
                sigma_k,
                sigma_next,
                denoiser,
                ctx,
                denoised=denoised,
                data_grad=data_grad,
            )
        else:
            samples = heun_core(pop.states, z, sigma_k, sigma_next, denoiser, gamma, ctx)
            mean_em = mean_gd = None
        _require_finite(samples, k, "state")

        denoised = denoiser.denoise(samples, sigma_next)
        _require_finite(denoised, k, "reconstruction")
        ll_new, data_grad = twist_log(samples, denoised, sigma_next, k - 1)
        potentials = rho * (ll_new - pop.cached_loglik)
        if config.scheme == "tds":
            step_var = sigma_k**2 - sigma_next**2
            potentials = potentials + tds_transition_term(samples, mean_em, mean_gd, step_var)
        if not np.all(np.isfinite(potentials)):
            bad = int(np.flatnonzero(~np.isfinite(potentials))[0])
            raise BlowUpError(f"non-finite weight for particle {bad} at step {k}", step=k, particle=bad)

        log_evidence += _log_mean_increment(pop.log_weights, potentials)

        pop = ParticlePopulation(
            spec=spec,
            states=samples,
            log_weights=pop.log_weights + potentials,
            cached_loglik=ll_new,
            step_index=k - 1,
        )

        current_ess = ess(pop.log_weights)
        fire = current_ess <= config.resample_threshold * n
        diag.steps.append(k - 1)
        diag.ess_trace.append(current_ess)
        diag.resampled.append(bool(fire))
        diag.log_evidence_trace.append(log_evidence)
        if fire:
            pop = multinomial_resample(pop, resample_rng)
            denoised = denoised[pop.ancestors]
            if data_grad is not None:
                data_grad = data_grad[pop.ancestors]

    diag.log_evidence = log_evidence
    return pop, diag


def point_estimate(
    population: ParticlePopulation,
    mode: str = "best",
    rng: np.random.Generator | None = None,
) -> Field:
    """Single-field summary of the population.

    ``best`` returns the highest-weight particle, ``weighted_mean`` the
    self-normalized mean, ``random`` a draw proportional to the weights.
    """
    if mode not in ESTIMATE_MODES:
        raise ValueError(f"mode must be one of {ESTIMATE_MODES}")
    if mode == "best":
        idx = int(np.argmax(population.log_weights))
        return Field.from_flat(population.spec, population.states[idx])
    if mode == "weighted_mean":
        w = population.normalized_weights()
        return Field.from_flat(population.spec, w @ population.states)
    if rng is None:
        raise ValueError("random point estimate needs a generator")
    w = population.normalized_weights()
    idx = int(rng.choice(population.count, p=w))
    return Field.from_flat(population.spec, population.states[idx])
