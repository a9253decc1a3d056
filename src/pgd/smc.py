"""Particle system over reverse-time proposals: weighting, resampling, diagnostics.

The engine propagates N particles with the guided Euler-Maruyama or churned
second-order proposal, accumulates log-potentials under the tds or pbs
weighting scheme, resamples multinomially when the effective sample size is
at most a threshold fraction of N (at 1.0, every step), and tracks a running log-evidence
estimate (the normalizer of the underlying Feynman-Kac model). Each step's
log-weights are exponentiated once, in :func:`normalize`, for the ESS, the
evidence and the resample. The evidence increment is the difference of
successive log-normalizers, the previous one carried from the step before, or
log N after a resample, which resets the weights to zero.

The pbs scheme weights with the point twist, the likelihood of the denoiser's
reconstruction. The tds scheme weights and guides with the twist
log N(y; A x_hat, C_k), whose observation covariance
:func:`~pgd.guidance.twist_covariance` adds the Tweedie posterior covariance
of the clean state, once per noise level; it is exact for Gaussian priors
with linear observations. Its incremental weight also carries the log-ratio
of the unguided to the guided Gaussian transition (Wu et al., 2023), read off
the step's draw and the guidance shift that :func:`~pgd.samplers.gem_core`
returns. Additive constants, the twist's normalizer among them, are dropped,
so the log-evidence estimate is defined up to a constant.

Each noise level is evaluated once: one routine denoises the states, checks
the reconstruction, and computes the twist together with, under ``gem`` when
another step follows, its data-space gradient from the same solve, pulled
back at once through the denoiser's vjp at the same states and noise level.
That guidance and the reconstruction are what the next ``gem_core`` reads;
the run keeps them only until then, and keeps none under ``sosag``. A
resample moves each drawn particle's state and twist, and under ``gem`` its
reconstruction and guidance too. The states and log-weights are plain
arrays, so the previous states are freed as soon as the proposal returns.

Particles evolve as rows of an (N, d) array. All of a run's Gaussian noise
comes from the seed's :func:`~pgd.samplers.noise_stream`: one (N, d) draw for
the initial states, then one per step. Resampling uses its own stream. The
particles share the noise stream, so a particle's draws depend on N.

A single chain is a run with N = 1: it walks the proposal cores of
:mod:`pgd.samplers` on the noise stream, and the unguided or deterministic
chains are runs with zero guidance weights or no churn.

The run works on arrays only and builds no :class:`~pgd.grid.Field`:
inputs are validated once, when the :class:`~pgd.guidance.GuidanceContext`
is built, and the located :class:`~pgd.errors.BlowUpError` checks on
states, reconstructions and weights are the run's only finiteness checks.
:class:`SmcDiagnostics` keeps its traces in memory; :func:`point_estimate`
turns a population into a ``Field`` at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import is_count, is_real, require_finite
from .grid import Field, GridSpec
from .guidance import (
    GuidanceContext,
    GuidanceWeights,
    log_likelihood,
    tds_transition_term,
    twist_covariance,
)
from .priors import Denoiser, NoiseSchedule
from .residuals import PdeSystem, StateLayout
from .samplers import churn_gamma, gem_core, heun_core, noise_stream
from .solvers import Observations

PROPOSALS = ("gem", "sosag")
SCHEMES = ("tds", "pbs")
ESTIMATE_MODES = ("best", "weighted_mean")


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
        if not is_count(self.particle_count):
            raise ValueError("particle_count must be an integer >= 1")
        if self.proposal not in PROPOSALS:
            raise ValueError(f"proposal must be one of {PROPOSALS}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.scheme == "tds" and self.proposal != "gem":
            raise ValueError(
                "tds weighting needs a point-evaluable proposal density; "
                "the churned second-order proposal only supports pbs"
            )
        if not (is_real(self.resample_threshold) and 0.0 < self.resample_threshold <= 1.0):
            raise ValueError("resample_threshold must lie in (0, 1]")
        if not (is_real(self.s_churn) and self.s_churn >= 0):
            raise ValueError("s_churn must be nonnegative")
        if not is_count(self.seed, 0):
            raise ValueError("seed must be an integer >= 0")


@dataclass
class ParticlePopulation:
    """Weighted particles."""

    spec: GridSpec
    states: np.ndarray  # (N, d)
    log_weights: np.ndarray  # (N,), unnormalized
    # the draw of the resample that made these rows; smc_run returns it only
    # when its last step resampled, and None otherwise
    ancestors: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.states.shape[0]

    def normalized_weights(self) -> np.ndarray:
        return normalize(self.log_weights)[2]


def normalize(log_weights: np.ndarray) -> tuple[float, float, np.ndarray]:
    """log sum_i exp(l_i), the effective sample size 1 / sum(w^2) and the
    normalized weights w, from one exponentiation of the shifted log-weights."""
    lw = np.asarray(log_weights, dtype=float)
    m = np.max(lw)
    if not np.isfinite(m):
        bad = np.flatnonzero(~(lw < np.inf))  # NaN or +inf; none when every log-weight is -inf
        raise ValueError(f"cannot normalize: log-weight {bad[0]} is {lw[bad[0]]}, not finite" if bad.size
                         else "cannot normalize degenerate weights: all weights vanish")
    w = np.exp(lw - m)
    s = w.sum()
    return float(m + math.log(s)), float(s * s / (w @ w)), w / s


def multinomial_resample(
    population: ParticlePopulation, weights: np.ndarray, rng: np.random.Generator
) -> ParticlePopulation:
    """N categorical draws from the normalized ``weights``; weights reset to uniform."""
    n = population.count
    ancestors = rng.choice(n, size=n, p=weights)
    return ParticlePopulation(
        spec=population.spec, states=population.states[ancestors], log_weights=np.zeros(n), ancestors=ancestors
    )


@dataclass
class SmcDiagnostics:
    """Per-iteration trace, from step k = K - 1 down to 0: pre-resampling ESS,
    whether resampling fired, and the running log-evidence estimate."""

    ess_trace: list[float] = field(default_factory=list)
    resampled: list[bool] = field(default_factory=list)
    log_evidence_trace: list[float] = field(default_factory=list)
    log_evidence: float = 0.0


def smc_run(
    config: SmcConfig,
    denoiser: Denoiser,
    obs: Observations,
    system: PdeSystem | None,
    layout: StateLayout,
) -> tuple[ParticlePopulation, SmcDiagnostics]:
    """Run the full particle system from k = K down to 0.

    Initialization draws particles from N(0, sigma_max^2 I) and takes the
    twist of the initial states as the initial weight. Each iteration
    propagates with the configured proposal, adds the scheme's incremental
    log-potential, normalizes the weights once for the ESS, the evidence and
    the resample, and resamples when ESS <= threshold * N (recorded ESS is
    pre-resampling), moving state and twist together, and under ``gem`` the
    reconstruction and guidance that the next ``gem_core`` reads. The module
    docstring describes the twists, the log-evidence and the noise stream.
    Each step refills one (N, d) buffer ``z`` in place, which is safe: the
    proposal cores and the tds transition term read ``z`` only within the
    step and never write to it.
    """
    ctx = GuidanceContext(obs=obs, system=system, layout=layout, weights=config.weights)
    spec = ctx.spec
    d = spec.size
    if denoiser.dim != d:
        raise ValueError(f"denoiser dim {denoiser.dim} does not match the state size {d}")
    n = config.particle_count
    sched = config.schedule
    gamma = churn_gamma(config.s_churn, sched.steps)
    guided = config.proposal == "gem"

    noise_rng = noise_stream(config.seed)
    resample_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(config.seed), spawn_key=(1,))
    )

    def evaluate(x: np.ndarray, sigma: float, k: int, grad: bool):
        """(reconstruction, twist, guidance) at ``x`` and ``sigma``: the per-row twist of the
        reconstruction (a blow-up is located at step k) and, only if ``grad``, the reconstruction and
        the twist's data-space gradient pulled back through the denoiser at (x, sigma), which ``gem_core`` reads."""
        x_hat = denoiser.denoise(x, sigma)
        require_finite(x_hat, k, "reconstruction")
        cov = twist_covariance(ctx, denoiser, x, sigma) if config.scheme == "tds" else None
        if grad:
            twist, cotangent, index = log_likelihood(ctx, x_hat, grad=True, cov=cov)
            return x_hat, twist, denoiser.vjp(x, sigma, cotangent, index)
        return None, log_likelihood(ctx, x_hat, cov=cov), None

    states = sched.sigma_max * noise_rng.standard_normal((n, d))
    z = np.empty((n, d))
    denoised, loglik, guidance = evaluate(states, sched.sigma_max, sched.steps, guided)
    require_finite(loglik, sched.steps, "weight")
    log_weights = loglik
    log_norm = normalize(log_weights)[0]
    log_evidence = log_norm - math.log(n)
    diag = SmcDiagnostics()

    for k in range(sched.steps, 0, -1):
        sigma_k, sigma_next = sched.sigma_at(k), sched.sigma_at(k - 1)
        noise_rng.standard_normal(out=z)

        if guided:
            states, shift = gem_core(states, z, sigma_k, sigma_next, denoised, guidance)
            if config.scheme == "tds":  # taken now, so that the shift is freed before the evaluation
                transition = tds_transition_term(z, shift, sigma_k**2 - sigma_next**2)
            denoised = guidance = shift = None  # read: freed before the evaluation builds the next ones
        else:
            states = heun_core(states, z, sigma_k, sigma_next, denoiser, gamma, ctx)
        require_finite(states, k, "state")

        denoised, ll_new, guidance = evaluate(states, sigma_next, k, guided and k > 1)
        potentials = ll_new - loglik
        if config.scheme == "tds":
            potentials = potentials + transition
        require_finite(potentials, k, "weight")

        log_weights = log_weights + potentials
        loglik = ll_new
        new_norm, current_ess, weights = normalize(log_weights)
        log_evidence += new_norm - log_norm
        log_norm = new_norm
        fire = current_ess <= config.resample_threshold * n
        diag.ess_trace.append(current_ess)
        diag.resampled.append(bool(fire))
        diag.log_evidence_trace.append(log_evidence)
        if fire:
            # the whole particle moves: state, twist and what the next gem_core reads
            pop = multinomial_resample(ParticlePopulation(spec, states, log_weights), weights, resample_rng)
            states, log_weights, ancestors = pop.states, pop.log_weights, pop.ancestors
            del pop  # else it would hold these states through the next evaluation
            log_norm = math.log(n)
            loglik = loglik[ancestors]
            if denoised is not None:
                denoised, guidance = denoised[ancestors], guidance[ancestors]

    diag.log_evidence = log_evidence
    return ParticlePopulation(spec, states, log_weights, ancestors if fire else None), diag


def point_estimate(population: ParticlePopulation, mode: str = "best") -> Field:
    """Single-field summary of the population.

    ``best`` returns the highest-weight particle, ``weighted_mean`` the
    self-normalized mean.
    """
    if mode not in ESTIMATE_MODES:
        raise ValueError(f"mode must be one of {ESTIMATE_MODES}")
    if mode == "best":
        idx = int(np.argmax(population.log_weights))
        return Field.from_flat(population.spec, population.states[idx])
    w = population.normalized_weights()
    return Field.from_flat(population.spec, w @ population.states)
