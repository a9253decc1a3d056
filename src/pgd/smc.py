"""Particle system over reverse-time proposals: weighting, resampling, diagnostics.

The engine propagates N particles with the guided Euler-Maruyama or churned
second-order proposal, accumulates log-potentials under the tds or pbs
weighting scheme, resamples multinomially when the effective sample size
falls below a threshold fraction of N, and tracks a running log-evidence
estimate (the normalizer of the underlying Feynman-Kac model).

The pbs scheme weights with the point twist, the likelihood of the denoiser's
reconstruction. The tds scheme weights and guides with the twist
log N(y; A x_hat, C_k), whose observation covariance
:func:`~pgd.guidance.twist_covariance` adds the Tweedie posterior covariance
of the clean state; it is exact for Gaussian priors with linear
observations. Its incremental weight also carries the log-ratio of the
unguided to the guided Gaussian transition (Wu et al., 2023), read off the
step's draw and the guidance shift that :func:`~pgd.samplers.gem_core`
returns. Additive constants, the twist's normalizer among them, are
dropped, so the log-evidence estimate is defined up to a constant.

Particles evolve as rows of an (N, d) array drawn from per-particle streams
keyed by (seed, particle index); resampling uses its own stream. Each stream
fills its particle's Gaussian noise for a block of steps at once, sized so
that the (N, steps, d) block stays within :data:`NOISE_BLOCK_BYTES`. One
(c, d) draw equals c successive (d,) draws bit for bit, so the block size
never changes a run. When one stream call fills at least
:data:`HELPER_FILL_VALUES` values, a helper thread draws block b+1 into a
second buffer while the main thread runs the steps of block b. NumPy's
generators fill without holding the interpreter lock, so the draw overlaps
the step arithmetic; each stream is still read by one thread at a time and in
the same order (initial state, then the blocks in step order), so the run is
bit-identical to an inline draw. Smaller blocks are drawn inline, where the
lock handoffs of a thread would cost more than the overlap saves.

A single chain is a run with N = 1: it walks the proposal cores of
:mod:`pgd.samplers` on the particle-0 stream, and the unguided or
deterministic chains are runs with zero guidance weights or no churn.

The likelihood of each reconstruction is evaluated once: under ``gem`` the
twist that weights a particle is computed together with its data-space
gradient, which travels with the reconstruction (through resampling too)
and guides the next step.

The run works on arrays only and builds no :class:`~pgd.grid.Field`:
inputs are validated once, when the :class:`~pgd.guidance.GuidanceContext`
is built, and the located :class:`~pgd.errors.BlowUpError` checks on
states, reconstructions and weights are the run's only finiteness checks.
:class:`SmcDiagnostics` keeps its traces in memory; :func:`point_estimate`
turns a population into a ``Field`` at the boundary.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError
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
from .samplers import churn_gamma, gem_core, heun_core, particle_stream
from .solvers import Observations

PROPOSALS = ("gem", "sosag")
SCHEMES = ("tds", "pbs")
ESTIMATE_MODES = ("best", "weighted_mean")
NOISE_BLOCK_BYTES = 1 << 20  # budget of the per-run block of pre-drawn step noise
# fewest values per stream call (c * d) for which a helper thread draws the noise
HELPER_FILL_VALUES = 1024


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
        if not self.s_churn >= 0:
            raise ValueError("s_churn must be nonnegative")


@dataclass
class ParticlePopulation:
    """Weighted particles plus the cached intermediate log-likelihoods."""

    spec: GridSpec
    states: np.ndarray  # (N, d)
    log_weights: np.ndarray  # (N,), unnormalized
    cached_loglik: np.ndarray  # (N,), at the current (state, sigma)
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


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    return float(m + math.log(np.exp(a - m).sum()))


def _log_mean_increment(log_weights: np.ndarray, potentials: np.ndarray) -> float:
    """log sum_i w_i exp(potential_i) under the weights normalized from ``log_weights``."""
    return _logsumexp(log_weights + potentials) - _logsumexp(log_weights)


def _require_finite(rows: np.ndarray, step: int, what: str) -> None:
    """Raise :class:`BlowUpError` at the first particle whose (N,) value or (N, d) row is not finite."""
    bad = np.flatnonzero(~np.isfinite(rows).reshape(len(rows), -1).all(axis=1))
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
    tds it is log N(y; A x_hat, C_k), in the initial weights, the incremental
    weights and the gem guidance alike: C_k comes from
    :func:`~pgd.guidance.twist_covariance` once per noise level, and
    :func:`~pgd.guidance.log_likelihood` evaluates the twist and its gradient
    with one solve; the tds increment adds
    :func:`~pgd.guidance.tds_transition_term`. Constants are dropped.

    Under gem, the twist's data-space gradient is evaluated with the twist
    whenever another step follows, and handed to that step's
    :func:`~pgd.samplers.gem_core`. Step noise is drawn c steps at a time per
    particle, c = max(1, min(K, NOISE_BLOCK_BYTES // (8 N d))). When
    c d >= HELPER_FILL_VALUES, one helper thread, started after the initial
    states are drawn and shut down when the run returns or raises, draws each
    next block while the current one is used; otherwise the main thread draws
    each block when it is reached. Both use the same streams in the same
    order, so the results are the same bit for bit.
    """
    ctx = GuidanceContext(obs=obs, system=system, layout=layout, weights=config.weights)
    spec = ctx.spec
    d = spec.size
    if denoiser.dim != d:
        raise ValueError(f"denoiser dim {denoiser.dim} does not match the state size {d}")
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
        cov = twist_covariance(ctx, denoiser, x, sigma) if config.scheme == "tds" else None
        if config.proposal == "gem" and k > 0:
            return log_likelihood(ctx, x_hat, grad=True, cov=cov)
        return log_likelihood(ctx, x_hat, cov=cov), None

    def fill(buffer: np.ndarray, steps: int) -> np.ndarray:
        """Draw every particle's noise for the next ``steps`` steps into ``buffer[:, :steps]``."""
        for row, s in zip(buffer, streams):
            s.standard_normal(out=row[:steps])
        return buffer

    states = np.stack([sched.sigma_max * s.standard_normal(d) for s in streams])
    # block b holds the noise of steps K - b c down to K - (b + 1) c + 1; the helper fills buffers[b % 2]
    block_steps = max(1, min(sched.steps, NOISE_BLOCK_BYTES // (8 * n * d)))
    helper = ThreadPoolExecutor(max_workers=1) if block_steps * d >= HELPER_FILL_VALUES else None
    buffers = [np.empty((n, block_steps, d)) for _ in range(1 if helper is None else 2)]
    try:
        if helper is not None:
            pending = helper.submit(fill, buffers[0], block_steps)
        denoised = denoiser.denoise(states, sched.sigma_max)
        _require_finite(denoised, sched.steps, "reconstruction")
        cached_ll, data_grad = twist_log(states, denoised, sched.sigma_max, sched.steps)
        _require_finite(cached_ll, sched.steps, "weight")
        log_w = rho * cached_ll
        log_evidence = _log_mean_increment(np.zeros(n), log_w)

        pop = ParticlePopulation(spec=spec, states=states, log_weights=log_w, cached_loglik=cached_ll)
        diag = SmcDiagnostics()

        for k in range(sched.steps, 0, -1):
            sigma_k, sigma_next = sched.sigma_at(k), sched.sigma_at(k - 1)
            b, j = divmod(sched.steps - k, block_steps)
            if j == 0:
                if helper is None:
                    noise = fill(buffers[0], min(block_steps, k))
                else:
                    noise = pending.result()
                    if k > block_steps:
                        pending = helper.submit(fill, buffers[(b + 1) % 2], min(block_steps, k - block_steps))
            z = noise[:, j]

            if config.proposal == "gem":
                samples, shift = gem_core(pop.states, z, sigma_k, sigma_next, denoiser, ctx, denoised, data_grad)
            else:
                samples = heun_core(pop.states, z, sigma_k, sigma_next, denoiser, gamma, ctx)
            _require_finite(samples, k, "state")

            denoised = denoiser.denoise(samples, sigma_next)
            _require_finite(denoised, k, "reconstruction")
            ll_new, data_grad = twist_log(samples, denoised, sigma_next, k - 1)
            potentials = rho * (ll_new - pop.cached_loglik)
            if config.scheme == "tds":
                potentials = potentials + tds_transition_term(z, shift, sigma_k**2 - sigma_next**2)
            _require_finite(potentials, k, "weight")

            log_evidence += _log_mean_increment(pop.log_weights, potentials)

            pop = ParticlePopulation(
                spec=spec,
                states=samples,
                log_weights=pop.log_weights + potentials,
                cached_loglik=ll_new,
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
    finally:
        if helper is not None:
            helper.shutdown(cancel_futures=True)

    diag.log_evidence = log_evidence
    return pop, diag


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
