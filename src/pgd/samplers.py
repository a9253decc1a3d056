"""Reverse-time single-chain integrators.

Modes:

- ``em``: Euler-Maruyama discretization of the reverse SDE.
- ``gem``: em plus the guidance increment on the mean; reports both Gaussian
  transition means so density-ratio weights can be formed.
- ``second_order``: noise churn followed by a Heun (trapezoidal) step of the
  probability-flow dynamics.
- ``sosag``: second_order plus the guidance increment, applied at the churned
  state with the unjittered squared-sigma step scaling.
- ``ode_heun`` / ``ode_heun_guided``: the churn-free deterministic variants.

The printed update equations use the sigma-difference (next minus current),
which is negative along a decreasing schedule; all steps here use the
positive magnitude sigma_k^2 - sigma_{k-1}^2 for the injected variance with
drift and guidance signs fixed so the mean moves toward the denoised state
and ascends the intermediate log-likelihood. Noise churn uses unit noise
inflation.

Core functions take the Gaussian draws explicitly and operate on (..., d)
arrays, so a particle engine can batch them; ``run_chain`` drives one chain
through the same cores as a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError
from .grid import Field, GridSpec
from .guidance import GuidanceContext, data_log_likelihood_grad, intermediate_log_likelihood
from .priors import Denoiser, NoiseSchedule

MODES = ("em", "gem", "second_order", "sosag", "ode_heun", "ode_heun_guided")
GUIDED_MODES = ("gem", "sosag", "ode_heun_guided")

CHURN_CAP = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class SamplerConfig:
    schedule: NoiseSchedule
    mode: str = "em"
    s_churn: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.s_churn < 0:
            raise ValueError("s_churn must be nonnegative")

    @property
    def churn_gamma(self) -> float:
        if self.mode in ("em", "gem", "ode_heun", "ode_heun_guided"):
            return 0.0
        return churn_gamma(self.s_churn, self.schedule.steps)


def churn_gamma(s_churn: float, steps: int) -> float:
    """Per-step noise inflation factor, capped at sqrt(2) - 1."""
    return min(s_churn / steps, CHURN_CAP)


def particle_stream(seed: int, index: int) -> np.random.Generator:
    """Independent per-particle generator keyed by (seed, particle index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(0, int(index))))


def state_spec(ctx: GuidanceContext) -> GridSpec:
    """Grid spec of the full state implied by a guidance context."""
    return ctx.obs.mask_u.spec.with_channels(ctx.layout.channel_count)


def _batch_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[None] if x.ndim == 1 else x


def _batched_guidance_grad(
    x: np.ndarray,
    sigma: float,
    denoiser: Denoiser,
    ctx: GuidanceContext,
    denoised: np.ndarray,
    extra_data_grad: np.ndarray | None = None,
) -> np.ndarray:
    """Guidance gradient rows at (x, sigma), reusing the already-denoised states.

    ``extra_data_grad`` is added to the data-space gradient before the
    pull-back through the denoiser, so it costs no second vjp.
    """
    spec = state_spec(ctx)
    data = np.stack(
        [
            data_log_likelihood_grad(
                Field.from_flat(spec, row), ctx.obs, ctx.system, ctx.layout, ctx.weights
            ).flat()
            for row in _batch_rows(denoised)
        ]
    )
    if x.ndim == 1:
        data = data[0]
    if extra_data_grad is not None:
        data = data + extra_data_grad
    if ctx.weights.jacobian_mode == "identity":
        return data
    return denoiser.vjp(x, sigma, data)


# ---------------------------------------------------------------------------
# Batch-capable cores. All take the standard-normal draw explicitly.
# ---------------------------------------------------------------------------


def em_core(
    x: np.ndarray,
    z: np.ndarray,
    sigma_k: float,
    sigma_next: float,
    denoiser: Denoiser,
    denoised: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One unguided Euler-Maruyama step; returns (sample, transition mean)."""
    x = np.asarray(x, dtype=float)
    if denoised is None:
        denoised = denoiser.denoise(x, sigma_k)
    delta = sigma_k**2 - sigma_next**2
    mean = x + delta * (denoised - x) / sigma_k**2
    return mean + math.sqrt(delta) * z, mean


def gem_core(
    x: np.ndarray,
    z: np.ndarray,
    sigma_k: float,
    sigma_next: float,
    denoiser: Denoiser,
    ctx: GuidanceContext,
    denoised: np.ndarray | None = None,
    extra_data_grad: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Guided Euler-Maruyama step; returns (sample, unguided mean, guided mean).

    The guidance ascends the point twist, plus ``extra_data_grad`` when given:
    a data-space gradient pulled back together with the likelihood's.
    """
    x = np.asarray(x, dtype=float)
    if denoised is None:
        denoised = denoiser.denoise(x, sigma_k)
    delta = sigma_k**2 - sigma_next**2
    mean_em = x + delta * (denoised - x) / sigma_k**2
    grad = _batched_guidance_grad(x, sigma_k, denoiser, ctx, denoised, extra_data_grad)
    mean_guided = mean_em + delta * grad
    return mean_guided + math.sqrt(delta) * z, mean_em, mean_guided


def heun_core(
    x: np.ndarray,
    z: np.ndarray,
    sigma_k: float,
    sigma_next: float,
    denoiser: Denoiser,
    gamma_k: float,
    ctx: GuidanceContext | None = None,
) -> np.ndarray:
    """Churned second-order step, optionally with the guidance increment.

    (i) inflate the noise level to sigma_hat = (1 + gamma_k) sigma_k and move
    to the matching noisier state; (ii) Euler step in sigma using the denoiser
    slope; (iii) average with the slope at the predicted point unless
    sigma_next is zero; (iv) add the guidance increment evaluated at the
    churned state, scaled by the unjittered sigma_k^2 - sigma_next^2.
    """
    x = np.asarray(x, dtype=float)
    sigma_hat = sigma_k * (1.0 + gamma_k)
    x_hat = x + math.sqrt(max(sigma_hat**2 - sigma_k**2, 0.0)) * z
    denoised_hat = denoiser.denoise(x_hat, sigma_hat)
    d_cur = (x_hat - denoised_hat) / sigma_hat
    x_new = x_hat + (sigma_next - sigma_hat) * d_cur
    if sigma_next != 0.0:
        d_next = (x_new - denoiser.denoise(x_new, sigma_next)) / sigma_next
        x_new = x_hat + (sigma_next - sigma_hat) * 0.5 * (d_cur + d_next)
    if ctx is not None:
        grad = _batched_guidance_grad(x_hat, sigma_hat, denoiser, ctx, denoised_hat)
        x_new = x_new + (sigma_k**2 - sigma_next**2) * grad
    return x_new


# ---------------------------------------------------------------------------
# Chain driver.
# ---------------------------------------------------------------------------


@dataclass
class ChainResult:
    x0: np.ndarray
    loglik_trace: list[float] | None
    step_norms: list[float]


def run_chain(
    config: SamplerConfig,
    denoiser: Denoiser,
    ctx: GuidanceContext | None = None,
    x_init: np.ndarray | None = None,
) -> ChainResult:
    """Iterate the configured step from k = K down to 1.

    The chain starts from N(0, sigma_max^2 I) drawn from the particle-0
    stream of ``config.seed`` unless an explicit initial state is given.
    Guided modes require a guidance context. Deterministic under a fixed
    seed; raises BlowUpError (with the step index) if the state leaves the
    finite range.
    """
    if config.mode in GUIDED_MODES and ctx is None:
        raise ValueError(f"mode {config.mode!r} needs a guidance context")
    if ctx is not None:
        dim = state_spec(ctx).size
    elif x_init is not None:
        dim = np.asarray(x_init).size
    else:
        dim = denoiser.dim
    schedule = config.schedule
    stream = particle_stream(config.seed, 0)
    if x_init is None:
        x = schedule.sigma_max * stream.standard_normal(dim)
    else:
        x = np.asarray(x_init, dtype=float).reshape(dim).copy()
    x = x[None]  # batch-of-one keeps the arithmetic identical to the engine

    guided = config.mode in GUIDED_MODES
    use_heun = config.mode in ("second_order", "sosag", "ode_heun", "ode_heun_guided")
    gamma = config.churn_gamma

    lls: list[float] | None = [] if ctx is not None else None
    norms: list[float] = []
    spec = state_spec(ctx) if ctx is not None else None

    for k in range(schedule.steps, 0, -1):
        sigma_k, sigma_next = schedule.sigma_at(k), schedule.sigma_at(k - 1)
        z = stream.standard_normal(dim)[None]
        if use_heun:
            x_new = heun_core(x, z, sigma_k, sigma_next, denoiser, gamma, ctx if guided else None)
        elif config.mode == "gem":
            x_new, _, _ = gem_core(x, z, sigma_k, sigma_next, denoiser, ctx)
        else:
            x_new, _ = em_core(x, z, sigma_k, sigma_next, denoiser)
        if not np.all(np.isfinite(x_new)):
            raise BlowUpError(f"non-finite state while stepping k={k}", step=k)
        norms.append(float(np.linalg.norm(x_new - x)))
        if lls is not None:
            lls.append(
                intermediate_log_likelihood(
                    Field.from_flat(spec, x_new[0]),
                    sigma_next,
                    denoiser,
                    ctx.obs,
                    ctx.system,
                    ctx.layout,
                    ctx.weights,
                )
            )
        x = x_new
    return ChainResult(x0=x[0], loglik_trace=lls, step_norms=norms)
