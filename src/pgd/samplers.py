"""Reverse-time proposal cores for the particle engine.

- ``gem_core``: guided Euler-Maruyama step. It returns the sample and its
  guidance shift, the guided minus the unguided transition mean, from which
  :func:`~pgd.guidance.tds_transition_term` forms the tds weight. With zero
  guidance weights it is the unguided Euler-Maruyama step of the reverse SDE.
- ``heun_core``: noise churn followed by a Heun (trapezoidal) step of the
  probability-flow dynamics, plus the guidance increment applied at the
  churned state with the unjittered squared-sigma step scaling. With no churn
  and zero weights it is the deterministic probability-flow ODE step.

The printed update equations use the sigma-difference (next minus current),
which is negative along a decreasing schedule; all steps here use the
positive magnitude sigma_k^2 - sigma_{k-1}^2 for the injected variance with
drift and guidance signs fixed so the mean moves toward the denoised state
and ascends the intermediate log-likelihood. Noise churn uses unit noise
inflation.

The cores take exactly what :func:`pgd.smc.smc_run` passes: Gaussian draws
and (N, d) particle rows (a single chain is N = 1). ``gem_core`` takes the
reconstruction and its data-space gradient, which the engine computes with
the particle's twist, so the likelihood is evaluated once per
reconstruction. ``heun_core`` guides at the churned state, where no weight
is evaluated, so it computes its own gradient.

The cores never write to their inputs. They work in place only on arrays
they allocate, in the operand order of the plain expressions.
"""

from __future__ import annotations

import math

import numpy as np

from .guidance import GuidanceContext, data_log_likelihood_grad
from .priors import Denoiser

CHURN_CAP = math.sqrt(2.0) - 1.0


def churn_gamma(s_churn: float, steps: int) -> float:
    """Per-step noise inflation factor, capped at sqrt(2) - 1."""
    return min(s_churn / steps, CHURN_CAP)


def particle_stream(seed: int, index: int) -> np.random.Generator:
    """Independent per-particle generator keyed by (seed, particle index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(0, int(index))))


def _guidance_rows(
    x: np.ndarray, sigma: float, denoiser: Denoiser, ctx: GuidanceContext, data_grad: np.ndarray
) -> np.ndarray:
    """Guidance gradient rows at (x, sigma) from ``data_grad``, the data-space
    gradient at the reconstruction: one vjp pulls it back, or the identity does."""
    if ctx.weights.jacobian_mode == "identity":
        return data_grad
    return denoiser.vjp(x, sigma, data_grad)


def gem_core(
    x: np.ndarray,
    z: np.ndarray,
    sigma_k: float,
    sigma_next: float,
    denoiser: Denoiser,
    ctx: GuidanceContext,
    denoised: np.ndarray,
    data_grad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Guided Euler-Maruyama step from x at sigma_k with reconstruction ``denoised``.

    Returns (sample, shift). With delta = sigma_k^2 - sigma_next^2, the
    unguided mean is x + delta (denoised - x) / sigma_k^2, the guidance shift
    is delta times the gradient that :func:`_guidance_rows` pulls back from
    ``data_grad``, and the sample is sqrt(delta) z + (shift + unguided mean).
    """
    delta = sigma_k**2 - sigma_next**2
    mean = denoised - x
    mean *= delta
    mean /= sigma_k**2
    mean += x
    shift = delta * _guidance_rows(x, sigma_k, denoiser, ctx, data_grad)
    np.add(shift, mean, out=mean)
    sample = math.sqrt(delta) * z
    sample += mean
    return sample, shift


def heun_core(
    x: np.ndarray,
    z: np.ndarray,
    sigma_k: float,
    sigma_next: float,
    denoiser: Denoiser,
    gamma_k: float,
    ctx: GuidanceContext,
) -> np.ndarray:
    """Churned second-order step plus the guidance increment.

    (i) inflate the noise level to sigma_hat = (1 + gamma_k) sigma_k and move
    to the matching noisier state; (ii) Euler step in sigma using the denoiser
    slope; (iii) average with the slope at the predicted point unless
    sigma_next is zero; (iv) add the guidance increment evaluated at the
    churned state, scaled by the unjittered sigma_k^2 - sigma_next^2.
    """
    sigma_hat = sigma_k * (1.0 + gamma_k)
    x_hat = math.sqrt(max(sigma_hat**2 - sigma_k**2, 0.0)) * z
    x_hat += x
    denoised_hat = denoiser.denoise(x_hat, sigma_hat)
    d_cur = x_hat - denoised_hat
    d_cur /= sigma_hat
    x_new = (sigma_next - sigma_hat) * d_cur
    x_new += x_hat
    if sigma_next != 0.0:
        d_next = x_new - denoiser.denoise(x_new, sigma_next)
        d_next /= sigma_next
        d_cur += d_next
        d_cur *= (sigma_next - sigma_hat) * 0.5
        np.add(x_hat, d_cur, out=x_new)
    grad = _guidance_rows(x_hat, sigma_hat, denoiser, ctx, data_log_likelihood_grad(ctx, denoised_hat))
    x_new += np.multiply(sigma_k**2 - sigma_next**2, grad, out=d_cur)
    return x_new
