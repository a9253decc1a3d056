"""Reverse-time proposal cores for the particle engine.

- ``em_core``: Euler-Maruyama discretization of the reverse SDE.
- ``gem_core``: em plus the guidance increment on the mean; reports both
  Gaussian transition means so density-ratio weights can be formed.
- ``heun_core``: noise churn followed by a Heun (trapezoidal) step of the
  probability-flow dynamics, optionally plus the guidance increment applied
  at the churned state with the unjittered squared-sigma step scaling. With
  no churn it is the deterministic probability-flow ODE step.

The printed update equations use the sigma-difference (next minus current),
which is negative along a decreasing schedule; all steps here use the
positive magnitude sigma_k^2 - sigma_{k-1}^2 for the injected variance with
drift and guidance signs fixed so the mean moves toward the denoised state
and ascends the intermediate log-likelihood. Noise churn uses unit noise
inflation.

The cores take the Gaussian draws explicitly and act on (N, d) particle
rows; :func:`pgd.smc.smc_run` drives them, and a single chain is a run with
N = 1. ``gem_core`` takes the data-space guidance gradient at the
reconstruction as ``data_grad``: the engine computes it together with the
twist that weights the particle, so the likelihood is evaluated once per
reconstruction. ``heun_core`` guides at the churned state, a point that no
weight is evaluated at, so it computes its own gradient.

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
    x: np.ndarray,
    sigma: float,
    denoiser: Denoiser,
    ctx: GuidanceContext,
    denoised: np.ndarray,
    data_grad: np.ndarray | None = None,
) -> np.ndarray:
    """Guidance gradient rows at (x, sigma), reusing the already-denoised rows.

    ``data_grad`` is the data-space gradient at ``denoised`` when the caller
    has it already; otherwise it is computed here. It is pulled back through
    the denoiser with one vjp.
    """
    if data_grad is None:
        data_grad = data_log_likelihood_grad(ctx, denoised)
    if ctx.weights.jacobian_mode == "identity":
        return data_grad
    return denoiser.vjp(x, sigma, data_grad)


def _em_mean(x: np.ndarray, denoised: np.ndarray, sigma_k: float, delta: float) -> np.ndarray:
    """Unguided Euler-Maruyama transition mean x + delta (denoised - x) / sigma_k^2."""
    mean = denoised - x
    mean *= delta
    mean /= sigma_k**2
    mean += x
    return mean


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
    mean = _em_mean(x, denoised, sigma_k, delta)
    sample = math.sqrt(delta) * z
    sample += mean
    return sample, mean


def gem_core(
    x: np.ndarray,
    z: np.ndarray,
    sigma_k: float,
    sigma_next: float,
    denoiser: Denoiser,
    ctx: GuidanceContext,
    denoised: np.ndarray | None = None,
    data_grad: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Guided Euler-Maruyama step; returns (sample, unguided mean, guided mean).

    The guidance ascends the twist whose data-space gradient at ``denoised``
    is ``data_grad``. When it is not given, the gradient of the point twist
    is computed here.
    """
    x = np.asarray(x, dtype=float)
    if denoised is None:
        denoised = denoiser.denoise(x, sigma_k)
    delta = sigma_k**2 - sigma_next**2
    mean_em = _em_mean(x, denoised, sigma_k, delta)
    mean_guided = delta * _guidance_rows(x, sigma_k, denoiser, ctx, denoised, data_grad)
    mean_guided += mean_em
    sample = math.sqrt(delta) * z
    sample += mean_guided
    return sample, mean_em, mean_guided


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
    if ctx is not None:
        grad = _guidance_rows(x_hat, sigma_hat, denoiser, ctx, denoised_hat)
        x_new += np.multiply(sigma_k**2 - sigma_next**2, grad, out=d_cur)
    return x_new
