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

The cores take exactly what :func:`pgd.smc.smc_run` passes: (N, d) rows and
one (N, d) draw of :func:`noise_stream` (a single chain is N = 1). Both guide
with a data-space gradient at the reconstruction, pulled back to the noisy
state through the denoiser's exact vjp. ``gem_core`` is plain arithmetic on
the reconstruction and that pulled-back guidance, which the engine computes
with the particle's twist, so the likelihood is evaluated once per
reconstruction. ``heun_core`` guides at the churned state, where no weight is
evaluated, so it computes its own gradient, the (cotangent, index) pair of
:func:`~pgd.guidance.log_likelihood`, and passes it to
:meth:`~pgd.priors.Denoiser.vjp` unscattered.

The cores work in place only on arrays they allocate, that the denoiser
returned to them, or that the run gives up, in the operand order of the plain
expressions. ``gem_core`` writes none of its inputs. ``heun_core`` forms its
churned state in the draw ``z``'s buffer and its new states in the states
``x``'s, which the run reads no more. Neither writes the denoiser's own arrays
or the context's.
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


def noise_stream(seed: int) -> np.random.Generator:
    """The generator of all of a run's Gaussian noise, keyed by the run's seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(0, 0)))


def gem_core(
    x: np.ndarray, z: np.ndarray, sigma_k: float, sigma_next: float, denoised: np.ndarray, guidance: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Guided Euler-Maruyama step from x at sigma_k with reconstruction ``denoised``.

    Returns (sample, shift). With delta = sigma_k^2 - sigma_next^2, the
    unguided mean is x + delta (denoised - x) / sigma_k^2, the guidance shift
    is delta times ``guidance``, the data-space gradient pulled back through
    the denoiser at (x, sigma_k), and the sample is
    sqrt(delta) z + (shift + unguided mean).
    """
    delta = sigma_k**2 - sigma_next**2
    mean = denoised - x
    mean *= delta
    mean /= sigma_k**2
    mean += x
    shift = delta * guidance
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
    sigma_next is zero; (iv) add the guidance increment, the vjp through the
    denoiser at the churned state of the data-space gradient at its
    reconstruction, scaled by the unjittered sigma_k^2 - sigma_next^2.

    ``x`` and ``z`` are writable float64 arrays of one shape: the churned
    state is formed in ``z``'s buffer, and the Euler and final states in
    ``x``'s, which the returned states share. The vjp comes first, so its
    cotangent is freed before the slopes exist; they and the increment reuse
    the buffers of the denoises and the vjp.
    """
    sigma_hat = sigma_k * (1.0 + gamma_k)
    x_hat = np.multiply(math.sqrt(max(sigma_hat**2 - sigma_k**2, 0.0)), z, out=z)
    x_hat += x
    denoised_hat = denoiser.denoise(x_hat, sigma_hat)
    grad = denoiser.vjp(x_hat, sigma_hat, *data_log_likelihood_grad(ctx, denoised_hat))
    d_cur = np.subtract(x_hat, denoised_hat, out=denoised_hat)
    d_cur /= sigma_hat
    x_new = np.multiply(sigma_next - sigma_hat, d_cur, out=x)
    x_new += x_hat
    if sigma_next != 0.0:
        d_next = denoiser.denoise(x_new, sigma_next)
        np.subtract(x_new, d_next, out=d_next)
        d_next /= sigma_next
        d_cur += d_next
        d_cur *= (sigma_next - sigma_hat) * 0.5
        np.add(x_hat, d_cur, out=x_new)
    x_new += np.multiply(sigma_k**2 - sigma_next**2, grad, out=grad)
    return x_new
