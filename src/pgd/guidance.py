"""Observation/physics likelihoods, the covariance-aware twist, and the tds transition term.

The log-likelihood of a clean state is the weighted sum of three mean-square
terms: solution-observation misfit (weight beta), coefficient-observation
misfit (weight gamma), and the PDE residual (weight omega). Additive
constants are dropped throughout; only differences of log-likelihoods enter
the particle weights, so the dropped constant can never affect them.

:func:`log_likelihood` and :func:`data_log_likelihood_grad` take a single
field or a batch (see :class:`~pgd.grid.Field`): a (N, C, H, W) population
gives (N,) log-likelihoods and (N, C, H, W) gradients, each row equal to the
single-field result. The particle engine makes one call per step.

At a noisy state the particle engine evaluates the likelihood at the
denoiser's reconstruction, the point twist. The guidance gradient of
:mod:`pgd.samplers` either chains :func:`data_log_likelihood_grad` through
the denoiser's exact vjp (jacobian_mode="exact") or treats the denoiser
Jacobian as the identity (jacobian_mode="identity", the convention of
earlier guided-ODE solvers).

Two weighting schemes turn proposals into a particle system:

- "pbs": potentials are tempered likelihood ratios only; usable with any
  proposal, including ones without a point-evaluable density.
- "tds": adds the log-ratio of the unguided to the guided transition density
  (:func:`tds_transition_term`), available only for proposals whose
  transition is an explicit Gaussian.

Under ``pbs`` the twist is the point twist. Under ``tds`` the engine adds
:class:`CovarianceTwist`, which widens the observation terms by the Tweedie
posterior covariance of the clean state. Its normalizing constant is dropped
like every other constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field
from .priors import Denoiser
from .residuals import PdeSystem, StateLayout, residual_sq_grad, residual
from .solvers import Observations

JACOBIAN_MODES = ("exact", "identity")


@dataclass(frozen=True)
class GuidanceWeights:
    """Nonnegative weights of the likelihood terms plus the tempering exponent."""

    beta: float = 1.0
    gamma: float = 1.0
    omega: float = 1.0
    temper_rho: float = 1.0
    jacobian_mode: str = "exact"

    def __post_init__(self):
        for name in ("beta", "gamma", "omega", "temper_rho"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.jacobian_mode not in JACOBIAN_MODES:
            raise ValueError(f"jacobian_mode must be one of {JACOBIAN_MODES}")


def _observed_groups(obs: Observations, layout: StateLayout, w: GuidanceWeights) -> list:
    """(weight, observed cell indices, values, channels) of each weighted, observed group.

    Raises ``ValueError`` when a group's values are not one row per channel
    and one column per observed cell.
    """
    groups = []
    for weight, mask, values, channels in (
        (w.beta, obs.mask_u, obs.values_u, layout.solution_channels),
        (w.gamma, obs.mask_a, obs.values_a, layout.coeff_channels),
    ):
        idx = mask.flat_indices()
        if weight > 0 and channels and idx.size:
            if values.shape != (len(channels), idx.size):
                raise ValueError("observation values do not match mask count and channel group")
            groups.append((weight, idx, values, channels))
    return groups


@dataclass(frozen=True)
class GuidanceContext:
    """Bundle of everything a guided step needs besides the state itself.

    The observation groups are checked against the layout on construction.
    """

    obs: Observations
    system: PdeSystem | None
    layout: StateLayout
    weights: GuidanceWeights

    def __post_init__(self):
        _observed_groups(self.obs, self.layout, self.weights)


def _cell_rows(x: Field) -> np.ndarray:
    """State values as (..., C, H*W)."""
    return x.values.reshape(x.batch_shape + (x.spec.channels, x.spec.cells))


def log_likelihood(
    x0: Field,
    obs: Observations,
    system: PdeSystem | None,
    layout: StateLayout,
    w: GuidanceWeights,
) -> float | np.ndarray:
    """Weighted negative mean-square misfits of a clean state (constant dropped).

    A float for a single field, (N,) for a batch of N.
    """
    v = _cell_rows(x0)
    total = np.zeros(x0.batch_shape)
    for weight, idx, values, channels in _observed_groups(obs, layout, w):
        sq = np.zeros(x0.batch_shape)
        for row, c in enumerate(channels):
            # contiguous rows and a stacked (1, m) @ (m, 1) product round like
            # the 1-D dot of a single field, so each row matches it bit for bit
            diff = np.ascontiguousarray(values[row] - v[..., c, idx])
            sq = sq + (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
        total = total - weight * sq / values.size
    if w.omega > 0:
        if system is None:
            raise ValueError("omega > 0 requires a PDE system")
        r = residual(system, layout, x0).values
        total = total - w.omega * np.mean(r.reshape(x0.batch_shape + (-1,)) ** 2, axis=-1)
    return total if x0.batch_shape else float(total)


def data_log_likelihood_grad(
    x0: Field,
    obs: Observations,
    system: PdeSystem | None,
    layout: StateLayout,
    w: GuidanceWeights,
) -> Field:
    """Gradient of :func:`log_likelihood` with respect to the clean state.

    (C, H, W) for a single field, (N, C, H, W) for a batch of N.
    """
    v = _cell_rows(x0)
    grad = np.zeros_like(x0.values)
    g = grad.reshape(v.shape)  # view
    for weight, idx, values, channels in _observed_groups(obs, layout, w):
        for row, c in enumerate(channels):
            g[..., c, idx] += 2.0 * weight / values.size * (values[row] - v[..., c, idx])
    if w.omega > 0:
        if system is None:
            raise ValueError("omega > 0 requires a PDE system")
        grad -= w.omega * residual_sq_grad(system, layout, x0).values
    return Field(x0.spec, grad)


class CovarianceTwist:
    """Covariance-aware twist for the tds scheme of the particle engine.

    log p~_k(y | x_k) = log_likelihood(x_hat) + 1/2 r^T (V^-1 - C_k^-1) r,
    with C_k = V + sigma_k^2 A J_k A^T. Here x_hat is the reconstruction, J_k
    the denoiser Jacobian, A picks the observed entries of the beta and gamma
    groups, r = y - A x_hat, and V = diag(n/(2 beta), n/(2 gamma)) holds the
    variances that those groups' mean-square terms imply. The beta and gamma
    terms of ``log_likelihood`` equal -1/2 r^T V^-1 r, so the twist replaces
    them by log N(y; A x_hat, C_k), whose covariance adds the Tweedie
    posterior covariance sigma_k^2 J_k of the clean state. The omega term
    stays at the reconstruction point. The normalizing constant
    -1/2 log det C_k is dropped. The twist is exact for Gaussian priors with
    linear observations, and the correction vanishes as sigma -> 0.
    """

    def __init__(self, ctx: GuidanceContext):
        cells = ctx.obs.mask_u.spec.cells
        index, values, variance = [], [], []
        for weight, cell_idx, vals, channels in _observed_groups(ctx.obs, ctx.layout, ctx.weights):
            for row, c in enumerate(channels):
                index.append(c * cells + cell_idx)
                values.append(vals[row])
                variance.append(np.full(cell_idx.size, vals.size / (2.0 * weight)))
        self.index = np.concatenate([np.zeros(0, dtype=int), *index])
        self.values = np.concatenate([np.zeros(0), *values])
        self.variance = np.concatenate([np.zeros(0), *variance])

    def correction(
        self, denoiser: Denoiser, states: np.ndarray, denoised: np.ndarray, sigma: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The correction 1/2 r^T (V^-1 - C^-1) r per row of ``states`` and its
        data-space gradient -A^T (V^-1 - C^-1) r, as ((N,), (N, d)).

        C is built once from m vjp rows, one per observed entry. That is exact
        for a denoiser whose Jacobian does not depend on the state, such as
        :class:`~pgd.priors.GaussianDenoiser`. A state-dependent denoiser, such
        as :class:`~pgd.priors.GmmDenoiser`, gets the symmetrized Jacobian at
        the rows' mean state, and the gradient treats C as constant.
        """
        n, d = states.shape
        m = self.index.size
        probe = np.zeros((m, d))
        probe[np.arange(m), self.index] = 1.0
        ajat = denoiser.vjp(states.mean(axis=0), sigma, probe)[:, self.index]
        cov = np.diag(self.variance) + sigma**2 * 0.5 * (ajat + ajat.T)
        r = self.values - denoised[:, self.index]
        gain = r / self.variance - np.linalg.solve(cov, r.T).T
        grad = np.zeros((n, d))
        grad[:, self.index] = -gain
        return 0.5 * np.sum(r * gain, axis=1), grad


def tds_transition_term(
    x_new: np.ndarray,
    mean_unguided: np.ndarray,
    mean_guided: np.ndarray,
    step_var: float,
) -> np.ndarray:
    """log N(x; mean_unguided, v I) - log N(x; mean_guided, v I) per row, as (N,).

    All arguments but ``step_var`` are (N, d) rows. Both Gaussians share the
    covariance, so normalization constants cancel and the ratio is the
    quadratic-form difference.
    """
    if step_var <= 0:
        raise ValueError("step variance must be positive")
    d_un = x_new - mean_unguided
    d_gd = x_new - mean_guided
    # stacked (1, d) @ (d, 1) products round like a per-row 1-D dot (einsum does
    # not), so fixed-seed tds weights match the per-row form bit for bit
    sq = d_gd[:, None, :] @ d_gd[:, :, None] - d_un[:, None, :] @ d_un[:, :, None]
    return sq[:, 0, 0] / (2.0 * step_var)
