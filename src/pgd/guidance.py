"""Observation/physics likelihoods, the covariance-aware twist, and the tds transition term.

The log-likelihood of a clean state is the weighted sum of three mean-square
terms: solution-observation misfit (weight beta), coefficient-observation
misfit (weight gamma), and the PDE residual (weight omega). Additive
constants are dropped throughout; only differences of log-likelihoods enter
the particle weights, so the dropped constant can never affect them.

:class:`GuidanceContext` owns the observation operator. It checks the
observations against the layout once, on construction, and flattens the
weighted groups into the observed state entries with their values and the
variance that each group's mean-square term implies. :func:`log_likelihood`,
:func:`data_log_likelihood_grad` and :func:`twist_correction` read those
arrays and take flat state rows: a (d,) row gives a float log-likelihood, an
(N, d) population gives (N,), and gradients are shaped like the rows. A
:class:`~pgd.grid.Field` is formed only for the PDE residual.
``log_likelihood(ctx, rows, grad=True)`` returns the value and its gradient
from one residual evaluation; :func:`data_log_likelihood_grad` is its
gradient alone.

At a noisy state the particle engine evaluates the likelihood at the
denoiser's reconstruction, the point twist, together with its gradient when
the next step is guided at that reconstruction. The guidance gradient of
:mod:`pgd.samplers` either chains that data-space gradient through
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
:func:`twist_correction`, which widens the observation terms by the Tweedie
posterior covariance of the clean state. Its normalizing constant is dropped
like every other constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Field, GridSpec
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


@dataclass(frozen=True)
class GuidanceContext:
    """Bundle of everything a guided step needs besides the state itself.

    Construction checks the observation groups against the layout and that a
    PDE term has a system, then builds the observation operator: ``index``
    holds the flat state entry (channel * cells + cell) of each observed value
    of a weighted group, ``values`` the observed values and ``variance`` the
    per-entry variance n / (2 weight) of its group's mean-square term, where n
    counts the group's values. An entry observed by both groups appears twice.
    """

    obs: Observations
    system: PdeSystem | None
    layout: StateLayout
    weights: GuidanceWeights
    index: np.ndarray = field(init=False, compare=False, repr=False)
    values: np.ndarray = field(init=False, compare=False, repr=False)
    variance: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        w = self.weights
        if w.omega > 0 and self.system is None:
            raise ValueError("omega > 0 requires a PDE system")
        cells = self.obs.mask_u.spec.cells
        index, values, variance = [np.zeros(0, dtype=int)], [np.zeros(0)], [np.zeros(0)]
        for weight, mask, vals, channels in (
            (w.beta, self.obs.mask_u, self.obs.values_u, self.layout.solution_channels),
            (w.gamma, self.obs.mask_a, self.obs.values_a, self.layout.coeff_channels),
        ):
            idx = mask.flat_indices()
            if not (weight > 0 and channels and idx.size):
                continue
            if vals.shape != (len(channels), idx.size):
                raise ValueError("observation values do not match mask count and channel group")
            for row, c in enumerate(channels):
                index.append(c * cells + idx)
                values.append(vals[row])
                variance.append(np.full(idx.size, vals.size / (2.0 * weight)))
        object.__setattr__(self, "index", np.concatenate(index))
        object.__setattr__(self, "values", np.concatenate(values))
        object.__setattr__(self, "variance", np.concatenate(variance))

    @property
    def spec(self) -> GridSpec:
        """Grid spec of the full state."""
        return self.obs.mask_u.spec.with_channels(self.layout.channel_count)


def log_likelihood(
    ctx: GuidanceContext, rows: np.ndarray, grad: bool = False
) -> float | np.ndarray | tuple[float | np.ndarray, np.ndarray]:
    """Weighted negative mean-square misfits of clean states (constant dropped).

    A float for a (d,) row, (N,) for (N, d) rows. With ``grad=True`` it
    returns (value, gradient with respect to the rows, shaped like ``rows``)
    from one residual evaluation.
    """
    rows = np.asarray(rows, dtype=float)
    r = ctx.values - rows[..., ctx.index]
    total = -np.sum(r * r / (2.0 * ctx.variance), axis=-1)
    if grad:
        data = np.zeros(rows.shape)
        np.add.at(data, (Ellipsis, ctx.index), r / ctx.variance)
    if ctx.weights.omega > 0:
        x = Field.from_flat(ctx.spec, rows)
        if grad:
            res, res_grad = residual_sq_grad(ctx.system, ctx.layout, x)
            data -= ctx.weights.omega * res_grad.reshape(rows.shape)
        else:
            res = residual(ctx.system, ctx.layout, x)
        total = total - ctx.weights.omega * np.mean(res.values.reshape(rows.shape[:-1] + (-1,)) ** 2, axis=-1)
    if rows.ndim == 1:
        total = float(total)
    return (total, data) if grad else total


def data_log_likelihood_grad(ctx: GuidanceContext, rows: np.ndarray) -> np.ndarray:
    """Gradient of :func:`log_likelihood` with respect to the clean state, shaped like ``rows``."""
    return log_likelihood(ctx, rows, grad=True)[1]


def twist_correction(
    ctx: GuidanceContext, denoiser: Denoiser, states: np.ndarray, denoised: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Covariance-aware twist correction for the tds scheme of the particle engine.

    log p~_k(y | x_k) = log_likelihood(x_hat) + 1/2 r^T (V^-1 - C_k^-1) r,
    with C_k = V + sigma_k^2 A J_k A^T. Here x_hat is the reconstruction, J_k
    the denoiser Jacobian, A picks the entries ``ctx.index``, r = y - A x_hat,
    and V = diag(``ctx.variance``). The beta and gamma terms of
    :func:`log_likelihood` equal -1/2 r^T V^-1 r, so the twist replaces them
    by log N(y; A x_hat, C_k), whose covariance adds the Tweedie posterior
    covariance sigma_k^2 J_k of the clean state. The omega term stays at the
    reconstruction point. The normalizing constant -1/2 log det C_k is
    dropped. The twist is exact for Gaussian priors with linear observations,
    and the correction vanishes as sigma -> 0.

    Returns the correction per row of ``states`` and its data-space gradient
    -A^T (V^-1 - C^-1) r, as ((N,), (N, d)). C is built once from m vjp rows,
    one per observed entry. That is exact for a denoiser whose Jacobian does
    not depend on the state, such as :class:`~pgd.priors.GaussianDenoiser`. A
    state-dependent denoiser, such as :class:`~pgd.priors.GmmDenoiser`, gets
    the symmetrized Jacobian at the rows' mean state, and the gradient treats
    C as constant.
    """
    n, d = states.shape
    m = ctx.index.size
    probe = np.zeros((m, d))
    probe[np.arange(m), ctx.index] = 1.0
    ajat = denoiser.vjp(states.mean(axis=0), sigma, probe)[:, ctx.index]
    cov = np.diag(ctx.variance) + sigma**2 * 0.5 * (ajat + ajat.T)
    r = ctx.values - denoised[:, ctx.index]
    gain = r / ctx.variance - np.linalg.solve(cov, r.T).T
    grad = np.zeros((n, d))
    np.add.at(grad, (Ellipsis, ctx.index), -gain)
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
