"""Observation/physics likelihoods, the covariance-aware twist, and the tds transition term.

The log-likelihood of a clean state is the weighted sum of three mean-square
terms: solution-observation misfit (weight beta), coefficient-observation
misfit (weight gamma), and the PDE residual (weight omega). Additive
constants are dropped throughout; only differences of log-likelihoods enter
the particle weights, so the dropped constant can never affect them.

:class:`GuidanceContext` owns the observation operator. It checks the
observations against the layout once, on construction, and flattens the
weighted groups into the observed state entries with their values and the
variance that each group's mean-square term implies. :func:`log_likelihood`
and :func:`data_log_likelihood_grad` read those arrays and take flat state
rows: a (d,) row gives a float log-likelihood, an (N, d) population gives
(N,), and gradients are shaped like the rows. The PDE term views the rows as
(..., C, H, W) states and calls the residual kernel on them: no
:class:`~pgd.grid.Field` is formed, and nothing is validated per call.
``log_likelihood(ctx, rows, grad=True)`` returns the value and its gradient
from one residual evaluation; :func:`data_log_likelihood_grad` is its
gradient alone.

At a noisy state the particle engine evaluates the likelihood at the
denoiser's reconstruction, together with its gradient when the next step is
guided at that reconstruction. The proposal cores of :mod:`pgd.samplers`
chain that data-space gradient through the denoiser's exact vjp.

Two weighting schemes turn proposals into a particle system:

- "pbs": potentials are likelihood ratios only; usable with any
  proposal, including ones without a point-evaluable density.
- "tds": adds the log-ratio of the unguided to the guided transition density
  (:func:`tds_transition_term`), available only for proposals whose
  transition is an explicit Gaussian. Both Gaussians share the step
  variance, so the ratio is read off the step's draw and its guidance shift.

Under ``pbs`` the twist is the point likelihood of the reconstruction. Under
``tds`` its observation terms take the covariance of :func:`twist_covariance`,
which adds the Tweedie posterior covariance from the denoiser's (m, m) block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import is_real
from .grid import GridSpec
from .priors import Denoiser
from .residuals import PdeSystem, StateLayout, residual_sq_grad
from .residuals import residual  # unused here; bench/tracer.py binds it until ROADMAP item 1 re-maps it
from .solvers import Observations


@dataclass(frozen=True)
class GuidanceWeights:
    """Nonnegative weights of the likelihood terms."""

    beta: float = 1.0
    gamma: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("beta", "gamma", "omega"):
            val = getattr(self, name)
            if not (is_real(val) and np.isfinite(val) and val >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class GuidanceContext:
    """Bundle of everything a guided step needs besides the state itself.

    Construction sets ``spec``, the grid spec of the full state: the grid
    that both observation masks share, with the layout's channel count. When
    the PDE term is on, it checks that there is a system and that the layout
    is that system's own on ``spec``, since the residual kernel reads each
    channel from the slot the system fixes for it. Then it checks the
    observation groups against the layout and builds the observation
    operator: ``index`` holds the flat state entry (channel * cells + cell),
    none repeated, of each observed value of a weighted group, ``values`` the
    observed values and ``variance`` the per-entry variance n / (2 weight) of
    its group's mean-square term, where n counts the group's values.
    """

    obs: Observations
    system: PdeSystem | None
    layout: StateLayout
    weights: GuidanceWeights
    spec: GridSpec = field(init=False, compare=False, repr=False)
    index: np.ndarray = field(init=False, compare=False, repr=False)
    values: np.ndarray = field(init=False, compare=False, repr=False)
    variance: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        w = self.weights
        spec = self.obs.mask_u.spec.with_channels(self.layout.channel_count)
        if w.omega > 0:
            if self.system is None:
                raise ValueError("omega > 0 requires a PDE system")
            self.layout.validate_for(self.system, spec)
        object.__setattr__(self, "spec", spec)
        cells = spec.cells
        index, values, variance = [np.zeros(0, dtype=int)], [np.zeros(0)], [np.zeros(0)]
        for weight, mask, vals, channels in (
            (w.beta, self.obs.mask_u, self.obs.values_u, self.layout.solution_channels),
            (w.gamma, self.obs.mask_a, self.obs.values_a, self.layout.coeff_channels),
        ):
            idx = mask.indices
            if not (weight > 0 and channels and idx.size):
                continue
            if vals.shape != (len(channels), idx.size):
                raise ValueError("observation values do not match mask count and channel group")
            index.append((np.asarray(channels)[:, None] * cells + idx).ravel())  # channel by channel
            values.append(vals.ravel())
            variance.append(np.full(vals.size, vals.size / (2.0 * weight)))
        object.__setattr__(self, "index", np.concatenate(index))
        object.__setattr__(self, "values", np.concatenate(values))
        object.__setattr__(self, "variance", np.concatenate(variance))


def log_likelihood(
    ctx: GuidanceContext, rows: np.ndarray, grad: bool = False, cov: np.ndarray | None = None
) -> float | np.ndarray | tuple[float | np.ndarray, np.ndarray]:
    """Weighted negative mean-square misfits of clean states (constant dropped).

    A float for a (d,) row, (N,) for (N, d) rows. With ``grad=True`` it
    returns (value, gradient with respect to the rows, shaped like ``rows``)
    from one residual evaluation.

    With r = y - A x, the observation terms are -1/2 r^T V^-1 r, or, given
    ``cov`` = C of :func:`twist_covariance`, log N(y; A x, C) as -1/2 r^T r~
    with gradient A^T r~ (C held constant); all rows take r~ = C^-1 r from one inverse.
    """
    rows = np.asarray(rows, dtype=float)
    r = ctx.values - rows[..., ctx.index]
    if cov is None:
        total = -np.sum(r * r / (2.0 * ctx.variance), axis=-1)
        gain = r / ctx.variance if grad else None
    else:
        gain = r @ np.linalg.inv(cov)
        total = -0.5 * np.sum(r * gain, axis=-1)
    data = np.zeros(rows.shape) if grad and not ctx.weights.omega > 0 else None
    if ctx.weights.omega > 0:
        spec = ctx.spec
        x = rows.reshape(rows.shape[:-1] + (spec.channels, spec.height, spec.width))
        res, res_grad = residual_sq_grad(ctx.system, spec, x, grad=grad)
        if grad:  # scaled in the kernel's own array; the gain is added below
            data = np.multiply(res_grad, -ctx.weights.omega, out=res_grad).reshape(rows.shape)
        # squared first: the kernel's residual may be a view that a reshape would copy
        total = total - ctx.weights.omega * np.mean((res**2).reshape(rows.shape[:-1] + (-1,)), axis=-1)
    if grad:  # index repeats no entry, so one indexed add scatters the gain
        data[..., ctx.index] += gain
    if rows.ndim == 1:
        total = float(total)
    return (total, data) if grad else total


def data_log_likelihood_grad(ctx: GuidanceContext, rows: np.ndarray) -> np.ndarray:
    """Gradient of :func:`log_likelihood` with respect to the clean state, shaped like ``rows``."""
    return log_likelihood(ctx, rows, grad=True)[1]


def twist_covariance(ctx: GuidanceContext, denoiser: Denoiser, states: np.ndarray, sigma: float) -> np.ndarray:
    """Observation covariance C_k = V + sigma_k^2 sym(A J_k A^T) of the tds twist, as (m, m).

    J_k is the denoiser Jacobian, so sigma_k^2 J_k is the Tweedie posterior
    covariance of the clean state; the twist log N(y; A x_hat, C_k) is exact
    for Gaussian priors with linear observations and is the point likelihood
    at sigma = 0. The denoiser's ``jacobian_block`` gives A J_k A^T: exact from
    the factors of a :class:`~pgd.priors.GaussianDenoiser`, and by default (as for a
    :class:`~pgd.priors.GmmDenoiser`) one vjp at the mean of the ``states`` rows.
    """
    ajat = denoiser.jacobian_block(ctx.index, sigma, states)
    cov = sigma**2 * 0.5 * (ajat + ajat.T)
    cov[np.diag_indices_from(cov)] += ctx.variance
    return cov


def tds_transition_term(z: np.ndarray, shift: np.ndarray, step_var: float) -> np.ndarray:
    """log N(x; m, v I) - log N(x; m + shift, v I) per row, as (N,), at x = m + shift + sqrt(v) z.

    ``z`` holds the step's (N, d) unit draws and ``shift`` the guidance shift
    of :func:`~pgd.samplers.gem_core`. The shared covariance reduces the ratio
    to -shift . (sqrt(v) z + shift / 2) / v; :class:`~pgd.priors.NoiseSchedule` makes v > 0.
    """
    half = 0.5 * shift
    half += np.sqrt(step_var) * z
    return -np.vecdot(shift, half) / step_var
