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
(N,). The PDE term views the rows as (..., C, H, W) states and calls the
residual kernel on them: no :class:`~pgd.grid.Field` is formed, and nothing
is validated per call. ``log_likelihood(ctx, rows, grad=True)`` returns the
value and its gradient from one residual evaluation;
:func:`data_log_likelihood_grad` is the gradient alone.

A gradient comes back as a (cotangent, index) pair. With the PDE term on
(omega > 0) the cotangent is the full gradient, shaped like the rows, and the
index is None. Without it the gradient is zero off the observed entries, and
the cotangent holds only its (..., m) values at ``index`` = ``ctx.index``.
Nothing here scatters it: the pair goes as it is to
:meth:`~pgd.priors.Denoiser.vjp`, which pulls it back from the m entries.
The particle engine does so right after it evaluates the likelihood and its
gradient at the denoiser's reconstruction, and ``heun_core`` at its churned state.

The weighting schemes of :mod:`pgd.smc` read this module. Under ``pbs`` the
twist is the point likelihood of the reconstruction. Under ``tds`` its
observation terms take the covariance of :func:`twist_covariance`, which adds
the Tweedie posterior covariance from the denoiser's (m, m) block and is
applied as its inverse by :func:`twist_solve`, and the potential adds
:func:`tds_transition_term`, the log-ratio of the unguided to the guided
Gaussian transition, which only an explicit Gaussian step has.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import is_real
from .grid import GridSpec
from .priors import Denoiser, LevelFactors
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
    that both observation masks share, with the layout's channel count. The
    PDE term (omega > 0) needs a system. A given system is checked at every
    omega, since its kind fixes each channel's slot and the layout routes the
    observation groups at omega = 0 too: the layout must be its own on ``spec``.
    Without a system any partition of the channels will do. Then it checks the
    observation groups against the layout and builds the observation operator: ``index``
    holds the flat state entry (channel * cells + cell), none repeated, of
    each observed value of a weighted group, ``values`` the observed values
    and ``variance`` the per-entry variance n / (2 weight) of its group's
    mean-square term, where n counts the group's values.
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
        if self.system is not None:
            self.layout.validate_for(self.system, spec)
        elif w.omega > 0:
            raise ValueError("omega > 0 requires a PDE system")
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
    ctx: GuidanceContext, rows: np.ndarray, grad: bool = False, twist: Callable[[np.ndarray], np.ndarray] | None = None
) -> float | np.ndarray | tuple[float | np.ndarray, np.ndarray, np.ndarray | None]:
    """Weighted negative mean-square misfits of clean states (constant dropped).

    A float for a (d,) row, (N,) for (N, d) rows. With ``grad=True`` it
    returns (value, cotangent, index) from one residual evaluation, the
    gradient with respect to the rows as the pair of the module docstring.

    With r = y - A x, the observation terms are -1/2 r^T V^-1 r, or, given
    ``twist``, the map r -> r C^-1 of :func:`twist_solve` for the tds twist's
    covariance C, log N(y; A x, C) as -1/2 r^T r~ with gradient A^T r~
    (C held constant), where all rows take r~ = r C^-1 from that one map.
    """
    rows = np.asarray(rows, dtype=float)
    r = ctx.values - rows[..., ctx.index]
    if twist is None:
        total = -np.sum(r * r / (2.0 * ctx.variance), axis=-1)
        gain = r / ctx.variance if grad else None
    else:
        gain = twist(r)
        total = -0.5 * np.sum(r * gain, axis=-1)
    cotangent, index = gain, ctx.index
    if ctx.weights.omega > 0:
        spec = ctx.spec
        x = rows.reshape(rows.shape[:-1] + (spec.channels, spec.height, spec.width))
        res, res_grad = residual_sq_grad(ctx.system, spec, x, grad=grad)
        # the value first, squared into C order: the kernel's residual may be a species-first view that a reshape
        # would copy; it is then freed, so that it is not alive beside a species-first gradient's row-order copy
        total = total - ctx.weights.omega * np.mean(np.square(res, order="C").reshape(rows.shape[:-1] + (-1,)), axis=-1)
        del res
        if grad:  # scaled into rows in one pass: in place where the kernel's gradient is in row order, else (the
            # species-first one of gray_scott_2) into a new C-ordered array; index repeats no entry
            own = res_grad if res_grad.flags.c_contiguous else None
            cotangent, index = np.multiply(res_grad, -ctx.weights.omega, out=own, order="C").reshape(rows.shape), None
            cotangent[..., ctx.index] += gain
    if rows.ndim == 1:
        total = float(total)
    return (total, cotangent, index) if grad else total


def data_log_likelihood_grad(ctx: GuidanceContext, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradient of :func:`log_likelihood` with respect to the clean state, as its (cotangent, index) pair."""
    return log_likelihood(ctx, rows, grad=True)[1:]


def twist_covariance(
    ctx: GuidanceContext, denoiser: Denoiser, states: np.ndarray, sigma: float, factors: LevelFactors | None = None
) -> np.ndarray:
    """Observation covariance C_k = V + sigma_k^2 sym(A J_k A^T) of the tds twist, as (m, m).

    J_k is the denoiser Jacobian, so sigma_k^2 J_k is the Tweedie posterior
    covariance of the clean state; the twist log N(y; A x_hat, C_k) is exact
    for Gaussian priors with linear observations and is the point likelihood
    at sigma = 0. The denoiser's ``jacobian_block`` gives A J_k A^T: exact from
    the level's ``factors`` of a :class:`~pgd.priors.GaussianDenoiser`, and by default (as for a
    :class:`~pgd.priors.GmmDenoiser`) one vjp at the mean of the ``states`` rows.
    """
    ajat = denoiser.jacobian_block(ctx.index, sigma, states, factors)
    cov = sigma**2 * 0.5 * (ajat + ajat.T)
    cov.flat[:: ctx.index.size + 1] += ctx.variance  # the diagonal
    return cov


def twist_solve(
    ctx: GuidanceContext, denoiser: Denoiser, states: np.ndarray, sigma: float, factors: LevelFactors | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """The map r -> r C_k^-1 on (..., m) rows, for C_k of :func:`twist_covariance`.

    Given the denoiser's ``factors`` at sigma with r < m modes, C_k = diag(e) + U^T D U, with
    U their (r, m) basis columns at the observed entries, D = sigma^2 diag(f - f_iso) and
    e = V + sigma^2 ``factors.diag``. Then C_k^-1 = E^-1 - E^-1 U^T K^-1 D U E^-1 through the
    (r, r) capacitance K = I_r + D U E^-1 U^T: this push-through form of Woodbury's identity
    needs no D^-1, so a mode at or below the isotropic level needs no rule of its own. A
    diagonal prior has r = 0 and an empty K: its C_k = diag(e) is solved elementwise.
    Otherwise, and without factors, it takes one inverse of the (m, m) C_k.
    """
    m = ctx.index.size
    if factors is None or factors.cols.shape[0] >= m:
        inverse = np.linalg.inv(twist_covariance(ctx, denoiser, states, sigma, factors))
        return lambda r: r @ inverse
    e = ctx.variance + sigma**2 * factors.diag
    du = sigma**2 * factors.scaled.T  # D U, (r, m)
    back = np.linalg.solve(np.eye(len(du)) + (du / e) @ factors.cols.T, du) / e  # K^-1 D U E^-1
    cols = factors.cols / e  # U E^-1
    return lambda r: r / e - (r @ back.T) @ cols


def tds_transition_term(z: np.ndarray, shift: np.ndarray, step_var: float) -> np.ndarray:
    """log N(x; m, v I) - log N(x; m + shift, v I) per row, as (N,), at x = m + shift + sqrt(v) z.

    ``z`` holds the step's (N, d) unit draws and ``shift`` the guidance shift
    of :func:`~pgd.samplers.gem_core`. The shared covariance reduces the ratio
    to -(sqrt(v) shift . z + shift . shift / 2) / v, two row dot products with no
    (N, d) temporary; :class:`~pgd.priors.NoiseSchedule` makes v > 0.
    """
    return -(np.sqrt(step_var) * np.vecdot(shift, z) + 0.5 * np.vecdot(shift, shift)) / step_var
