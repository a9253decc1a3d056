"""Exact linear-Gaussian oracles, and the test problems that several test modules share.

:func:`condition` is the suite's one exact posterior: the prior N(mu, S) of a GaussianDenoiser
conditioned in gain form (Rasmussen & Williams, *GPML*, 2006, ch. 2) on the one-hot rows A at
``ctx.index``, with noise V = ``ctx.variance``, and y = ``ctx.values``. It is exact for a linear
residual with zero offset only (poisson, helmholtz), or for any system at omega = 0: the PDE term
enters as pseudo-observations 0 = L x + e, with L read off the residual kernel at unit states. It
never inverts S, so a singular S is fine, such as the (d, d) kernel stored with iso = 0. Two references
in ``test_smc.py`` that do not go through it check it: the information form, from ``log_likelihood``'s
own gradient, and the precision form N(P^-1 b, P^-1); its log-normalizer is checked against the Bayes
identity. pytest puts this directory on the path, so the test modules import it as ``oracles``.
"""

import functools

import numpy as np

from pgd.grid import DIRICHLET, GridSpec, Mask
from pgd.guidance import twist_covariance
from pgd.priors import GaussianDenoiser, fit_empirical_prior
from pgd.residuals import StateLayout, default_layout, residual_sq_grad
from pgd.solvers import DatasetSpec, Observations, SmoothGrf, generate_dataset, make_observations

SOLUTION_ONLY = StateLayout(coeff_channels=(), solution_channels=(0,))


def observations_on(spec, idx, values, sigma_o=0.1):
    """Observations of channel 0 at the cells ``idx`` as the solution group; the coefficient group is empty."""
    empty, values = Mask.from_indices(spec, []), np.asarray(values, dtype=float)[None, :]
    return Observations(empty, np.zeros((0, 0)), Mask.from_indices(spec, idx), values, sigma_o)


@functools.cache
def fitted_problem(system, n, seed, coeff_model=SmoothGrf()):
    """(denoiser, observations, system, layout) on n x n cells, in smc_run's argument order.

    A dense prior fitted to 64 generated samples (lam = 0.1), the 65th as truth, and 16
    observations per group at sigma_o = 0.01; ``seed`` seeds both the data and the observed cells.
    Built once per argument set and shared, so no caller writes to what it returns.
    """
    layout = default_layout(system.kind)
    data = generate_dataset(DatasetSpec(system, GridSpec(n, n, 2, 1 / (n + 1), DIRICHLET), 65, coeff_model, seed))
    den = GaussianDenoiser(fit_empirical_prior(data[:64], 0.1, "dense"))
    return den, make_observations(data[64], layout, 16, 0.01, np.random.default_rng(seed)), system, layout


def dense_cov(cov):
    """The (d, d) matrix of a prior covariance: a :class:`~pgd.priors.FactoredCov` or a diagonal (d,) vector."""
    if isinstance(cov, np.ndarray):
        return np.diag(cov)
    return cov.iso * np.eye(cov.basis.shape[1]) + cov.basis.T @ ((cov.evals - cov.iso)[:, None] * cov.basis)


def tweedie_jacobian(s, sigma):
    """S (S + sigma^2 I)^-1, the Jacobian of the exact denoiser of N(mu, S) at noise level sigma."""
    return s @ np.linalg.inv(s + sigma**2 * np.eye(len(s)))


def residual_operator(ctx):
    """The (n, d) matrix L of a linear residual with zero offset, one column per unit state."""
    spec, d = ctx.spec, ctx.spec.size
    res, _ = residual_sq_grad(ctx.system, spec, np.eye(d).reshape(d, spec.channels, spec.height, spec.width))
    return res.reshape(d, -1).T


def condition(ctx, den):
    """(mean, cov, log-normalizer) of the target of a run on a linear system, in gain form.

    H stacks A and, at omega > 0, L; the noise stacks V and n / (2 omega). With the marginal
    M = H S H^T + noise and r = (y, 0) - H mu, the mean is mu + G r and the covariance S - G H S
    for the gain G = S H^T M^-1, and the log-normalizer is log N(r; 0, M): log p(y) at omega = 0.
    """
    mu, s = den.prior.mean.flat(), dense_cov(den.prior.cov)
    h, noise, y = np.eye(ctx.spec.size)[ctx.index], ctx.variance, ctx.values
    if (omega := ctx.weights.omega) > 0:
        lmat = residual_operator(ctx)
        n = lmat.shape[0]
        h, noise, y = np.vstack([h, lmat]), np.r_[noise, np.full(n, n / (2 * omega))], np.r_[y, np.zeros(n)]
    hs = h @ s
    marginal = hs @ h.T + np.diag(noise)
    gain_t, r = np.linalg.solve(marginal, hs), y - h @ mu  # G^T, since M is symmetric
    log_py = -0.5 * (r @ np.linalg.solve(marginal, r) + np.linalg.slogdet(2 * np.pi * marginal)[1])
    return mu + r @ gain_t, s - gain_t.T @ hs, log_py


def log_evidence_offset(ctx, den, sigma_min):
    """c_0 = -1/2 log det(2 pi C_0), the normalizer of the final twist, which smc_run drops.

    Every other additive constant telescopes to it, so a run's log_evidence + c_0 estimates log p(y).
    """
    return -0.5 * np.linalg.slogdet(2 * np.pi * twist_covariance(ctx, den, np.zeros((1, ctx.spec.size)), sigma_min))[1]


def iid_mean_error_percentile(mean, cov, particles, repeats=200, seed=0):
    """The 99th percentile, over ``repeats``, of the relative error of the mean of ``particles`` exact draws."""
    rng, chol = np.random.default_rng(seed), np.linalg.cholesky(cov)
    draws = (mean + rng.standard_normal((particles, mean.size)) @ chol.T for _ in range(repeats))
    return np.percentile([np.linalg.norm(x.mean(axis=0) - mean) for x in draws], 99) / np.linalg.norm(mean)
