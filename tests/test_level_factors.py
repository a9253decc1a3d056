"""One factor set per noise level: the Gaussian denoiser's shared factors and the two shape rules.

The twist's rank-r solve (r < m) and the (m, m) inverse it replaces agree, checked against the
dense covariance V + sigma^2 A J A^T built from the prior's (d, d) matrix; the two orders of the
dense Jacobian apply agree on both sides of the rule that picks one; and ``smc_run`` forms one
set per level, which every call at that level reads.
"""

import dataclasses

import numpy as np
import pytest

from pgd.grid import DIRICHLET, Field, GridSpec
from pgd.guidance import GuidanceContext, GuidanceWeights, log_likelihood, twist_solve
from pgd.priors import FactoredCov, GaussianDenoiser, GaussianPrior, NoiseSchedule, fit_empirical_prior
from pgd.residuals import PdeSystem, default_layout
from pgd.smc import SmcConfig, smc_run
from pgd.solvers import DatasetSpec, SmoothGrf, generate_dataset, make_observations

from oracles import dense_cov, tweedie_jacobian

SCHEDULE = NoiseSchedule()
SIGMAS = (SCHEDULE.sigma_min, 1.0, SCHEDULE.sigma_max)
WEIGHTS = GuidanceWeights(beta=8e4, gamma=8e4, omega=0.0)  # V = 1e-4 per entry at 16 observations per group


def darcy_problem(samples, prior):
    """(denoiser, obs, layout) on 8 x 8 darcy with 16 observations per group (m = 32): a dense prior
    fitted to ``samples`` samples (r = samples), its (d, d) matrix (r = d), a hand-built one with
    modes below its isotropic level, or a diagonal one (r = 0)."""
    system, layout = PdeSystem.darcy(), default_layout("darcy")
    spec = GridSpec(8, 8, 2, 1 / 9, DIRICHLET)
    data = generate_dataset(DatasetSpec(system, spec, samples + 1, SmoothGrf(), 5))
    rng = np.random.default_rng(5)
    if prior in ("fitted", "dense"):
        fitted = fit_empirical_prior(data[:samples], 0.1, "dense")
        if prior == "dense":
            fitted = GaussianPrior(fitted.mean, "dense", dense_cov(fitted.cov))
        den = GaussianDenoiser(fitted)
    elif prior == "below_iso":
        basis = np.linalg.qr(rng.standard_normal((spec.size, 4)))[0].T
        cov = FactoredCov(0.3, basis, np.array([2.0, 1.0, 0.1, 0.0]))  # two modes below iso = 0.3
        den = GaussianDenoiser(GaussianPrior(Field.zeros(spec), "dense", cov))
    else:
        den = GaussianDenoiser(fit_empirical_prior(data[:samples], 0.1, "diagonal"))
    return den, make_observations(data[samples], layout, 16, 0.01, rng), layout


@pytest.mark.parametrize("prior", ["fitted", "below_iso", "diagonal"])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_the_rank_r_twist_matches_the_dense_inverse(prior, sigma):
    den, obs, layout = darcy_problem(8, prior)
    ctx = GuidanceContext(obs, None, layout, WEIGHTS)
    rng = np.random.default_rng(6)
    states = den.denoise(sigma * rng.standard_normal((16, den.dim)), sigma)
    factors = den.level_factors(sigma, ctx.index, len(states))
    m, r = ctx.index.size, factors.cols.shape[0]
    assert m == 32 and r == {"fitted": 8, "below_iso": 4, "diagonal": 0}[prior]

    # the oracle: C = V + sigma^2 A J A^T from the prior's (d, d) matrix, inverted densely
    jac = tweedie_jacobian(dense_cov(den.prior.cov), sigma)
    inverse = np.linalg.inv(np.diag(ctx.variance) + sigma**2 * jac[np.ix_(ctx.index, ctx.index)])
    want, want_grad, _ = log_likelihood(ctx, states, grad=True, twist=lambda res: res @ inverse)
    got, grad, index = log_likelihood(ctx, states, grad=True, twist=twist_solve(ctx, den, states, sigma, factors))
    assert index is ctx.index
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert np.linalg.norm(grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)


def test_a_diagonal_prior_forms_its_jacobian_block_without_a_vjp():
    den, obs, layout = darcy_problem(8, "diagonal")
    ctx = GuidanceContext(obs, None, layout, WEIGHTS)
    den.vjp = None  # the base class's block is a vjp of the (m, m) identity, through an (m, d) array
    block = den.jacobian_block(ctx.index, 0.5, np.zeros((2, den.dim)))
    f = den.prior.cov / (den.prior.cov + 0.5**2)
    np.testing.assert_array_equal(block, np.diag(f[ctx.index]))


def dense_problem(rows):
    """A (d, d) prior on 8 x 8 cells, so r = d = 64, at ``rows`` states."""
    rng = np.random.default_rng(rows)
    root = rng.standard_normal((64, 64))
    prior = GaussianPrior(Field.zeros(GridSpec(8, 8, 1, 1.0)), "dense", root @ root.T / 64 + 0.1 * np.eye(64))
    return GaussianDenoiser(prior), rng.standard_normal((rows, 64))


@pytest.mark.parametrize("case", ["conjugate", "few_rows", "fitted"])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_the_two_jacobian_orders_agree_on_both_sides_of_the_shape_rule(case, sigma):
    # conjugate's shapes (N = 256, d = r = 64) take the (d, d) product; a (d, d) prior at N < d,
    # and a fitted prior with r < d, keep the two (N, d) (d, r) products
    if case == "fitted":
        den = darcy_problem(8, "fitted")[0]
        x = np.random.default_rng(7).standard_normal((64, den.dim))
    else:
        den, x = dense_problem(256 if case == "conjugate" else 32)
    factors = den.level_factors(sigma, rows=len(x))
    assert (factors.gram is not None) == (case == "conjugate")
    basis = den.prior.cov.basis
    by_modes = dataclasses.replace(factors, gram=None)
    by_gram = dataclasses.replace(factors, gram=(basis.T * factors.low) @ basis)
    for call in (lambda fs: den.denoise(x, sigma, fs), lambda fs: den.vjp(x, sigma, x, None, fs)):
        want = call(by_modes)
        for got in (call(by_gram), call(None)):  # None: the call forms its own set, by the rule
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("prior", ["fitted", "dense", "diagonal"])
def test_smc_run_forms_each_level_factor_set_once(prior, monkeypatch):
    """K + 1 sets on a K-step tds run, one per level from sigma_max down; no call forms its own."""
    den, obs, layout = darcy_problem(8, prior)
    sigmas = []
    original = GaussianDenoiser.level_factors

    def recording(self, sigma, *args, **kwargs):
        sigmas.append(sigma)
        return original(self, sigma, *args, **kwargs)

    monkeypatch.setattr(GaussianDenoiser, "level_factors", recording)
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=5, rho=2.0)
    smc_run(SmcConfig(4, sched, WEIGHTS, "gem", "tds", seed=1), den, obs, None, layout)
    assert sigmas == list(reversed(sched.levels))


@pytest.mark.parametrize("proposal,scheme,omega", [("gem", "pbs", 1e-3), ("gem", "tds", 1e-3), ("gem", "pbs", 0.0),
                                                   ("sosag", "pbs", 1e-3)])
def test_smc_run_forms_the_observed_entry_factors_only_where_they_are_read(proposal, scheme, omega, monkeypatch):
    """The tds twist and a vjp of the observed entries alone (omega = 0, a level with a next gem step) read
    them; the full cotangent of the PDE term does not. Passing the entries everywhere changes no bit."""
    den, obs, layout = darcy_problem(8, "fitted")
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=5, rho=2.0)
    config = SmcConfig(4, sched, GuidanceWeights(beta=100.0, gamma=100.0, omega=omega), proposal, scheme, seed=1)
    index = GuidanceContext(obs, PdeSystem.darcy(), layout, config.weights).index
    original, given = GaussianDenoiser.level_factors, []

    def recording(self, sigma, entries=None, rows=0):
        given.append(entries is not None)
        return original(self, sigma, entries, rows)

    def always(self, sigma, entries=None, rows=0):
        return original(self, sigma, index, rows)

    monkeypatch.setattr(GaussianDenoiser, "level_factors", recording)
    pop, diag = smc_run(config, den, obs, PdeSystem.darcy(), layout)
    if proposal == "sosag" or omega > 0 and scheme == "pbs":
        assert given and not any(given)
    else:
        assert given == [True] * sched.steps + [scheme == "tds"]  # the last level takes no gradient
    monkeypatch.setattr(GaussianDenoiser, "level_factors", always)
    want_pop, want_diag = smc_run(config, den, obs, PdeSystem.darcy(), layout)
    np.testing.assert_array_equal(pop.states, want_pop.states)
    np.testing.assert_array_equal(pop.log_weights, want_pop.log_weights)
    assert diag == want_diag and np.all(np.isfinite(pop.states))
