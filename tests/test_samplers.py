import numpy as np
import pytest

from pgd.errors import BlowUpError
from pgd.grid import Field, GridSpec, Mask
from pgd.guidance import GuidanceContext, GuidanceWeights, guidance_grad
from pgd.priors import Denoiser, GaussianDenoiser, GaussianPrior, NoiseSchedule
from pgd.residuals import StateLayout
from pgd.samplers import (
    SamplerConfig,
    churn_gamma,
    em_core,
    gem_core,
    heun_core,
    particle_stream,
    run_chain,
)
from pgd.solvers import Observations

SPEC9 = GridSpec(3, 3, 1, 1.0)
SOLUTION_ONLY = StateLayout(coeff_channels=(), solution_channels=(0,))


class IdentityDenoiser(Denoiser):
    """D(x, sigma) = x: zero score, identity Jacobian."""

    def __init__(self, dim):
        self.dim = dim

    def denoise(self, x, sigma):
        return np.array(x, dtype=float, copy=True)

    def vjp(self, x, sigma, cotangent):
        return np.array(cotangent, dtype=float, copy=True)


def all_cell_context(y_star, beta=0.5, weights=None):
    """Observe every cell of the 3x3 grid with target values y_star."""
    mask = Mask.from_indices(SPEC9, np.arange(9))
    empty = Mask.from_indices(SPEC9, [])
    obs = Observations(
        mask_a=empty,
        values_a=np.zeros((0, 0)),
        mask_u=mask,
        values_u=np.asarray(y_star, dtype=float)[None, :],
        sigma_o=0.0,
    )
    w = weights or GuidanceWeights(beta=beta, gamma=0.0, omega=0.0)
    return GuidanceContext(obs=obs, system=None, layout=SOLUTION_ONLY, weights=w)


def test_churn_gamma_cap():
    assert churn_gamma(0.0, 100) == 0.0
    assert churn_gamma(2.0, 100) == pytest.approx(0.02)
    assert churn_gamma(1e9, 100) == pytest.approx(np.sqrt(2) - 1)


def test_em_step_fixed_point_denoiser_adds_only_noise():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=10, rho=3.0)
    den = IdentityDenoiser(9)
    x = np.linspace(-1, 1, 9)
    # stubbed draw z = 0: output equals the input exactly
    sample, mean = em_core(x, np.zeros(9), sched.sigma_at(5), sched.sigma_at(4), den)
    assert np.array_equal(sample, x)
    assert np.array_equal(mean, x)
    # with live draws the deviation has std sqrt(sigma_k^2 - sigma_{k-1}^2)
    rng = np.random.default_rng(0)
    k = 5
    sample, _ = em_core(x, rng.standard_normal((4000, 9)), sched.sigma_at(k), sched.sigma_at(k - 1), den)
    draws = sample - x
    expected_std = np.sqrt(sched.sigma_at(k) ** 2 - sched.sigma_at(k - 1) ** 2)
    assert np.std(draws) == pytest.approx(expected_std, rel=0.05)


def test_em_step_gaussian_mean_matches_conditional_oracle():
    # For prior N(0, I) the one-step mean is x + delta * (0 - x)/(sigma^2 + 1),
    # the exact conditional-Gaussian posterior mean of the reverse kernel.
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=10, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "scalar", 1.0))
    rng = np.random.default_rng(1)
    x = rng.standard_normal(9)
    k = 6
    s_k, s_n = sched.sigma_at(k), sched.sigma_at(k - 1)
    delta = s_k**2 - s_n**2
    _, mean = em_core(x, np.zeros(9), s_k, s_n, den)
    want = x - delta * x / (s_k**2 + 1.0)
    assert np.allclose(mean, want, atol=1e-12)


def test_em_chain_recovers_gaussian_prior():
    # 10^4 chains, K=100: Monte Carlo convergence to the N(0, 1) prior per
    # coordinate; schedule endpoints scaled to unit data variance.
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=100, rho=2.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "scalar", 1.0))
    n = 10_000
    rng = np.random.default_rng(7)
    x = sched.sigma_max * rng.standard_normal((n, 9))
    for k in range(sched.steps, 0, -1):
        z = rng.standard_normal((n, 9))
        x, _ = em_core(x, z, sched.sigma_at(k), sched.sigma_at(k - 1), den)
    se = 1.0 / np.sqrt(n)
    assert np.all(np.abs(x.mean(axis=0)) < 4 * se)
    assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.05)


def test_gem_zero_weights_reduces_to_em_bit_exactly():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=8, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "scalar", 1.0))
    ctx = all_cell_context(np.zeros(9), weights=GuidanceWeights(beta=0.0, gamma=0.0, omega=0.0))
    x = np.linspace(-1, 1, 9)
    for k in (8, 4, 1):
        s_k, s_n = sched.sigma_at(k), sched.sigma_at(k - 1)
        z = np.random.default_rng(5).standard_normal(9)
        out_em, _ = em_core(x, z, s_k, s_n, den)
        out_gem, _, _ = gem_core(x, z, s_k, s_n, den, ctx)
        assert np.array_equal(out_em, out_gem)


def test_gem_guided_mean_strictly_closer_to_target():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=20, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "scalar", 1.0))
    y_star = np.full(9, 1.5)
    ctx = all_cell_context(y_star, beta=0.5)
    rng = particle_stream(3, 0)
    x = sched.sigma_max * rng.standard_normal(9)
    for k in range(sched.steps, 0, -1):
        z = rng.standard_normal(9)
        x, mean_em, mean_gd = gem_core(x, z, sched.sigma_at(k), sched.sigma_at(k - 1), den, ctx)
        assert np.linalg.norm(mean_gd - y_star) < np.linalg.norm(mean_em - y_star)


def test_gem_mean_pair_differs_by_scaled_gradient():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=10, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "scalar", 1.0))
    rng = np.random.default_rng(4)
    y_star = rng.standard_normal(9)
    ctx = all_cell_context(y_star, beta=1.2)
    x = rng.standard_normal(9)
    k = 7
    s_k, s_n = sched.sigma_at(k), sched.sigma_at(k - 1)
    _, mean_em, mean_gd = gem_core(x, rng.standard_normal(9), s_k, s_n, den, ctx)
    grad = guidance_grad(
        Field.from_flat(SPEC9, x), s_k, den, ctx.obs, ctx.system, ctx.layout, ctx.weights
    ).flat()
    assert np.allclose(mean_gd - mean_em, (s_k**2 - s_n**2) * grad, atol=1e-12)


def test_sosag_without_churn_or_guidance_matches_ode_heun():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=12, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "scalar", 1.0))
    cfg_sosag = SamplerConfig(schedule=sched, mode="second_order", s_churn=0.0, seed=11)
    cfg_ode = SamplerConfig(schedule=sched, mode="ode_heun", seed=99)  # seed must not matter
    x0 = np.linspace(-2, 2, 9)
    a = run_chain(cfg_sosag, den, x_init=x0)
    b = run_chain(cfg_ode, den, x_init=x0)
    assert np.array_equal(a.x0, b.x0)


def test_sosag_fixed_point_denoiser_returns_churned_state_plus_guidance():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=10, rho=3.0)
    den = IdentityDenoiser(9)
    y_star = np.full(9, 0.7)
    ctx = all_cell_context(y_star, beta=1.0)
    cfg = SamplerConfig(schedule=sched, mode="sosag", s_churn=2.0, seed=0)
    x = np.zeros(9)
    k = 5
    s_k, s_n = sched.sigma_at(k), sched.sigma_at(k - 1)
    z = np.random.default_rng(8).standard_normal(9)
    out = heun_core(x, z, s_k, s_n, den, cfg.churn_gamma, ctx)
    # reproduce the churned state from the same draw
    s_hat = s_k * (1 + cfg.churn_gamma)
    x_hat = x + np.sqrt(s_hat**2 - s_k**2) * z
    grad = 2.0 * 1.0 / 9 * (y_star - x_hat)  # beta-weighted observation pull at x_hat
    assert np.allclose(out, x_hat + (s_k**2 - s_n**2) * grad, atol=1e-12)


def test_sosag_chain_recovers_gaussian_prior_with_churn():
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=100, rho=2.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "scalar", 1.0))
    gamma = churn_gamma(2.0, sched.steps)
    n = 10_000
    rng = np.random.default_rng(9)
    x = sched.sigma_max * rng.standard_normal((n, 9))
    for k in range(sched.steps, 0, -1):
        z = rng.standard_normal((n, 9))
        x = heun_core(x, z, sched.sigma_at(k), sched.sigma_at(k - 1), den, gamma)
    se = 1.0 / np.sqrt(n)
    assert np.all(np.abs(x.mean(axis=0)) < 4 * se)
    assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.05)


def test_ode_heun_deterministic_regardless_of_seed():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=15, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "scalar", 1.0))
    x0 = np.linspace(-1, 1, 9)
    a = run_chain(SamplerConfig(schedule=sched, mode="ode_heun", seed=1), den, x_init=x0)
    b = run_chain(SamplerConfig(schedule=sched, mode="ode_heun", seed=2), den, x_init=x0)
    assert np.array_equal(a.x0, b.x0)


def test_run_chain_guided_mode_requires_context():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=5, rho=3.0)
    den = IdentityDenoiser(9)
    with pytest.raises(ValueError):
        run_chain(SamplerConfig(schedule=sched, mode="gem"), den)


def test_run_chain_records_diagnostics_and_is_seed_deterministic():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=6, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "scalar", 1.0))
    ctx = all_cell_context(np.full(9, 0.3), beta=1.0)
    cfg = SamplerConfig(schedule=sched, mode="gem", seed=21)
    a = run_chain(cfg, den, ctx=ctx)
    b = run_chain(cfg, den, ctx=ctx)
    assert np.array_equal(a.x0, b.x0)
    assert a.loglik_trace is not None and len(a.loglik_trace) == sched.steps
    assert len(a.step_norms) == sched.steps
    assert a.loglik_trace == b.loglik_trace


def test_run_chain_reports_blow_up_step():
    class ExplodingDenoiser(Denoiser):
        def __init__(self):
            self.dim = 9

        def denoise(self, x, sigma):
            return np.full_like(np.asarray(x, dtype=float), np.inf)

        def vjp(self, x, sigma, cot):
            return np.asarray(cot, dtype=float)

    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=5, rho=3.0)
    with pytest.raises(BlowUpError) as exc:
        run_chain(SamplerConfig(schedule=sched, mode="em", seed=0), ExplodingDenoiser())
    assert exc.value.step == 5


def test_mode_validation():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=5, rho=3.0)
    with pytest.raises(ValueError):
        SamplerConfig(schedule=sched, mode="rk4")
    with pytest.raises(ValueError):
        SamplerConfig(schedule=sched, mode="em", s_churn=-1.0)
