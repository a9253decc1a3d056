import numpy as np
import pytest

from pgd.errors import BlowUpError
from pgd.grid import Field, GridSpec
from pgd.guidance import GuidanceContext, GuidanceWeights, data_log_likelihood_grad
from pgd.priors import Denoiser, GaussianDenoiser, GaussianPrior, NoiseSchedule
from pgd.samplers import churn_gamma, gem_core, heun_core, noise_stream
from pgd.smc import SmcConfig, smc_run

from oracles import SOLUTION_ONLY, observations_on

SPEC9 = GridSpec(3, 3, 1, 1.0)


class IdentityDenoiser(Denoiser):
    """D(x, sigma) = x: zero score, identity Jacobian."""

    def __init__(self, dim):
        self.dim = dim

    def denoise(self, x, sigma):
        return np.array(x, dtype=float, copy=True)

    def dense_vjp(self, x, sigma, cotangent):
        return np.array(cotangent, dtype=float, copy=True)


def all_cell_context(y_star, beta=0.5, weights=None):
    """Observe every cell of the 3x3 grid with target values y_star."""
    w = weights or GuidanceWeights(beta=beta, gamma=0.0, omega=0.0)
    return GuidanceContext(obs=observations_on(SPEC9, np.arange(9), y_star, sigma_o=0.0), system=None,
                           layout=SOLUTION_ONLY, weights=w)


UNGUIDED = all_cell_context(np.zeros(9), weights=GuidanceWeights(beta=0.0, gamma=0.0, omega=0.0))


def em_step(x, z, sigma_k, sigma_next, den):
    """The unguided Euler-Maruyama step: gem_core with a zero data-space gradient."""
    return gem_core(x, z, sigma_k, sigma_next, den.denoise(x, sigma_k), den.vjp(x, sigma_k, np.zeros_like(x)))


def gem_step(x, z, sigma_k, sigma_next, den, ctx):
    """The guided step as smc_run takes it: the gradient of the twist at the reconstruction."""
    denoised = den.denoise(x, sigma_k)
    guidance = den.vjp(x, sigma_k, *data_log_likelihood_grad(ctx, denoised))
    return gem_core(x, z, sigma_k, sigma_next, denoised, guidance)


def em_mean(x, sigma_k, sigma_next, den):
    """The unguided transition mean x + delta (D(x, sigma_k) - x) / sigma_k^2."""
    return x + (sigma_k**2 - sigma_next**2) * (den.denoise(x, sigma_k) - x) / sigma_k**2


def test_churn_gamma_cap():
    assert churn_gamma(0.0, 100) == 0.0
    assert churn_gamma(2.0, 100) == pytest.approx(0.02)
    assert churn_gamma(1e9, 100) == pytest.approx(np.sqrt(2) - 1)


def test_em_step_fixed_point_denoiser_adds_only_noise():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=10, rho=3.0)
    den = IdentityDenoiser(9)
    x = np.linspace(-1, 1, 9)
    # stubbed draw z = 0: output equals the input exactly
    sample, shift = em_step(x, np.zeros(9), sched.levels[5], sched.levels[4], den)
    assert np.array_equal(sample, x)
    assert not shift.any()
    # with live draws the deviation has std sqrt(sigma_k^2 - sigma_{k-1}^2)
    rng = np.random.default_rng(0)
    k = 5
    sample, _ = em_step(x, rng.standard_normal((4000, 9)), sched.levels[k], sched.levels[k - 1], den)
    draws = sample - x
    expected_std = np.sqrt(sched.levels[k] ** 2 - sched.levels[k - 1] ** 2)
    assert np.std(draws) == pytest.approx(expected_std, rel=0.05)


def test_em_step_gaussian_mean_matches_conditional_oracle():
    # For prior N(0, I) the one-step mean is x + delta * (0 - x)/(sigma^2 + 1),
    # the exact conditional-Gaussian posterior mean of the reverse kernel.
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=10, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "diagonal", np.full(9, 1.0)))
    rng = np.random.default_rng(1)
    x = rng.standard_normal(9)
    k = 6
    s_k, s_n = sched.levels[k], sched.levels[k - 1]
    delta = s_k**2 - s_n**2
    mean, _ = em_step(x, np.zeros(9), s_k, s_n, den)  # a zero draw samples the mean
    want = x - delta * x / (s_k**2 + 1.0)
    assert np.allclose(mean, want, atol=1e-12)


def test_em_chain_recovers_gaussian_prior():
    # 10^4 chains, K=100: Monte Carlo convergence to the N(0, 1) prior per
    # coordinate; schedule endpoints scaled to unit data variance.
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=100, rho=2.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "diagonal", np.full(9, 1.0)))
    n = 10_000
    rng = np.random.default_rng(7)
    x = sched.sigma_max * rng.standard_normal((n, 9))
    for k in range(sched.steps, 0, -1):
        z = rng.standard_normal((n, 9))
        x, _ = em_step(x, z, sched.levels[k], sched.levels[k - 1], den)
    se = 1.0 / np.sqrt(n)
    assert np.all(np.abs(x.mean(axis=0)) < 4 * se)
    assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.05)


def zero_weight_cases():
    """(denoiser, zero-weight context) for each covariance kind."""
    rng = np.random.default_rng(12)
    root = rng.standard_normal((9, 9))
    for kind, cov in (
        ("diagonal", np.full(9, 0.8)),
        ("diagonal", rng.uniform(0.2, 2.0, 9)),
        ("dense", root @ root.T / 9),
    ):
        den = GaussianDenoiser(GaussianPrior(Field.from_flat(SPEC9, rng.standard_normal(9)), kind, cov))
        yield den, UNGUIDED


def test_gem_zero_weights_reduces_to_em_bit_exactly():
    # Zero weights give a zero data-space gradient and a zero shift; the sample
    # is the closed-form unguided step sqrt(delta) z + mean.
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=8, rho=3.0)
    rng = np.random.default_rng(5)
    for den, ctx in zero_weight_cases():
        x = rng.standard_normal((3, 9))
        for k in (8, 4, 1):
            s_k, s_n = sched.levels[k], sched.levels[k - 1]
            z = rng.standard_normal((3, 9))
            sample, shift = gem_step(x, z, s_k, s_n, den, ctx)
            want = np.sqrt(s_k**2 - s_n**2) * z + em_mean(x, s_k, s_n, den)
            assert not shift.any() and np.array_equal(sample, want)


def test_heun_zero_weights_reduces_to_churned_heun_bit_exactly():
    # The closed-form churned Heun step: churn to sigma_hat, Euler predictor,
    # trapezoidal corrector unless sigma_next = 0; zero weights add nothing.
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=8, rho=3.0)
    gamma = churn_gamma(2.0, sched.steps)
    levels = [(sched.levels[8], sched.levels[7]), (sched.levels[1], sched.levels[0]), (0.5, 0.0)]
    rng = np.random.default_rng(6)
    for den, ctx in zero_weight_cases():
        x = rng.standard_normal((3, 9))
        for s_k, s_n in levels:
            z = rng.standard_normal((3, 9))
            s_hat = s_k * (1.0 + gamma)
            x_hat = np.sqrt(s_hat**2 - s_k**2) * z + x
            d_cur = (x_hat - den.denoise(x_hat, s_hat)) / s_hat
            want = (s_n - s_hat) * d_cur + x_hat
            if s_n != 0.0:
                d_next = (want - den.denoise(want, s_n)) / s_n
                want = x_hat + (s_n - s_hat) * 0.5 * (d_cur + d_next)
            assert np.array_equal(heun_core(x.copy(), z, s_k, s_n, den, gamma, ctx), want)  # it writes into x


def test_gem_guided_mean_strictly_closer_to_target():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=20, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "diagonal", np.full(9, 1.0)))
    y_star = np.full(9, 1.5)
    ctx = all_cell_context(y_star, beta=0.5)
    rng = noise_stream(3)
    x = sched.sigma_max * rng.standard_normal((1, 9))
    for k in range(sched.steps, 0, -1):
        z = rng.standard_normal((1, 9))
        s_k, s_n = sched.levels[k], sched.levels[k - 1]
        mean_em = em_mean(x, s_k, s_n, den)
        x, shift = gem_step(x, z, s_k, s_n, den, ctx)
        assert np.linalg.norm(mean_em + shift - y_star) < np.linalg.norm(mean_em - y_star)


def test_gem_mean_pair_differs_by_scaled_gradient():
    # The shift is the guided minus the unguided mean, delta times the guidance.
    # Closed-form guidance for prior N(0, s I) with every cell observed: the
    # reconstruction is c x with c = s/(s + sigma^2), the data-space gradient
    # 2 beta/n (y - c x), and the exact-mode pull-back multiplies it by c.
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=10, rho=3.0)
    s, beta = 1.0, 1.2
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "diagonal", np.full(9, s)))
    rng = np.random.default_rng(4)
    y_star = rng.standard_normal(9)
    ctx = all_cell_context(y_star, beta=beta)
    x = rng.standard_normal((3, 9))
    k = 7
    s_k, s_n = sched.levels[k], sched.levels[k - 1]
    _, shift = gem_step(x, rng.standard_normal((3, 9)), s_k, s_n, den, ctx)
    c = s / (s + s_k**2)
    grad = c * 2.0 * beta / 9 * (y_star - c * x)
    assert np.allclose(shift, (s_k**2 - s_n**2) * grad, atol=1e-12)


def heun_chain(x, sched, den, gamma, draws, ctx=UNGUIDED):
    """Reference loop of heun_core from k = K down to 1 with the given draws, on a copy of x, whose buffer
    heun_core's states take."""
    x = x.copy()
    for k in range(sched.steps, 0, -1):
        x = heun_core(x, draws(), sched.levels[k], sched.levels[k - 1], den, gamma, ctx)
    return x


def test_sosag_without_churn_or_guidance_matches_ode_heun():
    # A sosag run with s_churn = 0 and zero weights is the deterministic
    # probability-flow Heun chain from its initial draw: no churn draw counts.
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=12, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "diagonal", np.full(9, 1.0)))
    ctx = all_cell_context(np.zeros(9), weights=GuidanceWeights(beta=0.0, gamma=0.0, omega=0.0))
    cfg = SmcConfig(1, sched, ctx.weights, proposal="sosag", s_churn=0.0, seed=11)
    pop, _ = smc_run(cfg, den, ctx.obs, None, ctx.layout)
    x0 = sched.sigma_max * noise_stream(11).standard_normal((1, 9))
    ode = heun_chain(x0, sched, den, 0.0, lambda: np.zeros((1, 9)))
    assert np.array_equal(pop.states, ode)


def test_sosag_fixed_point_denoiser_returns_churned_state_plus_guidance():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=10, rho=3.0)
    den = IdentityDenoiser(9)
    y_star = np.full(9, 0.7)
    ctx = all_cell_context(y_star, beta=1.0)
    gamma = churn_gamma(2.0, sched.steps)
    x = np.zeros((1, 9))
    k = 5
    s_k, s_n = sched.levels[k], sched.levels[k - 1]
    z = np.random.default_rng(8).standard_normal((1, 9))
    out = heun_core(x.copy(), z.copy(), s_k, s_n, den, gamma, ctx)  # it writes into both buffers
    # reproduce the churned state from the same draw
    s_hat = s_k * (1 + gamma)
    x_hat = x + np.sqrt(s_hat**2 - s_k**2) * z
    grad = 2.0 * 1.0 / 9 * (y_star - x_hat)  # beta-weighted observation pull at x_hat
    assert np.allclose(out, x_hat + (s_k**2 - s_n**2) * grad, atol=1e-12)


def test_sosag_chain_recovers_gaussian_prior_with_churn():
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=100, rho=2.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "diagonal", np.full(9, 1.0)))
    gamma = churn_gamma(2.0, sched.steps)
    n = 10_000
    rng = np.random.default_rng(9)
    x = sched.sigma_max * rng.standard_normal((n, 9))
    for k in range(sched.steps, 0, -1):
        z = rng.standard_normal((n, 9))
        x = heun_core(x, z, sched.levels[k], sched.levels[k - 1], den, gamma, UNGUIDED)
    se = 1.0 / np.sqrt(n)
    assert np.all(np.abs(x.mean(axis=0)) < 4 * se)
    assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.05)


def test_ode_heun_deterministic_regardless_of_seed():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=15, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "diagonal", np.full(9, 1.0)))
    x0 = np.linspace(-1, 1, 9)[None]
    a = heun_chain(x0, sched, den, 0.0, lambda: noise_stream(1).standard_normal((1, 9)))
    b = heun_chain(x0, sched, den, 0.0, lambda: noise_stream(2).standard_normal((1, 9)))
    assert np.array_equal(a, b)


def test_mode_validation():
    # The sampler mode is the smc proposal: each known one is accepted, an
    # unknown one is rejected, and only sosag, which reads the churn, takes
    # one away from its default
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=5, rho=3.0)
    for proposal in ("gem", "sosag"):
        assert SmcConfig(1, sched, proposal=proposal).proposal == proposal
    assert SmcConfig(1, sched, proposal="sosag", s_churn=0.0).s_churn == 0.0
    with pytest.raises(ValueError, match="gem does not read s_churn"):
        SmcConfig(1, sched, proposal="gem", s_churn=0.0)
    with pytest.raises(ValueError):
        SmcConfig(1, sched, proposal="rk4")
    with pytest.raises(ValueError):
        SmcConfig(1, sched, proposal="sosag", s_churn=-1.0)


def test_smc_run_single_particle_is_seed_deterministic():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=6, rho=3.0)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "diagonal", np.full(9, 1.0)))
    ctx = all_cell_context(np.full(9, 0.3), beta=1.0)
    cfg = SmcConfig(particle_count=1, schedule=sched, weights=ctx.weights, proposal="gem", seed=21)
    (pop_a, diag_a), (pop_b, diag_b) = (smc_run(cfg, den, ctx.obs, None, ctx.layout) for _ in range(2))
    assert np.array_equal(pop_a.states, pop_b.states)
    assert np.array_equal(pop_a.log_weights, pop_b.log_weights)
    assert diag_a.log_evidence_trace == diag_b.log_evidence_trace


class ExplodingDenoiser(Denoiser):
    def __init__(self):
        self.dim = 9

    def denoise(self, x, sigma):
        return np.full_like(np.asarray(x, dtype=float), np.inf)

    def dense_vjp(self, x, sigma, cot):
        return np.array(cot, dtype=float)  # a copy: the caller owns what a vjp returns


@pytest.mark.parametrize("proposal,scheme", [("gem", "pbs"), ("sosag", "pbs"), ("gem", "tds")])
def test_smc_run_reports_blow_up_step(proposal, scheme):
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=5, rho=3.0)
    ctx = all_cell_context(np.full(9, 0.3), beta=1.0)
    cfg = SmcConfig(3, sched, ctx.weights, proposal, scheme, seed=0)
    with pytest.raises(BlowUpError) as exc:
        smc_run(cfg, ExplodingDenoiser(), ctx.obs, None, ctx.layout)
    assert exc.value.step == 5
    assert exc.value.particle == 0
