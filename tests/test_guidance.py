import numpy as np
import pytest

import pgd.samplers
import pgd.smc
from pgd.grid import DIRICHLET, Field, GridSpec, Mask
from pgd.guidance import (
    GuidanceContext,
    GuidanceWeights,
    data_log_likelihood_grad,
    log_likelihood,
    twist_covariance,
)
from pgd.priors import GaussianDenoiser, GaussianPrior, NoiseSchedule
from pgd.residuals import PdeSystem, StateLayout, residual
from pgd.samplers import gem_core
from pgd.smc import SmcConfig, smc_run
from pgd.solvers import Observations, make_observations, solve_elliptic

SPEC16 = GridSpec(4, 4, 1, 1.0)
SOLUTION_ONLY = StateLayout(coeff_channels=(), solution_channels=(0,))


def observations_single_channel(spec, idx, values, sigma_o=0.1):
    """Observations of channel 0 as the solution group; empty coefficient group."""
    mask_u = Mask.from_indices(spec, idx)
    mask_a = Mask.from_indices(spec, [])
    return Observations(
        mask_a=mask_a,
        values_a=np.zeros((0, 0)),
        mask_u=mask_u,
        values_u=np.asarray(values, dtype=float)[None, :],
        sigma_o=sigma_o,
    )


def poisson_case(seed=0, n=8):
    rng = np.random.default_rng(seed)
    spec = GridSpec(n, n, 2, 1.0 / (n + 1), DIRICHLET)
    a = Field(spec.with_channels(1), rng.standard_normal((1, n, n)))
    u = solve_elliptic(PdeSystem.poisson(), a)
    x = Field(spec, np.concatenate([a.values, u.values]))
    layout = StateLayout.scalar_pair()
    obs = make_observations(x, layout, n_obs=12, sigma_o=0.0, rng=np.random.default_rng(seed + 1))
    return spec, x, layout, obs


def test_log_likelihood_zero_at_truth_with_zero_noise():
    _, x, layout, obs = poisson_case()
    w = GuidanceWeights(beta=1.0, gamma=1.0, omega=1.0)
    val = log_likelihood(GuidanceContext(obs, PdeSystem.poisson(), layout, w), x.flat())
    assert abs(val) < 1e-16


def test_log_likelihood_zero_weights():
    rng = np.random.default_rng(1)
    spec, x, layout, obs = poisson_case(2)
    noisy = Field(spec, x.values + rng.standard_normal(x.values.shape))
    w = GuidanceWeights(beta=0.0, gamma=0.0, omega=0.0)
    assert log_likelihood(GuidanceContext(obs, PdeSystem.poisson(), layout, w), noisy.flat()) == 0.0


def test_log_likelihood_matches_independent_quadratic_form():
    # Independent oracle: re-assemble the three mean-square terms directly
    # from the mask indices and the residual field.
    rng = np.random.default_rng(3)
    spec, truth, layout, obs = poisson_case(4)
    x = Field(spec, rng.standard_normal(truth.values.shape))
    w = GuidanceWeights(beta=0.7, gamma=1.3, omega=2.1)
    got = log_likelihood(GuidanceContext(obs, PdeSystem.poisson(), layout, w), x.flat())

    idx_u = obs.mask_u.flat_indices()
    idx_a = obs.mask_a.flat_indices()
    term_u = np.sum((obs.values_u[0] - x.values[1].reshape(-1)[idx_u]) ** 2) / idx_u.size
    term_a = np.sum((obs.values_a[0] - x.values[0].reshape(-1)[idx_a]) ** 2) / idx_a.size
    r = residual(PdeSystem.poisson(), layout, x).values
    term_r = np.sum(r**2) / r.size
    want = -w.beta * term_u - w.gamma * term_a - w.omega * term_r
    assert got == pytest.approx(want, abs=1e-12)


def test_log_likelihood_count_mismatch_rejected():
    _, _, layout, obs = poisson_case(5)
    # truncated values are rejected when the observations are built
    with pytest.raises(ValueError):
        Observations(
            mask_a=obs.mask_a,
            values_a=obs.values_a[:, :-1],
            mask_u=obs.mask_u,
            values_u=obs.values_u,
            sigma_o=0.0,
        )
    # a group/value row mismatch surfaces when the likelihood's context is built
    two_rows = Observations(
        mask_a=obs.mask_a,
        values_a=obs.values_a,
        mask_u=obs.mask_u,
        values_u=np.vstack([obs.values_u, obs.values_u]),
        sigma_o=0.0,
    )
    with pytest.raises(ValueError):
        GuidanceContext(two_rows, PdeSystem.poisson(), layout, GuidanceWeights())


def test_observation_rows_checked_by_the_context_and_every_consumer():
    # the consumers take only a context, so the context's check covers them all
    _, _, layout, obs = poisson_case(5)
    # two value rows for the single solution channel
    two_rows = Observations(obs.mask_a, obs.values_a, obs.mask_u, np.vstack([obs.values_u] * 2), 0.0)
    w = GuidanceWeights(beta=1.0, gamma=1.0, omega=0.0)
    with pytest.raises(ValueError, match="observation values"):
        GuidanceContext(two_rows, PdeSystem.poisson(), layout, w)
    # an unweighted group is not read, so it is not checked either
    GuidanceContext(two_rows, PdeSystem.poisson(), layout, GuidanceWeights(beta=0.0, gamma=1.0))


def test_context_requires_a_system_for_the_pde_term():
    _, _, layout, obs = poisson_case(5)
    with pytest.raises(ValueError, match="requires a PDE system"):
        GuidanceContext(obs, None, layout, GuidanceWeights(omega=1.0))
    GuidanceContext(obs, None, layout, GuidanceWeights(omega=0.0))


def test_context_validates_the_layout_once_when_the_pde_term_is_on(monkeypatch):
    spec, x, layout, obs = poisson_case(5)
    with pytest.raises(ValueError, match="layout needs"):
        GuidanceContext(obs, PdeSystem.gray_scott(), layout, GuidanceWeights(omega=1.0))
    GuidanceContext(obs, PdeSystem.gray_scott(), layout, GuidanceWeights(omega=0.0))
    ctx = GuidanceContext(obs, PdeSystem.poisson(), layout, GuidanceWeights(omega=1.0))
    assert ctx.spec == spec and ctx.spec is ctx.spec
    calls = []
    monkeypatch.setattr(StateLayout, "validate_for", lambda *args: calls.append(1))
    rows = np.stack([x.flat(), -x.flat()])
    log_likelihood(ctx, rows)
    log_likelihood(ctx, rows, grad=True)
    assert calls == []


def test_data_grad_does_not_depend_on_memory_order_of_the_state():
    spec, truth, layout, obs = poisson_case(3)
    x = Field(spec, truth.values + np.random.default_rng(4).standard_normal(truth.values.shape))
    ctx = GuidanceContext(obs, PdeSystem.poisson(), layout, GuidanceWeights(beta=1.0, gamma=1.0, omega=1.0))
    rows = np.stack([x.flat(), -x.flat()])
    want = data_log_likelihood_grad(ctx, rows)
    got = data_log_likelihood_grad(ctx, np.asfortranarray(rows))
    np.testing.assert_array_equal(got, want)


def test_weights_validation():
    with pytest.raises(ValueError):
        GuidanceWeights(beta=-1.0)
    with pytest.raises(ValueError):
        GuidanceWeights(jacobian_mode="autodiff")


def intermediate_ll(flat, sigma, den, obs, w):
    """Point twist of a noisy state: the likelihood of its reconstruction."""
    ctx = GuidanceContext(obs=obs, system=None, layout=SOLUTION_ONLY, weights=w)
    return log_likelihood(ctx, den.denoise(flat, sigma))


def guidance_rows(x, sigma, den, obs, w):
    """Guidance gradient rows at (x, sigma), read off gem_core's shift delta * guidance."""
    ctx = GuidanceContext(obs=obs, system=None, layout=SOLUTION_ONLY, weights=w)
    sigma_next = 0.5 * sigma
    denoised = den.denoise(x, sigma)
    grad = data_log_likelihood_grad(ctx, denoised)
    _, shift = gem_core(x, np.zeros_like(x), sigma, sigma_next, den, ctx, denoised, grad)
    return shift / (sigma**2 - sigma_next**2)


def test_intermediate_equals_terminal_at_sigma_zero():
    rng = np.random.default_rng(6)
    x = Field(SPEC16, rng.standard_normal((1, 4, 4)))
    obs = observations_single_channel(SPEC16, [1, 5, 9], rng.standard_normal(3))
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC16), "scalar", 1.0))
    w = GuidanceWeights(beta=1.0, gamma=0.0, omega=0.0)
    a = intermediate_ll(x.flat(), 0.0, den, obs, w)
    b = log_likelihood(GuidanceContext(obs, None, SOLUTION_ONLY, w), x.flat())
    assert a == pytest.approx(b, abs=1e-14)


def test_intermediate_constant_for_degenerate_prior():
    rng = np.random.default_rng(7)
    mu = Field(SPEC16, rng.standard_normal((1, 4, 4)))
    den = GaussianDenoiser(GaussianPrior(mu, "scalar", 0.0))
    obs = observations_single_channel(SPEC16, [0, 7], rng.standard_normal(2))
    w = GuidanceWeights(beta=1.0, gamma=0.0, omega=0.0)
    vals = [intermediate_ll(rng.standard_normal(16), 0.5, den, obs, w) for _ in range(4)]
    assert np.ptp(vals) < 1e-14


def test_intermediate_matches_conjugate_closed_form():
    # Hand-assembled oracle: x_hat = mu + c (x - mu) with c = s/(s + sigma^2),
    # then the quadratic observation term evaluated at x_hat directly.
    rng = np.random.default_rng(8)
    s, sigma, beta = 1.7, 0.9, 2.5
    mu = rng.standard_normal(16)
    x = Field(SPEC16, rng.standard_normal((1, 4, 4)))
    idx = np.array([2, 6, 11])
    y = rng.standard_normal(3)
    obs = observations_single_channel(SPEC16, idx, y)
    den = GaussianDenoiser(GaussianPrior(Field.from_flat(SPEC16, mu), "scalar", s))
    w = GuidanceWeights(beta=beta, gamma=0.0, omega=0.0)
    got = intermediate_ll(x.flat(), sigma, den, obs, w)
    c = s / (s + sigma**2)
    x_hat = mu + c * (x.flat() - mu)
    want = -beta * np.sum((y - x_hat[idx]) ** 2) / 3
    assert got == pytest.approx(want, abs=1e-10)


def test_guidance_zero_weights_is_zero():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 16))
    obs = observations_single_channel(SPEC16, [3], [0.4])
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC16), "scalar", 1.0))
    w = GuidanceWeights(beta=0.0, gamma=0.0, omega=0.0)
    assert np.all(guidance_rows(x, 0.7, den, obs, w) == 0.0)


def test_guidance_exact_mode_matches_finite_differences():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, 16))
    obs = observations_single_channel(SPEC16, [1, 6, 12], rng.standard_normal(3))
    cov = rng.standard_normal((16, 16))
    cov = cov @ cov.T / 4 + 0.5 * np.eye(16)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC16), "dense", cov))
    w = GuidanceWeights(beta=1.4, gamma=0.0, omega=0.0, jacobian_mode="exact")
    sigma = 0.8
    g = guidance_rows(x, sigma, den, obs, w)[0]
    eps = 1e-6
    fd = np.zeros(16)
    for i in range(16):
        e = np.zeros(16)
        e[i] = eps
        up = intermediate_ll(x[0] + e, sigma, den, obs, w)
        dn = intermediate_ll(x[0] - e, sigma, den, obs, w)
        fd[i] = (up - dn) / (2 * eps)
    assert np.max(np.abs(g - fd)) / (np.max(np.abs(g)) + 1e-12) < 1e-5


def test_identity_and_exact_modes_agree_when_jacobian_is_identity():
    rng = np.random.default_rng(11)
    # the shift is the tiny step times the guidance, so dividing by the step
    # loses no precision
    x = np.zeros((1, 16))
    obs = observations_single_channel(SPEC16, [4, 9], rng.standard_normal(2))
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC16), "scalar", 1.0))
    sigma = 1e-9  # shrinkage factor 1/(1 + sigma^2) -> 1
    g_exact = guidance_rows(x, sigma, den, obs, GuidanceWeights(beta=1.0, gamma=0, omega=0))
    g_ident = guidance_rows(
        x, sigma, den, obs, GuidanceWeights(beta=1.0, gamma=0, omega=0, jacobian_mode="identity")
    )
    assert np.any(g_ident != 0.0)
    assert np.allclose(g_exact, g_ident, atol=1e-12)


def test_tds_chain_reproduces_direct_path_weight(monkeypatch):
    # A single tds chain never resamples, so its final log-weight is the
    # tempered twist at x_0 plus the log-ratio of the unguided to the guided
    # path density. The oracle assembles both full Gaussian path log-densities
    # and the twist itself, independent of the engine's weight bookkeeping.
    rng = np.random.default_rng(14)
    d = 16
    cov = rng.standard_normal((d, d))
    cov = cov @ cov.T / d + 0.4 * np.eye(d)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC16), "dense", cov))
    obs = observations_single_channel(SPEC16, [3, 10], rng.standard_normal(2))
    w = GuidanceWeights(beta=1.9, gamma=0.0, omega=0.0, temper_rho=0.8)
    ctx = GuidanceContext(obs=obs, system=None, layout=SOLUTION_ONLY, weights=w)

    steps = []

    def recording_gem_core(x, z, sigma_k, sigma_next, *args):
        out = pgd.samplers.gem_core(x, z, sigma_k, sigma_next, *args)
        delta = sigma_k**2 - sigma_next**2
        # the unguided mean from the denoiser itself; the guided one adds the shift
        mean_em = x[0] + delta * (den.denoise(x[0], sigma_k) - x[0]) / sigma_k**2
        steps.append((out[0][0], mean_em, mean_em + out[1][0], delta))
        return out

    monkeypatch.setattr(pgd.smc, "gem_core", recording_gem_core)
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.05, steps=6, rho=2.0)
    cfg = SmcConfig(particle_count=1, schedule=sched, weights=w, proposal="gem", scheme="tds", seed=4)
    pop, diag = smc_run(cfg, den, obs, None, SOLUTION_ONLY)
    assert not any(diag.resampled) and len(steps) == sched.steps

    log_em_path = 0.0
    log_gd_path = 0.0
    for nxt, mean_em, mean_gd, delta in steps:
        log_em_path += -0.5 * np.sum((nxt - mean_em) ** 2) / delta - 0.5 * d * np.log(2 * np.pi * delta)
        log_gd_path += -0.5 * np.sum((nxt - mean_gd) ** 2) / delta - 0.5 * d * np.log(2 * np.pi * delta)
    x0 = pop.states
    assert np.array_equal(x0[0], steps[-1][0])
    sigma_min = sched.sigma_at(0)
    x_hat = den.denoise(x0, sigma_min)
    twist = log_likelihood(ctx, x_hat[0], cov=twist_covariance(ctx, den, x0, sigma_min))
    direct = w.temper_rho * twist + log_em_path - log_gd_path
    assert pop.log_weights[0] == pytest.approx(direct, abs=1e-8)


def test_data_grad_zero_noise_truth_is_stationary():
    # stationary up to the elliptic solver's residual tolerance
    _, x, layout, obs = poisson_case(15)
    w = GuidanceWeights(beta=1.0, gamma=1.0, omega=1.0)
    g = data_log_likelihood_grad(GuidanceContext(obs, PdeSystem.poisson(), layout, w), x.flat())
    assert np.max(np.abs(g)) < 1e-7
