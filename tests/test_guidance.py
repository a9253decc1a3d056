import tracemalloc

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
from pgd.priors import GaussianDenoiser, GaussianPrior, GmmDenoiser, NoiseSchedule, fit_empirical_prior
from pgd.residuals import KINDS, PdeSystem, StateLayout, default_layout, residual
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

    idx_u = obs.mask_u.indices
    idx_a = obs.mask_a.indices
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
    _, shift = gem_core(x, np.zeros_like(x), sigma, sigma_next, den, denoised, grad)
    return shift / (sigma**2 - sigma_next**2)


def test_intermediate_equals_terminal_at_sigma_zero():
    rng = np.random.default_rng(6)
    x = Field(SPEC16, rng.standard_normal((1, 4, 4)))
    obs = observations_single_channel(SPEC16, [1, 5, 9], rng.standard_normal(3))
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC16), "diagonal", np.full(16, 1.0)))
    w = GuidanceWeights(beta=1.0, gamma=0.0, omega=0.0)
    a = intermediate_ll(x.flat(), 0.0, den, obs, w)
    b = log_likelihood(GuidanceContext(obs, None, SOLUTION_ONLY, w), x.flat())
    assert a == pytest.approx(b, abs=1e-14)


def test_intermediate_constant_for_degenerate_prior():
    rng = np.random.default_rng(7)
    mu = Field(SPEC16, rng.standard_normal((1, 4, 4)))
    den = GaussianDenoiser(GaussianPrior(mu, "diagonal", np.full(16, 0.0)))
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
    den = GaussianDenoiser(GaussianPrior(Field.from_flat(SPEC16, mu), "diagonal", np.full(16, s)))
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
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC16), "diagonal", np.full(16, 1.0)))
    w = GuidanceWeights(beta=0.0, gamma=0.0, omega=0.0)
    assert np.all(guidance_rows(x, 0.7, den, obs, w) == 0.0)


def test_guidance_exact_mode_matches_finite_differences():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, 16))
    obs = observations_single_channel(SPEC16, [1, 6, 12], rng.standard_normal(3))
    cov = rng.standard_normal((16, 16))
    cov = cov @ cov.T / 4 + 0.5 * np.eye(16)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC16), "dense", cov))
    w = GuidanceWeights(beta=1.4, gamma=0.0, omega=0.0)
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


def test_tds_chain_reproduces_direct_path_weight(monkeypatch):
    # A single tds chain never resamples, so its final log-weight is the
    # twist at x_0 plus the log-ratio of the unguided to the guided
    # path density. The oracle assembles both full Gaussian path log-densities
    # and the twist itself, independent of the engine's weight bookkeeping.
    rng = np.random.default_rng(14)
    d = 16
    cov = rng.standard_normal((d, d))
    cov = cov @ cov.T / d + 0.4 * np.eye(d)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC16), "dense", cov))
    obs = observations_single_channel(SPEC16, [3, 10], rng.standard_normal(2))
    w = GuidanceWeights(beta=1.9, gamma=0.0, omega=0.0)
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
    direct = twist + log_em_path - log_gd_path
    assert pop.log_weights[0] == pytest.approx(direct, abs=1e-8)


def test_data_grad_zero_noise_truth_is_stationary():
    # stationary up to the elliptic solver's residual tolerance
    _, x, layout, obs = poisson_case(15)
    w = GuidanceWeights(beta=1.0, gamma=1.0, omega=1.0)
    g = data_log_likelihood_grad(GuidanceContext(obs, PdeSystem.poisson(), layout, w), x.flat())
    assert np.max(np.abs(g)) < 1e-7


# Coefficient channel 0 and solution channel 1, with cell 4 in both masks:
# the operator picks entries 4 and 13, one per channel, so no entry repeats.
SPEC_BLOCK = GridSpec(3, 3, 2, 1.0)


def block_context(seed=0):
    rng = np.random.default_rng(seed)
    cells = SPEC_BLOCK.with_channels(1)
    obs = Observations(
        mask_a=Mask.from_indices(cells, [1, 4, 7]),
        values_a=rng.standard_normal((1, 3)),
        mask_u=Mask.from_indices(cells, [0, 4, 8]),
        values_u=rng.standard_normal((1, 3)),
        sigma_o=0.1,
    )
    ctx = GuidanceContext(obs, None, StateLayout.scalar_pair(), GuidanceWeights(beta=20.0, gamma=8.0, omega=0.0))
    assert list(ctx.index) == [9, 13, 17, 1, 4, 7]
    return ctx


def block_denoisers():
    rng = np.random.default_rng(30)
    d = SPEC_BLOCK.size
    mean = Field.from_flat(SPEC_BLOCK, rng.standard_normal(d))
    root = rng.standard_normal((d, d))
    samples = [Field.from_flat(SPEC_BLOCK, rng.standard_normal(d)) for _ in range(5)]
    return {
        "diagonal": GaussianDenoiser(GaussianPrior(mean, "diagonal", rng.uniform(0.1, 2.0, d))),
        "fitted_dense": GaussianDenoiser(fit_empirical_prior(samples, 0.2, "dense")),  # r = 5 < d
        "dense": GaussianDenoiser(GaussianPrior(mean, "dense", root @ root.T / d)),  # r = d
        "gmm": GmmDenoiser([0.3, 0.7], rng.standard_normal((2, d)), [0.4, 1.2]),
    }


@pytest.mark.parametrize("kind", ["diagonal", "fitted_dense", "dense", "gmm"])
@pytest.mark.parametrize("sigma", [0.0, 0.5, 80.0])
def test_jacobian_block_matches_the_full_jacobian(kind, sigma):
    # brute force: J's full rows from a vjp of the identity (at the states' mean,
    # where the mixture's Jacobian is taken), then the rows and columns at index
    den, ctx = block_denoisers()[kind], block_context()
    states = np.random.default_rng(31).standard_normal((4, SPEC_BLOCK.size))
    jac = den.vjp(states.mean(axis=0), sigma, np.eye(SPEC_BLOCK.size)).T
    want = jac[np.ix_(ctx.index, ctx.index)]
    got = den.jacobian_block(ctx.index, sigma, states)
    assert got.shape == (6, 6)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("kind", [*KINDS, "conjugate"])
def test_observation_index_repeats_no_entry(kind):
    # both masks hold every cell, so every channel of either group is read
    # everywhere: the index is then a permutation of the state's entries
    layout = SOLUTION_ONLY if kind == "conjugate" else default_layout(kind)
    spec = GridSpec(3, 4, layout.channel_count, 1.0)
    cells = spec.with_channels(1)
    full = Mask.from_indices(cells, np.arange(cells.size))
    obs = Observations(
        full, np.zeros((len(layout.coeff_channels), cells.size)),
        full, np.zeros((len(layout.solution_channels), cells.size)), 0.1,
    )
    ctx = GuidanceContext(obs, None, layout, GuidanceWeights(beta=1.0, gamma=1.0, omega=0.0))
    np.testing.assert_array_equal(np.sort(ctx.index), np.arange(spec.size))


def test_twist_covariance_forms_no_observation_matrix():
    # a fitted dense prior at d = 2 * 32^2 with m = 400 observed entries: the
    # (m, d) one-hot operator alone would take m * d * 8 bytes (6.5 MB)
    spec = GridSpec(32, 32, 2, 1.0)
    rng = np.random.default_rng(33)
    samples = [Field.from_flat(spec, rng.standard_normal(spec.size)) for _ in range(8)]
    den = GaussianDenoiser(fit_empirical_prior(samples, 0.1, "dense"))
    cells = spec.with_channels(1)
    masks = [Mask.from_indices(cells, np.sort(rng.choice(cells.size, 200, replace=False))) for _ in range(2)]
    obs = Observations(masks[0], rng.standard_normal((1, 200)), masks[1], rng.standard_normal((1, 200)), 0.1)
    ctx = GuidanceContext(obs, None, StateLayout.scalar_pair(), GuidanceWeights(beta=1.0, gamma=1.0, omega=0.0))
    states = rng.standard_normal((2, spec.size))
    m, d = ctx.index.size, spec.size
    tracemalloc.start()
    try:
        cov = twist_covariance(ctx, den, states, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cov.shape == (m, m) == (400, 400)
    assert peak < m * d * 8, f"peak {peak} bytes"
