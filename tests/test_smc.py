import threading
import tracemalloc

import numpy as np
import pytest

import pgd.guidance
import pgd.samplers
import pgd.smc
from pgd.errors import BlowUpError, NumericalError
from pgd.grid import DIRICHLET, PERIODIC, Field, GridSpec, Mask
from pgd.guidance import (GuidanceContext, GuidanceWeights, data_log_likelihood_grad, log_likelihood, twist_covariance,
                          twist_solve)
from pgd.priors import FactoredCov, GaussianDenoiser, GaussianPrior, GmmDenoiser, NoiseSchedule, fit_empirical_prior
from pgd.residuals import PdeSystem, StateLayout, default_layout
from pgd.samplers import churn_gamma, gem_core, heun_core, noise_stream
from pgd.smc import (
    ESTIMATE_MODES,
    ParticlePopulation,
    SmcConfig,
    multinomial_resample,
    normalize,
    point_estimate,
    smc_run,
)
from pgd.solvers import (
    DatasetSpec,
    Observations,
    SmoothGrf,
    ThresholdedGrf,
    simulate_rd,
)

from oracles import (SOLUTION_ONLY, condition, dense_cov, fitted_problem, iid_mean_error_percentile,
                     log_evidence_offset, observations_on, residual_operator, tweedie_jacobian)

SPEC9 = GridSpec(3, 3, 1, 1.0)
SPEC16 = GridSpec(4, 4, 1, 1.0)


def small_problem(beta=2.0):
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "diagonal", np.full(9, 1.0)))
    obs = observations_on(SPEC9, [0, 4, 8], [0.8, -0.3, 0.5])
    w = GuidanceWeights(beta=beta, gamma=0.0, omega=0.0)
    return den, obs, w


def population_from(states, log_weights):
    return ParticlePopulation(
        spec=SPEC9, states=np.asarray(states, dtype=float), log_weights=np.asarray(log_weights, dtype=float)
    )


def resample(pop, rng):
    """Resample ``pop`` from its own normalized weights, as a resampling step of smc_run does."""
    return multinomial_resample(pop, pop.normalized_weights(), rng)


def test_ess_uniform_and_degenerate():
    assert normalize(np.zeros(4))[1] == pytest.approx(4.0)
    assert normalize(np.array([0.0, -np.inf, -np.inf, -np.inf]))[1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalize(np.full(3, -np.inf))


def test_ess_direct_evaluation_oracle():
    w = np.array([0.5, 0.25, 0.125, 0.125])
    want = 1.0 / np.sum(w**2)  # = 1/0.34375
    assert want == pytest.approx(2.909090909090909)
    assert normalize(np.log(w))[1] == pytest.approx(want, rel=1e-12)


def test_ess_invariant_under_constant_shift():
    rng = np.random.default_rng(0)
    lw = rng.standard_normal(16)
    assert normalize(lw)[1] == pytest.approx(normalize(lw + 123.4)[1], rel=1e-12)
    assert 1.0 <= normalize(lw)[1] <= 16.0


def test_log_normalizer_matches_logaddexp_reduce():
    # A vanished weight adds nothing, and a shift of 1e3 overflows a plain exp
    # but not the shifted one.
    lw = np.array([0.3, -1.2, -np.inf, 2.5, 0.0])
    for shift in (0.0, 1e3):
        got = normalize(lw + shift)[0]
        assert got == pytest.approx(np.logaddexp.reduce(lw + shift), rel=1e-14)


def test_normalized_weights_come_from_the_same_exponentiation():
    # the weights that a resample draws from, the ESS and the log-normalizer agree
    # (the shift of 1e3 rounds the log-weights by up to 1e3 * 2^-53, about 1e-13)
    lw = np.array([0.3, -1.2, -np.inf, 2.5, 0.0])
    log_norm, ess, w = normalize(lw + 1e3)
    np.testing.assert_allclose(w, np.exp(lw) / np.exp(lw).sum(), rtol=1e-12, atol=0)
    assert w[2] == 0.0 and w.sum() == pytest.approx(1.0, rel=1e-15)
    assert log_norm == pytest.approx(1e3 + np.logaddexp.reduce(lw), rel=1e-15)
    assert ess == pytest.approx(1.0 / np.sum(w**2), rel=1e-14)
    assert np.array_equal(population_from(np.zeros((5, 9)), lw + 1e3).normalized_weights(), w)


def test_resample_all_mass_on_one_particle():
    rng = np.random.default_rng(1)
    states = np.arange(4 * 9, dtype=float).reshape(4, 9)
    pop = population_from(states, [0.0, -np.inf, -np.inf, -np.inf])
    out = resample(pop, rng)
    assert np.all(out.ancestors == 0)
    assert np.allclose(out.states, states[0])
    assert np.allclose(out.log_weights, 0.0)


def test_resample_deterministic_under_fixed_seed():
    states = np.random.default_rng(2).standard_normal((6, 9))
    pop = population_from(states, np.log([0.1, 0.3, 0.05, 0.25, 0.2, 0.1]))
    a = resample(pop, np.random.default_rng(77)).ancestors
    b = resample(pop, np.random.default_rng(77)).ancestors
    assert np.array_equal(a, b)


def test_resample_counts_match_binomial_concentration():
    # Binomial oracle: with uniform weights, aggregate offspring counts per
    # ancestor concentrate around trials * N * p with std sqrt(trials*N*p*(1-p)).
    trials = 100_000
    n = 4
    pop = population_from(np.zeros((n, 9)), np.zeros(n))
    rng = np.random.default_rng(3)
    counts = np.zeros(n)
    for _ in range(trials):
        anc = resample(pop, rng).ancestors
        counts += np.bincount(anc, minlength=n)
    total = trials * n
    p = 1.0 / n
    std = np.sqrt(total * p * (1 - p))
    assert np.all(np.abs(counts - total * p) < 4 * std)


def test_resample_preserves_weighted_mean_in_expectation():
    rng = np.random.default_rng(4)
    states = rng.standard_normal((8, 9))
    lw = rng.standard_normal(8)
    pop = population_from(states, lw)
    w = pop.normalized_weights()
    target = w @ states
    trials = 10_000
    acc = np.zeros(9)
    rs = np.random.default_rng(5)
    for _ in range(trials):
        out = resample(pop, rs)
        acc += out.states.mean(axis=0)
    acc /= trials
    # per-trial variance of the unweighted mean is categorical variance / N
    cat_var = w @ states**2 - target**2
    se = np.sqrt(cat_var / (8 * trials))
    assert np.all(np.abs(acc - target) < 4 * se + 1e-12)


def test_config_rejects_a_nan_churn():
    # under sosag it would surface only as a non-finite state
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=5, rho=3.0)
    with pytest.raises(ValueError, match="s_churn"):
        SmcConfig(particle_count=2, schedule=sched, proposal="sosag", s_churn=np.nan)


def test_resample_draws_from_the_weights_it_is_given():
    # uniform log-weights, but the step's normalized weights put all mass on particle 2
    states = np.arange(4 * 9, dtype=float).reshape(4, 9)
    out = multinomial_resample(population_from(states, np.zeros(4)), np.eye(4)[2], np.random.default_rng(12))
    assert np.all(out.ancestors == 2)
    assert np.array_equal(out.states, states[[2, 2, 2, 2]])
    assert out.count == 4 and np.array_equal(out.log_weights, np.zeros(4))


def test_normalize_rejects_degenerate_weights():
    # all weights vanished: there is no normalizer, ESS or distribution to resample from
    pop = population_from(np.zeros((3, 9)), np.full(3, -np.inf))
    with pytest.raises(ValueError, match="all weights vanish"):
        normalize(pop.log_weights)
    with pytest.raises(ValueError, match="all weights vanish"):
        pop.normalized_weights()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_normalize_names_a_non_finite_log_weight(bad):
    # no weight vanished: the error names the entry that is not finite
    pop = population_from(np.zeros((3, 9)), np.array([0.0, -1.0, bad]))
    for call in (lambda: normalize(pop.log_weights), pop.normalized_weights):
        with pytest.raises(ValueError, match=f"log-weight 2 is {bad}, not finite"):
            call()


def test_config_validation():
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=5, rho=3.0)
    with pytest.raises(ValueError):
        SmcConfig(particle_count=0, schedule=sched)
    with pytest.raises(ValueError):
        SmcConfig(particle_count=2.5, schedule=sched)
    with pytest.raises(ValueError):
        SmcConfig(particle_count=2, schedule=sched, seed=2.5)
    with pytest.raises(ValueError):
        SmcConfig(particle_count=2, schedule=sched, seed=-1)
    with pytest.raises(ValueError):
        SmcConfig(particle_count=2, schedule=sched, scheme="tds", proposal="sosag")
    with pytest.raises(ValueError):
        SmcConfig(particle_count=2, schedule=sched, resample_threshold=0.0)
    with pytest.raises(ValueError):
        SmcConfig(particle_count=2, schedule=sched, proposal="rk4")
    with pytest.raises(ValueError):
        SmcConfig(particle_count=2, schedule=sched, s_churn=-1.0)


# what each proposal reads of the two settings it might not, written out here apart from PROPOSALS,
# and a value of each setting away from its default
PROPOSAL_READS = {"gem": {"scheme"}, "sosag": {"s_churn"}}
SETTING_AWAY = {"scheme": "tds", "s_churn": 0.0}
SETTING_PAIRS = [(proposal, name) for proposal in PROPOSAL_READS for name in SETTING_AWAY]


@pytest.mark.parametrize("proposal,name", SETTING_PAIRS, ids=[f"{p}-{n}" for p, n in SETTING_PAIRS])
def test_a_config_takes_only_the_settings_its_proposal_reads(proposal, name):
    # gem reads no churn and sosag has no tds weight: either set away from its default is an
    # error naming the proposal and the setting, not a run that ignores it
    sched = NoiseSchedule(steps=5)
    build = lambda: SmcConfig(2, sched, proposal=proposal, **{name: SETTING_AWAY[name]})
    if name in PROPOSAL_READS[proposal]:
        assert getattr(build(), name) == SETTING_AWAY[name]
    else:
        with pytest.raises(ValueError, match=f"{proposal} (does not read|takes) {name}"):
            build()


def test_a_config_names_the_schemes_its_proposal_takes():
    assert pgd.smc.PROPOSALS == {"gem": ("tds", "pbs"), "sosag": ("pbs",)}
    sched = NoiseSchedule(steps=5)
    with pytest.raises(ValueError, match="gem does not read s_churn; leave it at its default 2.0"):
        SmcConfig(4, sched, proposal="gem", s_churn=7.0)
    with pytest.raises(ValueError, match="sosag takes scheme pbs, not 'tds'"):
        SmcConfig(4, sched, proposal="sosag", scheme="tds")
    with pytest.raises(ValueError, match="gem takes scheme tds or pbs, not 'dps'"):
        SmcConfig(4, sched, proposal="gem", scheme="dps")
    with pytest.raises(ValueError, match="proposal must be one of"):  # an unhashable one too
        SmcConfig(4, sched, proposal=["gem"])
    for proposal, scheme in (("gem", "tds"), ("gem", "pbs"), ("sosag", "pbs")):
        assert SmcConfig(4, sched, proposal=proposal, scheme=scheme, s_churn=2.0).scheme == scheme


# Each single-chain sampler as (proposal, chain): em is gem with zero
# weights, second_order is sosag with zero weights, and the ode chains are
# sosag without churn.
CHAINS = [
    ("gem", "gem"),
    ("sosag", "sosag"),
    ("gem", "em"),
    ("sosag", "second_order"),
    ("sosag", "ode_heun"),
    ("sosag", "ode_heun_guided"),
]


@pytest.mark.parametrize("proposal,mode", CHAINS)
def test_single_particle_run_matches_chain_bit_exactly(proposal, mode):
    # Reference: the chain's own loop over the cores on the run's noise stream.
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=12, rho=3.0)
    den, obs, w = small_problem(beta=1.5)
    guided = mode in ("gem", "sosag", "ode_heun_guided")
    s_churn = 0.0 if mode.startswith("ode") else 2.0
    if not guided:
        w = GuidanceWeights(beta=0.0, gamma=0.0, omega=0.0)
    cfg = SmcConfig(
        particle_count=1,
        schedule=sched,
        weights=w,
        proposal=proposal,
        scheme="pbs",
        s_churn=s_churn,
        seed=31,
    )
    pop, _ = smc_run(cfg, den, obs, None, SOLUTION_ONLY)

    ctx = GuidanceContext(obs=obs, system=None, layout=SOLUTION_ONLY, weights=w)
    stream = noise_stream(31)
    x = sched.sigma_max * stream.standard_normal((1, 9))
    gamma = churn_gamma(s_churn, sched.steps)
    for k in range(sched.steps, 0, -1):
        s_k, s_n = sched.levels[k], sched.levels[k - 1]
        z = stream.standard_normal((1, 9))
        if proposal == "gem":
            # em is gem with the zero gradient of its zero weights, written out
            denoised = den.denoise(x, s_k)
            grad, index = data_log_likelihood_grad(ctx, denoised) if guided else (np.zeros_like(x), None)
            x = gem_core(x, z, s_k, s_n, denoised, den.vjp(x, s_k, grad, index))[0]
        else:
            x = heun_core(x, z, s_k, s_n, den, gamma, ctx)
    assert np.array_equal(pop.states, x)


def poisson_problem():
    """A 4 x 4 poisson state with a dense prior and a PDE term (omega > 0)."""
    rng = np.random.default_rng(41)
    spec = GridSpec(4, 4, 2, 1 / 5, DIRICHLET)
    b = rng.standard_normal((spec.size, spec.size))
    cov = b @ b.T / spec.size + 0.1 * np.eye(spec.size)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(spec), "dense", cov))
    cells = spec.with_channels(1)
    obs = Observations(
        Mask.from_indices(cells, [1, 6, 11]),
        rng.standard_normal((1, 3)),
        Mask.from_indices(cells, [0, 5, 10, 15]),
        rng.standard_normal((1, 4)),
        0.1,
    )
    w = GuidanceWeights(beta=10.0, gamma=10.0, omega=1e-3)
    return den, obs, StateLayout.scalar_pair(), w


@pytest.mark.parametrize("scheme", ["pbs", "tds"])
def test_gem_run_evaluates_the_residual_once_per_reconstruction(monkeypatch, scheme):
    # K steps reconstruct K + 1 times; the weight and the next step's guidance
    # share each reconstruction's residual.
    den, obs, layout, w = poisson_problem()
    calls = []
    original = pgd.guidance.residual_sq_grad

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # the residual kernel, as log_likelihood looks it up
    monkeypatch.setattr(pgd.guidance, "residual_sq_grad", counting)
    steps = 7
    cfg = SmcConfig(4, NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=steps), w, "gem", scheme, seed=5)
    smc_run(cfg, den, obs, PdeSystem.poisson(), layout)
    assert len(calls) == steps + 1


@pytest.mark.parametrize("proposal", ["gem", "sosag"])
def test_smc_run_builds_no_field(monkeypatch, proposal):
    # the residual is evaluated on array views of the rows: no Field (and so
    # no per-step validation or finiteness pass) between entry and return
    den, obs, layout, w = poisson_problem()
    built = []
    original = Field.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(Field, "__post_init__", counting)
    cfg = SmcConfig(4, NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=7), w, proposal, "pbs", seed=5)
    smc_run(cfg, den, obs, PdeSystem.poisson(), layout)
    assert built == []


@pytest.mark.parametrize("proposal", ["gem", "sosag"])
def test_run_steps_through_the_schedule_levels_without_sigma_at(monkeypatch, proposal):
    # the step loop reads the levels that the schedule computed and checked once, at construction
    den, obs, layout, w = poisson_problem()
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=7, rho=3.0)
    core = "gem_core" if proposal == "gem" else "heun_core"
    original, seen = getattr(pgd.smc, core), []

    def recording(x, z, sigma_k, sigma_next, *rest):
        seen.append((sigma_k, sigma_next))
        return original(x, z, sigma_k, sigma_next, *rest)

    monkeypatch.setattr(pgd.smc, core, recording)
    smc_run(SmcConfig(4, sched, w, proposal, seed=9), den, obs, PdeSystem.poisson(), layout)
    assert seen == [(sched.levels[k], sched.levels[k - 1]) for k in range(7, 0, -1)]


@pytest.mark.parametrize("proposal,scheme", [("gem", "pbs"), ("gem", "tds"), ("sosag", "pbs")])
def test_run_draws_all_its_noise_from_one_stream(monkeypatch, proposal, scheme):
    # the initial states are sigma_max times the stream's first (N, d) draw and
    # step j's noise is the (N, d) draw after it, whatever resampling does
    den, obs, layout, w = poisson_problem()
    particles, d, steps = 4, den.prior.mean.spec.size, 7
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=steps, rho=3.0)
    cfg = SmcConfig(particles, sched, w, proposal, scheme, resample_threshold=0.9, seed=9)
    core = "gem_core" if proposal == "gem" else "heun_core"
    original = getattr(pgd.smc, core)
    seen = []

    def recording(x, z, *args):
        seen.append((x.copy(), z.copy()))
        return original(x, z, *args)

    monkeypatch.setattr(pgd.smc, core, recording)
    smc_run(cfg, den, obs, PdeSystem.poisson(), layout)

    stream = noise_stream(9)
    np.testing.assert_array_equal(seen[0][0], sched.sigma_max * stream.standard_normal((particles, d)))
    assert len(seen) == steps
    for _, z in seen:
        np.testing.assert_array_equal(z, stream.standard_normal((particles, d)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: GridSpec(3, 3, channels=True),
        lambda: NoiseSchedule(steps=True),
        lambda: SmcConfig(particle_count=True, schedule=NoiseSchedule(steps=4)),
        lambda: SmcConfig(particle_count=2, schedule=NoiseSchedule(steps=4), seed=False),
        lambda: DatasetSpec(PdeSystem.poisson(), GridSpec(8, 8, 2, 1 / 9, DIRICHLET), sample_count=True),
    ],
    ids=["channels", "steps", "particle_count", "seed", "sample_count"],
)
def test_a_bool_is_not_a_count(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


BOOL_REAL_VALUES = {  # each real-valued setting given True (np.True_ for three), which passes as 1 unchecked
    "spacing": lambda: GridSpec(3, 3, 1, spacing=True),
    "sigma_max": lambda: NoiseSchedule(sigma_max=True, sigma_min=0.01, steps=4),
    "sigma_min": lambda: NoiseSchedule(sigma_min=np.True_, steps=4),
    "rho": lambda: NoiseSchedule(steps=4, rho=True),
    "resample_threshold": lambda: SmcConfig(2, NoiseSchedule(steps=4), resample_threshold=True),
    "s_churn": lambda: SmcConfig(2, NoiseSchedule(steps=4), s_churn=True),
    "beta": lambda: GuidanceWeights(beta=True),
    "omega": lambda: GuidanceWeights(omega=np.True_),
    "source": lambda: PdeSystem.darcy(source=True),
    "horizon": lambda: PdeSystem.gray_scott(horizon=True),
    "sigma_o": lambda: observations_on(SPEC9, [0], [1.0], sigma_o=True),
    "length_scale": lambda: SmoothGrf(length_scale=True),
    "low": lambda: ThresholdedGrf(low=True),
    "high": lambda: ThresholdedGrf(high=np.True_),
    "lam": lambda: fit_empirical_prior([Field.zeros(SPEC9)], True),
    "dt": lambda: simulate_rd(PdeSystem.gray_scott(), *[Field.zeros(GridSpec(4, 4, 2, 1 / 4, PERIODIC))] * 2, True, 1),
}


@pytest.mark.parametrize("name, build", BOOL_REAL_VALUES.items(), ids=list(BOOL_REAL_VALUES))
def test_a_bool_is_not_a_real_value(name, build):
    with pytest.raises(ValueError, match=name):
        build()


WRONG_TYPES = {  # each field given a value of another type, which would construct and fail later with an AttributeError
    "schedule": lambda: SmcConfig(4, None),
    "weights": lambda: SmcConfig(4, NoiseSchedule(steps=3), weights=(1, 1, 0)),
    "coeff_model": lambda: DatasetSpec(PdeSystem.poisson(), GridSpec(8, 8, 2, 1 / 9), 2, coeff_model="smooth"),
}


@pytest.mark.parametrize("name, build", WRONG_TYPES.items(), ids=list(WRONG_TYPES))
def test_a_field_of_another_type_is_named_at_construction(name, build):
    with pytest.raises(ValueError, match=f"{name} must be a "):
        build()


def test_non_finite_weight_raises_a_located_blow_up():
    # The darcy benchmark problem (16 x 16, set-up seed 7) with run seed 1 and omega = 0.1:
    # the explicit PDE guidance overflows and the weights go non-finite at step 12.
    w = GuidanceWeights(beta=100.0, gamma=100.0, omega=0.1)
    cfg = SmcConfig(64, NoiseSchedule(steps=50), w, "gem", "pbs", seed=1)
    threads = threading.active_count()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError, match="weight") as err:
        smc_run(cfg, *fitted_problem(PdeSystem.darcy(), 16, 7))
    assert threading.active_count() == threads  # smc_run starts no thread
    assert isinstance(err.value, NumericalError)
    assert err.value.step == 12
    assert err.value.particle is not None and 0 <= err.value.particle < 64


@pytest.mark.parametrize("proposal,step", [("gem", 16), ("sosag", 16)])
def test_overflowing_residual_raises_a_located_blow_up_not_a_field_error(proposal, step):
    # At omega = 1 the residual of a reconstruction overflows. The residual
    # Field leaves its finiteness to smc_run, which names the step and particle.
    w = GuidanceWeights(beta=100.0, gamma=100.0, omega=1.0)
    cfg = SmcConfig(64, NoiseSchedule(steps=50), w, proposal, "pbs", seed=1)
    threads = threading.active_count()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError, match="weight") as err:
        smc_run(cfg, *fitted_problem(PdeSystem.darcy(), 16, 7))
    assert threading.active_count() == threads  # smc_run starts no thread
    assert err.value.step == step
    assert err.value.particle is not None and 0 <= err.value.particle < 64


def test_denoiser_of_another_size_is_rejected_at_entry():
    _, obs, w = small_problem()
    den = GaussianDenoiser(GaussianPrior(Field.zeros(GridSpec(5, 5, 1, 1.0)), "diagonal", np.full(25, 1.0)))
    cfg = SmcConfig(particle_count=3, schedule=NoiseSchedule(steps=4), weights=w, proposal="gem", scheme="pbs")
    with pytest.raises(ValueError, match="denoiser dim 25 does not match the state size 9"):
        smc_run(cfg, den, obs, None, SOLUTION_ONLY)


def test_pbs_final_weights_telescope_to_terminal_loglik():
    # With no resampling the cumulative pbs weight telescopes to the twist
    # loglik(D(x_0, sigma_min)); threshold below 1/N never fires.
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=15, rho=3.0)
    den, obs, w = small_problem(beta=1.0)
    cfg = SmcConfig(
        particle_count=4,
        schedule=sched,
        weights=w,
        proposal="gem",
        scheme="pbs",
        resample_threshold=0.2,
        seed=8,
    )
    pop, diag = smc_run(cfg, den, obs, None, SOLUTION_ONLY)
    assert not any(diag.resampled)
    ctx = GuidanceContext(obs=obs, system=None, layout=SOLUTION_ONLY, weights=w)
    terminal = log_likelihood(ctx, den.denoise(pop.states, sched.sigma_min))
    assert np.allclose(pop.log_weights, terminal, atol=1e-10)


def test_ess_decreases_as_likelihood_sharpens():
    # A fixed population weighted by increasingly sharp likelihoods: the ESS
    # must fall strictly along the sharpness grid.
    rng = np.random.default_rng(6)
    states = rng.standard_normal((8, 9))
    y = rng.standard_normal(3)
    idx = [1, 4, 7]
    sq = np.array([np.sum((y - s.reshape(-1)[idx]) ** 2) for s in states])
    ess_values = []
    for beta in (0.5, 1.0, 2.0, 4.0, 8.0):
        lls = -beta * sq / len(idx)
        ess_values.append(normalize(lls)[1])
    assert all(a > b for a, b in zip(ess_values, ess_values[1:]))


def test_weighted_estimate_uniform_is_arithmetic_mean():
    rng = np.random.default_rng(7)
    states = rng.standard_normal((5, 9))
    pop = population_from(states, np.zeros(5))
    got = point_estimate(pop, "weighted_mean").flat()
    assert np.allclose(got, states.mean(axis=0), atol=1e-14)


def test_weighted_estimate_single_survivor():
    states = np.random.default_rng(8).standard_normal((4, 9))
    pop = population_from(states, [-np.inf, 0.0, -np.inf, -np.inf])
    got = point_estimate(pop, "weighted_mean").flat()
    assert np.allclose(got, states[1])


def test_weighted_mean_matches_recomputed_normalized_weights():
    rng = np.random.default_rng(9)
    states = rng.standard_normal((6, 9))
    lw = rng.standard_normal(6)
    pop = population_from(states, lw)
    got = point_estimate(pop, "weighted_mean").flat()
    w = np.exp(lw - lw.max())
    w /= w.sum()
    np.testing.assert_allclose(got, w @ states, rtol=0, atol=1e-14)


def test_point_estimate_modes():
    rng = np.random.default_rng(10)
    states = rng.standard_normal((4, 9))
    pop = population_from(states, np.log([0.1, 0.6, 0.2, 0.1]))
    assert np.allclose(point_estimate(pop, "best").flat(), states[1])
    w = pop.normalized_weights()
    assert np.allclose(point_estimate(pop, "weighted_mean").flat(), w @ states)
    with pytest.raises(ValueError):
        point_estimate(pop, "map")
    assert set(ESTIMATE_MODES) == {"best", "weighted_mean"}


def conjugate_problem():
    """A dense RBF prior on 4 x 4 cells and five observations with noise sigma_o = 0.1,
    weighted so that the twist is the exact observation likelihood.

    Returns (denoiser, context, schedule).
    """
    sigma_o, rng, d = 0.1, np.random.default_rng(11), 16
    pts = np.argwhere(np.ones((4, 4))).astype(float)  # the cells' (row, column), row by row
    dist2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    kernel = np.exp(-dist2 / (2 * 2.0**2)) + 1e-6 * np.eye(d)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC16), "dense", kernel))

    truth = np.linalg.cholesky(kernel) @ rng.standard_normal(d)
    idx = np.array([0, 3, 5, 10, 15])
    y = truth[idx] + sigma_o * rng.standard_normal(idx.size)
    obs = observations_on(SPEC16, idx, y, sigma_o=sigma_o)

    w = GuidanceWeights(beta=idx.size / (2 * sigma_o**2), gamma=0.0, omega=0.0)
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=60, rho=2.0)
    return den, GuidanceContext(obs, None, SOLUTION_ONLY, w), sched


def test_conjugate_gaussian_posterior_mean_small():
    # Conjugate oracle at reduced size; the d=64 version is the benchmark
    # workload conjugate_gem_tds, which reports rel_err_oracle without gating it.
    den, ctx, sched = conjugate_problem()
    cfg = SmcConfig(particle_count=128, schedule=sched, weights=ctx.weights, proposal="gem", scheme="tds", seed=5)
    pop, _ = smc_run(cfg, den, ctx.obs, None, SOLUTION_ONLY)
    post_mean = condition(ctx, den)[0]
    est = point_estimate(pop, "weighted_mean").flat()
    rel = np.linalg.norm(est - post_mean) / np.linalg.norm(post_mean)
    assert rel < 0.1


def test_conjugate_posterior_mean_holds_across_seeds():
    # The conjugate oracle over run seeds 0-29, not one seed: at most 6 runs
    # reach relative error 0.1 (6 did when this was recorded: seeds 6, 16, 17,
    # 18, 24 and 26, the worst 0.154) and the median stays below 0.07 (0.066).
    den, ctx, sched = conjugate_problem()
    post_mean = condition(ctx, den)[0]
    rel = []
    for seed in range(30):
        pop, _ = smc_run(SmcConfig(128, sched, ctx.weights, "gem", "tds", seed=seed), den, ctx.obs, None, SOLUTION_ONLY)
        est = point_estimate(pop, "weighted_mean").flat()
        rel.append(np.linalg.norm(est - post_mean) / np.linalg.norm(post_mean))
    assert np.sum(np.array(rel) >= 0.1) <= 6, np.round(rel, 3)
    assert np.median(rel) < 0.07, np.round(rel, 3)


@pytest.mark.parametrize("seed", range(10))
def test_conjugate_log_evidence_matches_the_marginal_likelihood(seed):
    # Evidence oracle: log p(y) = log N(y; 0, K_oo + sigma_o^2 I). smc_run drops
    # every additive constant; they telescope to the final twist's normalizer
    # c_0, so log Z + c_0 estimates log p(y) without bias.
    den, ctx, sched = conjugate_problem()
    cfg = SmcConfig(particle_count=128, schedule=sched, weights=ctx.weights, proposal="gem", scheme="tds", seed=seed)
    _, diag = smc_run(cfg, den, ctx.obs, None, SOLUTION_ONLY)
    c0, log_py = log_evidence_offset(ctx, den, sched.sigma_min), condition(ctx, den)[2]
    assert abs(diag.log_evidence + c0 - log_py) < 0.6


@pytest.mark.xfail(
    strict=True, reason="the Euler-Maruyama reverse kernel biases the evidence at K = 50; the exact kernel is open"
)
def test_darcy_log_evidence_matches_the_marginal_likelihood():
    # The evidence oracle at darcy scale: a dense prior fitted to 64 darcy
    # samples on 16 x 16 cells, the 65th as truth, 16 observations per group.
    # log p(y) = log N(y; A mu, A S A^T + V) (16.43 here); c_0 is taken as in the
    # conjugate evidence test. At K = 50 the gap is about -3 to -5 nats on run
    # seeds 0-2, and -0.6 to -1.2 at K = 200.
    den, ctx = oracle_context("darcy", 0.0)
    sched = NoiseSchedule(steps=50)
    c0, log_py = log_evidence_offset(ctx, den, sched.sigma_min), condition(ctx, den)[2]
    for seed in range(3):
        cfg = SmcConfig(64, sched, ctx.weights, "gem", "tds", seed=seed)
        _, diag = smc_run(cfg, den, ctx.obs, ctx.system, ctx.layout)
        assert abs(diag.log_evidence + c0 - log_py) < 1.5, seed


# ROADMAP item 12's linear-Gaussian oracle problems: each system as its PdeSystem, grid side n and particle
# count N, with set-up seed 3 and 16 observations per group at sigma_o = 0.01, which beta = gamma = 8e4
# weight as their likelihood. The darcy problem is the darcy evidence test's; its residual is not linear,
# so it serves at omega = 0 only.
ORACLE_PROBLEMS = {"poisson": (PdeSystem.poisson(), 8, 128), "helmholtz": (PdeSystem.helmholtz(3.0), 8, 128),
                   "darcy": (PdeSystem.darcy(), 16, 64)}
# the bound of the sampler test below for each (system, omega), recorded from iid_mean_error_percentile at
# the system's N: it depends on the exact posterior and N only, never on a sampler's output
ORACLE_BOUNDS = {("poisson", 0.0): 0.0320, ("poisson", 1e-2): 0.0289, ("helmholtz", 0.0): 0.0320,
                 ("helmholtz", 1e-2): 0.0289, ("darcy", 0.0): 0.0328}


def oracle_context(kind, omega):
    """(denoiser, context) of the oracle problem of ``kind`` at ``omega``."""
    system, n, _ = ORACLE_PROBLEMS[kind]
    den, obs, system, layout = fitted_problem(system, n, 3)
    return den, GuidanceContext(obs, system, layout, GuidanceWeights(beta=8e4, gamma=8e4, omega=omega))


def oracle_id(kind, omega):
    """The test id of a case; the poisson cases, the first, keep their ids, named by omega alone."""
    return str(omega) if kind == "poisson" else f"{kind}-{omega}"


BRUTE_FORCE_CASES = [("poisson", 0.0), ("poisson", 1e-2), ("poisson", 1.0), *list(ORACLE_BOUNDS)[2:]]


@pytest.mark.parametrize("kind,omega", BRUTE_FORCE_CASES, ids=[oracle_id(*case) for case in BRUTE_FORCE_CASES])
def test_exact_linear_posterior_matches_a_brute_force_dense_posterior(kind, omega):
    # condition against two references that do not go through it, with the dense (d, d) prior covariance S.
    # The information form takes the likelihood's precision and gain from log_likelihood's own gradient at
    # the zero and unit states (the log-likelihood is quadratic), and inverts S densely. The precision form
    # is N(P^-1 b, P^-1) with P = S^-1 + A^T V^-1 A + (2 omega / n) L^T L and b = S^-1 mu + A^T V^-1 y, S^-1
    # read off the prior's factors. The log-normalizer is the Bayes identity log N(x; mu, S) + log p(y | x)
    # - log N(x; x, P^-1) at the precision form's mean x, with n pseudo-observations 0 = L x + e,
    # e ~ N(0, n / (2 omega) I), in p(y | x) at omega > 0.
    den, ctx = oracle_context(kind, omega)
    mean, cov, log_py = condition(ctx, den)
    d, mu, f = ctx.spec.size, den.prior.mean.flat(), den.prior.cov
    s = dense_cov(f)
    _, grads, index = log_likelihood(ctx, np.vstack([np.zeros(d), np.eye(d)]), grad=True)
    if index is not None:  # without the PDE term the gradient comes at the observed entries only
        grads, values = np.zeros((d + 1, d)), grads
        grads[:, index] = values
    info_prec = np.linalg.inv(s) + (grads[0] - grads[1:]).T
    info_mean = np.linalg.solve(info_prec, np.linalg.solve(s, mu) + grads[0])
    s_inv = np.eye(d) / f.iso + f.basis.T @ ((1 / f.evals - 1 / f.iso)[:, None] * f.basis)
    sel, noise = np.eye(d)[ctx.index], ctx.variance
    prec = s_inv + sel.T @ (sel / noise[:, None])
    if omega > 0:
        lmat = residual_operator(ctx)
        n = lmat.shape[0]
        prec, noise = prec + (2 * omega / n) * lmat.T @ lmat, np.r_[noise, np.full(n, n / (2 * omega))]
    x = np.linalg.solve(prec, s_inv @ mu + sel.T @ (ctx.values / ctx.variance))
    for got, want in ((mean, info_mean), (cov, np.linalg.inv(info_prec)), (mean, x), (cov, np.linalg.inv(prec))):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    log_prior = -0.5 * ((x - mu) @ s_inv @ (x - mu) + np.linalg.slogdet(2 * np.pi * s)[1])
    log_lik = log_likelihood(ctx, x) - 0.5 * np.sum(np.log(2 * np.pi * noise))
    log_post = -0.5 * np.linalg.slogdet(2 * np.pi * np.linalg.inv(prec))[1]
    assert log_py == pytest.approx(log_prior + log_lik - log_post, rel=1e-10)


@pytest.mark.parametrize("kind,omega", list(ORACLE_BOUNDS), ids=[oracle_id(*case) for case in ORACLE_BOUNDS])
def test_the_poisson_oracle_bounds_are_the_iid_percentile(kind, omega):
    den, ctx = oracle_context(kind, omega)
    mean, cov, _ = condition(ctx, den)
    got = iid_mean_error_percentile(mean, cov, ORACLE_PROBLEMS[kind][2])
    assert got == pytest.approx(ORACLE_BOUNDS[kind, omega], rel=2e-3)


# the lowest and highest error of gem/tds at K = 50 on run seeds 0-4, against each bound of ORACLE_BOUNDS
GEM_TDS_ERRORS = {("poisson", 0.0): (0.26, 0.35), ("poisson", 1e-2): (0.26, 0.31), ("helmholtz", 0.0): (0.23, 0.34),
                  ("helmholtz", 1e-2): (0.22, 0.25), ("darcy", 0.0): (0.17, 0.23)}


def gem_tds_miss(case, low, high):
    n, bound = ORACLE_PROBLEMS[case[0]][2], ORACLE_BOUNDS[case]
    reason = (f"gem/tds at N = {n}, K = 50 lies {low}-{high} from the exact mean on run seeds 0-4, "
              f"{low / bound:.0f}-{high / bound:.0f} times the i.i.d. bound {bound:.3g}")
    marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
    return pytest.param(*case, id=oracle_id(*case), marks=marks)


@pytest.mark.parametrize("kind,omega", [gem_tds_miss(case, *errors) for case, errors in GEM_TDS_ERRORS.items()])
def test_gem_tds_mean_matches_the_exact_poisson_posterior(kind, omega):
    # ROADMAP item 12: the weighted mean of a gem/tds run against the closed-form mean of its
    # target, with the PDE term in it at omega > 0; at omega = 0.1 the sampler diverges silently
    # on poisson (errors 3-15 on the same seeds), which ROADMAP item 4 addresses
    den, ctx = oracle_context(kind, omega)
    mean = condition(ctx, den)[0]
    errors = []
    for seed in range(5):
        cfg = SmcConfig(ORACLE_PROBLEMS[kind][2], NoiseSchedule(steps=50), ctx.weights, "gem", "tds", seed=seed)
        est = point_estimate(smc_run(cfg, den, ctx.obs, ctx.system, ctx.layout)[0], "weighted_mean").flat()
        errors.append(np.linalg.norm(est - mean) / np.linalg.norm(mean))
    assert max(errors) <= ORACLE_BOUNDS[kind, omega], np.round(errors, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.xfail(
    strict=True, raises=RuntimeWarning,
    reason="overflow and invalid-value warnings come before the located failure (ROADMAP aim 3, item 4)",
)
def test_high_contrast_darcy_fails_located_with_no_warning_before():
    # Darcy with a two-level permeability, ThresholdedGrf(4, 3, 12) on 16 x 16
    # cells, a dense prior fitted to 64 samples, gem/pbs at beta = gamma = 100 and
    # omega = 1e-3. Each run of set-up seeds 3 and 7 and run seeds 0-2 ends in a
    # BlowUpError at step 44 or 45, but multiply, square, add and subtract first
    # warn of an overflow or an invalid value; under -W error the first warning ends the test.
    w = GuidanceWeights(beta=100.0, gamma=100.0, omega=1e-3)
    for setup in (3, 7):
        problem = fitted_problem(PdeSystem.darcy(), 16, setup, ThresholdedGrf(4.0, 3.0, 12.0))
        for seed in range(3):
            with pytest.raises(BlowUpError) as err:
                smc_run(SmcConfig(64, NoiseSchedule(steps=50), w, "gem", "pbs", seed=seed), *problem)
            assert err.value.step is not None and err.value.particle is not None


@pytest.mark.parametrize("layout", [StateLayout((), (0, 1)), StateLayout((0, 1), (2, 3, 4, 5))], ids=["2", "6"])
def test_smc_run_rejects_a_divergence_free_state_of_another_snapshot_count(layout):
    # with the PDE term on, the state must be the kind's two vector snapshots
    channels = layout.channel_count
    cells = GridSpec(4, 4, 1, 0.25, PERIODIC)
    obs = Observations(
        Mask.from_indices(cells, [1, 6]),
        np.zeros((len(layout.coeff_channels), 2)),
        Mask.from_indices(cells, [0, 9]),
        np.zeros((len(layout.solution_channels), 2)),
        0.1,
    )
    prior = GaussianPrior(Field.zeros(cells.with_channels(channels)), "diagonal", np.ones(16 * channels))
    den = GaussianDenoiser(prior)
    cfg = SmcConfig(4, NoiseSchedule(steps=3), GuidanceWeights(omega=1.0), "gem", "pbs")
    with pytest.raises(ValueError, match=r"divergence_free layout needs coefficient channels \(0, 1\)"):
        smc_run(cfg, den, obs, PdeSystem.divergence_free(), layout)


def test_covariance_twist_on_dense_gaussian_prior(monkeypatch):
    # Both observation groups on a two-channel state with a dense prior: the
    # twist is log N(y; A x_hat, V + sigma^2 A J A^T) up to a constant, is the
    # point likelihood at sigma = 0, and is what the tds guidance ascends.
    rng = np.random.default_rng(21)
    spec = GridSpec(3, 3, 2, 1.0)
    d = spec.size
    b = rng.standard_normal((d, d))
    cov = b @ b.T / d + 0.1 * np.eye(d)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(spec), "dense", cov))
    cell_spec = spec.with_channels(1)
    idx_a, idx_u = np.array([1, 5]), np.array([0, 4, 8])
    obs = Observations(
        mask_a=Mask.from_indices(cell_spec, idx_a),
        values_a=rng.standard_normal((1, idx_a.size)),
        mask_u=Mask.from_indices(cell_spec, idx_u),
        values_u=rng.standard_normal((1, idx_u.size)),
        sigma_o=0.1,
    )
    layout = StateLayout.scalar_pair()
    w = GuidanceWeights(beta=20.0, gamma=8.0, omega=0.0)
    ctx = GuidanceContext(obs=obs, system=None, layout=layout, weights=w)

    def twist_log(x, sigma):
        return log_likelihood(ctx, den.denoise(x, sigma), twist=twist_solve(ctx, den, x, sigma))

    # closed form: A picks coefficient cells in channel 0, solution cells in channel 1
    rows = np.concatenate([9 + idx_u, idx_a])
    y = np.concatenate([obs.values_u[0], obs.values_a[0]])
    v = np.concatenate([np.full(3, 3 / (2 * 20.0)), np.full(2, 2 / (2 * 8.0))])
    sigma = 0.7
    jac = tweedie_jacobian(cov, sigma)
    c = np.diag(v) + sigma**2 * jac[np.ix_(rows, rows)]
    states = 2.0 * rng.standard_normal((6, d))
    r = y - (states @ jac.T)[:, rows]
    closed = -0.5 * np.sum(r * np.linalg.solve(c, r.T).T, axis=1) - 0.5 * np.linalg.slogdet(c)[1]
    gap = twist_log(states, sigma) - closed
    assert np.allclose(gap, gap[0], atol=1e-10)

    # at sigma = 0 the reconstruction is the state, C is V and the twist is the point likelihood
    c0 = twist_covariance(ctx, den, states, 0.0)
    assert np.array_equal(c0, np.diag(ctx.variance))
    value, grad, index = log_likelihood(ctx, states, grad=True, twist=twist_solve(ctx, den, states, 0.0))
    point, point_grad, point_index = log_likelihood(ctx, states, grad=True)
    assert index is point_index is ctx.index  # without a PDE term the gradient lives on the observed entries
    assert np.allclose(value, [log_likelihood(ctx, row) for row in states], rtol=1e-12)
    assert np.allclose(value, point, rtol=1e-12) and np.allclose(grad, point_grad, rtol=1e-12, atol=1e-12)

    # without observed entries the twist and its gradient vanish
    no_obs = GuidanceWeights(beta=0.0, gamma=0.0, omega=0.0)
    empty = GuidanceContext(obs=obs, system=None, layout=layout, weights=no_obs)
    c_empty = twist_covariance(empty, den, states, sigma)
    twist = twist_solve(empty, den, states, sigma)
    value, grad, index = log_likelihood(empty, den.denoise(states, sigma), grad=True, twist=twist)
    assert c_empty.shape == (0, 0) and value.shape == (6,) and not value.any() and not grad.any()
    assert grad.shape == (6, 0) and index.size == 0 and not den.vjp(states, sigma, grad, index).any()

    # the guidance shift that smc_run forms under tds ascends the twist
    calls = []

    def recording_gem_core(x, z, sigma_k, sigma_next, *args):
        out = pgd.samplers.gem_core(x, z, sigma_k, sigma_next, *args)
        calls.append((x.copy(), sigma_k, sigma_k**2 - sigma_next**2, out[1]))
        return out

    monkeypatch.setattr(pgd.smc, "gem_core", recording_gem_core)
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=6, rho=2.0)
    cfg = SmcConfig(particle_count=3, schedule=sched, weights=w, proposal="gem", scheme="tds", seed=2)
    smc_run(cfg, den, obs, None, layout)
    assert len(calls) == sched.steps
    h = 1e-5
    for x, sigma_k, delta, shift in calls[::2]:
        fd = np.stack(
            [(twist_log(x + h * e, sigma_k) - twist_log(x - h * e, sigma_k)) / (2 * h) for e in np.eye(d)],
            axis=1,
        )
        assert np.allclose(shift / delta, fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("sigma_o", [0.1, 1e-2, 1e-3, 1e-4])
def test_tds_twist_matches_an_eigendecomposed_gaussian_at_small_variance(sigma_o, monkeypatch):
    # smc_run's tds twist is log N(y; A x_hat, C) with C = V + sigma^2 sym(A J A^T)
    # and V = sigma_o^2, down to 1e-8. The oracle takes C from the prior's
    # closed-form Jacobian and inverts it through its eigendecomposition. A
    # point likelihood r^2 / 2V minus a correction of the same size would
    # miss it by about 1e-9 relative at the smallest V.
    rng = np.random.default_rng(31)
    d = SPEC16.size
    b = rng.standard_normal((d, d))
    prior_cov = b @ b.T / d + 0.5 * np.eye(d)
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC16), "dense", prior_cov))
    idx = np.array([1, 6, 11, 12])
    y = rng.standard_normal(idx.size)
    obs = observations_on(SPEC16, idx, y, sigma_o=sigma_o)
    w = GuidanceWeights(beta=idx.size / (2 * sigma_o**2), gamma=0.0, omega=0.0)

    sigmas, calls = [], []

    def recording_solve(ctx, denoiser, x, sigma, factors=None):
        sigmas.append(sigma)
        return twist_solve(ctx, denoiser, x, sigma, factors)

    def recording_log_likelihood(ctx, rows, grad=False, twist=None):
        out = log_likelihood(ctx, rows, grad=grad, twist=twist)
        calls.append((sigmas[-1], rows.copy(), out if grad else (out, None, None)))
        return out

    monkeypatch.setattr(pgd.smc, "twist_solve", recording_solve)
    monkeypatch.setattr(pgd.smc, "log_likelihood", recording_log_likelihood)
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=8, rho=2.0)
    smc_run(SmcConfig(4, sched, w, "gem", "tds", seed=3), den, obs, None, SOLUTION_ONLY)
    assert len(calls) == sched.steps + 1 and calls[-1][2][1] is None

    lam_p, q_p = np.linalg.eigh(prior_cov)
    for sigma, x_hat, (value, grad, index) in calls:
        jac = (q_p * (lam_p / (lam_p + sigma**2))) @ q_p.T
        c = sigma_o**2 * np.eye(idx.size) + sigma**2 * 0.5 * (jac + jac.T)[np.ix_(idx, idx)]
        lam, q = np.linalg.eigh(c)
        proj = (y - x_hat[:, idx]) @ q
        np.testing.assert_allclose(value, -0.5 * np.sum(proj**2 / lam, axis=1), rtol=1e-12, atol=0)
        if grad is not None:  # the gradient comes as its values at the observed entries
            want, got = np.zeros_like(x_hat), np.zeros_like(x_hat)
            want[:, idx] = (proj / lam) @ q.T
            got[:, index] = grad
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("proposal,scheme", [("gem", "tds"), ("gem", "pbs"), ("sosag", "pbs")])
@pytest.mark.parametrize("kind", ["diagonal", "dense", "gmm"])
def test_a_run_without_weighted_observations_finishes_unweighted(proposal, scheme, kind):
    # zero weights leave no observed entry: the gradient is an (N, 0) cotangent at an empty index
    rng = np.random.default_rng(39)
    root = rng.standard_normal((9, 9))
    den = {
        "diagonal": small_problem()[0],
        "dense": GaussianDenoiser(GaussianPrior(Field.zeros(SPEC9), "dense", root @ root.T / 9)),
        "gmm": GmmDenoiser([0.4, 0.6], rng.standard_normal((2, 9)), [0.5, 1.0]),
    }[kind]
    _, obs, _ = small_problem()
    w = GuidanceWeights(beta=0.0, gamma=0.0, omega=0.0)
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=6, rho=3.0)
    pop, diag = smc_run(SmcConfig(5, sched, w, proposal, scheme, seed=4), den, obs, None, SOLUTION_ONLY)
    assert np.all(np.isfinite(pop.states)) and not pop.log_weights.any() and diag.log_evidence == 0.0


def test_em_pbs_and_tds_coincidence_smoke():
    # Under heavy weight concentration both schemes resample the same
    # survivors; observed rather than asserted (no invariant claimed).
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=20, rho=3.0)
    den, obs, _ = small_problem()
    w = GuidanceWeights(beta=400.0, gamma=0.0, omega=0.0)
    outs = {}
    for scheme in ("pbs", "tds"):
        cfg = SmcConfig(particle_count=4, schedule=sched, weights=w, proposal="gem", scheme=scheme, seed=13)
        pop, diag = smc_run(cfg, den, obs, None, SOLUTION_ONLY)
        assert np.all(np.isfinite(pop.states))
        outs[scheme] = diag
    assert len(outs["pbs"].ess_trace) == len(outs["tds"].ess_trace)


def working_set_problem(kind):
    """A 16 x 16 gray_scott_2 problem with a diagonal prior, or a darcy one with a factored dense prior,
    both with a PDE term (omega > 0) and observations in both groups."""
    rng = np.random.default_rng(43)
    if kind == "gray_scott_2":
        spec, system = GridSpec(16, 16, 6, 1 / 16, PERIODIC), PdeSystem.gray_scott()
        prior = GaussianPrior(Field.zeros(spec), "diagonal", rng.uniform(0.01, 0.1, spec.size))
    else:
        spec, system = GridSpec(16, 16, 2, 1 / 17, DIRICHLET), PdeSystem.darcy()
        basis = np.linalg.qr(rng.standard_normal((spec.size, 8)))[0].T
        prior = GaussianPrior(Field.zeros(spec), "dense", FactoredCov(0.01, basis, rng.uniform(0.1, 1.0, 8)))
    layout = default_layout(kind)
    cells = spec.with_channels(1)
    obs_a, obs_u = (np.sort(rng.choice(cells.size, 16, replace=False)) for _ in range(2))
    obs = Observations(
        Mask.from_indices(cells, obs_a),
        rng.uniform(0.2, 0.8, (len(layout.coeff_channels), 16)),
        Mask.from_indices(cells, obs_u),
        rng.uniform(0.2, 0.8, (len(layout.solution_channels), 16)),
        0.01,
    )
    return GaussianDenoiser(prior), obs, system, layout


@pytest.mark.parametrize("kind,proposal,bound", [("gray_scott_2", "sosag", 5.75), ("darcy", "gem", 11.0)])
def test_a_run_holds_only_the_arrays_that_a_later_line_reads(kind, proposal, bound):
    # The tracemalloc peak of a run, in (N, d) float64 arrays; it reads 5.51 and 10.30 here. The sosag run
    # peaks in the gray_scott_2 kernel of heun_core's guidance: the run holds the states and the draw, whose
    # buffer holds the churned state, heun_core the churned state's reconstruction, and the kernel 2.34
    # arrays: its species-first working copy, which becomes its gradient, and temporaries. heun_core's
    # second denoise reads 5.24: the Euler state is in the states' buffer. The gem run peaks in darcy's
    # kernel, whose face buffers alone add about 6.6 arrays, while the run holds the new states, the draw
    # and their reconstruction, and no earlier states.
    den, obs, system, layout = working_set_problem(kind)
    w = GuidanceWeights(beta=100.0, gamma=100.0, omega=1e-3)
    cfg = SmcConfig(32, NoiseSchedule(steps=6), w, proposal, "pbs", seed=3)
    tracemalloc.start()
    try:
        pop, diag = smc_run(cfg, den, obs, system, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(pop.states)) and any(diag.resampled)  # a resample gathers what the next step reads
    arrays = peak / (cfg.particle_count * den.dim * 8)
    assert arrays <= bound, f"peak {peak} bytes: {arrays:.2f} (N, d) arrays"


@pytest.mark.parametrize("threshold,last", [(1.0, True), (0.9, False)])
def test_a_run_returns_the_ancestors_of_its_last_step_only(threshold, last, monkeypatch):
    # ParticlePopulation.ancestors: the draw of the last step's resample, or None when that step did not resample
    draws = []

    def recording_resample(*args):
        out = multinomial_resample(*args)
        draws.append(out.ancestors)
        return out

    monkeypatch.setattr(pgd.smc, "multinomial_resample", recording_resample)
    den, obs, w = small_problem()
    sched = NoiseSchedule(sigma_max=2.0, sigma_min=0.01, steps=8, rho=3.0)
    cfg = SmcConfig(8, sched, w, "gem", "pbs", resample_threshold=threshold, seed=4)
    pop, diag = smc_run(cfg, den, obs, None, SOLUTION_ONLY)
    assert diag.resampled[-1] is last and draws  # the second run resampled at an earlier step
    assert pop.ancestors is (draws[-1] if last else None)
