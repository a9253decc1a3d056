import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import pgd.solvers
from pgd.errors import SingularOperatorError
from pgd.grid import DIRICHLET, PERIODIC, Field, GridSpec, Mask, laplacian_2d
from pgd.residuals import RD_SPECIES, PdeSystem, StateLayout, default_layout, residual, residual_sq_grad
from pgd.solvers import (
    DatasetSpec,
    Observations,
    SmoothGrf,
    ThresholdedGrf,
    generate_dataset,
    make_observations,
    simulate_rd,
    smooth_grf_2d,
    solve_elliptic,
)


def test_poisson_zero_rhs_gives_zero_solution():
    spec = GridSpec(8, 8, 1, 0.25, DIRICHLET)
    u = solve_elliptic(PdeSystem.poisson(), Field.zeros(spec))
    assert np.all(u.values == 0.0)


@pytest.mark.parametrize("height,width", [(12, 12), (7, 12), (12, 7)])
def test_poisson_manufactured_solution_recovered(height, width):
    rng = np.random.default_rng(4)
    spec = GridSpec(height, width, 1, 0.2, DIRICHLET)
    u_star = rng.standard_normal((height, width))
    a = laplacian_2d(u_star, spec.spacing, spec.boundary)
    u = solve_elliptic(PdeSystem.poisson(), Field(spec, a[None])).channel(0)
    rel = np.linalg.norm(u - u_star) / np.linalg.norm(u_star)
    assert rel < 1e-8


def _count_operator_applications(monkeypatch) -> list:
    """Record one entry per application of darcy's operator inside ``pgd.solvers``."""
    applies = []
    original = pgd.solvers.flux_divergence_faces

    def counting(*args, **kwargs):
        applies.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pgd.solvers, "flux_divergence_faces", counting)
    return applies


def test_darcy_unit_permeability_matches_poisson(monkeypatch):
    # for constant a the preconditioner a^-1/2 (-lap)^-1 a^-1/2 is the exact
    # inverse, so CG converges after one application of the operator
    spec = GridSpec(10, 10, 1, 0.3, DIRICHLET)
    applies = _count_operator_applications(monkeypatch)
    for value in (1.0, 2.5):
        applies.clear()
        permeability = Field(spec, np.full((1, 10, 10), value))
        u_darcy = solve_elliptic(PdeSystem.darcy(source=1.0), permeability).channel(0)
        assert len(applies) == 1
        rhs = Field(spec, np.full((1, 10, 10), -1.0 / value))
        u_poisson = solve_elliptic(PdeSystem.poisson(), rhs).channel(0)
        assert np.allclose(u_darcy, u_poisson, atol=1e-9)


@pytest.mark.parametrize(
    "model,limit", [(SmoothGrf(), 30), (ThresholdedGrf(), 120)], ids=["SmoothGrf", "ThresholdedGrf"]
)
def test_darcy_preconditioned_cg_iteration_count_at_64(model, limit, monkeypatch):
    # this seed takes 23 (smooth) and 79 (3/12 thresholded) applications;
    # Jacobi preconditioning took about 280 and 300 on 64 x 64 fields
    spec = DatasetSpec(PdeSystem.darcy(), GridSpec(64, 64, 2, 1.0 / 65, DIRICHLET), 1, model, rng_seed=0)
    applies = _count_operator_applications(monkeypatch)
    generate_dataset(spec)
    assert len(applies) <= limit


@pytest.mark.parametrize("kind", ["poisson", "helmholtz", "darcy"])
def test_solve_elliptic_rejects_a_coefficient_of_several_channels(kind):
    # the solve reads channel 0 alone; a second channel would be dropped unread
    system = {"poisson": PdeSystem.poisson(), "helmholtz": PdeSystem.helmholtz(k_wave=2.0), "darcy": PdeSystem.darcy()}
    a = Field(GridSpec(6, 6, 2, 0.3, DIRICHLET), np.ones((2, 6, 6)))
    with pytest.raises(ValueError, match="single-channel coefficient, got 2 channels"):
        solve_elliptic(system[kind], a)


def test_darcy_rejects_nonpositive_permeability():
    spec = GridSpec(6, 6, 1, 0.3, DIRICHLET)
    with pytest.raises(ValueError):
        solve_elliptic(PdeSystem.darcy(), Field.zeros(spec))


@pytest.mark.parametrize("height,width", [(8, 8), (7, 12), (12, 7)])
def test_helmholtz_solve_and_singularity_check(height, width):
    rng = np.random.default_rng(6)
    spec = GridSpec(height, width, 1, 0.25, DIRICHLET)
    u_star = rng.standard_normal((height, width))
    k = 2.0
    a = laplacian_2d(u_star, spec.spacing, spec.boundary) + k**2 * u_star
    u = solve_elliptic(PdeSystem.helmholtz(k_wave=k), Field(spec, a[None])).channel(0)
    assert np.linalg.norm(u - u_star) / np.linalg.norm(u_star) < 1e-10

    # an exact resonance: k^2 equal to the lowest eigenvalue of -laplacian
    h = spec.spacing
    lam = 4.0 / h**2 * (np.sin(np.pi / (2 * (height + 1))) ** 2 + np.sin(np.pi / (2 * (width + 1))) ** 2)
    with pytest.raises(SingularOperatorError):
        solve_elliptic(PdeSystem.helmholtz(k_wave=np.sqrt(lam)), Field(spec, a[None]))


def test_solver_residual_bound_on_emitted_samples():
    spec = DatasetSpec(
        system=PdeSystem.poisson(),
        grid=GridSpec(12, 12, 2, 1.0 / 13, DIRICHLET),
        sample_count=3,
        coeff_model=SmoothGrf(3.0),
        rng_seed=11,
    )
    samples = generate_dataset(spec)
    assert len(samples) == spec.sample_count
    for x in samples:
        r = residual(spec.system, spec.layout, x)
        rhs = np.linalg.norm(x.channel(0))
        assert np.linalg.norm(r.values) <= 1e-9 * max(rhs, 1.0)


def test_gray_scott_fixed_point_is_stationary():
    sub = GridSpec(8, 8, 2, 1.0 / 8, PERIODIC)
    diffusion = Field(sub, np.stack([np.full((8, 8), 2e-4), np.full((8, 8), 1e-4)]))
    initial = Field(sub, np.stack([np.ones((8, 8)), np.zeros((8, 8))]))
    terminal = simulate_rd(PdeSystem.gray_scott(), diffusion, initial, 1e-3, 200)
    assert np.allclose(terminal.values, initial.values, atol=1e-12)


def test_zero_diffusion_zero_reaction_leaves_state_unchanged():
    sub = GridSpec(8, 8, 2, 1.0 / 8, PERIODIC)
    rng = np.random.default_rng(3)
    u = rng.uniform(0.2, 0.8, (8, 8))
    diffusion = Field(sub, np.full((2, 8, 8), 1e-12))
    initial = Field(sub, np.stack([u, np.zeros((8, 8))]))
    system = PdeSystem.gray_scott(feed=0.0, removal=0.0)
    terminal = simulate_rd(system, diffusion, initial, 1e-3, 100)
    assert np.allclose(terminal.channel(0), u, atol=1e-9)


def test_competitive_single_species_follows_logistic_oracle():
    # With spatially constant u and v = z = 0 the PDE reduces per cell to the
    # logistic ODE u' = u(1-u), whose exact solution is the oracle.
    sub = GridSpec(8, 8, 3, 1.0 / 8, PERIODIC)
    rng = np.random.default_rng(9)
    diffusion = Field(sub, rng.uniform(1e-4, 3e-4, (3, 8, 8)))
    u0 = 0.3
    initial = Field(sub, np.stack([np.full((8, 8), u0), np.zeros((8, 8)), np.zeros((8, 8))]))
    coupling = np.array([[0.0, 1.5, 0.6], [0.4, 0.0, 1.7], [1.3, 0.5, 0.0]])
    system = PdeSystem.competitive(coupling, horizon=1.0)
    dt, steps = 1e-3, 1000
    terminal = simulate_rd(system, diffusion, initial, dt, steps)
    t_end = dt * steps
    exact = u0 * np.exp(t_end) / (1.0 + u0 * (np.exp(t_end) - 1.0))
    assert abs(float(terminal.channel(0).mean()) - exact) < 1e-3


def test_simulate_rd_stability_guard():
    sub = GridSpec(8, 8, 2, 1.0 / 8, PERIODIC)
    diffusion = Field(sub, np.full((2, 8, 8), 1.0))
    initial = Field(sub, np.stack([np.ones((8, 8)), np.zeros((8, 8))]))
    with pytest.raises(ValueError):
        simulate_rd(PdeSystem.gray_scott(), diffusion, initial, dt=1.0, steps=10)


def test_solvers_reject_the_other_boundary_with_their_own_message():
    # the boundary each solver checks is its kind's row in KINDS; the messages stay the solvers' own
    with pytest.raises(ValueError, match="elliptic solves require dirichlet_zero boundary"):
        solve_elliptic(PdeSystem.poisson(), Field.zeros(GridSpec(6, 6, 1, 0.25, PERIODIC)))
    sub = GridSpec(6, 6, 2, 0.25, DIRICHLET)
    with pytest.raises(ValueError, match="reaction-diffusion systems require periodic boundary"):
        simulate_rd(PdeSystem.gray_scott(), Field.zeros(sub), Field.zeros(sub), 1e-3, 1)


COMPETITIVE = PdeSystem.competitive([[0.0, 1.5, 0.6], [0.4, 0.0, 1.7], [1.3, 0.5, 0.0]])


def _reaction_only_rate(system, s):
    """The reaction terms of the rd right-hand side alone, written out per kind."""
    if system.kind == "gray_scott_2":
        u, v = s
        uvv = u * v * v
        return np.stack([-uvv + system.feed * (1.0 - u), uvv - (system.feed + system.removal) * v])
    mat = np.asarray(system.coupling)
    others = [sum(mat[i, j] * s[j] for j in range(3) if j != i) for i in range(3)]
    return np.stack([s[i] * (1.0 - s[i] - others[i]) for i in range(3)])


@pytest.mark.parametrize("system", [PdeSystem.gray_scott(), COMPETITIVE], ids=lambda s: s.kind)
def test_zero_diffusion_runs_the_reaction_only_euler_steps(system):
    species = RD_SPECIES[system.kind]
    sub = GridSpec(8, 8, species, 1.0 / 8, PERIODIC)
    state = np.random.default_rng(5).uniform(0.1, 0.9, (species, 8, 8))
    initial = Field(sub, state)
    dt, steps = 0.05, 20
    for _ in range(steps):
        state = state + dt * _reaction_only_rate(system, state)
    terminal = simulate_rd(system, Field.zeros(sub), initial, dt, steps)
    np.testing.assert_array_equal(terminal.values, state)


@pytest.mark.parametrize("system", [PdeSystem.gray_scott(), COMPETITIVE], ids=lambda s: s.kind)
def test_residual_of_a_still_state_is_minus_the_generator_rate_bit_for_bit(system):
    # the generator and the residual kernel share one statement of the kinetics: with equal initial
    # and terminal snapshots the residual is minus the rate that one Euler step adds, in every bit.
    # dt sits near the stability bound 4 dt max(D) = h^2, so a last-bit change in the rate shows
    species = RD_SPECIES[system.kind]
    rng = np.random.default_rng(33)
    diffusion = 1e-4 * rng.uniform(0.5, 1.5, (2, species, 8, 8))
    state = rng.uniform(0.1, 0.9, (2, species, 8, 8))
    sub = GridSpec(8, 8, species, 1.0 / 8, PERIODIC)
    dt = 0.99 * sub.spacing**2 / (4.0 * diffusion.max())
    stepped = simulate_rd(system, Field(sub, diffusion), Field(sub, state), dt, 1).values
    spec = sub.with_channels(3 * species)
    x = np.concatenate([diffusion, state, state], axis=1)
    for grad in (False, True):
        res = residual_sq_grad(system, spec, x, grad=grad)[0]
        np.testing.assert_array_equal(state + (-res) * dt, stepped)


def test_negative_diffusion_is_rejected():
    sub = GridSpec(8, 8, 2, 1.0 / 8, PERIODIC)
    initial = Field(sub, np.stack([np.ones((8, 8)), np.zeros((8, 8))]))
    diffusion = np.full((2, 8, 8), 2e-4)
    diffusion[1, 3, 4] = -1e-4
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_rd(PdeSystem.gray_scott(), Field(sub, diffusion), initial, 1e-3, 10)


@pytest.mark.parametrize(
    "diffusion_grid",
    [GridSpec(8, 8, 2, 1 / 4, PERIODIC), GridSpec(8, 8, 2, 1 / 8, DIRICHLET), GridSpec(8, 6, 2, 1 / 8, PERIODIC)],
    ids=["spacing", "boundary", "shape"],
)
def test_simulate_rd_rejects_diffusion_on_another_grid(diffusion_grid):
    # each would otherwise run on the state's grid or fail mid-step on a broadcast
    sub = GridSpec(8, 8, 2, 1 / 8, PERIODIC)
    initial = Field(sub, np.stack([np.ones((8, 8)), np.zeros((8, 8))]))
    diffusion = Field(diffusion_grid, np.full((2, diffusion_grid.height, diffusion_grid.width), 2e-4))
    with pytest.raises(ValueError, match="diffusion is on") as err:
        simulate_rd(PdeSystem.gray_scott(), diffusion, initial, 1e-3, 10)
    assert str(diffusion_grid) in str(err.value) and str(sub) in str(err.value)


@pytest.mark.parametrize("dt,steps", [(-1e-3, 50), (0.0, 50), (np.nan, 50), (np.inf, 50), (1e-3, 0), (1e-3, 2.5)])
def test_simulate_rd_rejects_a_nonpositive_dt_and_no_steps(dt, steps):
    # a negative dt would step backward in time, zero steps return the initial state; a spec
    # steps horizon / rd_steps, and its horizon or rd_steps is rejected at construction,
    # before any coefficients are drawn
    grid = GridSpec(8, 8, 6, 1.0 / 8, PERIODIC)
    with pytest.raises(ValueError, match="horizon must be|rd_steps must be an integer >= 1"):
        DatasetSpec(PdeSystem.gray_scott(horizon=50 * dt), grid, 2, rd_steps=steps)
    sub = grid.with_channels(2)
    initial = Field(sub, np.stack([np.ones((8, 8)), np.zeros((8, 8))]))
    with pytest.raises(ValueError, match="need a finite dt > 0 and steps >= 1"):
        simulate_rd(PdeSystem.gray_scott(), Field(sub, np.full((2, 8, 8), 2e-4)), initial, dt, steps)


def test_unstable_spec_raises_from_generate_dataset_with_the_drawn_max_diffusion():
    # base (2e-4, 1e-4) with amplitude 0.3 would give max D = 2.6e-4; the drawn field reaches 3.368e-4
    grid = GridSpec(16, 16, 6, 1 / 16, PERIODIC)
    with pytest.raises(ValueError, match=r"max D = 3\.368e-04"):
        generate_dataset(DatasetSpec(PdeSystem.gray_scott(horizon=20), grid, 17, rng_seed=0, rd_steps=2))


def test_dataset_spec_rejects_a_kind_without_a_coefficient_model():
    with pytest.raises(ValueError, match="no coefficient model for kind 'divergence_free'"):
        DatasetSpec(PdeSystem.divergence_free(), GridSpec(8, 8, 2, 1 / 9, DIRICHLET), 1)


DATA_SYSTEMS = (PdeSystem.darcy(), PdeSystem.poisson(), PdeSystem.helmholtz(3.0), PdeSystem.gray_scott(), COMPETITIVE)
RD_STEPS_CASES = [(system, steps) for system in DATA_SYSTEMS for steps in (1000, 999, 0, "banana")]


@pytest.mark.parametrize(
    "system,steps", RD_STEPS_CASES, ids=[f"{system.kind}-{steps}" for system, steps in RD_STEPS_CASES]
)
def test_dataset_spec_takes_rd_steps_only_for_a_reaction_diffusion_kind(system, steps):
    # only simulate_rd reads rd_steps: an elliptic spec keeps the default 1000 and
    # rejects any other value naming its kind, where it once generated a dataset
    kind, rd = system.kind, system.kind in RD_SPECIES
    grid = GridSpec(8, 8, 3 * RD_SPECIES[kind], 1 / 8, PERIODIC) if rd else GridSpec(8, 8, 2, 1 / 9, DIRICHLET)
    build = lambda: DatasetSpec(system, grid, 2, rd_steps=steps)
    if steps == 1000 or rd and steps == 999:
        assert build().rd_steps == steps
    elif rd:
        with pytest.raises(ValueError, match="rd_steps must be an integer >= 1"):
            build()
    else:
        with pytest.raises(ValueError, match=f"{kind} does not read rd_steps; leave it at its default 1000"):
            build()


@pytest.mark.parametrize("system", [PdeSystem.gray_scott(), COMPETITIVE], ids=lambda s: s.kind)
def test_dataset_spec_rejects_thresholds_on_a_reaction_diffusion_kind(system):
    # the diffusion fields are smooth around a base; a threshold's levels would be ignored
    grid = GridSpec(8, 8, 3 * RD_SPECIES[system.kind], 1 / 8, PERIODIC)
    with pytest.raises(ValueError, match=f"{system.kind} draws smooth diffusion fields"):
        DatasetSpec(system, grid, 1, coeff_model=ThresholdedGrf(4.0, 3.0, 12.0))


@pytest.mark.parametrize("low,high", [(-1.0, 2.0), (1.0, 0.0)])
def test_dataset_spec_rejects_a_nonpositive_thresholded_darcy_permeability(low, high):
    # solve_elliptic would reject it only after every sample's noise is drawn; for poisson and
    # helmholtz the coefficient is a source term, so any finite levels stay allowed
    grid = GridSpec(8, 8, 2, 1 / 9, DIRICHLET)
    with pytest.raises(ValueError, match="darcy's permeability levels must be positive"):
        DatasetSpec(PdeSystem.darcy(), grid, 2, ThresholdedGrf(4.0, low, high))
    for system in (PdeSystem.poisson(), PdeSystem.helmholtz(2.0)):
        DatasetSpec(system, grid, 2, ThresholdedGrf(4.0, low, high))


@pytest.mark.parametrize("count", [0, 2.5])
def test_dataset_spec_rejects_a_sample_count_that_is_not_a_positive_integer(count):
    with pytest.raises(ValueError, match="sample_count must be an integer >= 1"):
        DatasetSpec(PdeSystem.poisson(), GridSpec(8, 8, 2, 1 / 9, DIRICHLET), count)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0)])
def test_dataset_spec_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    # sample_stream would truncate a float or a bool to another seed's dataset
    with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
        DatasetSpec(PdeSystem.poisson(), GridSpec(8, 8, 2, 1 / 9, DIRICHLET), 1, rng_seed=seed)


def test_dataset_spec_rejects_a_grid_whose_channels_do_not_match_the_layout():
    with pytest.raises(ValueError, match="the grid has 4 channels"):
        DatasetSpec(PdeSystem.gray_scott(), GridSpec(8, 8, 4, 1 / 8, PERIODIC), 1)


def test_thresholded_grf_takes_exactly_two_values():
    spec = DatasetSpec(
        system=PdeSystem.darcy(),
        grid=GridSpec(16, 16, 2, 1.0 / 17, DIRICHLET),
        sample_count=1,
        coeff_model=ThresholdedGrf(3.0, low=3.0, high=12.0),
        rng_seed=5,
    )
    a = generate_dataset(spec)[0].channel(0)
    assert set(np.unique(a)) == {3.0, 12.0}


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: SmoothGrf(np.nan), "length_scale must be finite and positive"),
        (lambda: SmoothGrf(-1.0), "length_scale must be finite and positive"),
        (lambda: ThresholdedGrf(0.0), "length_scale must be finite and positive"),
        (lambda: ThresholdedGrf(low=np.nan), "low and high must be finite"),
    ],
    ids=["smooth-nan", "smooth-negative", "thresholded-zero-length", "thresholded-low-nan"],
)
def test_grf_models_reject_bad_parameters_at_construction(make, match):
    # a NaN length scale or level would fail only once every sample's noise is
    # drawn, and a negative length scale would run as its absolute value
    with pytest.raises(ValueError, match=match):
        make()



def test_observation_masks_on_different_grids_are_rejected():
    mask_a = Mask.from_indices(GridSpec(4, 4), [1, 5])
    mask_u = Mask.from_indices(GridSpec(4, 5), [1, 5])
    with pytest.raises(ValueError, match="mask_a is on"):
        Observations(mask_a, np.zeros((1, 2)), mask_u, np.zeros((1, 2)), 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_observations_reject_non_finite_values_naming_the_group(bad):
    # a non-finite observation would otherwise surface in smc_run as a blow-up of the weights
    mask = Mask.from_indices(GridSpec(4, 4), [1, 5])
    ok, broken = np.zeros((1, 2)), np.array([[0.0, bad]])
    with pytest.raises(ValueError, match="values_a must be finite"):
        Observations(mask, broken, mask, ok, 0.1)
    with pytest.raises(ValueError, match="values_u must be finite"):
        Observations(mask, ok, mask, broken, 0.1)


@pytest.mark.parametrize("sigma_o", [np.nan, np.inf, -0.1])
def test_observations_reject_a_noise_level_that_is_not_finite_and_nonnegative(sigma_o):
    mask = Mask.from_indices(GridSpec(4, 4), [1, 5])
    with pytest.raises(ValueError, match="sigma_o must be finite and nonnegative"):
        Observations(mask, np.zeros((1, 2)), mask, np.zeros((1, 2)), sigma_o)

def test_gray_scott_initial_patch_statistics():
    spec = DatasetSpec(
        system=PdeSystem.gray_scott(horizon=1e-3),
        grid=GridSpec(32, 32, 6, 1.0 / 32, PERIODIC),
        sample_count=1,
        rng_seed=7,
        rd_steps=1,
    )
    sample = generate_dataset(spec)[0]
    u0, v0 = sample.values[2], sample.values[3]
    r0, r1 = 32 // 2 - 32 // 8, 32 // 2 + 32 // 8
    patch = np.zeros((32, 32), dtype=bool)
    patch[r0:r1, r0:r1] = True
    sem = 3 * 0.01  # three noise standard deviations
    assert abs(u0[~patch].mean() - 1.0) < sem
    assert abs(v0[~patch].mean() - 0.0) < sem
    assert abs(u0[patch].mean() - 0.5) < sem
    assert abs(v0[patch].mean() - 0.25) < sem


def test_sample_coefficients_deterministic():
    spec = DatasetSpec(
        system=PdeSystem.poisson(),
        grid=GridSpec(8, 8, 2, 1.0 / 9, DIRICHLET),
        sample_count=2,
        rng_seed=21,
    )
    a1 = generate_dataset(spec)[1].values[0]
    a2 = generate_dataset(spec)[1].values[0]
    assert np.array_equal(a1, a2)
    b = generate_dataset(spec)[0].values[0]
    assert not np.array_equal(a1, b)


def test_observation_sparsity_ratios():
    assert 500 / (128 * 128) == pytest.approx(0.0305, abs=2e-4)
    assert 31 / (32 * 32) == pytest.approx(0.0303, abs=2e-4)


def test_make_observations_noise_free_matches_truth():
    rng = np.random.default_rng(2)
    spec = GridSpec(8, 8, 2, 0.25, DIRICHLET)
    x = Field(spec, rng.standard_normal((2, 8, 8)))
    layout = StateLayout.scalar_pair()
    obs = make_observations(x, layout, n_obs=13, sigma_o=0.0, rng=np.random.default_rng(3))
    assert obs.mask_a.count == 13 and obs.mask_u.count == 13
    a_flat = x.values[0].reshape(-1)
    u_flat = x.values[1].reshape(-1)
    assert np.array_equal(obs.values_a[0], a_flat[obs.mask_a.indices])
    assert np.array_equal(obs.values_u[0], u_flat[obs.mask_u.indices])


def test_make_observations_shares_noise_draw_across_levels():
    rng = np.random.default_rng(2)
    spec = GridSpec(8, 8, 2, 0.25, DIRICHLET)
    x = Field(spec, rng.standard_normal((2, 8, 8)))
    layout = StateLayout.scalar_pair()
    o1 = make_observations(x, layout, 10, 0.01, np.random.default_rng(42))
    o2 = make_observations(x, layout, 10, 0.02, np.random.default_rng(42))
    assert np.array_equal(o1.mask_a.indices, o2.mask_a.indices)
    z1 = (o1.values_u - x.values[1].reshape(-1)[o1.mask_u.indices]) / 0.01
    z2 = (o2.values_u - x.values[1].reshape(-1)[o2.mask_u.indices]) / 0.02
    assert np.allclose(z1, z2)


def test_make_observations_count_guard():
    spec = GridSpec(4, 4, 2, 0.2, DIRICHLET)
    x = Field.zeros(spec)
    with pytest.raises(ValueError):
        make_observations(x, StateLayout.scalar_pair(), 17, 0.0, np.random.default_rng(0))


@pytest.mark.parametrize("layout", [StateLayout((0, 1), (2, 3)), StateLayout((), (0,))], ids=["more", "fewer"])
def test_make_observations_rejects_a_layout_of_another_channel_count(layout):
    x = Field.zeros(GridSpec(4, 4, 2, 0.2, DIRICHLET))
    with pytest.raises(ValueError, match="layout covers .* channels but the state has 2"):
        make_observations(x, layout, 3, 0.0, np.random.default_rng(0))


def test_make_observations_rejects_a_batched_state():
    # x.values[c] of a (3, 2, 4, 4) batch is sample c, not channel c
    x = Field(GridSpec(4, 4, 2, 0.2, DIRICHLET), np.arange(96.0).reshape(3, 2, 4, 4))
    with pytest.raises(ValueError, match=r"one state, got a batch of shape \(3,\)"):
        make_observations(x, StateLayout.scalar_pair(), 3, 0.0, np.random.default_rng(0))


@pytest.mark.parametrize("n_obs", [-1, 2.5, True])
def test_make_observations_rejects_an_observation_count_that_is_not_a_nonnegative_integer(n_obs):
    x = Field.zeros(GridSpec(4, 4, 2, 0.2, DIRICHLET))
    with pytest.raises(ValueError, match=r"n_obs must be an integer in 0\.\.16"):
        make_observations(x, StateLayout.scalar_pair(), n_obs, 0.0, np.random.default_rng(0))


def test_rd_dataset_nonnegative_and_finite():
    spec = DatasetSpec(
        system=PdeSystem.gray_scott(horizon=0.5),
        grid=GridSpec(16, 16, 6, 1.0 / 16, PERIODIC),
        sample_count=2,
        rng_seed=3,
        rd_steps=500,
    )
    samples = generate_dataset(spec)
    assert len(samples) == spec.sample_count
    for x in samples:
        terminal = x.values[[4, 5]]
        assert np.all(np.isfinite(terminal))
        assert terminal.min() >= -1e-9


def test_rd_data_span_the_system_horizon():
    # generate_dataset steps horizon / rd_steps, the interval the residual's time derivative
    # spans; a step of 1e-3 here would simulate twice it and leave a residual RMS of 6.2e-3
    system, grid = PdeSystem.gray_scott(horizon=0.5), GridSpec(16, 16, 6, 1 / 16, PERIODIC)
    x = generate_dataset(DatasetSpec(system, grid, 1, rng_seed=4, rd_steps=1000))[0]
    sub = grid.with_channels(2)
    alone = simulate_rd(system, Field(sub, x.values[:2]), Field(sub, x.values[2:4]), 0.5 / 1000, 1000)
    np.testing.assert_array_equal(x.values[4:], alone.values)
    assert np.sqrt(np.mean(residual(system, default_layout("gray_scott_2"), x).values ** 2)) < 1e-3


def test_dataset_generation_is_pure_function_of_spec():
    spec = DatasetSpec(
        system=PdeSystem.poisson(),
        grid=GridSpec(8, 8, 2, 1.0 / 9, DIRICHLET),
        sample_count=2,
        rng_seed=29,
    )
    a = generate_dataset(spec)
    b = generate_dataset(spec)
    for x, y in zip(a, b):
        assert np.array_equal(x.values, y.values)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


DIGEST_SPECS = {
    "darcy": DatasetSpec(
        PdeSystem.darcy(), GridSpec(12, 10, 2, 1 / 13, DIRICHLET), 3, SmoothGrf(3.0), rng_seed=21
    ),
    "poisson": DatasetSpec(
        PdeSystem.poisson(), GridSpec(12, 10, 2, 1 / 13, DIRICHLET), 3, SmoothGrf(3.0), rng_seed=23
    ),
    "gray_scott_2": DatasetSpec(
        PdeSystem.gray_scott(horizon=0.04), GridSpec(12, 10, 6, 1 / 12, PERIODIC), 2, SmoothGrf(3.0),
        rng_seed=24, rd_steps=40,
    ),
    "competitive_3": DatasetSpec(
        replace(COMPETITIVE, horizon=0.04), GridSpec(12, 10, 9, 1 / 12, PERIODIC), 2, SmoothGrf(3.0),
        rng_seed=25, rd_steps=40,
    ),
}  # each reaction-diffusion spec steps 0.04 / 40 == 1e-3
# SHA-256 of the float64 bytes of generate_dataset's samples in index order.
# darcy, poisson and gray_scott_2 were recorded when each sample's random
# fields were still filtered one at a time, competitive_3 when each species'
# flux divergence was still its own stencil call. Darcy's digest covers the
# permeability channel only, since its CG solution moves in the last bits
# with the preconditioner.
DATASET_DIGESTS = {
    "darcy": "d24d20f8f85500a1315a8ac3c074b7e1e18002231bac0585cfd52d34df7b62e4",
    "poisson": "8a88a4002a2ab4aad5a59a8887e369467d5fe448df638ead6665e4d8dbb1d050",
    "gray_scott_2": "816fbb1a66d250b2250488b0f07d0a22cfd42b0ac44c56d8ef500c3308356502",
    "competitive_3": "f574e86dbb1909b3ce57d15db26fdbd6537796d5c874ee04fad7335b772d784e",
}


@pytest.mark.parametrize("kind", sorted(DATASET_DIGESTS))
def test_generated_dataset_matches_recorded_digest(kind):
    spec = DIGEST_SPECS[kind]
    samples = generate_dataset(spec)
    rows = [x.values[list(spec.layout.coeff_channels)] if kind == "darcy" else x.values for x in samples]
    assert _digest(rows) == DATASET_DIGESTS[kind]


# SHA-256 of both channels of DIGEST_SPECS["darcy"]'s samples, so the CG solution is pinned bit for bit too.
# Recorded while each CG update still allocated its own temporaries.
DARCY_BOTH_CHANNELS_DIGEST = "8aa53cb2910af59a363920ceea7ff6b8802345750b51ce7f6b8365d939261cb8"


def test_generated_darcy_dataset_matches_recorded_digest_in_both_channels():
    assert _digest(x.values for x in generate_dataset(DIGEST_SPECS["darcy"])) == DARCY_BOTH_CHANNELS_DIGEST


@pytest.mark.parametrize("side,count,bound", [(16, 65, 12.9), (48, 8, 12.4)])
def test_a_darcy_solve_holds_only_its_iterates_faces_and_one_operator_apply(side, count, bound):
    # The tracemalloc peak of one darcy solve, in (S, H, W) float64 arrays, at darcy_gem_pbs's set-up
    # (65 samples at 16 x 16) and at elliptic_datagen's shapes (8 at 48 x 48). It reads 12.41 and 11.71
    # here, in the operator apply: the right-hand side, x, r, p and the step buffer, the two ghost-lined
    # face averages, a^(-1/2) and the operator's ghost-lined temporaries. It read 13.44 and 13.08 when
    # each CG update allocated its own temporaries and the previous z and Ap stayed alive through it.
    spec = GridSpec(side, side, 1, 1 / (side + 1), DIRICHLET)
    g = smooth_grf_2d(np.random.default_rng(3).standard_normal((count, side, side)), 4.0)
    a = Field(spec, np.exp(0.5 * g)[:, None])  # darcy's smooth permeability
    solve_elliptic(PdeSystem.darcy(), a)  # the sine basis is formed once per size, before the traced solve
    tracemalloc.start()
    try:
        u = solve_elliptic(PdeSystem.darcy(), a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(u.values))
    arrays = peak / (count * side * side * 8)
    assert arrays <= bound, f"peak {peak} bytes: {arrays:.2f} (S, H, W) arrays"


@pytest.mark.parametrize("kind", sorted(DATASET_DIGESTS))
def test_sample_does_not_depend_on_sample_count(kind):
    spec = DIGEST_SPECS[kind]
    samples = generate_dataset(spec)
    for i, x in enumerate(samples):
        alone = generate_dataset(replace(spec, sample_count=i + 1))[i]
        np.testing.assert_array_equal(x.values, alone.values)
