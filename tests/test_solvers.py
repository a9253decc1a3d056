import numpy as np
import pytest

from pgd.errors import SingularOperatorError
from pgd.grid import DIRICHLET, PERIODIC, Field, GridSpec, laplacian_2d
from pgd.residuals import PdeSystem, StateLayout, residual
from pgd.solvers import (
    DatasetSpec,
    SmoothGrf,
    ThresholdedGrf,
    generate_dataset,
    generate_sample,
    load_dataset,
    make_observations,
    sample_coefficients,
    simulate_rd,
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


def test_darcy_unit_permeability_matches_poisson():
    spec = GridSpec(10, 10, 1, 0.3, DIRICHLET)
    a = Field.constant(spec, 1.0)
    u_darcy = solve_elliptic(PdeSystem.darcy(source=1.0), a).channel(0)
    rhs = Field.constant(spec, -1.0)
    u_poisson = solve_elliptic(PdeSystem.poisson(), rhs).channel(0)
    assert np.allclose(u_darcy, u_poisson, atol=1e-9)


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
    for i in range(spec.sample_count):
        x = generate_sample(spec, i)
        r = residual(spec.system, spec.layout, x)
        rhs = np.linalg.norm(x.channel(0))
        assert np.linalg.norm(r.values) <= 1e-9 * max(rhs, 1.0)


def test_gray_scott_fixed_point_is_stationary():
    sub = GridSpec(8, 8, 2, 1.0 / 8, PERIODIC)
    diffusion = Field(sub, np.stack([np.full((8, 8), 2e-4), np.full((8, 8), 1e-4)]))
    initial = Field(sub, np.stack([np.ones((8, 8)), np.zeros((8, 8))]))
    traj = simulate_rd(PdeSystem.gray_scott(), diffusion, initial, 1e-3, 200, snapshot_count=5)
    assert len(traj) == 5
    for snap in traj:
        assert np.allclose(snap.values, initial.values, atol=1e-12)


def test_zero_diffusion_zero_reaction_leaves_state_unchanged():
    sub = GridSpec(8, 8, 2, 1.0 / 8, PERIODIC)
    rng = np.random.default_rng(3)
    u = rng.uniform(0.2, 0.8, (8, 8))
    diffusion = Field(sub, np.full((2, 8, 8), 1e-12))
    initial = Field(sub, np.stack([u, np.zeros((8, 8))]))
    system = PdeSystem.gray_scott(feed=0.0, removal=0.0)
    traj = simulate_rd(system, diffusion, initial, 1e-3, 100, snapshot_count=2)
    assert np.allclose(traj[-1].channel(0), u, atol=1e-9)


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
    traj = simulate_rd(system, diffusion, initial, dt, steps, snapshot_count=2)
    t_end = dt * steps
    exact = u0 * np.exp(t_end) / (1.0 + u0 * (np.exp(t_end) - 1.0))
    assert abs(float(traj[-1].channel(0).mean()) - exact) < 1e-3


def test_simulate_rd_stability_guard():
    sub = GridSpec(8, 8, 2, 1.0 / 8, PERIODIC)
    diffusion = Field(sub, np.full((2, 8, 8), 1.0))
    initial = Field(sub, np.stack([np.ones((8, 8)), np.zeros((8, 8))]))
    with pytest.raises(ValueError):
        simulate_rd(PdeSystem.gray_scott(), diffusion, initial, dt=1.0, steps=10)


def test_thresholded_grf_takes_exactly_two_values():
    spec = DatasetSpec(
        system=PdeSystem.darcy(),
        grid=GridSpec(16, 16, 2, 1.0 / 17, DIRICHLET),
        sample_count=1,
        coeff_model=ThresholdedGrf(3.0, low=3.0, high=12.0),
        rng_seed=5,
    )
    a = sample_coefficients(spec).channel(0)
    assert set(np.unique(a)) == {3.0, 12.0}


def test_gray_scott_initial_patch_statistics():
    spec = DatasetSpec(
        system=PdeSystem.gray_scott(),
        grid=GridSpec(32, 32, 6, 1.0 / 32, PERIODIC),
        sample_count=1,
        rng_seed=7,
    )
    coeff = sample_coefficients(spec)
    u0, v0 = coeff.values[2], coeff.values[3]
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
    a1 = sample_coefficients(spec, 1)
    a2 = sample_coefficients(spec, 1)
    assert np.array_equal(a1.values, a2.values)
    b = sample_coefficients(spec, 0)
    assert not np.array_equal(a1.values, b.values)


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
    assert np.array_equal(obs.values_a[0], a_flat[obs.mask_a.flat_indices()])
    assert np.array_equal(obs.values_u[0], u_flat[obs.mask_u.flat_indices()])


def test_make_observations_shares_noise_draw_across_levels():
    rng = np.random.default_rng(2)
    spec = GridSpec(8, 8, 2, 0.25, DIRICHLET)
    x = Field(spec, rng.standard_normal((2, 8, 8)))
    layout = StateLayout.scalar_pair()
    o1 = make_observations(x, layout, 10, 0.01, np.random.default_rng(42))
    o2 = make_observations(x, layout, 10, 0.02, np.random.default_rng(42))
    assert np.array_equal(o1.mask_a.flat_indices(), o2.mask_a.flat_indices())
    z1 = (o1.values_u - x.values[1].reshape(-1)[o1.mask_u.flat_indices()]) / 0.01
    z2 = (o2.values_u - x.values[1].reshape(-1)[o2.mask_u.flat_indices()]) / 0.02
    assert np.allclose(z1, z2)


def test_make_observations_count_guard():
    spec = GridSpec(4, 4, 2, 0.2, DIRICHLET)
    x = Field.zeros(spec)
    with pytest.raises(ValueError):
        make_observations(x, StateLayout.scalar_pair(), 17, 0.0, np.random.default_rng(0))


def test_rd_dataset_nonnegative_and_finite():
    spec = DatasetSpec(
        system=PdeSystem.gray_scott(),
        grid=GridSpec(16, 16, 6, 1.0 / 16, PERIODIC),
        sample_count=2,
        rng_seed=3,
        rd_dt=1e-3,
        rd_steps=500,
    )
    for i in range(spec.sample_count):
        x = generate_sample(spec, i)
        terminal = x.values[[4, 5]]
        assert np.all(np.isfinite(terminal))
        assert terminal.min() >= -1e-9


def test_dataset_round_trip_and_digests(tmp_path):
    spec = DatasetSpec(
        system=PdeSystem.poisson(),
        grid=GridSpec(8, 8, 2, 1.0 / 9, DIRICHLET),
        sample_count=3,
        rng_seed=13,
    )
    samples = generate_dataset(spec, tmp_path / "ds")
    manifest, loaded = load_dataset(tmp_path / "ds")
    assert manifest["spec"]["system"]["kind"] == "poisson"
    assert len(loaded) == 3
    for orig, back in zip(samples, loaded):
        assert np.array_equal(orig.values, back.values)
    # tamper with a file -> digest mismatch
    victim = tmp_path / "ds" / manifest["files"][0]["file"]
    victim.write_bytes(victim.read_bytes()[:-8] + b"\0" * 8)
    with pytest.raises(ValueError):
        load_dataset(tmp_path / "ds")


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
