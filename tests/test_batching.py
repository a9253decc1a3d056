"""A batch of fields evaluates like the same fields one at a time, bit for bit.

Grids are non-square (5 x 7): a shift that swaps the row and column axes
fails the padded-slice oracle, and a periodic roll along the batch axis fails
the batched-equals-single checks.
"""

import numpy as np
import pytest

import pgd.grid
import pgd.solvers
from pgd.errors import BlowUpError
from pgd.grid import (
    BOUNDARIES,
    DIRICHLET,
    PERIODIC,
    Field,
    GridSpec,
    Mask,
    diff_2d,
    face_averages,
    flux_divergence_2d,
    flux_divergence_2d_adjoint_coef,
    flux_divergence_faces,
    laplacian_2d,
    shift,
    shift_adjoint,
)
from pgd.guidance import GuidanceContext, GuidanceWeights, data_log_likelihood_grad, log_likelihood
from pgd.priors import GaussianDenoiser, GaussianPrior, NoiseSchedule
from pgd.residuals import KINDS, PdeSystem, StateLayout, default_layout, residual, residual_sq_grad
from pgd.smc import SmcConfig, smc_run
from pgd.solvers import Observations, simulate_rd, solve_elliptic

H, W, BATCH = 5, 7, 3

SYSTEMS = {
    "darcy": PdeSystem.darcy(),
    "poisson": PdeSystem.poisson(),
    "helmholtz": PdeSystem.helmholtz(1.3),
    "divergence_free": PdeSystem.divergence_free(),
    "gray_scott_2": PdeSystem.gray_scott(),
    "competitive_3": PdeSystem.competitive([[0.0, 1.5, 0.6], [0.4, 0.0, 1.7], [1.3, 0.5, 0.0]]),
}
CHANNELS = {"darcy": 2, "poisson": 2, "helmholtz": 2, "divergence_free": 4, "gray_scott_2": 6, "competitive_3": 9}


def batch_problem(kind, seed=0):
    """(system, layout, spec, observations, (BATCH, C, H, W) states) for one kind."""
    rng = np.random.default_rng(seed)
    boundary = DIRICHLET if kind in ("darcy", "poisson", "helmholtz") else PERIODIC
    spec = GridSpec(H, W, CHANNELS[kind], 1 / 8, boundary)
    layout = default_layout(kind)
    cells = spec.with_channels(1)
    idx_a, idx_u = [1, 9, 20, 33], [0, 12, 17, 26, 34]
    obs = Observations(
        mask_a=Mask.from_indices(cells, idx_a),
        values_a=rng.standard_normal((len(layout.coeff_channels), len(idx_a))),
        mask_u=Mask.from_indices(cells, idx_u),
        values_u=rng.standard_normal((len(layout.solution_channels), len(idx_u))),
        sigma_o=0.1,
    )
    return SYSTEMS[kind], layout, spec, obs, rng.standard_normal((BATCH,) + (spec.channels, H, W))


def assert_rows_identical(batched, singles):
    assert batched.shape == (BATCH,) + np.shape(singles[0])
    for row, single in zip(batched, singles):
        np.testing.assert_array_equal(row, single)


@pytest.mark.parametrize("kind", KINDS)
def test_batched_residual_and_likelihood_match_single_fields(kind):
    system, layout, spec, obs, states = batch_problem(kind)
    w = GuidanceWeights(beta=3.0, gamma=2.0, omega=0.5)
    batch = Field(spec, states)
    singles = [Field(spec, s) for s in states]
    assert batch.batch_shape == (BATCH,)

    res = residual(system, layout, batch)
    assert_rows_identical(res.values, [residual(system, layout, f).values for f in singles])
    res_again, grad = residual_sq_grad(system, layout, batch)
    np.testing.assert_array_equal(res_again.values, res.values)
    assert_rows_identical(grad, [residual_sq_grad(system, layout, f)[1] for f in singles])
    ctx = GuidanceContext(obs, system, layout, w)
    rows = batch.flat()
    ll = log_likelihood(ctx, rows)
    single_ll = [log_likelihood(ctx, row) for row in rows]
    assert all(isinstance(v, float) for v in single_ll)
    assert_rows_identical(ll, single_ll)
    data = data_log_likelihood_grad(ctx, rows)
    assert_rows_identical(data, [data_log_likelihood_grad(ctx, row) for row in rows])
    # the fused evaluation returns the value and the gradient of the separate calls
    fused_ll, fused_data = log_likelihood(ctx, rows, grad=True)
    np.testing.assert_array_equal(fused_ll, ll)
    np.testing.assert_array_equal(fused_data, data)
    for row, single, single_data in zip(rows, single_ll, data):
        value, row_grad = log_likelihood(ctx, row, grad=True)
        assert isinstance(value, float) and value == single
        np.testing.assert_array_equal(row_grad, single_data)


def test_field_batch_axes_round_trip():
    spec = GridSpec(H, W, 2)
    rows = np.arange(BATCH * spec.size, dtype=float).reshape(BATCH, spec.size)
    batch = Field.from_flat(spec, rows)
    assert batch.values.shape == (BATCH, 2, H, W)
    np.testing.assert_array_equal(batch.flat(), rows)
    np.testing.assert_array_equal(batch.channel(1), rows.reshape(BATCH, 2, H, W)[:, 1])
    single = Field.from_flat(spec, rows[0])
    assert single.batch_shape == () and single.flat().shape == (spec.size,)
    bad = rows.copy()
    bad[2, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Field.from_flat(spec, bad)
    with pytest.raises(ValueError):
        Field(spec, np.zeros((BATCH, 2, W, H)))


@pytest.mark.parametrize("fill", ["zero", "edge"])
@pytest.mark.parametrize("step", [-1, 1])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_shift_on_a_batch_matches_slices_of_a_padded_array(boundary, axis, step, fill):
    """Independent oracle: pad the last two axes by one ghost cell, then slice."""
    a = np.random.default_rng(3).standard_normal((BATCH, H, W))
    mode = "wrap" if boundary == PERIODIC else ("edge" if fill == "edge" else "constant")
    padded = np.pad(a, ((0, 0), (1, 1), (1, 1)), mode=mode)
    dr, dc = (step, 0) if axis == 0 else (0, step)
    want = padded[:, 1 + dr : 1 + dr + H, 1 + dc : 1 + dc + W]
    np.testing.assert_array_equal(shift(a, axis, step, boundary, fill), want)


def _shift_flux_divergence(coef, u, h, boundary):
    """The flux divergence written with shifts, two face averages per cell: the reference."""
    out = np.zeros_like(u)
    for axis in (0, 1):
        c_plus = 0.5 * (coef + shift(coef, axis, 1, boundary, fill="edge"))
        c_minus = 0.5 * (coef + shift(coef, axis, -1, boundary, fill="edge"))
        d_plus = shift(u, axis, 1, boundary) - u
        d_minus = u - shift(u, axis, -1, boundary)
        out += c_plus * d_plus - c_minus * d_minus
    return out / (h * h)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_face_form_flux_divergence_matches_the_shift_form(boundary):
    rng = np.random.default_rng(8)
    coef = rng.uniform(0.5, 2.0, (BATCH, H, W))
    u = rng.standard_normal((BATCH, H, W))
    faces = face_averages(coef, boundary)
    assert [f.shape for f in faces] == [(BATCH, H + 1, W), (BATCH, H, W + 1)]
    want = _shift_flux_divergence(coef, u, 0.25, boundary)
    np.testing.assert_array_equal(flux_divergence_faces(faces, u, 0.25, boundary), want)
    np.testing.assert_array_equal(flux_divergence_2d(coef, u, 0.25, boundary), want)


def _stencil_cases(rng):
    """(name, forward, adjoint) triples of linear maps on (..., H, W) arrays."""
    coef = rng.uniform(0.5, 2.0, (BATCH, H, W))
    u = rng.standard_normal((BATCH, H, W))
    h = 0.25
    cases = []
    for b in BOUNDARIES:
        for axis in (0, 1):
            for step in (-1, 1):
                for fill in ("zero", "edge"):
                    cases.append((
                        f"shift-{b}-{axis}-{step}-{fill}",
                        lambda a, i, b=b, axis=axis, step=step, fill=fill: shift(a, axis, step, b, fill),
                        lambda g, i, b=b, axis=axis, step=step, fill=fill: shift_adjoint(g, axis, step, b, fill),
                    ))
            cases.append((
                f"diff-{b}-{axis}",
                lambda a, i, b=b, axis=axis: diff_2d(a, axis, h, b),
                lambda g, i, b=b, axis=axis: -diff_2d(g, axis, h, b),
            ))
        cases.append((f"laplacian-{b}", lambda a, i, b=b: laplacian_2d(a, h, b), lambda g, i, b=b: laplacian_2d(g, h, b)))
        # u -> div(coef grad u) is symmetric; coef -> div(coef grad u) has the coef adjoint
        flux_u = lambda a, i, b=b: flux_divergence_2d(coef[i], a, h, b)
        cases.append((f"flux_u-{b}", flux_u, flux_u))
        cases.append((
            f"flux_coef-{b}",
            lambda a, i, b=b: flux_divergence_2d(a, u[i], h, b),
            lambda g, i, b=b: flux_divergence_2d_adjoint_coef(u[i], g, h, b),
        ))
    return cases


def test_stencils_on_a_batch_match_each_slice_and_keep_their_adjoints():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((BATCH, H, W))
    g = rng.standard_normal((BATCH, H, W))
    every = slice(None)
    for name, forward, adjoint in _stencil_cases(rng):
        fa, ag = forward(a, every), adjoint(g, every)
        for i in range(BATCH):
            np.testing.assert_array_equal(fa[i], forward(a[i], i), err_msg=name)
            np.testing.assert_array_equal(ag[i], adjoint(g[i], i), err_msg=name)
            lhs, rhs = np.sum(fa[i] * g[i]), np.sum(a[i] * ag[i])
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), name


def test_stencil_work_does_not_grow_with_particle_count(monkeypatch):
    """One batched likelihood path: the shift count of a run is fixed by K, not N."""
    rng = np.random.default_rng(11)
    spec = GridSpec(4, 4, 2, 1 / 5, DIRICHLET)
    layout = StateLayout.scalar_pair()
    cells = spec.with_channels(1)
    obs = Observations(
        Mask.from_indices(cells, [1, 6, 11]),
        rng.standard_normal((1, 3)),
        Mask.from_indices(cells, [0, 5, 10, 15]),
        rng.standard_normal((1, 4)),
        0.1,
    )
    den = GaussianDenoiser(GaussianPrior(Field.zeros(spec), "scalar", 1.0))
    w = GuidanceWeights(beta=10.0, gamma=10.0, omega=1e-3)
    calls = []
    original = pgd.grid.shift

    def counting_shift(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pgd.grid, "shift", counting_shift)
    counts = []
    for n in (2, 8):
        calls.clear()
        cfg = SmcConfig(n, NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=5), w, "gem", "pbs", seed=3)
        smc_run(cfg, den, obs, PdeSystem.poisson(), layout)
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1]


def _elliptic_batch(kind):
    """(BATCH, 1, H, W) coefficients; darcy mixes a constant, a smooth and a thresholded permeability."""
    rng = np.random.default_rng(12)
    if kind != "darcy":
        return rng.standard_normal((BATCH, 1, H, W))
    rows, cols = np.mgrid[0:H, 0:W]
    smooth = np.exp(0.5 * np.sin(rows / 2.0) * np.cos(cols / 3.0))
    thresholded = np.where(rng.standard_normal((H, W)) >= 0.0, 12.0, 3.0)
    return np.stack([np.full((H, W), 2.0), smooth, thresholded])[:, None]


@pytest.mark.parametrize("kind", ["poisson", "helmholtz", "darcy"])
def test_batched_elliptic_solve_matches_solo_solves(kind, monkeypatch):
    spec = GridSpec(H, W, 1, 1 / 8, DIRICHLET)
    coeffs = _elliptic_batch(kind)
    batch = solve_elliptic(SYSTEMS[kind], Field(spec, coeffs))
    assert batch.batch_shape == (BATCH,)
    applies = []
    original = pgd.solvers.flux_divergence_faces

    def counting(*args, **kwargs):
        applies.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pgd.solvers, "flux_divergence_faces", counting)
    singles, iterations = [], []
    for a in coeffs:
        applies.clear()
        singles.append(solve_elliptic(SYSTEMS[kind], Field(spec, a)).values)
        iterations.append(len(applies))
    assert_rows_identical(batch.values, singles)
    if kind == "darcy":
        # rows that stop at different iterations exercise the freezing of converged rows
        assert len(set(iterations)) == BATCH, iterations


@pytest.mark.parametrize("kind", ["gray_scott_2", "competitive_3"])
def test_batched_rd_simulation_matches_solo_runs(kind):
    rng = np.random.default_rng(13)
    species = 2 if kind == "gray_scott_2" else 3
    spec = GridSpec(H, W, species, 1 / 8, PERIODIC)
    diffusion = rng.uniform(1e-4, 3e-4, (BATCH, species, H, W))
    initial = rng.uniform(0.0, 1.0, (BATCH, species, H, W))
    def run(diffusion, initial):
        return simulate_rd(SYSTEMS[kind], Field(spec, diffusion), Field(spec, initial), 1e-2, 30, snapshot_count=4)

    batch = run(diffusion, initial)
    solo = [run(d, x) for d, x in zip(diffusion, initial)]
    assert len(batch) == 4
    for t, snap in enumerate(batch):
        assert_rows_identical(snap.values, [traj[t].values for traj in solo])


def test_rd_blow_up_names_the_first_non_finite_sample():
    spec = GridSpec(H, W, 2, 1 / 8, PERIODIC)
    initial = np.stack([np.full((2, H, W), 0.5), np.full((2, H, W), 1e60), np.full((2, H, W), 0.5)])
    diffusion = np.full((BATCH, 2, H, W), 1e-4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as err:
        simulate_rd(SYSTEMS["gray_scott_2"], Field(spec, diffusion), Field(spec, initial), 1e-3, 10)
    assert err.value.particle == 1
    assert err.value.step is not None and 1 <= err.value.step <= 10
