"""A batch of fields evaluates like the same fields one at a time, bit for bit.

Grids are non-square (5 x 7): a shift that swaps the row and column axes
fails the padded-slice oracle, and a periodic roll along the batch axis fails
the batched-equals-single checks.
"""

import numpy as np
import pytest

import pgd.grid
import pgd.residuals
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
    face_differences,
    face_flux_adjoint_coef,
    face_flux_divergence,
    face_products,
    flux_divergence_2d,
    flux_divergence_2d_adjoint_coef,
    flux_divergence_faces,
    ghost_lined,
    interior,
    laplacian_2d,
    shift,
)
from pgd.guidance import GuidanceContext, GuidanceWeights, data_log_likelihood_grad, log_likelihood
from pgd.priors import GaussianDenoiser, GaussianPrior, NoiseSchedule
from pgd.residuals import (
    KINDS,
    RD_SPECIES,
    PdeSystem,
    StateLayout,
    default_layout,
    residual,
    residual_sq_grad,
)
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
    res_again, grad = residual_sq_grad(system, spec, states, grad=True)
    np.testing.assert_array_equal(res_again, res.values)
    assert_rows_identical(grad, [residual_sq_grad(system, spec, s, grad=True)[1] for s in states])
    value_only, no_grad = residual_sq_grad(system, spec, states)
    np.testing.assert_array_equal(value_only, res.values)
    assert no_grad is None
    ctx = GuidanceContext(obs, system, layout, w)
    rows = batch.flat()
    ll = log_likelihood(ctx, rows)
    single_ll = [log_likelihood(ctx, row) for row in rows]
    assert all(isinstance(v, float) for v in single_ll)
    assert_rows_identical(ll, single_ll)
    data, index = data_log_likelihood_grad(ctx, rows)
    assert index is None  # with the PDE term on, the gradient comes whole
    assert_rows_identical(data, [data_log_likelihood_grad(ctx, row)[0] for row in rows])
    # the fused evaluation returns the value and the gradient of the separate calls
    fused_ll, fused_data, index = log_likelihood(ctx, rows, grad=True)
    assert index is None
    np.testing.assert_array_equal(fused_ll, ll)
    np.testing.assert_array_equal(fused_data, data)
    for row, single, single_data in zip(rows, single_ll, data):
        value, row_grad, _ = log_likelihood(ctx, row, grad=True)
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


# shift fills a vacated line with zeros (dirichlet_zero) or wraps it (periodic);
# edge replication of a coefficient belongs to face_averages alone
@pytest.mark.parametrize("fill", ["zero"])
@pytest.mark.parametrize("step", [-1, 1])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_shift_on_a_batch_matches_slices_of_a_padded_array(boundary, axis, step, fill):
    """Independent oracle: pad the last two axes by one ghost cell, then slice."""
    a = np.random.default_rng(3).standard_normal((BATCH, H, W))
    mode = "wrap" if boundary == PERIODIC else {"zero": "constant"}[fill]
    padded = np.pad(a, ((0, 0), (1, 1), (1, 1)), mode=mode)
    dr, dc = (step, 0) if axis == 0 else (0, step)
    want = padded[:, 1 + dr : 1 + dr + H, 1 + dc : 1 + dc + W]
    np.testing.assert_array_equal(shift(a, axis, step, boundary), want)


# Non-square grids with no, one and two batch axes: a flat shift that crosses a
# row end or a particle boundary where it should not shows on one of them.
FACE_SHAPES = [(7, 12), (12, 7), (3, 7, 12), (2, 3, 12, 7)]


def _pad(a, mode):
    return np.pad(a, [(0, 0)] * (a.ndim - 2) + [(1, 1), (1, 1)], mode=mode)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_face_differences_and_averages_match_a_padded_array(boundary):
    """Independent oracle: differences and sums of neighbours in a ghost-padded array, read off
    the ghost-lined layout's faces (row face k at padded row k, column face j at padded column j)."""
    ghost_u, ghost_coef = ("wrap", "wrap") if boundary == PERIODIC else ("constant", "edge")
    for shape in FACE_SHAPES:
        a = np.random.default_rng(3).standard_normal(shape)
        u_pad, c_pad = _pad(a, ghost_u), _pad(a, ghost_coef)
        check = lambda got, want: np.testing.assert_array_equal(got, want, err_msg=str(shape))
        check(ghost_lined(a, boundary), u_pad)
        check(ghost_lined(a, boundary, edge=True), c_pad)
        diffs, faces = face_differences(ghost_lined(a, boundary)), face_averages(a, boundary)
        check(diffs[0][..., :-1, 1:-1], np.diff(u_pad[..., 1:-1], axis=-2))
        check(diffs[1][..., 1:-1, :-1], np.diff(u_pad[..., 1:-1, :], axis=-1))
        check(faces[0][..., :-1, 1:-1], 0.5 * (c_pad[..., :-1, 1:-1] + c_pad[..., 1:, 1:-1]))
        check(faces[1][..., 1:-1, :-1], 0.5 * (c_pad[..., 1:-1, :-1] + c_pad[..., 1:-1, 1:]))


def _edge_shift(a, axis, step):
    """shift with the vacated line replicated from a's own edge."""
    padded = _pad(a, "edge")
    rows, cols = a.shape[-2:]
    dr, dc = (step, 0) if axis == 0 else (0, step)
    return padded[..., 1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]


def _shift_flux_divergence(coef, u, h, boundary):
    """The flux divergence written with shifts, two face averages per cell: the reference."""
    out = np.zeros_like(u)
    for axis in (0, 1):
        if boundary == PERIODIC:
            c_plus = 0.5 * (coef + shift(coef, axis, 1, boundary))
            c_minus = 0.5 * (coef + shift(coef, axis, -1, boundary))
        else:
            c_plus = 0.5 * (coef + _edge_shift(coef, axis, 1))
            c_minus = 0.5 * (coef + _edge_shift(coef, axis, -1))
        d_plus = shift(u, axis, 1, boundary) - u
        d_minus = u - shift(u, axis, -1, boundary)
        out += c_plus * d_plus - c_minus * d_minus
    return out / (h * h)


def _shift_flux_adjoint_coef(u, w, h, boundary):
    """The coefficient adjoint written with shifts: per axis, the products of u's and w's
    differences on a cell's low and high faces and, on a dirichlet_zero edge, the boundary face's
    product once more (the ghost half of its edge-copied average): the reference."""
    terms = []
    for axis in (0, 1):
        low = (u - shift(u, axis, -1, boundary)) * (w - shift(w, axis, -1, boundary))
        high = (shift(u, axis, 1, boundary) - u) * (shift(w, axis, 1, boundary) - w)
        term = low + high
        if boundary != PERIODIC:
            t, lo, hi = (np.moveaxis(x, axis - 2, -1) for x in (term, low, high))  # views, this axis last
            t[..., 0] += lo[..., 0]
            t[..., -1] += hi[..., -1]
        terms.append(term)
    out = terms[1] + terms[0]
    out *= -0.5 / (h * h)
    return out


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_face_form_flux_divergence_matches_the_shift_form(boundary):
    rng = np.random.default_rng(8)
    for shape in FACE_SHAPES:
        coef = rng.uniform(0.5, 2.0, shape)
        u = rng.standard_normal(shape)
        faces = face_averages(coef, boundary)
        lined = shape[:-2] + (shape[-2] + 2, shape[-1] + 2)
        assert [f.shape for f in faces] == [lined, lined]
        want = _shift_flux_divergence(coef, u, 0.25, boundary)
        du = face_differences(ghost_lined(u, boundary))
        check = lambda got: np.testing.assert_array_equal(got, want, err_msg=str(shape))
        check(interior(face_flux_divergence([f * d for f, d in zip(faces, du)], 0.25)))
        check(flux_divergence_faces(faces, u, 0.25, boundary))
        check(flux_divergence_2d(coef, u, 0.25, boundary))


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_face_form_flux_adjoint_coef_matches_the_shift_form(boundary):
    rng = np.random.default_rng(9)
    for shape in FACE_SHAPES:
        u, w = rng.standard_normal((2,) + shape)
        want = _shift_flux_adjoint_coef(u, w, 0.25, boundary)
        du, dw = (face_differences(ghost_lined(x, boundary)) for x in (u, w))
        check = lambda got: np.testing.assert_array_equal(got, want, err_msg=str(shape))
        check(interior(face_flux_adjoint_coef(face_products(du, dw), 0.25, boundary)))
        check(flux_divergence_2d_adjoint_coef(u, w, 0.25, boundary))


def _stencil_cases(rng):
    """(name, forward, adjoint) triples of linear maps on (..., H, W) arrays."""
    coef = rng.uniform(0.5, 2.0, (BATCH, H, W))
    u = rng.standard_normal((BATCH, H, W))
    h = 0.25
    cases = []
    for b in BOUNDARIES:
        for axis in (0, 1):
            for step in (-1, 1):
                cases.append((
                    f"shift-{b}-{axis}-{step}",
                    lambda a, i, b=b, axis=axis, step=step: shift(a, axis, step, b),
                    lambda g, i, b=b, axis=axis, step=step: shift(g, axis, -step, b),
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
    den = GaussianDenoiser(GaussianPrior(Field.zeros(spec), "diagonal", np.full(spec.size, 1.0)))
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
    species = RD_SPECIES[kind]
    spec = GridSpec(H, W, species, 1 / 8, PERIODIC)
    diffusion = rng.uniform(1e-4, 3e-4, (BATCH, species, H, W))
    initial = rng.uniform(0.0, 1.0, (BATCH, species, H, W))
    def run(diffusion, initial):
        return simulate_rd(SYSTEMS[kind], Field(spec, diffusion), Field(spec, initial), 1e-2, 30).values

    assert_rows_identical(run(diffusion, initial), [run(d, x) for d, x in zip(diffusion, initial)])


@pytest.mark.parametrize("kind", ["gray_scott_2", "competitive_3"])
def test_rd_blow_up_names_the_first_non_finite_sample(kind):
    species = RD_SPECIES[kind]
    spec = GridSpec(H, W, species, 1 / 8, PERIODIC)
    initial = np.stack([np.full((species, H, W), x) for x in (0.5, 1e60, 0.5)])
    diffusion = np.full((BATCH, species, H, W), 1e-4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as err:
        simulate_rd(SYSTEMS[kind], Field(spec, diffusion), Field(spec, initial), 1e-3, 10)
    assert err.value.particle == 1
    assert err.value.step is not None and 1 <= err.value.step <= 10


@pytest.mark.parametrize("step", [-1, 1])
@pytest.mark.parametrize("axis", [0, 1])
def test_periodic_shift_and_adjoint_equal_the_roll_formula(axis, step):
    """Reference: b[idx] = a[idx + step] is np.roll by -step; its adjoint, the opposite shift, rolls by +step."""
    a = np.random.default_rng(14).standard_normal((BATCH, 2, H, W))
    np.testing.assert_array_equal(shift(a, axis, step, PERIODIC), np.roll(a, -step, axis=axis - 2))
    np.testing.assert_array_equal(shift(a, axis, -step, PERIODIC), np.roll(a, step, axis=axis - 2))


def _gray_scott_per_species(system, layout, x):
    """The gray_scott_2 residual and gradient with one Laplacian call per species: the reference.

    The residual is (terminal - initial) / horizon minus the rate, summed in the data generator's order:
    u's diffusion, minus u v^2, plus feed (1 - u); v's diffusion, plus u v^2, minus (feed + removal) v.
    """
    v = np.moveaxis(x.values, -3, 0)
    h, b = x.spec.spacing, x.spec.boundary
    du, dv, u0, v0, ut, vt = (v[c] for c in range(6))
    tau, feed, removal = system.horizon, system.feed, system.removal
    uvv = ut * vt * vt
    f_u = (ut - u0) / tau - (du * laplacian_2d(ut, h, b) - uvv + feed * (1.0 - ut))
    f_v = (vt - v0) / tau - (dv * laplacian_2d(vt, h, b) + uvv - (feed + removal) * vt)
    s = 2.0 / (2 * x.spec.cells)
    grad = [
        -s * laplacian_2d(ut, h, b) * f_u,
        -s * laplacian_2d(vt, h, b) * f_v,
        -s * f_u / tau,
        -s * f_v / tau,
        s * ((1.0 / tau + vt**2 + feed) * f_u - laplacian_2d(du * f_u, h, b) - vt**2 * f_v),
        s * (2.0 * ut * vt * f_u + (1.0 / tau - 2.0 * ut * vt + feed + removal) * f_v - laplacian_2d(dv * f_v, h, b)),
    ]
    return np.stack([f_u, f_v], axis=-3), np.stack(grad, axis=-3)


def _competitive_per_species(system, layout, x):
    """The competitive_3 residual and gradient with one flux-divergence call per species: the reference.

    The residual is (terminal - initial) / horizon minus the rate, the flux divergence plus the
    reaction, summed in the data generator's order.
    """
    v = np.moveaxis(x.values, -3, 0)
    h, b, mat, tau = x.spec.spacing, x.spec.boundary, np.asarray(system.coupling), system.horizon
    diff, init, term = v[0:3], v[3:6], v[6:9]
    others = [sum(mat[i, j] * term[j] for j in range(3) if j != i) for i in range(3)]
    rate = [flux_divergence_2d(diff[i], term[i], h, b) + term[i] * (1.0 - term[i] - others[i]) for i in range(3)]
    res = [(term[i] - init[i]) / tau - rate[i] for i in range(3)]
    s = 2.0 / (3 * x.spec.cells)
    grad = np.zeros_like(v)
    for i in range(3):
        grad[3 + i] = -s * res[i] / tau
        grad[i] = -s * flux_divergence_2d_adjoint_coef(term[i], res[i], h, b)
        own = s * ((1.0 / tau - (1.0 - 2.0 * term[i] - others[i])) * res[i] - flux_divergence_2d(diff[i], res[i], h, b))
        grad[6 + i] = own + sum(s * mat[j, i] * term[j] * res[j] for j in range(3) if j != i)
    return np.stack(res, axis=-3), np.moveaxis(grad, 0, -3)


@pytest.mark.parametrize(
    "kind,reference", [("gray_scott_2", _gray_scott_per_species), ("competitive_3", _competitive_per_species)]
)
def test_stacked_species_stencils_equal_per_species_calls(kind, reference):
    system, layout, spec, _, states = batch_problem(kind)
    species = RD_SPECIES[kind]
    states[:, :species] = np.abs(states[:, :species])
    x = Field(spec, states)
    want_res, want_grad = reference(system, layout, x)
    np.testing.assert_array_equal(residual(system, layout, x).values, want_res)
    res, grad = residual_sq_grad(system, spec, states, grad=True)
    np.testing.assert_array_equal(res, want_res)
    np.testing.assert_array_equal(grad, want_grad)


def test_gray_scott_likelihood_runs_the_laplacian_once_per_species_stack(monkeypatch):
    """Value: one stacked Laplacian. Value and gradient: two, the terminal Laplacian shared."""
    system, layout, spec, obs, states = batch_problem("gray_scott_2")
    ctx = GuidanceContext(obs, system, layout, GuidanceWeights(beta=3.0, gamma=2.0, omega=0.5))
    calls = []
    original = pgd.residuals.laplacian_2d

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pgd.residuals, "laplacian_2d", counting)
    rows = Field(spec, states).flat()
    log_likelihood(ctx, rows)
    assert len(calls) == 1
    calls.clear()
    log_likelihood(ctx, rows, grad=True)
    assert len(calls) == 2


def test_darcy_likelihood_forms_the_faces_once_and_differences_u_and_its_residual_once(monkeypatch):
    """Value: faces of a and differences of u. Value and gradient: plus the differences of the residual f."""
    system, layout, spec, obs, states = batch_problem("darcy")
    states[:, 0] = np.abs(states[:, 0]) + 0.5
    ctx = GuidanceContext(obs, system, layout, GuidanceWeights(beta=3.0, gamma=2.0, omega=0.5))
    calls = {"face_averages": [], "face_differences": []}
    for name, got in calls.items():
        original = getattr(pgd.residuals, name)

        def counting(*args, got=got, original=original, **kwargs):
            got.append(args[0].copy())
            return original(*args, **kwargs)

        monkeypatch.setattr(pgd.residuals, name, counting)
    rows = Field(spec, states).flat()
    log_likelihood(ctx, rows)
    assert [len(v) for v in calls.values()] == [1, 1]
    for got in calls.values():
        got.clear()
    log_likelihood(ctx, rows, grad=True)
    (coef,), (u, f) = calls["face_averages"], calls["face_differences"]
    np.testing.assert_array_equal(coef, states[:, 0])
    np.testing.assert_array_equal(interior(u), states[:, 1])  # differences are taken on ghost-lined arrays
    np.testing.assert_array_equal(interior(f), residual_sq_grad(system, spec, states)[0][:, 0])


@pytest.mark.parametrize("seed", [0, 1])
def test_darcy_kernel_gradient_is_the_composition_of_the_public_flux_operators(seed):
    """-scale * (A^T f) through flux_divergence_faces (u) and flux_divergence_2d_adjoint_coef (a)."""
    system, _, spec, _, states = batch_problem("darcy", seed)
    states[:, 0] = np.abs(states[:, 0]) + 0.5
    a, u = states[:, 0], states[:, 1]
    h, b = spec.spacing, spec.boundary
    f = -flux_divergence_faces(face_averages(a, b), u, h, b) - system.source
    scale = 2.0 / spec.cells
    res, grad = residual_sq_grad(system, spec, states, grad=True)
    np.testing.assert_array_equal(res[:, 0], f)
    np.testing.assert_allclose(grad[:, 1], -scale * flux_divergence_faces(face_averages(a, b), f, h, b), rtol=1e-13)
    np.testing.assert_allclose(grad[:, 0], -scale * flux_divergence_2d_adjoint_coef(u, f, h, b), rtol=1e-13)
