import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgd.grid import (
    DIRICHLET,
    PERIODIC,
    Field,
    GridSpec,
    Mask,
    divergence,
    flux_divergence_2d,
    flux_divergence_2d_adjoint_coef,
    flux_divergence_2d_adjoint_u,
    gradient,
    laplacian,
    laplacian_2d,
    read_field,
    stencil_adjoint_apply,
    stencil_apply,
    stencil_tags,
    write_field,
)


def dense_matrix(apply_fn, height, width):
    """Materialize a linear operator on (H, W) arrays column by column."""
    n = height * width
    cols = []
    for idx in range(n):
        e = np.zeros(n)
        e[idx] = 1.0
        cols.append(apply_fn(e.reshape(height, width)).reshape(-1))
    return np.stack(cols, axis=1)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(2, 5)
    with pytest.raises(ValueError):
        GridSpec(5, 5, 0)
    with pytest.raises(ValueError):
        GridSpec(5, 5, 1, -0.5)
    with pytest.raises(ValueError):
        GridSpec(5, 5, 1, 0.1, "reflecting")


def test_field_requires_finite_values():
    spec = GridSpec(3, 3)
    bad = np.zeros(9)
    bad[4] = np.nan
    with pytest.raises(ValueError):
        Field.from_flat(spec, bad)


def test_field_channel_out_of_range():
    f = Field.zeros(GridSpec(3, 3, 2))
    with pytest.raises(ValueError):
        f.channel(2)


def test_laplacian_constant_periodic_is_zero():
    spec = GridSpec(6, 5, 1, 0.7, PERIODIC)
    out = laplacian(Field.constant(spec, 3.25))
    assert np.allclose(out.values, 0.0, atol=1e-13)


def test_laplacian_spike_dirichlet():
    spec = GridSpec(5, 5, 1, 1.0, DIRICHLET)
    vals = np.zeros((5, 5))
    vals[2, 2] = 1.0
    out = laplacian(Field(spec, vals[None])).channel(0)
    expected = np.zeros((5, 5))
    expected[2, 2] = -4.0
    expected[1, 2] = expected[3, 2] = expected[2, 1] = expected[2, 3] = 1.0
    assert np.array_equal(out, expected)


def test_laplacian_periodic_fourier_eigenvector():
    # Independent oracle: the discrete Fourier mode sin(2*pi*i/H) is an
    # eigenvector of the row-direction second difference with eigenvalue
    # (2 cos(2*pi/H) - 2)/h^2; the column direction contributes zero.
    height, width, h = 8, 6, 0.5
    spec = GridSpec(height, width, 1, h, PERIODIC)
    i = np.arange(height, dtype=float)[:, None]
    vals = np.sin(2 * np.pi * i / height) * np.ones((1, width))
    eig = (2.0 * math.cos(2 * math.pi / height) - 2.0) / h**2
    out = laplacian(Field(spec, vals[None])).channel(0)
    assert np.allclose(out, eig * vals, atol=1e-12)


def test_dirichlet_laplacian_of_constant_counts_ghosts():
    spec = GridSpec(4, 4, 1, 0.5, DIRICHLET)
    c = 2.0
    out = laplacian(Field.constant(spec, c)).channel(0)
    ghosts = np.zeros((4, 4))
    ghosts[0, :] += 1
    ghosts[-1, :] += 1
    ghosts[:, 0] += 1
    ghosts[:, -1] += 1
    assert np.allclose(out, -c * ghosts / spec.spacing**2, atol=1e-12)


def test_gradient_constant_is_zero():
    spec = GridSpec(5, 7, 1, 0.3, PERIODIC)
    gr, gc = gradient(Field.constant(spec, -1.7))
    assert np.allclose(gr.values, 0.0) and np.allclose(gc.values, 0.0)


def test_gradient_linear_ramp_interior():
    spec = GridSpec(6, 6, 1, 0.25, DIRICHLET)
    j = np.arange(6, dtype=float)[None, :]
    vals = np.broadcast_to(j * spec.spacing, (6, 6)).copy()
    _, gc = gradient(Field(spec, vals[None]))
    # exact for linear functions wherever the stencil stays interior
    assert np.allclose(gc.channel(0)[:, 1:-1], 1.0, atol=1e-12)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_gradient_divergence_adjoint_identity(boundary):
    rng = np.random.default_rng(7)
    spec = GridSpec(7, 6, 1, 0.4, boundary)
    f = Field(spec, rng.standard_normal((1, 7, 6)))
    p = Field(spec, rng.standard_normal((1, 7, 6)))
    q = Field(spec, rng.standard_normal((1, 7, 6)))
    gr, gc = gradient(f)
    lhs = float(np.sum(gr.values * p.values) + np.sum(gc.values * q.values))
    rhs = -float(np.sum(f.values * divergence(p, q).values))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_laplacian_self_adjoint(boundary):
    rng = np.random.default_rng(3)
    spec = GridSpec(6, 6, 1, 0.9, boundary)
    f = Field(spec, rng.standard_normal((1, 6, 6)))
    assert np.allclose(
        stencil_adjoint_apply("laplacian", f).values,
        laplacian(f).values,
        atol=1e-12,
    )


def test_stencil_adjoint_unknown_tag():
    with pytest.raises(ValueError):
        stencil_adjoint_apply("biharmonic", Field.zeros(GridSpec(3, 3)))


def test_stencil_adjoint_zero_field():
    f = Field.zeros(GridSpec(4, 4))
    for tag in stencil_tags():
        assert np.all(stencil_adjoint_apply(tag, f).values == 0.0)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("tag", ["laplacian", "grad_row", "grad_col"])
def test_stencil_adjoints_against_dense_oracle(tag, boundary):
    # Dense oracle on an 8x8 grid: materialize A and A^T explicitly and check
    # <A e_i, e_j> = <e_i, A^T e_j> on random index pairs.
    spec = GridSpec(8, 8, 1, 0.6, boundary)

    def fwd(arr):
        return stencil_apply(tag, Field(spec, arr[None])).channel(0)

    def adj(arr):
        return stencil_adjoint_apply(tag, Field(spec, arr[None])).channel(0)

    a_mat = dense_matrix(fwd, 8, 8)
    at_mat = dense_matrix(adj, 8, 8)
    assert np.allclose(at_mat, a_mat.T, atol=1e-13)

    rng = np.random.default_rng(11)
    n = 64
    for _ in range(100):
        i, j = rng.integers(0, n, size=2)
        ei = np.zeros(n)
        ej = np.zeros(n)
        ei[i] = 1.0
        ej[j] = 1.0
        lhs = fwd(ei.reshape(8, 8)).reshape(-1) @ ej
        rhs = ei @ adj(ej.reshape(8, 8)).reshape(-1)
        assert lhs == pytest.approx(rhs, abs=1e-13)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_stencils_match_dense_on_6x6(boundary):
    spec = GridSpec(6, 6, 1, 0.8, boundary)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 6))
    for tag in stencil_tags():
        a_mat = dense_matrix(
            lambda arr: stencil_apply(tag, Field(spec, arr[None])).channel(0), 6, 6
        )
        direct = stencil_apply(tag, Field(spec, x[None])).channel(0)
        assert np.allclose(a_mat @ x.reshape(-1), direct.reshape(-1), atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(-3, 3, allow_nan=False),
    beta=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 2**31 - 1),
    boundary=st.sampled_from([PERIODIC, DIRICHLET]),
    tag=st.sampled_from(["laplacian", "grad_row", "grad_col"]),
)
def test_stencils_are_linear(alpha, beta, seed, boundary, tag):
    rng = np.random.default_rng(seed)
    spec = GridSpec(5, 4, 1, 0.5, boundary)
    f = rng.standard_normal((1, 5, 4))
    g = rng.standard_normal((1, 5, 4))
    combined = stencil_apply(tag, Field(spec, alpha * f + beta * g)).values
    separate = (
        alpha * stencil_apply(tag, Field(spec, f)).values
        + beta * stencil_apply(tag, Field(spec, g)).values
    )
    assert np.allclose(combined, separate, atol=1e-12)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_flux_divergence_adjoints(boundary):
    rng = np.random.default_rng(13)
    h = 0.35
    coef = rng.uniform(0.5, 2.0, size=(6, 7))
    u = rng.standard_normal((6, 7))
    w = rng.standard_normal((6, 7))
    # u-adjoint (operator is symmetric in u for fixed coef)
    lhs = np.sum(flux_divergence_2d(coef, u, h, boundary) * w)
    rhs = np.sum(u * flux_divergence_2d_adjoint_u(coef, w, h, boundary))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # coef-adjoint of the bilinear form
    da = rng.standard_normal((6, 7))
    lhs = np.sum(flux_divergence_2d(da, u, h, boundary) * w)
    rhs = np.sum(da * flux_divergence_2d_adjoint_coef(u, w, h, boundary))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_flux_divergence_constant_coef_matches_laplacian():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((5, 5))
    for boundary in (PERIODIC, DIRICHLET):
        got = flux_divergence_2d(np.ones((5, 5)), u, 0.5, boundary)
        want = laplacian_2d(u, 0.5, boundary)
        assert np.allclose(got, want, atol=1e-13)


def test_mask_count_and_indices():
    spec = GridSpec(4, 4)
    mask = Mask.from_indices(spec, [0, 5, 15])
    assert mask.count == 3
    assert list(mask.flat_indices()) == [0, 5, 15]


def test_pgdf_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    spec = GridSpec(5, 4, 3, 0.125, PERIODIC)
    f = Field(spec, rng.standard_normal((3, 5, 4)))
    path = tmp_path / "field.pgdf"
    write_field(f, path)
    g = read_field(path)
    assert g.spec == spec
    assert np.array_equal(g.values, f.values)


def test_pgdf_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgdf"
    path.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(ValueError):
        read_field(path)
