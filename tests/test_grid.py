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
    diff_2d,
    flux_divergence_2d,
    flux_divergence_2d_adjoint_coef,
    laplacian_2d,
)

# Each linear stencil on (H, W) arrays with its exact adjoint: the Laplacian is
# symmetric and the central difference antisymmetric under both boundary rules.
STENCILS = {
    "laplacian": (laplacian_2d, laplacian_2d),
    "grad_row": (lambda a, h, b: diff_2d(a, 0, h, b), lambda a, h, b: -diff_2d(a, 0, h, b)),
    "grad_col": (lambda a, h, b: diff_2d(a, 1, h, b), lambda a, h, b: -diff_2d(a, 1, h, b)),
}


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
    with pytest.raises(ValueError):
        GridSpec(3.5, 4)
    with pytest.raises(ValueError):
        GridSpec(4, 4.0)
    with pytest.raises(ValueError):
        GridSpec(4, 4, 1.5)
    with pytest.raises(ValueError):
        GridSpec(4, 4, 1, np.inf)
    assert GridSpec(np.int64(4), np.int32(4), np.int64(2)).size == 32


def test_field_requires_finite_values():
    spec = GridSpec(3, 3)
    bad = np.zeros(9)
    bad[4] = np.nan
    with pytest.raises(ValueError):
        Field.from_flat(spec, bad)


@pytest.mark.parametrize("shape", [(18,), (1, 18), (2, 9), (3, 3, 2), (2, 3, 3, 1)])
def test_field_takes_only_trailing_channel_row_col_axes(shape):
    # flat values go through from_flat; no other shape is reshaped
    spec = GridSpec(3, 3, 2)
    with pytest.raises(ValueError, match=r"\(C, H, W\) = \(2, 3, 3\)"):
        Field(spec, np.zeros(shape))


def test_field_channel_out_of_range():
    f = Field.zeros(GridSpec(3, 3, 2))
    with pytest.raises(ValueError):
        f.channel(2)


def test_laplacian_constant_periodic_is_zero():
    out = laplacian_2d(np.full((6, 5), 3.25), 0.7, PERIODIC)
    assert np.allclose(out, 0.0, atol=1e-13)


def test_laplacian_spike_dirichlet():
    vals = np.zeros((5, 5))
    vals[2, 2] = 1.0
    out = laplacian_2d(vals, 1.0, DIRICHLET)
    expected = np.zeros((5, 5))
    expected[2, 2] = -4.0
    expected[1, 2] = expected[3, 2] = expected[2, 1] = expected[2, 3] = 1.0
    assert np.array_equal(out, expected)


def test_laplacian_periodic_fourier_eigenvector():
    # Independent oracle: the discrete Fourier mode sin(2*pi*i/H) is an
    # eigenvector of the row-direction second difference with eigenvalue
    # (2 cos(2*pi/H) - 2)/h^2; the column direction contributes zero.
    height, width, h = 8, 6, 0.5
    i = np.arange(height, dtype=float)[:, None]
    vals = np.sin(2 * np.pi * i / height) * np.ones((1, width))
    eig = (2.0 * math.cos(2 * math.pi / height) - 2.0) / h**2
    out = laplacian_2d(vals, h, PERIODIC)
    assert np.allclose(out, eig * vals, atol=1e-12)


def test_dirichlet_laplacian_of_constant_counts_ghosts():
    h, c = 0.5, 2.0
    out = laplacian_2d(np.full((4, 4), c), h, DIRICHLET)
    ghosts = np.zeros((4, 4))
    ghosts[0, :] += 1
    ghosts[-1, :] += 1
    ghosts[:, 0] += 1
    ghosts[:, -1] += 1
    assert np.allclose(out, -c * ghosts / h**2, atol=1e-12)


def test_gradient_constant_is_zero():
    vals = np.full((5, 7), -1.7)
    gr, gc = (diff_2d(vals, axis, 0.3, PERIODIC) for axis in (0, 1))
    assert np.allclose(gr, 0.0) and np.allclose(gc, 0.0)


def test_gradient_linear_ramp_interior():
    h = 0.25
    j = np.arange(6, dtype=float)[None, :]
    vals = np.broadcast_to(j * h, (6, 6)).copy()
    gc = diff_2d(vals, 1, h, DIRICHLET)
    # exact for linear functions wherever the stencil stays interior
    assert np.allclose(gc[:, 1:-1], 1.0, atol=1e-12)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_gradient_divergence_adjoint_identity(boundary):
    # <grad f, (p, q)> = -<f, div (p, q)>, with div p q = d_row p + d_col q
    rng = np.random.default_rng(7)
    h = 0.4
    f, p, q = rng.standard_normal((3, 7, 6))
    gr, gc = (diff_2d(f, axis, h, boundary) for axis in (0, 1))
    lhs = float(np.sum(gr * p) + np.sum(gc * q))
    div = diff_2d(p, 0, h, boundary) + diff_2d(q, 1, h, boundary)
    rhs = -float(np.sum(f * div))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
def test_laplacian_self_adjoint(boundary):
    rng = np.random.default_rng(3)
    f = rng.standard_normal((6, 6))
    g = rng.standard_normal((6, 6))
    lhs = np.sum(laplacian_2d(f, 0.9, boundary) * g)
    rhs = np.sum(f * laplacian_2d(g, 0.9, boundary))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_stencil_adjoint_zero_field():
    zero = np.zeros((4, 4))
    for fwd, adj in STENCILS.values():
        for boundary in (PERIODIC, DIRICHLET):
            assert np.all(fwd(zero, 1.0, boundary) == 0.0)
            assert np.all(adj(zero, 1.0, boundary) == 0.0)


@pytest.mark.parametrize("boundary", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("tag", ["laplacian", "grad_row", "grad_col"])
def test_stencil_adjoints_against_dense_oracle(tag, boundary):
    # Dense oracle on an 8x8 grid: materialize A and A^T explicitly and check
    # <A e_i, e_j> = <e_i, A^T e_j> on random index pairs.
    fwd_op, adj_op = STENCILS[tag]

    def fwd(arr):
        return fwd_op(arr, 0.6, boundary)

    def adj(arr):
        return adj_op(arr, 0.6, boundary)

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
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 6))
    for fwd, _ in STENCILS.values():
        a_mat = dense_matrix(lambda arr: fwd(arr, 0.8, boundary), 6, 6)
        direct = fwd(x, 0.8, boundary)
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
    fwd, _ = STENCILS[tag]
    f = rng.standard_normal((5, 4))
    g = rng.standard_normal((5, 4))
    combined = fwd(alpha * f + beta * g, 0.5, boundary)
    separate = alpha * fwd(f, 0.5, boundary) + beta * fwd(g, 0.5, boundary)
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
    rhs = np.sum(u * flux_divergence_2d(coef, w, h, boundary))
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
    assert list(mask.indices) == [0, 5, 15]
    assert not mask.indices.flags.writeable
    shuffled = Mask.from_indices(spec, [15, 5, 0, 5])
    assert shuffled.count == 3
    assert list(shuffled.indices) == [0, 5, 15]


@pytest.mark.parametrize("indices", [[-1], [3, 16]])
def test_mask_rejects_indices_outside_the_grid(indices):
    with pytest.raises(ValueError, match="mask indices"):
        Mask.from_indices(GridSpec(4, 4), indices)


def test_mask_rejects_non_integer_indices():
    # [1.7, 2.2] would otherwise truncate to cells [1, 2]; an empty list stays valid
    with pytest.raises(ValueError, match="must be integers"):
        Mask.from_indices(GridSpec(4, 4), [1.7, 2.2])
    assert Mask.from_indices(GridSpec(4, 4), []).count == 0

