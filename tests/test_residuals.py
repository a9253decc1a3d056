from dataclasses import replace

import numpy as np
import pytest

from pgd.grid import DIRICHLET, PERIODIC, Field, GridSpec, diff_2d, laplacian_2d
from pgd.residuals import (
    KINDS,
    RD_SPECIES,
    PdeSystem,
    StateLayout,
    default_layout,
    residual,
    residual_sq_grad,
)


def make_state(kind, rng, n=8, h=0.5):
    """Random state plus (system, layout, field) for each system kind."""
    if kind in ("poisson", "helmholtz", "darcy"):
        spec = GridSpec(n, n, 2, h, DIRICHLET)
        vals = rng.standard_normal((2, n, n))
        if kind == "darcy":
            vals[0] = rng.uniform(0.5, 2.0, size=(n, n))  # positive permeability
        system = {
            "poisson": PdeSystem.poisson(),
            "helmholtz": PdeSystem.helmholtz(k_wave=1.3),
            "darcy": PdeSystem.darcy(source=1.0),
        }[kind]
        return system, default_layout(kind), Field(spec, vals)
    if kind == "divergence_free":
        spec = GridSpec(n, n, 4, h, PERIODIC)
        return PdeSystem.divergence_free(), default_layout(kind), Field(spec, rng.standard_normal((4, n, n)))
    if kind == "gray_scott_2":
        spec = GridSpec(n, n, 6, h, PERIODIC)
        vals = rng.standard_normal((6, n, n))
        vals[0:2] = rng.uniform(0.05, 0.2, size=(2, n, n))
        return PdeSystem.gray_scott(), default_layout(kind), Field(spec, vals)
    if kind == "competitive_3":
        spec = GridSpec(n, n, 9, h, PERIODIC)
        vals = rng.standard_normal((9, n, n))
        vals[0:3] = rng.uniform(0.05, 0.2, size=(3, n, n))
        coupling = np.array(
            [[0.0, 1.5, 0.6], [0.4, 0.0, 1.7], [1.3, 0.5, 0.0]]
        )
        return (
            PdeSystem.competitive(coupling),
            default_layout(kind),
            Field(spec, vals),
        )
    raise AssertionError(kind)


ALL_KINDS = ("poisson", "helmholtz", "darcy", "divergence_free", "gray_scott_2", "competitive_3")


def test_system_validation():
    with pytest.raises(ValueError):
        PdeSystem("heat")
    with pytest.raises(ValueError):
        PdeSystem.competitive(np.ones((3, 3)))  # nonzero diagonal
    with pytest.raises(ValueError):
        PdeSystem.competitive(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PdeSystem.competitive([[0.0, np.nan, 0.6], [0.4, 0.0, 1.7], [1.3, 0.5, 0.0]])
    with pytest.raises(ValueError):
        PdeSystem.darcy(np.inf)
    with pytest.raises(ValueError):
        PdeSystem.helmholtz(np.nan)
    with pytest.raises(ValueError):
        PdeSystem.gray_scott(feed=np.nan)
    with pytest.raises(ValueError):
        PdeSystem.gray_scott(removal=np.nan)


@pytest.mark.parametrize(
    "coeff,solution",
    [((-1,), (0,)), ((0,), (2,)), ((0.0,), (1,)), ((0, 0), (1,)), ((), (1, 2)), ((0,), (0, 1))],
    ids=["negative", "gap", "float", "repeated", "not-from-zero", "in-both-groups"],
)
def test_layout_rejects_channels_that_are_not_0_to_c_minus_1(coeff, solution):
    # a negative channel would index the state from its end, and a gap past
    # the last channel would index beyond it; the groups partition the
    # channels, so the observation operator never picks one state entry twice
    with pytest.raises(ValueError, match="layout"):
        StateLayout(coeff, solution)


def test_layout_accepts_numpy_integers():
    assert StateLayout((np.int64(0),), (np.int32(1), 2)).channel_count == 3


def test_layout_kind_mismatch_rejected():
    spec = GridSpec(6, 6, 2, 0.5, DIRICHLET)
    x = Field.zeros(spec)
    with pytest.raises(ValueError):
        residual(PdeSystem.gray_scott(), StateLayout.scalar_pair(), x)


# the layout each kind's state has
SYSTEM_LAYOUTS = {
    "poisson": StateLayout((0,), (1,)),
    "helmholtz": StateLayout((0,), (1,)),
    "darcy": StateLayout((0,), (1,)),
    "divergence_free": StateLayout((0, 1), (2, 3)),
    "gray_scott_2": StateLayout((0, 1, 2, 3), (4, 5)),
    "competitive_3": StateLayout((0, 1, 2, 3, 4, 5), (6, 7, 8)),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_default_layout_is_the_system_layout(kind):
    system, _, x = make_state(kind, np.random.default_rng(1))
    assert default_layout(kind) == SYSTEM_LAYOUTS[kind]
    default_layout(kind).validate_for(system, x.spec)


@pytest.mark.parametrize(
    "kind,layout",
    [
        ("poisson", StateLayout((1,), (0,))),
        ("darcy", StateLayout((), (0, 1))),
        ("divergence_free", StateLayout((2, 3), (0, 1))),
        ("divergence_free", StateLayout((), (0, 1, 2, 3))),
        ("gray_scott_2", StateLayout((0, 1, 4, 5), (2, 3))),
        ("competitive_3", StateLayout((0, 1, 2, 6, 7, 8), (3, 4, 5))),
    ],
)
def test_layout_with_the_right_channels_but_wrong_groups_rejected(kind, layout):
    system, _, x = make_state(kind, np.random.default_rng(1))
    assert layout.channel_count == x.spec.channels
    with pytest.raises(ValueError, match="layout needs"):
        residual(system, layout, x)


@pytest.mark.parametrize("channels", [2, 6])
def test_divergence_free_state_of_another_snapshot_count_is_rejected(channels):
    # the kind fixes two vector snapshots; one or three are rejected on entry
    spec = GridSpec(8, 8, channels, 0.5, PERIODIC)
    layout = StateLayout((), (0, 1)) if channels == 2 else StateLayout((0, 1), (2, 3, 4, 5))
    x = Field(spec, np.random.default_rng(1).standard_normal((channels, 8, 8)))
    with pytest.raises(ValueError, match="layout covers channels"):
        residual(PdeSystem.divergence_free(), default_layout("divergence_free"), x)
    with pytest.raises(ValueError, match=r"divergence_free layout needs coefficient channels \(0, 1\)"):
        residual(PdeSystem.divergence_free(), layout, x)


def test_boundary_rule_incompatibilities():
    x = Field.zeros(GridSpec(6, 6, 2, 0.5, PERIODIC))
    with pytest.raises(ValueError):
        residual(PdeSystem.poisson(), StateLayout.scalar_pair(), x)
    x = Field.zeros(GridSpec(6, 6, 6, 0.5, DIRICHLET))
    with pytest.raises(ValueError):
        residual(PdeSystem.gray_scott(), default_layout("gray_scott_2"), x)


# each kind's parameters and residual count, written out here apart from KINDS
READS = {
    "darcy": {"source"},
    "poisson": set(),
    "helmholtz": {"k_wave"},
    "divergence_free": set(),
    "gray_scott_2": {"feed", "removal", "horizon"},
    "competitive_3": {"horizon", "coupling"},
}
EQUATIONS = {"darcy": 1, "poisson": 1, "helmholtz": 1, "divergence_free": 2, "gray_scott_2": 2, "competitive_3": 3}
COUPLING = ((0.0, 1.5, 0.6), (0.4, 0.0, 1.7), (1.3, 0.5, 0.0))
# a value away from each parameter's default, valid for a kind that reads it
AWAY = {"source": 2.0, "k_wave": 3.0, "feed": 0.05, "removal": 0.07, "horizon": 2.0, "coupling": np.array(COUPLING)}
PAIRS = [(kind, name) for kind in ALL_KINDS for name in AWAY]


def test_kind_rows_list_the_parameters_each_kind_reads():
    assert {kind: set(row.params) for kind, row in KINDS.items()} == READS
    assert len(PAIRS) == 36 and sum(name in READS[kind] for kind, name in PAIRS) == 7


@pytest.mark.parametrize("kind,name", PAIRS, ids=[f"{kind}-{name}" for kind, name in PAIRS])
def test_a_system_takes_only_the_parameters_its_kind_reads(kind, name):
    # an unread parameter set away from its default is an error, not a silent other system;
    # an array coupling is rejected as cleanly as a number
    base = {"coupling": COUPLING} if kind == "competitive_3" else {}
    build = lambda: PdeSystem(kind, **{**base, name: AWAY[name]})
    if name in READS[kind]:
        assert getattr(build(), name) == (COUPLING if name == "coupling" else AWAY[name])
    else:
        with pytest.raises(ValueError, match=f"{kind} does not read {name}"):
            build()


def test_a_poisson_system_with_a_wavenumber_is_rejected_not_made_helmholtz():
    with pytest.raises(ValueError, match="poisson does not read k_wave"):
        PdeSystem("poisson", k_wave=3.0)
    with pytest.raises(ValueError, match="poisson does not read k_wave"):
        replace(PdeSystem.poisson(), k_wave=3.0)


def test_a_competitive_system_built_with_an_array_coupling_hashes_and_compares():
    direct = PdeSystem("competitive_3", coupling=np.array(COUPLING))
    assert direct.coupling == COUPLING
    assert direct == PdeSystem.competitive(np.array(COUPLING)) == PdeSystem.competitive(COUPLING)
    assert hash(direct) == hash(PdeSystem.competitive(COUPLING))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_the_boundary_rule_and_the_residual_count_are_read_off_the_kind_row(kind):
    system, layout, x = make_state(kind, np.random.default_rng(1))
    other = replace(x.spec, boundary=PERIODIC if x.spec.boundary == DIRICHLET else DIRICHLET)
    if kind == "divergence_free":  # any boundary will do
        layout.validate_for(system, other)
    else:
        with pytest.raises(ValueError, match=f"{kind} requires {x.spec.boundary} boundary"):
            layout.validate_for(system, other)
    res, _ = residual_sq_grad(system, x.spec, x.values)
    assert res.shape[-3] == len(KINDS[kind].solution_channels) == EQUATIONS[kind]
    assert RD_SPECIES.get(kind) == (EQUATIONS[kind] if kind in ("gray_scott_2", "competitive_3") else None)


def test_darcy_zero_solution_constant_source():
    spec = GridSpec(6, 6, 2, 0.5, DIRICHLET)
    vals = np.zeros((2, 6, 6))
    vals[0] = 1.0  # a == 1, u == 0
    r = residual(PdeSystem.darcy(source=1.0), StateLayout.scalar_pair(), Field(spec, vals))
    assert np.allclose(r.values, -1.0, atol=1e-14)


def test_gray_scott_homogeneous_fixed_point():
    # (u, v) = (1, 0) is stationary for any feed/removal parameters.
    spec = GridSpec(6, 6, 6, 0.5, PERIODIC)
    vals = np.zeros((6, 6, 6))
    vals[0] = 0.1  # D_u
    vals[1] = 0.05  # D_v
    vals[2] = 1.0  # u0
    vals[4] = 1.0  # uT
    r = residual(PdeSystem.gray_scott(feed=0.035, removal=0.060), default_layout("gray_scott_2"), Field(spec, vals))
    assert np.allclose(r.values, 0.0, atol=1e-14)


def test_poisson_manufactured_discrete_solution():
    rng = np.random.default_rng(5)
    spec = GridSpec(8, 8, 2, 0.25, DIRICHLET)
    u = rng.standard_normal((8, 8))
    a = laplacian_2d(u, spec.spacing, spec.boundary)
    x = Field(spec, np.stack([a, u]))
    r = residual(PdeSystem.poisson(), StateLayout.scalar_pair(), x)
    assert np.max(np.abs(r.values)) < 1e-12


def test_helmholtz_zero_wavenumber_equals_poisson():
    rng = np.random.default_rng(9)
    spec = GridSpec(7, 7, 2, 0.4, DIRICHLET)
    x = Field(spec, rng.standard_normal((2, 7, 7)))
    layout = StateLayout.scalar_pair()
    r_h = residual(PdeSystem.helmholtz(k_wave=0.0), layout, x)
    r_p = residual(PdeSystem.poisson(), layout, x)
    assert np.array_equal(r_h.values, r_p.values)


def test_darcy_scaling_bilinear():
    rng = np.random.default_rng(3)
    system = PdeSystem.darcy(source=1.0)
    layout = StateLayout.scalar_pair()
    spec = GridSpec(6, 6, 2, 0.5, DIRICHLET)
    vals = np.stack([rng.uniform(0.5, 2.0, (6, 6)), rng.standard_normal((6, 6))])
    x1 = Field(spec, vals)
    x2 = Field(spec, np.stack([2 * vals[0], 2 * vals[1]]))
    op1 = residual(system, layout, x1).values + system.source
    op2 = residual(system, layout, x2).values + system.source
    assert np.allclose(op2, 4.0 * op1, rtol=1e-12)
    # linear in the source term
    r_s = residual(PdeSystem.darcy(source=3.0), layout, x1).values
    assert np.allclose(r_s, op1 - 3.0, rtol=1e-12)


def test_competitive_species_permutation_symmetry():
    rng = np.random.default_rng(11)
    _, layout, x = make_state("competitive_3", rng)
    coupling = np.array([[0.0, 1.5, 0.6], [0.4, 0.0, 1.7], [1.3, 0.5, 0.0]])
    system = PdeSystem.competitive(coupling)
    perm = [2, 0, 1]
    permuted_coupling = coupling[np.ix_(perm, perm)]
    vals = x.values.copy()
    pvals = vals.copy()
    pvals[0:3] = vals[0:3][perm]
    pvals[3:6] = vals[3:6][perm]
    pvals[6:9] = vals[6:9][perm]
    r = residual(system, layout, x).values
    rp = residual(PdeSystem.competitive(permuted_coupling), layout, Field(x.spec, pvals)).values
    assert np.allclose(rp, r[perm], atol=1e-13)


def test_divergence_free_curl_field_is_annihilated():
    # Discrete curl construction: (d psi / d col, -d psi / d row) has exactly
    # zero central-difference divergence on a periodic grid.
    rng = np.random.default_rng(13)
    spec = GridSpec(8, 8, 4, 0.5, PERIODIC)
    psi = rng.standard_normal((2, 8, 8))  # one stream function per snapshot
    p = diff_2d(psi, 1, spec.spacing, spec.boundary)
    q = -diff_2d(psi, 0, spec.spacing, spec.boundary)
    x = Field(spec, np.stack([p[0], q[0], p[1], q[1]]))
    r = residual(PdeSystem.divergence_free(), default_layout("divergence_free"), x)
    assert np.max(np.abs(r.values)) < 1e-13
    _, g = residual_sq_grad(PdeSystem.divergence_free(), spec, x.values, grad=True)
    assert np.max(np.abs(g)) < 1e-13


def test_gradient_zero_at_discrete_solution():
    rng = np.random.default_rng(2)
    spec = GridSpec(8, 8, 2, 0.25, DIRICHLET)
    u = rng.standard_normal((8, 8))
    a = laplacian_2d(u, spec.spacing, spec.boundary)
    x = Field(spec, np.stack([a, u]))
    _, g = residual_sq_grad(PdeSystem.poisson(), spec, x.values, grad=True)
    assert np.max(np.abs(g)) < 1e-12


def mean_square_residual(system, layout, x):
    return float(np.mean(residual(system, layout, x).values ** 2))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradient_matches_finite_differences(kind):
    # Central finite differences of the mean-square residual are the oracle.
    rng = np.random.default_rng(17)
    system, layout, x = make_state(kind, rng)
    res, grad = residual_sq_grad(system, x.spec, x.values, grad=True)
    np.testing.assert_array_equal(res, residual(system, layout, x).values)
    assert grad.shape == x.values.shape
    eps = 1e-6
    flat = x.values.reshape(-1)
    fd = np.zeros_like(flat)
    probe = rng.choice(flat.size, size=min(160, flat.size), replace=False)
    for idx in probe:
        bump = np.zeros_like(flat)
        bump[idx] = eps
        up = mean_square_residual(system, layout, Field(x.spec, (flat + bump).reshape(x.values.shape)))
        dn = mean_square_residual(system, layout, Field(x.spec, (flat - bump).reshape(x.values.shape)))
        fd[idx] = (up - dn) / (2 * eps)
    gflat = grad.reshape(-1)
    scale = np.max(np.abs(gflat)) + 1e-12
    err = np.abs(gflat[probe] - fd[probe]) / scale
    assert np.max(err) < 1e-5
