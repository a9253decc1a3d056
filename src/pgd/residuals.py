"""Pointwise PDE residual operators and exact gradients of their mean square.

Six systems are covered. The elliptic family (darcy, poisson, helmholtz) uses
dirichlet-zero grids; the reaction-diffusion family (gray_scott_2,
competitive_3) uses periodic grids and models a state holding per-species
diffusion coefficient fields plus initial and terminal snapshots, with the
time derivative closed by the forward difference (terminal - initial) over
the horizon. Diffusion and reaction terms are evaluated at the terminal
snapshot. The divergence_free system penalizes the divergence of one or more
two-channel vector snapshots.

Gradients are assembled from stencil adjoints and product-rule terms, never
by automatic differentiation, so they can be cross-checked against finite
differences.

Both operators take a single field or a batch (see :class:`~pgd.grid.Field`)
and act per particle: a (N, C, H, W) state gives (N, R, H, W) residuals and
(N, C, H, W) gradients, each row equal to the single-field result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    DIRICHLET,
    PERIODIC,
    Field,
    GridSpec,
    diff_2d,
    flux_divergence_2d,
    flux_divergence_2d_adjoint_coef,
    laplacian_2d,
)

KINDS = ("darcy", "poisson", "helmholtz", "divergence_free", "gray_scott_2", "competitive_3")

_ELLIPTIC = ("darcy", "poisson", "helmholtz")
_REACTION_DIFFUSION = ("gray_scott_2", "competitive_3")


@dataclass(frozen=True)
class PdeSystem:
    """A PDE family plus its scalar parameters.

    darcy: constant source term ``source``; helmholtz: wavenumber ``k_wave``
    (zero reduces it to poisson); gray_scott_2: feed/removal rates and the
    horizon of the modeled snapshot pair; competitive_3: a 3x3 coupling
    matrix with zero diagonal and the horizon; divergence_free: no parameters.
    """

    kind: str
    source: float = 1.0
    k_wave: float = 0.0
    feed: float = 0.035
    removal: float = 0.060
    horizon: float = 1.0
    coupling: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.kind in _REACTION_DIFFUSION and not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.kind == "competitive_3":
            mat = np.asarray(self.coupling, dtype=float) if self.coupling is not None else None
            if mat is None or mat.shape != (3, 3):
                raise ValueError("competitive_3 requires a 3x3 coupling matrix")
            if np.any(np.diag(mat) != 0.0):
                raise ValueError("coupling diagonal must be exactly zero")

    @property
    def coupling_matrix(self) -> np.ndarray:
        return np.asarray(self.coupling, dtype=float)

    @classmethod
    def darcy(cls, source: float = 1.0) -> "PdeSystem":
        return cls("darcy", source=source)

    @classmethod
    def poisson(cls) -> "PdeSystem":
        return cls("poisson")

    @classmethod
    def helmholtz(cls, k_wave: float) -> "PdeSystem":
        return cls("helmholtz", k_wave=k_wave)

    @classmethod
    def divergence_free(cls) -> "PdeSystem":
        return cls("divergence_free")

    @classmethod
    def gray_scott(cls, feed: float = 0.035, removal: float = 0.060, horizon: float = 1.0) -> "PdeSystem":
        return cls("gray_scott_2", feed=feed, removal=removal, horizon=horizon)

    @classmethod
    def competitive(cls, coupling, horizon: float = 1.0) -> "PdeSystem":
        mat = np.asarray(coupling, dtype=float)
        return cls("competitive_3", coupling=tuple(map(tuple, mat)), horizon=horizon)


@dataclass(frozen=True)
class StateLayout:
    """Assignment of state channels to roles.

    ``coeff_channels`` and ``solution_channels`` define the two observation
    groups; the remaining fields carry the per-kind structure used by the
    residual operators.
    """

    coeff_channels: tuple[int, ...]
    solution_channels: tuple[int, ...]
    a_channel: int | None = None
    u_channel: int | None = None
    diffusion_channels: tuple[int, ...] = ()
    initial_channels: tuple[int, ...] = ()
    terminal_channels: tuple[int, ...] = ()
    vector_pairs: tuple[tuple[int, int], ...] = ()

    @property
    def channel_count(self) -> int:
        chans = set(self.coeff_channels) | set(self.solution_channels)
        return len(chans)

    @classmethod
    def scalar_pair(cls) -> "StateLayout":
        """Coefficient channel 0, solution channel 1 (elliptic systems)."""
        return cls(coeff_channels=(0,), solution_channels=(1,), a_channel=0, u_channel=1)

    @classmethod
    def vector_snapshots(cls, snapshots: int = 2) -> "StateLayout":
        """``snapshots`` two-channel vector fields; the first one is the coefficient group."""
        if snapshots < 1:
            raise ValueError("need at least one snapshot")
        pairs = tuple((2 * s, 2 * s + 1) for s in range(snapshots))
        if snapshots == 1:
            coeff: tuple[int, ...] = ()
            solution = pairs[0]
        else:
            coeff = pairs[0]
            solution = tuple(c for pair in pairs[1:] for c in pair)
        return cls(coeff_channels=coeff, solution_channels=solution, vector_pairs=pairs)

    @classmethod
    def reaction_diffusion(cls, species: int) -> "StateLayout":
        """Channels ordered (diffusion fields, initial states, terminal states)."""
        if species not in (2, 3):
            raise ValueError("species must be 2 or 3")
        diff = tuple(range(species))
        init = tuple(range(species, 2 * species))
        term = tuple(range(2 * species, 3 * species))
        return cls(
            coeff_channels=diff + init,
            solution_channels=term,
            diffusion_channels=diff,
            initial_channels=init,
            terminal_channels=term,
        )

    def validate_for(self, system: PdeSystem, spec: GridSpec) -> None:
        chans = sorted(set(self.coeff_channels) | set(self.solution_channels))
        if chans != list(range(spec.channels)):
            raise ValueError(
                f"layout covers channels {chans} but the grid has {spec.channels} channels"
            )
        kind = system.kind
        if kind in _ELLIPTIC:
            if self.a_channel is None or self.u_channel is None:
                raise ValueError(f"{kind} layout needs a_channel and u_channel")
            if spec.boundary != DIRICHLET:
                raise ValueError(f"{kind} requires dirichlet_zero boundary")
        elif kind in _REACTION_DIFFUSION:
            species = 2 if kind == "gray_scott_2" else 3
            if (
                len(self.diffusion_channels) != species
                or len(self.initial_channels) != species
                or len(self.terminal_channels) != species
            ):
                raise ValueError(f"{kind} layout needs {species} diffusion/initial/terminal channels")
            if spec.boundary != PERIODIC:
                raise ValueError(f"{kind} requires periodic boundary")
        elif kind == "divergence_free":
            if not self.vector_pairs:
                raise ValueError("divergence_free layout needs vector channel pairs")


def default_layout(kind: str) -> StateLayout:
    if kind in _ELLIPTIC:
        return StateLayout.scalar_pair()
    if kind == "divergence_free":
        return StateLayout.vector_snapshots(2)
    if kind == "gray_scott_2":
        return StateLayout.reaction_diffusion(2)
    if kind == "competitive_3":
        return StateLayout.reaction_diffusion(3)
    raise ValueError(f"unknown system kind {kind!r}")


def residual(system: PdeSystem, layout: StateLayout, x: Field) -> Field:
    """Pointwise residual field(s), one channel per governing equation.

    A batched ``x`` of shape (..., C, H, W) gives residuals (..., R, H, W).
    """
    layout.validate_for(system, x.spec)
    h, boundary = x.spec.spacing, x.spec.boundary
    v = np.moveaxis(x.values, -3, 0)  # channel-first view: v[c] is (..., H, W)
    kind = system.kind

    if kind in ("poisson", "helmholtz"):
        a = v[layout.a_channel]
        u = v[layout.u_channel]
        res = laplacian_2d(u, h, boundary) + system.k_wave**2 * u - a
        rows = [res]
    elif kind == "darcy":
        a = v[layout.a_channel]
        u = v[layout.u_channel]
        res = -flux_divergence_2d(a, u, h, boundary) - system.source
        rows = [res]
    elif kind == "divergence_free":
        rows = [
            diff_2d(v[p], 0, h, boundary) + diff_2d(v[q], 1, h, boundary)
            for p, q in layout.vector_pairs
        ]
    elif kind == "gray_scott_2":
        du, dv = (v[c] for c in layout.diffusion_channels)
        u0, v0 = (v[c] for c in layout.initial_channels)
        ut, vt = (v[c] for c in layout.terminal_channels)
        horizon, feed, removal = system.horizon, system.feed, system.removal
        f_u = (ut - u0) / horizon - du * laplacian_2d(ut, h, boundary) + ut * vt**2 - feed * (1.0 - ut)
        f_v = (vt - v0) / horizon - dv * laplacian_2d(vt, h, boundary) - ut * vt**2 + (feed + removal) * vt
        rows = [f_u, f_v]
    elif kind == "competitive_3":
        mat = system.coupling_matrix
        diff = [v[c] for c in layout.diffusion_channels]
        init = [v[c] for c in layout.initial_channels]
        term = [v[c] for c in layout.terminal_channels]
        horizon = system.horizon
        rows = []
        for i in range(3):
            others = sum(mat[i, j] * term[j] for j in range(3) if j != i)
            growth = term[i] * (1.0 - term[i] - others)
            rows.append(
                (term[i] - init[i]) / horizon
                - flux_divergence_2d(diff[i], term[i], h, boundary)
                - growth
            )
    else:  # pragma: no cover - guarded by PdeSystem validation
        raise ValueError(f"unknown system kind {kind!r}")

    spec = GridSpec(x.spec.height, x.spec.width, len(rows), h, boundary)
    return Field(spec, np.stack(rows, axis=-3))


def residual_sq_grad(system: PdeSystem, layout: StateLayout, x: Field) -> tuple[Field, np.ndarray]:
    """Residual of ``x`` and the gradient of (1/m) * ||residual(x)||^2 in every state channel.

    m counts the residual entries of one field. The residual is the one the
    gradient is built from, so a caller that needs both evaluates it once. A
    batched ``x`` gives one residual and one gradient per field,
    (..., R, H, W) and (..., C, H, W). The gradient is a bare array shaped
    like ``x.values``, not a :class:`~pgd.grid.Field`: it is not checked for
    finiteness, so an overflow reaches the caller's located checks.
    """
    res = residual(system, layout, x)
    m = res.spec.size
    r = np.moveaxis(res.values, -3, 0)
    h, boundary = x.spec.spacing, x.spec.boundary
    v = np.moveaxis(x.values, -3, 0)
    grad_values = np.zeros_like(x.values)
    grad = np.moveaxis(grad_values, -3, 0)  # writable channel-first view
    kind = system.kind
    scale = 2.0 / m

    if kind in ("poisson", "helmholtz"):
        f = r[0]
        grad[layout.u_channel] = scale * (laplacian_2d(f, h, boundary) + system.k_wave**2 * f)
        grad[layout.a_channel] = -scale * f
    elif kind == "darcy":
        f = r[0]
        a = v[layout.a_channel]
        u = v[layout.u_channel]
        grad[layout.u_channel] = -scale * flux_divergence_2d(a, f, h, boundary)
        grad[layout.a_channel] = -scale * flux_divergence_2d_adjoint_coef(u, f, h, boundary)
    elif kind == "divergence_free":
        for f, (p, q) in zip(r, layout.vector_pairs):
            grad[p] = -scale * diff_2d(f, 0, h, boundary)
            grad[q] = -scale * diff_2d(f, 1, h, boundary)
    elif kind == "gray_scott_2":
        du, dv = (v[c] for c in layout.diffusion_channels)
        ut, vt = (v[c] for c in layout.terminal_channels)
        horizon, feed, removal = system.horizon, system.feed, system.removal
        f_u, f_v = r
        c_du, c_dv = layout.diffusion_channels
        c_u0, c_v0 = layout.initial_channels
        c_ut, c_vt = layout.terminal_channels
        grad[c_u0] = -scale * f_u / horizon
        grad[c_v0] = -scale * f_v / horizon
        grad[c_du] = -scale * laplacian_2d(ut, h, boundary) * f_u
        grad[c_dv] = -scale * laplacian_2d(vt, h, boundary) * f_v
        grad[c_ut] = scale * (
            (1.0 / horizon + vt**2 + feed) * f_u
            - laplacian_2d(du * f_u, h, boundary)
            - vt**2 * f_v
        )
        grad[c_vt] = scale * (
            2.0 * ut * vt * f_u
            + (1.0 / horizon - 2.0 * ut * vt + feed + removal) * f_v
            - laplacian_2d(dv * f_v, h, boundary)
        )
    elif kind == "competitive_3":
        mat = system.coupling_matrix
        diff = [v[c] for c in layout.diffusion_channels]
        term = [v[c] for c in layout.terminal_channels]
        horizon = system.horizon
        for i in range(3):
            grad[layout.initial_channels[i]] = -scale * r[i] / horizon
            grad[layout.diffusion_channels[i]] = -scale * flux_divergence_2d_adjoint_coef(
                term[i], r[i], h, boundary
            )
            others = sum(mat[i, j] * term[j] for j in range(3) if j != i)
            own = scale * (
                (1.0 / horizon - (1.0 - 2.0 * term[i] - others)) * r[i]
                - flux_divergence_2d(diff[i], r[i], h, boundary)
            )
            cross = sum(scale * mat[j, i] * term[j] * r[j] for j in range(3) if j != i)
            grad[layout.terminal_channels[i]] = own + cross
    else:  # pragma: no cover
        raise ValueError(f"unknown system kind {kind!r}")

    return res, grad_values

