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

Each system is written once, in :func:`residual_sq_grad`: a kernel on plain
(..., C, H, W) state arrays that returns the residual and, when asked, the
gradient of its mean square, built from the residual's own intermediates. It
acts per particle: a (N, C, H, W) state gives (N, R, H, W) residuals and
(N, C, H, W) gradients, each row equal to the single-state result. It
validates nothing; the sampler's :class:`~pgd.guidance.GuidanceContext`
validates the layout once. :class:`~pgd.grid.Field` stays at the boundary:
:func:`residual` validates a field's layout, calls the kernel and wraps the
result.
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
    face_averages,
    flux_divergence_2d,
    flux_divergence_2d_adjoint_coef,
    flux_divergence_faces,
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
    """Pointwise residual field(s) of ``x``, one channel per governing equation.

    The layout is validated against ``x.spec``, and the residual is checked
    for finiteness like any ``Field``. A batched ``x`` of shape
    (..., C, H, W) gives residuals (..., R, H, W).
    """
    layout.validate_for(system, x.spec)
    res, _ = residual_sq_grad(system, layout, x.spec, x.values)
    return Field(x.spec.with_channels(res.shape[-3]), res)


def residual_sq_grad(
    system: PdeSystem, layout: StateLayout, spec: GridSpec, x: np.ndarray, grad: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Residual of the (..., C, H, W) states ``x`` and, with ``grad=True``, the gradient of its mean square.

    Returns (residual (..., R, H, W), gradient of (1/m) * ||residual||^2 in
    every state channel, shaped like ``x``, or None). m counts the residual
    entries of one state. The gradient reuses the residual's intermediates.
    ``spec`` supplies the spacing and boundary; the layout is assumed valid
    for it, and nothing is checked for finiteness, so an overflow reaches the
    caller's located checks.
    """
    h, boundary = spec.spacing, spec.boundary
    v = np.moveaxis(x, -3, 0)  # channel-first view: v[c] is (..., H, W)
    kind = system.kind
    if grad:
        out = np.zeros_like(x)
        g = np.moveaxis(out, -3, 0)  # writable channel-first view
        equations = {"gray_scott_2": 2, "competitive_3": 3, "divergence_free": len(layout.vector_pairs)}
        scale = 2.0 / (equations.get(kind, 1) * spec.cells)

    if kind in ("poisson", "helmholtz"):
        a = v[layout.a_channel]
        u = v[layout.u_channel]
        f = laplacian_2d(u, h, boundary) + system.k_wave**2 * u - a
        rows = [f]
        if grad:
            g[layout.u_channel] = scale * (laplacian_2d(f, h, boundary) + system.k_wave**2 * f)
            g[layout.a_channel] = -scale * f
    elif kind == "darcy":
        a = v[layout.a_channel]
        u = v[layout.u_channel]
        faces = face_averages(a, boundary)  # shared by the residual and its u-gradient
        f = -flux_divergence_faces(faces, u, h, boundary) - system.source
        rows = [f]
        if grad:
            g[layout.u_channel] = -scale * flux_divergence_faces(faces, f, h, boundary)
            g[layout.a_channel] = -scale * flux_divergence_2d_adjoint_coef(u, f, h, boundary)
    elif kind == "divergence_free":
        rows = [
            diff_2d(v[p], 0, h, boundary) + diff_2d(v[q], 1, h, boundary)
            for p, q in layout.vector_pairs
        ]
        if grad:
            for f, (p, q) in zip(rows, layout.vector_pairs):
                g[p] = -scale * diff_2d(f, 0, h, boundary)
                g[q] = -scale * diff_2d(f, 1, h, boundary)
    elif kind == "gray_scott_2":
        c_du, c_dv = layout.diffusion_channels
        c_u0, c_v0 = layout.initial_channels
        c_ut, c_vt = layout.terminal_channels
        du, dv, u0, v0, ut, vt = (v[c] for c in (c_du, c_dv, c_u0, c_v0, c_ut, c_vt))
        horizon, feed, removal = system.horizon, system.feed, system.removal
        lap_u, lap_v = laplacian_2d(v[[c_ut, c_vt]], h, boundary)
        vv = vt**2
        uvv = ut * vv
        f_u = (ut - u0) / horizon - du * lap_u + uvv - feed * (1.0 - ut)
        f_v = (vt - v0) / horizon - dv * lap_v - uvv + (feed + removal) * vt
        rows = [f_u, f_v]
        if grad:
            lap_fu, lap_fv = laplacian_2d(np.stack([du * f_u, dv * f_v]), h, boundary)
            uv2 = 2.0 * ut * vt
            g[c_u0] = -scale * f_u / horizon
            g[c_v0] = -scale * f_v / horizon
            g[c_du] = -scale * lap_u * f_u
            g[c_dv] = -scale * lap_v * f_v
            g[c_ut] = scale * ((1.0 / horizon + vv + feed) * f_u - lap_fu - vv * f_v)
            g[c_vt] = scale * (uv2 * f_u + (1.0 / horizon - uv2 + feed + removal) * f_v - lap_fv)
    elif kind == "competitive_3":
        mat = system.coupling_matrix
        init = [v[c] for c in layout.initial_channels]
        diff = v[list(layout.diffusion_channels)]
        term = v[list(layout.terminal_channels)]
        horizon = system.horizon
        flux = flux_divergence_2d(diff, term, h, boundary)
        others = [sum(mat[i, j] * term[j] for j in range(3) if j != i) for i in range(3)]
        rows = [
            (term[i] - init[i]) / horizon - flux[i] - term[i] * (1.0 - term[i] - others[i])
            for i in range(3)
        ]
        if grad:
            r = np.stack(rows)
            coef_adj = flux_divergence_2d_adjoint_coef(term, r, h, boundary)
            flux_r = flux_divergence_2d(diff, r, h, boundary)
            for i in range(3):
                g[layout.initial_channels[i]] = -scale * r[i] / horizon
                g[layout.diffusion_channels[i]] = -scale * coef_adj[i]
                own = scale * ((1.0 / horizon - (1.0 - 2.0 * term[i] - others[i])) * r[i] - flux_r[i])
                cross = sum(scale * mat[j, i] * term[j] * r[j] for j in range(3) if j != i)
                g[layout.terminal_channels[i]] = own + cross
    else:  # pragma: no cover - guarded by PdeSystem validation
        raise ValueError(f"unknown system kind {kind!r}")

    return np.stack(rows, axis=-3), out if grad else None
