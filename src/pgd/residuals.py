"""Pointwise PDE residual operators and exact gradients of their mean square.

Six systems are covered. The elliptic family (darcy, poisson, helmholtz) uses
dirichlet-zero grids; the reaction-diffusion family (gray_scott_2,
competitive_3) uses periodic grids and models a state holding per-species
diffusion coefficient fields plus initial and terminal snapshots, with the
time derivative closed by the forward difference (terminal - initial) over
the horizon. Diffusion and reaction terms are evaluated at the terminal
snapshot. The divergence_free system penalizes the divergence of two
two-channel vector snapshots.

A system's kind alone fixes its state: the role and number of its channels
(the slots are listed in :func:`residual_sq_grad`). ``KINDS`` writes out each
kind's coefficient and solution channels, which :func:`default_layout` reads;
a :class:`StateLayout` names only these two observation groups, and a layout
used with a system must be that system's own.

Gradients are assembled from stencil adjoints and product-rule terms, never
by automatic differentiation, so they can be cross-checked against finite
differences. The sampler's residuals are one kernel, :func:`residual_sq_grad`,
on plain (..., C, H, W) state arrays: it returns the residual and, when
asked, the gradient of its mean square, built from the residual's own
intermediates. A (N, C, H, W) state gives (N, R, H, W) residuals and
(N, C, H, W) gradients, each row equal to the single-state result. It
validates nothing; the sampler's :class:`~pgd.guidance.GuidanceContext`
validates the layout once, and :func:`residual` validates a
:class:`~pgd.grid.Field`'s layout, calls the kernel and wraps the result.
The data generator keeps its own copy of the reaction-diffusion kinetics,
:func:`pgd.solvers._rd_rate`, which forms ``u*v*v`` where the kernel forms
``ut * vt**2``; one copy shared in the generator's order would keep every
dataset digest and move the kernel's gray_scott_2 residuals by about 2e-15 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import is_count, is_real
from .grid import DIRICHLET, PERIODIC, Field, GridSpec, diff_2d, fill_ghosts, ghost_lined, interior, laplacian_2d
from .grid import face_averages, face_differences, face_flux_adjoint_coef, face_flux_divergence, face_products
from .grid import flux_divergence_2d, flux_divergence_2d_adjoint_coef  # unused; bench/tracer.py binds them

KINDS = {  # each system kind and its state's (coefficient channels, solution channels)
    "darcy": ((0,), (1,)),
    "poisson": ((0,), (1,)),
    "helmholtz": ((0,), (1,)),
    "divergence_free": ((0, 1), (2, 3)),
    "gray_scott_2": ((0, 1, 2, 3), (4, 5)),
    "competitive_3": ((0, 1, 2, 3, 4, 5), (6, 7, 8)),
}

ELLIPTIC_KINDS = ("darcy", "poisson", "helmholtz")
RD_SPECIES = {"gray_scott_2": 2, "competitive_3": 3}  # the reaction-diffusion kinds and their species counts


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
        for name in ("source", "k_wave", "feed", "removal", "horizon"):
            if not (is_real(val := getattr(self, name)) and np.isfinite(val)):
                raise ValueError(f"{name} must be a finite real number, got {val}")
        if self.kind in RD_SPECIES and not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.kind == "competitive_3":
            mat = np.asarray(self.coupling, dtype=float) if self.coupling is not None else None
            if mat is None or mat.shape != (3, 3):
                raise ValueError("competitive_3 requires a 3x3 coupling matrix")
            if not np.all(np.isfinite(mat)):
                raise ValueError("coupling entries must be finite")
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
    """The two observation groups of a state: coefficient and solution channels.

    A system's kind fixes the role of every channel of its state (see
    :func:`residual_sq_grad`); the layout says only which channels each
    observation group reads. Together the groups list each channel 0..C-1
    exactly once, so no state entry is observed twice. Without a system any
    such layout will do; with one, :meth:`validate_for` requires ``default_layout(system.kind)``.
    """

    coeff_channels: tuple[int, ...]
    solution_channels: tuple[int, ...]

    def __post_init__(self):
        channels = (*self.coeff_channels, *self.solution_channels)
        if not (all(is_count(c, 0) for c in channels) and sorted(channels) == list(range(len(channels)))):
            raise ValueError(f"layout {self} does not list each of the channels 0..C-1 exactly once")

    @property
    def channel_count(self) -> int:
        return len(self.coeff_channels) + len(self.solution_channels)

    @classmethod
    def scalar_pair(cls) -> "StateLayout":
        """Coefficient channel 0, solution channel 1 (elliptic systems)."""
        return cls(coeff_channels=(0,), solution_channels=(1,))

    def validate_for(self, system: PdeSystem, spec: GridSpec) -> None:
        """Check that the layout covers ``spec``'s channels and is the layout of the system's kind."""
        if self.channel_count != spec.channels:
            raise ValueError(
                f"layout covers channels 0..{self.channel_count - 1} but the grid has {spec.channels} channels"
            )
        kind, want = system.kind, default_layout(system.kind)
        if self != want:
            raise ValueError(
                f"{kind} layout needs coefficient channels {want.coeff_channels} "
                f"and solution channels {want.solution_channels}"
            )
        if kind in ELLIPTIC_KINDS and spec.boundary != DIRICHLET:
            raise ValueError(f"{kind} requires dirichlet_zero boundary")
        if kind in RD_SPECIES and spec.boundary != PERIODIC:
            raise ValueError(f"{kind} requires periodic boundary")


def default_layout(kind: str) -> StateLayout:
    """The layout of a ``kind`` state, the only one a system of that kind takes."""
    if kind not in KINDS:
        raise ValueError(f"unknown system kind {kind!r}")
    return StateLayout(*KINDS[kind])


def residual(system: PdeSystem, layout: StateLayout, x: Field) -> Field:
    """Pointwise residual field(s) of ``x``, one channel per governing equation.

    The layout is validated against ``x.spec``, and the residual is checked
    for finiteness like any ``Field``. A batched ``x`` of shape
    (..., C, H, W) gives residuals (..., R, H, W).
    """
    layout.validate_for(system, x.spec)
    res, _ = residual_sq_grad(system, x.spec, x.values)
    return Field(x.spec.with_channels(res.shape[-3]), res)


def residual_sq_grad(
    system: PdeSystem, spec: GridSpec, x: np.ndarray, grad: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Residual of the (..., C, H, W) states ``x`` and, with ``grad=True``, the gradient of its mean square.

    Returns (residual (..., R, H, W), gradient of (1/m) * ||residual||^2 in
    every state channel, shaped like ``x``, or None). m counts the residual
    entries of one state. The gradient reuses the residual's intermediates:
    darcy and competitive_3 form the face averages and the face differences
    of u and of the residual once each. A residual held in one array is returned as a view.
    Channels sit in the system's fixed slots: coefficient a in 0 and solution
    u in 1 (elliptic); with s species, diffusion fields in [0, s), initial
    states in [s, 2s) and terminal states in [2s, 3s) (reaction-diffusion);
    vector snapshots in (0, 1) and (2, 3) (divergence_free). The kind fixes
    R: one elliptic equation, or one per snapshot or species. ``spec`` supplies
    the spacing and boundary; the state is assumed to match the system's
    layout, and nothing is checked for finiteness, so an overflow reaches the
    caller's located checks.
    """
    h, boundary = spec.spacing, spec.boundary
    v = np.moveaxis(x, -3, 0)  # channel-first view: v[c] is (..., H, W)
    kind = system.kind
    if grad:
        out = np.empty_like(x)  # every kind writes every channel of its layout
        g = np.moveaxis(out, -3, 0)  # writable channel-first view
        equations = 2 if kind == "divergence_free" else RD_SPECIES.get(kind, 1)
        scale = 2.0 / (equations * spec.cells)

    if kind in ("poisson", "helmholtz"):
        a, u = v[0], v[1]
        f = laplacian_2d(u, h, boundary) + system.k_wave**2 * u - a
        res = f[..., None, :, :]
        if grad:
            g[1] = scale * (laplacian_2d(f, h, boundary) + system.k_wave**2 * f)
            g[0] = -scale * f
    elif kind == "darcy":
        a, u = v[0], v[1]
        faces, du = face_averages(a, boundary), face_differences(ghost_lined(u, boundary))  # each formed once
        f = face_flux_divergence([c * d for c, d in zip(faces, du)], h)  # ghost-lined
        np.subtract(-system.source, f, out=f)  # the residual -div - source, as -source - div: the same sum
        res = interior(f)[..., None, :, :]  # a view: the gradient below writes only f's ghosts
        if grad:
            df = face_differences(fill_ghosts(f, boundary))  # shared by the u- and a-gradients
            # faces and du are not read again: their buffers take the fluxes and products of df
            np.multiply(interior(face_flux_divergence(face_products(df, faces), h)), -scale, out=g[1])
            np.multiply(interior(face_flux_adjoint_coef(face_products(df, du), h, boundary)), -scale, out=g[0])
    elif kind == "divergence_free":
        rows = [diff_2d(v[2 * i], 0, h, boundary) + diff_2d(v[2 * i + 1], 1, h, boundary) for i in range(2)]
        res = np.stack(rows, axis=-3)
        if grad:
            for i, f in enumerate(rows):
                g[2 * i] = -scale * diff_2d(f, 0, h, boundary)
                g[2 * i + 1] = -scale * diff_2d(f, 1, h, boundary)
    elif kind == "gray_scott_2":
        du, dv, u0, v0, ut, vt = v[:6]
        horizon, feed, removal = system.horizon, system.feed, system.removal
        lap_u, lap_v = laplacian_2d(v[4:6], h, boundary)
        vv = vt**2
        uvv = ut * vv
        f_u = (ut - u0) / horizon - du * lap_u + uvv - feed * (1.0 - ut)
        f_v = (vt - v0) / horizon - dv * lap_v - uvv + (feed + removal) * vt
        res = np.stack([f_u, f_v], axis=-3)
        if grad:
            lap_fu, lap_fv = laplacian_2d(np.stack([du * f_u, dv * f_v]), h, boundary)
            uv2 = 2.0 * ut * vt
            g[2] = -scale * f_u / horizon
            g[3] = -scale * f_v / horizon
            g[0] = -scale * lap_u * f_u
            g[1] = -scale * lap_v * f_v
            g[4] = scale * ((1.0 / horizon + vv + feed) * f_u - lap_fu - vv * f_v)
            g[5] = scale * (uv2 * f_u + (1.0 / horizon - uv2 + feed + removal) * f_v - lap_fv)
    elif kind == "competitive_3":
        mat = system.coupling_matrix
        diff, init, term = v[0:3], v[3:6], v[6:9]
        horizon = system.horizon
        faces, dterm = face_averages(diff, boundary), face_differences(ghost_lined(term, boundary))
        lined = face_flux_divergence([c * d for c, d in zip(faces, dterm)], h)  # its interior becomes the residual
        r = interior(lined)
        res = np.moveaxis(r, 0, -3)  # a view of the channel-first block
        others = [sum(mat[i, j] * term[j] for j in range(3) if j != i) for i in range(3)]
        for i in range(3):
            np.subtract((term[i] - init[i]) / horizon, r[i], out=r[i])
            r[i] -= term[i] * (1.0 - term[i] - others[i])
        if grad:
            dr = face_differences(fill_ghosts(lined, boundary))
            coef_adj = interior(face_flux_adjoint_coef(face_products(dr, dterm), h, boundary))
            flux_r = interior(face_flux_divergence(face_products(dr, faces), h))
            for i in range(3):
                g[3 + i] = -scale * r[i] / horizon
                g[i] = -scale * coef_adj[i]
                own = scale * ((1.0 / horizon - (1.0 - 2.0 * term[i] - others[i])) * r[i] - flux_r[i])
                cross = sum(scale * mat[j, i] * term[j] * r[j] for j in range(3) if j != i)
                g[6 + i] = own + cross
    else:  # pragma: no cover - guarded by PdeSystem validation
        raise ValueError(f"unknown system kind {kind!r}")

    return res, out if grad else None
