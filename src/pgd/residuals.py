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
(the slots are listed in :func:`residual_sq_grad`). A kind's ``KINDS`` row is its
one statement: its coefficient and solution channels, which :func:`default_layout`
reads, its grid's boundary and the parameters its :class:`PdeSystem` takes. A
:class:`StateLayout` names only the two channel groups, and a layout used with a system must be its own.

Gradients are assembled from stencil adjoints and product-rule terms, never
by automatic differentiation, so they can be cross-checked against finite
differences. The sampler's residuals are one kernel, :func:`residual_sq_grad`,
on plain (..., C, H, W) state arrays: it returns the residual and, when
asked, the gradient of its mean square, built from the residual's own
intermediates. A (N, C, H, W) state gives (N, R, H, W) residuals and
(N, C, H, W) gradients, each row equal to the single-state result. The
gray_scott_2 kernel reads one C-contiguous species-first copy of the state,
so each of its terms works on contiguous (N, H, W) blocks, and builds its
gradient in place in that copy; it returns both arrays as views of
species-first blocks. The kernel never writes to the state, and it validates
nothing; the sampler's :class:`~pgd.guidance.GuidanceContext` validates the
layout once, and :func:`residual` validates a
:class:`~pgd.grid.Field`'s layout, calls the kernel and wraps the result.
:func:`add_reaction` is the one statement of the reaction-diffusion kinetics:
the data generator :func:`pgd.solvers.simulate_rd` adds it into its rate, and
the kernel into the same rate, which it subtracts from (terminal - initial) / horizon.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .errors import is_count, is_real, require_default
from .grid import DIRICHLET, PERIODIC, Field, GridSpec, diff_2d, fill_ghosts, ghost_lined, interior, laplacian_2d
from .grid import face_averages, face_differences, face_flux_adjoint_coef, face_flux_divergence, face_products
from .grid import flux_divergence_2d, flux_divergence_2d_adjoint_coef  # unused; bench/tracer.py binds them

Kind = namedtuple("Kind", "coeff_channels solution_channels boundary params")  # boundary None: any boundary

KINDS = {  # each kind's state channels, grid boundary and PdeSystem parameters: its one statement
    "darcy": Kind((0,), (1,), DIRICHLET, ("source",)),
    "poisson": Kind((0,), (1,), DIRICHLET, ()),
    "helmholtz": Kind((0,), (1,), DIRICHLET, ("k_wave",)),
    "divergence_free": Kind((0, 1), (2, 3), None, ()),
    "gray_scott_2": Kind((0, 1, 2, 3), (4, 5), PERIODIC, ("feed", "removal", "horizon")),
    "competitive_3": Kind((0, 1, 2, 3, 4, 5), (6, 7, 8), PERIODIC, ("horizon", "coupling")),
}

ELLIPTIC_KINDS = tuple(kind for kind, row in KINDS.items() if row.boundary == DIRICHLET)
RD_SPECIES = {kind: len(row.solution_channels) for kind, row in KINDS.items() if row.boundary == PERIODIC}


@dataclass(frozen=True)
class PdeSystem:
    """A PDE family plus the parameters its kind reads, as its ``KINDS`` row lists them; any other keeps its default.

    ``source``: darcy's constant source; ``k_wave``: helmholtz's wavenumber (zero reduces it to poisson);
    ``feed``, ``removal``: gray_scott_2's rates; ``horizon``: the time between a reaction-diffusion state's
    snapshots; ``coupling``: competitive_3's zero-diagonal 3x3 matrix, kept as a tuple of tuples.
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
        reads = KINDS[self.kind].params
        for f in fields(self)[1:]:
            val = getattr(self, f.name)
            if f.name != "coupling" and not (is_real(val) and np.isfinite(val)):
                raise ValueError(f"{f.name} must be a finite real number, got {val}")
            if f.name not in reads:
                require_default(self.kind, f.name, val, f.default)
        if "horizon" in reads and not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if "coupling" in reads:
            mat = np.asarray(self.coupling, dtype=float)
            if mat.shape != (3, 3):
                raise ValueError("competitive_3 requires a 3x3 coupling matrix")
            if not np.all(np.isfinite(mat)):
                raise ValueError("coupling entries must be finite")
            if np.any(np.diag(mat) != 0.0):
                raise ValueError("coupling diagonal must be exactly zero")
            object.__setattr__(self, "coupling", tuple(map(tuple, mat.tolist())))  # hashable, comparable

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
        return cls("competitive_3", coupling=coupling, horizon=horizon)


@dataclass(frozen=True)
class StateLayout:
    """The two observation groups of a state: coefficient and solution channels.

    A system's kind fixes the role of every channel of its state (see
    :func:`residual_sq_grad`); the layout says only which channels each
    observation group reads. Together the groups list each channel 0..C-1
    exactly once, so no state entry is observed twice; each group is kept as a
    tuple of Python ints. Without a system any such layout will do; with one,
    :meth:`validate_for` requires ``default_layout(system.kind)``.
    """

    coeff_channels: tuple[int, ...]
    solution_channels: tuple[int, ...]

    def __post_init__(self):
        channels = (*self.coeff_channels, *self.solution_channels)
        if not (all(is_count(c, 0) for c in channels) and sorted(channels) == list(range(len(channels)))):
            raise ValueError(f"layout {self} does not list each of the channels 0..C-1 exactly once")
        for name in ("coeff_channels", "solution_channels"):  # hashable, and equal to the tuple layout
            object.__setattr__(self, name, tuple(map(int, getattr(self, name))))

    @property
    def channel_count(self) -> int:
        return len(self.coeff_channels) + len(self.solution_channels)

    @classmethod
    def scalar_pair(cls) -> "StateLayout":
        """Coefficient channel 0, solution channel 1 (elliptic systems)."""
        return cls(coeff_channels=(0,), solution_channels=(1,))

    def validate_for(self, system: PdeSystem, spec: GridSpec) -> None:
        """Check that the layout covers ``spec``'s channels and is the layout of the system's kind."""
        if (count := self.channel_count) != spec.channels:
            raise ValueError(f"layout covers channels 0..{count - 1} but the grid has {spec.channels} channels")
        kind, want = system.kind, default_layout(system.kind)
        if self != want:
            raise ValueError(f"{kind} layout needs coefficient channels {want.coeff_channels} "
                             f"and solution channels {want.solution_channels}")
        if (boundary := KINDS[kind].boundary) not in (None, spec.boundary):
            raise ValueError(f"{kind} requires {boundary} boundary")


def default_layout(kind: str) -> StateLayout:
    """The layout of a ``kind`` state, the only one a system of that kind takes."""
    if kind not in KINDS:
        raise ValueError(f"unknown system kind {kind!r}")
    return StateLayout(KINDS[kind].coeff_channels, KINDS[kind].solution_channels)


def add_reaction(system: PdeSystem, states: np.ndarray, rate: np.ndarray) -> None:
    """Add the reaction terms of species-first (species, ..., H, W) ``states`` into ``rate``, in place:
    for gray_scott_2, feed (1 - u) - u v^2 into u and u v^2 - (feed + removal) v into v; for competitive_3,
    s_i (1 - s_i - sum_{j != i} a_ij s_j) into each s_i. The data generator and the residual kernel call it."""
    if system.kind == "gray_scott_2":
        u, v = states
        uvv = u * v * v
        rate[0] -= uvv
        rate[0] += system.feed * (1.0 - u)
        rate[1] += uvv
        rate[1] -= (system.feed + system.removal) * v
    else:
        mat = system.coupling
        for i, r in enumerate(rate):
            r += states[i] * (1.0 - states[i] - sum(mat[i][j] * states[j] for j in range(3) if j != i))


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
    of u and of the residual once each. A residual held in one array is returned as a view;
    gray_scott_2 works in a species-first copy of ``x`` (:mod:`pgd.residuals`), which becomes its gradient.
    The caller owns both arrays: neither shares memory with ``x``, which is never written.
    Channels sit in the system's fixed slots: coefficient a in 0 and solution
    u in 1 (elliptic); with s species, diffusion fields in [0, s), initial
    states in [s, 2s) and terminal states in [2s, 3s) (reaction-diffusion);
    vector snapshots in (0, 1) and (2, 3) (divergence_free). R is the kind's
    solution-channel count in ``KINDS``, one equation per solution. ``spec`` supplies
    the spacing and boundary; the state is assumed to match the system's
    layout, and nothing is checked for finiteness, so an overflow reaches the
    caller's located checks.
    """
    h, boundary = spec.spacing, spec.boundary
    v = np.moveaxis(x, -3, 0)  # channel-first view: v[c] is (..., H, W)
    kind = system.kind
    if grad:  # every kind writes every channel of its layout; gray_scott_2 into its working copy
        g = None if kind == "gray_scott_2" else np.moveaxis(np.empty_like(x), -3, 0)  # writable channel-first view
        equations = len(KINDS[kind].solution_channels)
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
        horizon, feed, removal = system.horizon, system.feed, system.removal
        v = v.copy()  # the species-first working copy (always a copy: it is written): contiguous (..., H, W) blocks
        diff, init, term = v[0:2], v[2:4], v[4:6]
        lap = laplacian_2d(term, h, boundary)
        rate = np.multiply(diff, lap)  # the rate, then the residual
        add_reaction(system, term, rate)
        np.subtract(term, init, out=init)  # init is not read again
        np.divide(init, horizon, out=init)
        np.subtract(init, rate, out=rate)
        res = np.moveaxis(rate, 0, -3)  # a view of the species-first block
        if grad:  # built in v, each channel once its state is read for the last time
            g, (f_u, f_v) = v, rate
            uv2, vv = 2.0 * term[0] * term[1], term[1] ** 2
            np.multiply(diff, rate, out=init)  # what the second Laplacian reads
            np.multiply(np.multiply(lap, -scale, out=g[0:2]), rate, out=g[0:2])
            del lap  # freed before the second Laplacian allocates
            lap_fu, lap_fv = laplacian_2d(init, h, boundary)
            np.divide(np.multiply(rate, -scale, out=g[2:4]), horizon, out=g[2:4])
            # g[4] = scale * ((1 / horizon + vv + feed) * f_u - lap_fu - vv * f_v), left to right
            gu, gv = np.add(vv, 1.0 / horizon, out=g[4]), g[5]
            gu += feed
            gu *= f_u
            gu -= lap_fu
            gu -= np.multiply(vv, f_v, out=vv)
            gu *= scale
            # g[5] = scale * (uv2 * f_u + (1 / horizon - uv2 + feed + removal) * f_v - lap_fv), left to right
            np.subtract(1.0 / horizon, uv2, out=gv)
            gv += feed
            gv += removal
            gv *= f_v
            np.add(np.multiply(uv2, f_u, out=uv2), gv, out=gv)
            gv -= lap_fv
            gv *= scale
    elif kind == "competitive_3":
        diff, init, term, horizon = v[0:3], v[3:6], v[6:9], system.horizon
        faces, dterm = face_averages(diff, boundary), face_differences(ghost_lined(term, boundary))
        lined = face_flux_divergence([c * d for c, d in zip(faces, dterm)], h)  # its interior becomes the residual
        r = interior(lined)
        res = np.moveaxis(r, 0, -3)  # a view of the channel-first block
        add_reaction(system, term, r)
        np.subtract((term - init) / horizon, r, out=r)
        if grad:
            mat = system.coupling
            others = [sum(mat[i][j] * term[j] for j in range(3) if j != i) for i in range(3)]
            dr = face_differences(fill_ghosts(lined, boundary))
            coef_adj = interior(face_flux_adjoint_coef(face_products(dr, dterm), h, boundary))
            flux_r = interior(face_flux_divergence(face_products(dr, faces), h))
            for i in range(3):
                g[3 + i] = -scale * r[i] / horizon
                g[i] = -scale * coef_adj[i]
                own = scale * ((1.0 / horizon - (1.0 - 2.0 * term[i] - others[i])) * r[i] - flux_r[i])
                cross = sum(scale * mat[j][i] * term[j] * r[j] for j in range(3) if j != i)
                g[6 + i] = own + cross

    return res, np.moveaxis(g, 0, -3) if grad else None
