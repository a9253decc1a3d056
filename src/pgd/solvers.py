"""Ground-truth data generation: elliptic solves, reaction-diffusion time
stepping, random coefficient sampling and sparse observations.

A dataset is generated as one batch: each sample's coefficients are drawn
from its own stream, then all S samples are solved or time-stepped together
as one (S, C, H, W) array (time-stepped in place, species first, with one
finiteness pass per step). Every operation is independent per sample, so a
sample of the batch equals the same sample solved alone, bit for bit.

Poisson and helmholtz are solved directly in the sine (DST-I) basis, which
diagonalises the dirichlet-zero 5-point Laplacian. Darcy's variable
coefficient has no such basis; it is solved by conjugate gradient, one row
per sample, preconditioned by the same sine-basis Poisson solve scaled by
a^(-1/2) on both sides (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).
The CG updates its iterates in place, in buffers it already holds, and owns
and may overwrite the arrays that the operator and the preconditioner return.
Each grid size forms its sine basis once and keeps it read-only.

This is the stand-in for an external simulation pipeline: targets are
generated with the same finite-difference discretization used by the residual
operators, and with the same reaction kinetics, one function shared with the
residual kernel (:func:`pgd.residuals.add_reaction`). Elliptic states satisfy
the discrete equations to the solver's tolerance. Reaction-diffusion states do
not: they are ``rd_steps`` explicit Euler steps (1,000 by default) across the
system's ``horizon``, which the residual spans in one interval, so a true state
leaves a residual. At the defaults on a 16 x 16 grid its RMS is about 1e-3 for
gray_scott_2 and 3e-2 for competitive_3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from operator import imul, itruediv

import numpy as np

from .errors import SingularOperatorError, SolverConvergenceError, is_count, is_real, require_default, require_finite
from .grid import DIRICHLET, PERIODIC, Field, GridSpec, Mask, face_averages, flux_divergence_faces
from .grid import flux_divergence_2d, laplacian_2d  # flux_divergence_2d: unused; bench/tracer.py binds it
from .residuals import ELLIPTIC_KINDS, KINDS, RD_SPECIES, PdeSystem, StateLayout, add_reaction, default_layout


# ---------------------------------------------------------------------------
# Coefficient models and dataset description.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothGrf:
    """Gaussian random field from spectrally filtered white noise, unit variance."""

    length_scale: float = 4.0  # in cells

    def __post_init__(self):
        if not (is_real(self.length_scale) and 0 < self.length_scale < np.inf):
            raise ValueError("length_scale must be finite and positive")


@dataclass(frozen=True)
class ThresholdedGrf(SmoothGrf):
    """Two-level thresholding of a smooth GRF (piecewise-constant coefficients)."""

    low: float = 3.0
    high: float = 12.0

    def __post_init__(self):
        super().__post_init__()
        if not all(is_real(v) and np.isfinite(v) for v in (self.low, self.high)):
            raise ValueError("low and high must be finite")


@dataclass(frozen=True)
class Observations:
    """Sparse noisy point observations of the coefficient and solution groups.

    Values are stored one row per channel of the group; the mask is shared by
    all channels within a group. Both masks lie on the same grid.
    """

    mask_a: Mask
    values_a: np.ndarray
    mask_u: Mask
    values_u: np.ndarray
    sigma_o: float

    def __post_init__(self):
        va = np.asarray(self.values_a, dtype=float)
        vu = np.asarray(self.values_u, dtype=float)
        for group, vals, mask in (("a", va, self.mask_a), ("u", vu, self.mask_u)):
            if vals.ndim != 2 or vals.shape[1] != mask.count:
                raise ValueError(f"values_{group} must be (channels, mask_{group}.count)")
            if not np.isfinite(vals).all():
                raise ValueError(f"values_{group} must be finite")
        if self.mask_a.spec != self.mask_u.spec:
            raise ValueError(f"mask_a is on {self.mask_a.spec} but mask_u is on {self.mask_u.spec}")
        if not (is_real(self.sigma_o) and 0 <= self.sigma_o < np.inf):
            raise ValueError("sigma_o must be finite and nonnegative")
        object.__setattr__(self, "values_a", va)
        object.__setattr__(self, "values_u", vu)


_DIFFUSION_BASE = {"gray_scott_2": (2e-4, 1e-4), "competitive_3": (2e-4, 2e-4, 2e-4)}
_DIFFUSION_REL_AMP = 0.3  # relative amplitude of the random diffusion field around its base


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to regenerate a dataset deterministically."""

    system: PdeSystem
    grid: GridSpec
    sample_count: int
    coeff_model: SmoothGrf | ThresholdedGrf = field(default_factory=SmoothGrf)
    rng_seed: int = 0
    rd_steps: int = 1000  # explicit steps over system.horizon; read by gray_scott_2 and competitive_3 only

    def __post_init__(self):
        if not is_count(self.sample_count):
            raise ValueError("sample_count must be an integer >= 1")
        if not is_count(self.rng_seed, 0):
            raise ValueError("rng_seed must be an integer >= 0")
        kind = self.system.kind
        if kind not in ELLIPTIC_KINDS and kind not in RD_SPECIES:
            raise ValueError(f"no coefficient model for kind {kind!r}")
        self.layout.validate_for(self.system, self.grid)
        if not isinstance(model := self.coeff_model, SmoothGrf):
            raise ValueError(f"coeff_model must be a SmoothGrf or ThresholdedGrf, got {model!r}")
        if isinstance(model, ThresholdedGrf) and kind in RD_SPECIES:
            raise ValueError(f"{kind} draws smooth diffusion fields; a ThresholdedGrf's levels would go unread")
        if isinstance(model, ThresholdedGrf) and kind == "darcy" and min(model.low, model.high) <= 0:
            raise ValueError(f"darcy's permeability levels must be positive, got low={model.low}, high={model.high}")
        if kind not in RD_SPECIES:
            require_default(kind, "rd_steps", self.rd_steps, DatasetSpec.rd_steps)
        elif not is_count(self.rd_steps):
            raise ValueError(f"rd_steps must be an integer >= 1, got {self.rd_steps}")

    @property
    def layout(self) -> StateLayout:
        return default_layout(self.system.kind)


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Independent per-sample stream derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


# ---------------------------------------------------------------------------
# Gaussian random fields.
# ---------------------------------------------------------------------------


def smooth_grf_2d(noise: np.ndarray, length_scale: float) -> np.ndarray:
    """Standardized smooth random fields from white noise of shape (..., H, W).

    The noise is Gaussian-filtered in Fourier space over its last two axes,
    with one filter and one ``fft2`` for the whole stack; each (H, W) field is
    then shifted and scaled to zero mean and unit variance.
    """
    height, width = noise.shape[-2:]
    kr = np.fft.fftfreq(height)[:, None]
    kc = np.fft.fftfreq(width)[None, :]
    filt = np.exp(-2.0 * np.pi**2 * length_scale**2 * (kr**2 + kc**2))
    out = np.fft.ifft2(np.fft.fft2(noise) * filt).real
    out -= out.mean(axis=(-2, -1), keepdims=True)
    std = out.std(axis=(-2, -1), keepdims=True)
    return np.divide(out, std, out=out, where=std > 0)


def _draw_coefficients(spec: DatasetSpec) -> np.ndarray:
    """(S, C, H, W) coefficients of the spec's samples, as the dataset stores them.

    Elliptic kinds have the single coefficient channel; darcy's smooth
    permeability is exp(0.5 g), which keeps it positive. Reaction-diffusion
    kinds have (diffusion fields, initial states): diffusion coefficients are
    smooth fields around the per-species base values, and initial states
    follow patch recipes with additive Gaussian noise of standard deviation
    0.01. Each sample draws from its own :func:`sample_stream`: the white
    noise of its random fields (one per species for reaction-diffusion
    kinds), then its initial-state noise. The noise of all samples is then
    filtered together.
    """
    h, w = spec.grid.height, spec.grid.width
    kind = spec.system.kind
    model = spec.coeff_model
    streams = [sample_stream(spec.rng_seed, i) for i in range(spec.sample_count)]

    if kind in ELLIPTIC_KINDS:
        g = smooth_grf_2d(np.stack([rng.standard_normal((h, w)) for rng in streams]), model.length_scale)
        if isinstance(model, ThresholdedGrf):
            g = np.where(g >= 0.0, model.high, model.low)
        elif kind == "darcy":
            g = np.exp(0.5 * g)
        return g[:, None]

    species = RD_SPECIES[kind]
    noise, init = [], []
    for rng in streams:
        noise.append(rng.standard_normal((species, h, w)))
        init.append(_rd_initial_state(kind, h, w, rng))
    base = np.array(_DIFFUSION_BASE[kind])[:, None, None]
    diff = base * (1.0 + _DIFFUSION_REL_AMP * smooth_grf_2d(np.stack(noise), model.length_scale))
    return np.concatenate([diff, np.stack(init)], axis=1)


def _rd_initial_state(kind: str, h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    # Additive noise is clamped at zero: species concentrations stay
    # nonnegative, which the time stepper then preserves.
    noise = lambda: 0.01 * rng.standard_normal((h, w))
    if kind == "gray_scott_2":
        u = np.full((h, w), 1.0)
        v = np.zeros((h, w))
        r0, r1 = h // 2 - h // 8, h // 2 + h // 8
        c0, c1 = w // 2 - w // 8, w // 2 + w // 8
        u[r0:r1, c0:c1] = 0.5
        v[r0:r1, c0:c1] = 0.25
        return np.maximum(np.stack([u + noise(), v + noise()]), 0.0)
    # three localized patches near the domain center
    base = (0.6, 0.2, 0.2)
    peak = (0.9, 0.7, 0.7)
    centers = [
        (h // 2 - h // 6, w // 2 - w // 6),
        (h // 2 - h // 6, w // 2 + w // 6),
        (h // 2 + h // 6, w // 2),
    ]
    radius = max(2, min(h, w) // 8)
    rows, cols = np.mgrid[0:h, 0:w]
    out = []
    for s in range(3):
        fld = np.full((h, w), base[s])
        cr, cc = centers[s]
        inside = (rows - cr) ** 2 + (cols - cc) ** 2 <= radius**2
        fld[inside] = peak[s]
        out.append(fld + noise())
    return np.maximum(np.stack(out), 0.0)


# ---------------------------------------------------------------------------
# Elliptic solves.
# ---------------------------------------------------------------------------


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each (..., n) row; equals ``np.linalg.norm`` of the row bit for bit."""
    return np.sqrt(np.vecdot(rows, rows))


def _conjugate_gradient(apply_op, rhs, precondition):
    """Preconditioned CG for SPD operators, one independent system per (..., n) row.

    ``precondition`` applies an SPD approximation of the operator's inverse to
    (..., n) rows, each row on its own. A row stops when its residual, not its
    preconditioned residual, reaches 1e-10 of its right-hand side; it is then
    frozen (zero step, unchanged iterate), so it stops exactly where a solve
    of that row alone would. A row still short of that after 10 n iterations
    raises :class:`SolverConvergenceError`.

    The iterates are updated in place: the step into x goes through one buffer
    held for the solve, and the CG owns and may overwrite the arrays that
    ``apply_op`` and ``precondition`` return, so each must return an array of
    its own. The first search direction is the preconditioned residual itself;
    the residual's update is formed in the operator's output and the next
    direction in the current one. Each product keeps its operands and their
    order, so the iterates are those of the out-of-place updates bit for bit.
    """
    max_iter = 10 * rhs.shape[-1]
    x, step = np.zeros_like(rhs), np.empty_like(rhs)
    r = rhs.copy()
    tol = 1e-10 * _row_norms(rhs)
    done = _row_norms(r) <= tol
    p = precondition(r)
    rz = np.vecdot(r, p)
    for _ in range(max_iter):
        if done.all():
            break
        ap = apply_op(p)
        alpha = np.divide(rz, np.vecdot(p, ap), out=np.zeros_like(rz), where=~done)
        x += np.multiply(alpha[..., None], p, out=step)
        r -= np.multiply(alpha[..., None], ap, out=ap)
        del ap  # freed once read, as z below: neither is alive through the next operator apply
        done |= _row_norms(r) <= tol
        z = precondition(r)
        rz_new = np.vecdot(r, z)
        beta = np.divide(rz_new, rz, out=np.zeros_like(rz), where=~done)
        np.add(z, np.multiply(beta[..., None], p, out=p), out=p)
        del z
        rz = rz_new
    if not done.all():
        raise SolverConvergenceError(
            f"conjugate gradient did not reach 1e-10 relative residual in {max_iter} iterations"
        )
    return x


@cache
def _sine_basis(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix; symmetric and its own inverse. Formed once per n, read-only."""
    j = np.arange(1, n + 1)
    basis = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
    basis.flags.writeable = False
    return basis


def _dirichlet_laplacian_eigenvalues(height: int, width: int, h: float) -> np.ndarray:
    """(height, width) eigenvalues of the dirichlet-zero 5-point Laplacian in the sine basis."""
    er, ec = (-4.0 / h**2 * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2 for n in (height, width))
    return er[:, None] + ec[None, :]


def _sine_solver(eigenvalues: np.ndarray):
    """Inverse of the operator that the sine basis diagonalises with these (H, W) eigenvalues.

    Returns x -> S_H ((S_H x S_W) / eigenvalues) S_W on (..., H, W) arrays;
    the matrix products broadcast over the leading axes, one sample at a time.
    The division is made in place (``itruediv`` returns its first operand), so
    the inner product's buffer is freed once the next product has read it.
    """
    s_h, s_w = (_sine_basis(n) for n in eigenvalues.shape)
    return lambda x: s_h @ itruediv(s_h @ x @ s_w, eigenvalues) @ s_w


def solve_elliptic(system: PdeSystem, a: Field) -> Field:
    """Solve the discrete elliptic problem for the solution field u.

    ``a`` is one coefficient field (1, H, W) or a batch (..., 1, H, W); each
    sample is solved independently and the result has the same shape.

    poisson and helmholtz: lap u + k^2 u = a (k = 0 for poisson), solved
    exactly in the sine basis that diagonalises the dirichlet-zero Laplacian,
    u = S_H ((S_H a S_W) / (lambda + k^2)) S_W, applied to the whole batch by
    broadcasting. A near-zero eigenvalue raises SingularOperatorError, as does
    a relative residual above 1e-10 on any sample.
    darcy: -div(a grad u) = source with a > 0, by conjugate gradient with one
    row per sample, to a relative residual of 1e-10. The preconditioner is
    M^-1 r = a^(-1/2) (-lap)^(-1) (a^(-1/2) r), with (-lap)^(-1) the sine-basis
    solve above and the outer scaling made in place in its result (a product
    commutes exactly, so the bits are those of a^(-1/2) times it): exact for
    constant a, and its iteration count depends on the variation of a, not on
    the grid size alone. The face averages of a are formed once per solve. The
    working set (tracemalloc peak) is about 12 (S, H, W) arrays: 12.4 at 16 x 16
    with 65 samples, 11.7 at 48 x 48 and 11.5 at 96 x 96 with 8. It is held by
    the right-hand side and the CG's x, r, p and step buffer (five), the two
    ghost-lined face averages, a^(-1/2), and, at the peak, the operator's
    ghost-lined temporaries and its output.
    """
    if system.kind not in ELLIPTIC_KINDS:
        raise ValueError(f"solve_elliptic does not handle kind {system.kind!r}")
    spec = a.spec
    if spec.channels != 1:
        raise ValueError(f"solve_elliptic takes a single-channel coefficient, got {spec.channels} channels")
    if spec.boundary != KINDS[system.kind].boundary:
        raise ValueError("elliptic solves require dirichlet_zero boundary")
    h = spec.spacing
    avals = a.channel(0)
    flat_shape = avals.shape[:-2] + (spec.cells,)
    lam = _dirichlet_laplacian_eigenvalues(spec.height, spec.width, h)

    if system.kind != "darcy":
        k2 = system.k_wave**2
        if np.min(np.abs(lam + k2)) < 1e-12 * np.max(np.abs(lam)):
            raise SingularOperatorError(
                f"{system.kind} operator is singular at k_wave={system.k_wave}"
            )
        u = _sine_solver(lam + k2)(avals)
        res = laplacian_2d(u, h, DIRICHLET) + k2 * u - avals
        scale = np.maximum(_row_norms(avals.reshape(flat_shape)), 1e-300)
        failed = np.flatnonzero(_row_norms(res.reshape(flat_shape)) > 1e-10 * scale)
        if failed.size:
            raise SingularOperatorError(
                f"{system.kind} spectral solve failed the residual check on sample {failed[0]}"
            )
        return Field(spec.with_channels(1), u[..., None, :, :])

    # darcy
    if np.min(avals) <= 0:
        raise ValueError("darcy requires strictly positive permeability")
    faces = face_averages(avals, DIRICHLET)
    rhs = np.full(flat_shape, float(system.source))
    op = lambda x: -flux_divergence_faces(faces, x.reshape(avals.shape), h, DIRICHLET).reshape(flat_shape)
    inv_sqrt_a = 1.0 / np.sqrt(avals)
    poisson_inverse = _sine_solver(-lam)
    precondition = lambda r: imul(poisson_inverse(inv_sqrt_a * r.reshape(avals.shape)), inv_sqrt_a).reshape(flat_shape)
    u = _conjugate_gradient(op, rhs, precondition)
    return Field(spec.with_channels(1), u.reshape(avals.shape)[..., None, :, :])


# ---------------------------------------------------------------------------
# Reaction-diffusion time stepping.
# ---------------------------------------------------------------------------


def simulate_rd(system: PdeSystem, diffusion: Field, initial: Field, dt: float, steps: int) -> Field:
    """Explicit-Euler simulation over ``steps`` steps of ``dt``; returns the terminal state.

    ``diffusion`` and ``initial`` are one (species, H, W) field each, or batches of the same
    (..., species, H, W) shape on one grid, whose samples are stepped together; the terminal state
    has the shape of ``initial``. dt must be finite and positive, steps at least 1, diffusion
    nonnegative, and 4 dt max(D) <= h^2. Each step's rate is the kind's stencil (D lap u for
    gray_scott_2; for competitive_3 the flux divergence from face averages of D formed once per
    run) plus :func:`~pgd.residuals.add_reaction`, the kinetics the residual kernel reads. The run
    steps, in place, a species-first (species, ..., H, W) copy of the state that it owns (a copy
    even where the moved view is contiguous); each value takes the same operations in the same
    order as in the (..., species, H, W) layout, so the result is the same bit for bit. One
    finiteness pass per step covers the batch: a non-finite state raises BlowUpError with the step
    and the flat index of the first non-finite sample (0 for a single field) as ``particle``.
    """
    if system.kind not in RD_SPECIES:
        raise ValueError(f"simulate_rd does not handle kind {system.kind!r}")
    spec = initial.spec
    if diffusion.spec != spec:
        raise ValueError(f"diffusion is on {diffusion.spec} but the initial state is on {spec}")
    if spec.boundary != KINDS[system.kind].boundary:
        raise ValueError("reaction-diffusion systems require periodic boundary")
    species = RD_SPECIES[system.kind]
    if spec.channels != species:
        raise ValueError(f"expected {species} diffusion and state channels")
    if diffusion.batch_shape != initial.batch_shape:
        raise ValueError(
            f"diffusion batch {diffusion.batch_shape} does not match initial batch {initial.batch_shape}"
        )
    if not (is_real(dt) and np.isfinite(dt) and dt > 0 and is_count(steps)):
        raise ValueError(f"need a finite dt > 0 and steps >= 1, got dt={dt}, steps={steps}")
    if np.min(diffusion.values) < 0:
        raise ValueError("diffusion must be nonnegative")
    max_d = float(np.max(diffusion.values))
    if 4.0 * dt * max_d > spec.spacing**2:
        raise ValueError(
            f"dt={dt} violates the explicit stability bound 4 dt max(D) <= h^2 "
            f"(max D = {max_d:.3e}, h = {spec.spacing:.3e})"
        )

    h = spec.spacing
    d, state = (np.moveaxis(x.values, -3, 0).copy() for x in (diffusion, initial))
    faces = face_averages(d, PERIODIC) if system.kind == "competitive_3" else None  # once per run
    rows = np.moveaxis(state.reshape(species, -1, spec.height, spec.width), 1, 0)  # samples first, a view
    for step in range(1, steps + 1):
        if faces is None:
            rate = laplacian_2d(state, h, PERIODIC)
            rate *= d
        else:
            rate = flux_divergence_faces(faces, state, h, PERIODIC)
        add_reaction(system, state, rate)
        state += np.multiply(rate, dt, out=rate)
        del rate  # freed before the next step allocates: held, it let glibc trim the heap and refault it
        require_finite(rows, step, "state", unit="sample")
    return Field(spec, np.moveaxis(state, 0, -3))


# ---------------------------------------------------------------------------
# Observations.
# ---------------------------------------------------------------------------


def make_observations(
    x: Field,
    layout: StateLayout,
    n_obs: int,
    sigma_o: float,
    rng: np.random.Generator,
) -> Observations:
    """Sample n_obs cells per group uniformly without replacement; add noise.

    The noise draw is the same standard-normal vector scaled by sigma_o, so
    observation sets produced with the same rng seed differ only by the noise
    level. ``x`` is one state; a batch is rejected.
    """
    if x.batch_shape:
        raise ValueError(f"make_observations takes one state, got a batch of shape {x.batch_shape}")
    if layout.channel_count != x.spec.channels:
        raise ValueError(f"layout covers {layout.channel_count} channels but the state has {x.spec.channels}")
    cells = x.spec.cells
    if not (is_count(n_obs, 0) and n_obs <= cells):
        raise ValueError(f"n_obs must be an integer in 0..{cells}, the cells per channel, got {n_obs!r}")
    idx_a = np.sort(rng.choice(cells, size=n_obs, replace=False))
    idx_u = np.sort(rng.choice(cells, size=n_obs, replace=False))
    mask_a = Mask.from_indices(x.spec, idx_a)
    mask_u = Mask.from_indices(x.spec, idx_u)

    def observed(channels, idx):
        vals = np.stack([x.values[c].reshape(-1)[idx] for c in channels]) if channels else np.zeros((0, n_obs))
        return vals + sigma_o * rng.standard_normal(vals.shape)

    values_a = observed(layout.coeff_channels, idx_a)
    values_u = observed(layout.solution_channels, idx_u)
    return Observations(mask_a, values_a, mask_u, values_u, sigma_o)


# ---------------------------------------------------------------------------
# Dataset assembly.
# ---------------------------------------------------------------------------


def generate_dataset(spec: DatasetSpec) -> list[Field]:
    """The spec's samples (coefficients plus solved or simulated solutions), in index order.

    Each sample's coefficients come from its own stream; the S samples are
    then solved by one :func:`solve_elliptic` or stepped by one
    :func:`simulate_rd` call on an (S, C, H, W) batch, with the per-sample
    checks those functions make.
    """
    kind = spec.system.kind
    coeffs = _draw_coefficients(spec)
    if kind in ELLIPTIC_KINDS:
        solutions = solve_elliptic(spec.system, Field(spec.grid.with_channels(1), coeffs)).values
    else:
        species = RD_SPECIES[kind]
        sub = spec.grid.with_channels(species)
        diffusion = Field(sub, coeffs[:, :species])
        initial = Field(sub, coeffs[:, species:])
        dt = spec.system.horizon / spec.rd_steps  # the data span the interval the residual's time derivative spans
        solutions = simulate_rd(spec.system, diffusion, initial, dt, spec.rd_steps).values
    # each sample owns its values, so a caller keeping one does not keep the batch alive
    return [Field(spec.grid, np.concatenate([c, u])) for c, u in zip(coeffs, solutions)]
