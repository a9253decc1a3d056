"""Ground-truth data generation: elliptic solves, reaction-diffusion time
stepping, random coefficient sampling, sparse observations, and dataset
persistence.

Poisson and helmholtz are solved directly in the sine (DST-I) basis, which
diagonalises the dirichlet-zero 5-point Laplacian; darcy's variable
coefficient has no such basis and is solved by preconditioned conjugate
gradient.

This is the stand-in for an external simulation pipeline: targets are
generated with the same finite-difference discretization used by the residual
operators, so manufactured states satisfy the discrete equations exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BlowUpError, SingularOperatorError, SolverConvergenceError
from .grid import (
    DIRICHLET,
    PERIODIC,
    Field,
    GridSpec,
    Mask,
    flux_divergence_2d,
    laplacian_2d,
    read_field,
    write_field,
)
from .residuals import PdeSystem, StateLayout, default_layout

ELLIPTIC_KINDS = ("poisson", "helmholtz", "darcy")
RD_KINDS = ("gray_scott_2", "competitive_3")


# ---------------------------------------------------------------------------
# Coefficient models and dataset description.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothGrf:
    """Gaussian random field from spectrally filtered white noise, unit variance."""

    length_scale: float = 4.0  # in cells


@dataclass(frozen=True)
class ThresholdedGrf:
    """Two-level thresholding of a smooth GRF (piecewise-constant coefficients)."""

    length_scale: float = 4.0
    low: float = 3.0
    high: float = 12.0


@dataclass(frozen=True)
class Observations:
    """Sparse noisy point observations of the coefficient and solution groups.

    Values are stored one row per channel of the group; the mask is shared by
    all channels within a group.
    """

    mask_a: Mask
    values_a: np.ndarray
    mask_u: Mask
    values_u: np.ndarray
    sigma_o: float

    def __post_init__(self):
        va = np.asarray(self.values_a, dtype=float)
        vu = np.asarray(self.values_u, dtype=float)
        if va.ndim != 2 or va.shape[1] != self.mask_a.count:
            raise ValueError("values_a must be (channels, mask_a.count)")
        if vu.ndim != 2 or vu.shape[1] != self.mask_u.count:
            raise ValueError("values_u must be (channels, mask_u.count)")
        if self.sigma_o < 0:
            raise ValueError("sigma_o must be nonnegative")
        object.__setattr__(self, "values_a", va)
        object.__setattr__(self, "values_u", vu)


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to regenerate a dataset deterministically."""

    system: PdeSystem
    grid: GridSpec
    sample_count: int
    coeff_model: SmoothGrf | ThresholdedGrf = field(default_factory=SmoothGrf)
    rng_seed: int = 0
    rd_dt: float = 1e-3
    rd_steps: int = 1000
    rd_snapshots: int = 10
    rd_diffusion_base: tuple[float, ...] = ()
    rd_diffusion_rel_amp: float = 0.3

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.system.kind in RD_KINDS:
            base = self.rd_diffusion_base or _default_diffusion_base(self.system.kind)
            object.__setattr__(self, "rd_diffusion_base", tuple(float(b) for b in base))
            max_d = max(self.rd_diffusion_base) * (1.0 + self.rd_diffusion_rel_amp)
            limit = self.grid.spacing**2 / (4.0 * max_d)
            if self.rd_dt > limit:
                raise ValueError(
                    f"rd_dt={self.rd_dt} violates the explicit stability bound {limit:.3e}"
                )

    @property
    def layout(self) -> StateLayout:
        return default_layout(self.system.kind)


def _default_diffusion_base(kind: str) -> tuple[float, ...]:
    if kind == "gray_scott_2":
        return (2e-4, 1e-4)
    return (2e-4, 2e-4, 2e-4)


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Independent per-sample stream derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


# ---------------------------------------------------------------------------
# Gaussian random fields.
# ---------------------------------------------------------------------------


def smooth_grf_2d(height: int, width: int, length_scale: float, rng: np.random.Generator) -> np.ndarray:
    """Standardized smooth random field via Gaussian spectral filtering."""
    noise = rng.standard_normal((height, width))
    kr = np.fft.fftfreq(height)[:, None]
    kc = np.fft.fftfreq(width)[None, :]
    filt = np.exp(-2.0 * np.pi**2 * length_scale**2 * (kr**2 + kc**2))
    out = np.fft.ifft2(np.fft.fft2(noise) * filt).real
    out -= out.mean()
    std = out.std()
    if std > 0:
        out /= std
    return out


def sample_coefficients(spec: DatasetSpec, sample_index: int = 0) -> Field:
    """Draw the coefficient portion of one sample; deterministic per (spec, index).

    Elliptic kinds return the single coefficient channel. Reaction-diffusion
    kinds return (diffusion fields, initial states): diffusion coefficients
    are positive smooth fields around the per-species base values, and
    initial states follow patch recipes with additive Gaussian noise of
    standard deviation 0.01.
    """
    rng = sample_stream(spec.rng_seed, sample_index)
    h, w = spec.grid.height, spec.grid.width
    kind = spec.system.kind
    model = spec.coeff_model

    if kind in ELLIPTIC_KINDS:
        g = smooth_grf_2d(h, w, model.length_scale, rng)
        if isinstance(model, ThresholdedGrf):
            vals = np.where(g >= 0.0, model.high, model.low)
        else:
            vals = g
        out_spec = GridSpec(h, w, 1, spec.grid.spacing, spec.grid.boundary)
        return Field(out_spec, vals[None])

    if kind in RD_KINDS:
        species = 2 if kind == "gray_scott_2" else 3
        diff = np.stack(
            [
                spec.rd_diffusion_base[s]
                * (1.0 + spec.rd_diffusion_rel_amp * smooth_grf_2d(h, w, model.length_scale, rng))
                for s in range(species)
            ]
        )
        init = _rd_initial_state(kind, h, w, rng)
        out_spec = GridSpec(h, w, 2 * species, spec.grid.spacing, spec.grid.boundary)
        return Field(out_spec, np.concatenate([diff, init]))

    raise ValueError(f"no coefficient model for kind {kind!r}")


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


def _conjugate_gradient(apply_op, rhs, diag, tol_rel=1e-10, max_iter=None):
    """Jacobi-preconditioned CG for SPD operators on flattened grids."""
    n = rhs.size
    max_iter = max_iter if max_iter is not None else 10 * n
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return x
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol_rel * rhs_norm:
            return x
        ap = apply_op(p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol_rel * rhs_norm:
            return x
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverConvergenceError(
        f"conjugate gradient did not reach {tol_rel:g} relative residual in {max_iter} iterations"
    )


def _sine_basis(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix; symmetric and its own inverse."""
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))


def _dirichlet_laplacian_eigenvalues(height: int, width: int, h: float) -> np.ndarray:
    """(height, width) eigenvalues of the dirichlet-zero 5-point Laplacian in the sine basis."""
    p = np.arange(1, height + 1)
    q = np.arange(1, width + 1)
    er = -4.0 / h**2 * np.sin(p * np.pi / (2 * (height + 1))) ** 2
    ec = -4.0 / h**2 * np.sin(q * np.pi / (2 * (width + 1))) ** 2
    return er[:, None] + ec[None, :]


def solve_elliptic(system: PdeSystem, a: Field) -> Field:
    """Solve the discrete elliptic problem for the solution field u.

    poisson and helmholtz: lap u + k^2 u = a (k = 0 for poisson), solved
    exactly in the sine basis that diagonalises the dirichlet-zero Laplacian,
    u = S_H ((S_H a S_W) / (lambda + k^2)) S_W. A near-zero eigenvalue raises
    SingularOperatorError, as does a relative residual above 1e-10.
    darcy: -div(a grad u) = source with a > 0 (Jacobi-preconditioned
    conjugate gradient).
    """
    if system.kind not in ELLIPTIC_KINDS:
        raise ValueError(f"solve_elliptic does not handle kind {system.kind!r}")
    spec = a.spec
    if spec.boundary != DIRICHLET:
        raise ValueError("elliptic solves require dirichlet_zero boundary")
    h = spec.spacing
    avals = a.channel(0)
    shape = avals.shape

    if system.kind != "darcy":
        k2 = system.k_wave**2
        lam = _dirichlet_laplacian_eigenvalues(spec.height, spec.width, h)
        if np.min(np.abs(lam + k2)) < 1e-12 * np.max(np.abs(lam)):
            raise SingularOperatorError(
                f"{system.kind} operator is singular at k_wave={system.k_wave}"
            )
        s_h, s_w = _sine_basis(spec.height), _sine_basis(spec.width)
        u = s_h @ ((s_h @ avals @ s_w) / (lam + k2)) @ s_w
        res = laplacian_2d(u, h, DIRICHLET) + k2 * u - avals
        if np.linalg.norm(res) > 1e-10 * max(np.linalg.norm(avals), 1e-300):
            raise SingularOperatorError(f"{system.kind} spectral solve failed the residual check")
        return Field(spec.with_channels(1), u[None])

    # darcy
    if np.min(avals) <= 0:
        raise ValueError("darcy requires strictly positive permeability")
    rhs = np.full(spec.cells, float(system.source))
    from .grid import shift  # local import keeps module surface tidy

    diag2d = np.zeros(shape)
    for axis in (0, 1):
        diag2d += 0.5 * (avals + shift(avals, axis, 1, DIRICHLET, fill="edge"))
        diag2d += 0.5 * (avals + shift(avals, axis, -1, DIRICHLET, fill="edge"))
    diag = (diag2d / h**2).reshape(-1)
    op = lambda x: -flux_divergence_2d(avals, x.reshape(shape), h, DIRICHLET).reshape(-1)
    u = _conjugate_gradient(op, rhs, diag)
    return Field(spec.with_channels(1), u.reshape(1, *shape))


# ---------------------------------------------------------------------------
# Reaction-diffusion time stepping.
# ---------------------------------------------------------------------------


def simulate_rd(
    system: PdeSystem,
    diffusion: Field,
    initial: Field,
    dt: float,
    steps: int,
    snapshot_count: int = 10,
) -> list[Field]:
    """Explicit-Euler simulation; returns evenly spaced snapshots incl. endpoints."""
    if system.kind not in RD_KINDS:
        raise ValueError(f"simulate_rd does not handle kind {system.kind!r}")
    spec = initial.spec
    if spec.boundary != PERIODIC:
        raise ValueError("reaction-diffusion systems require periodic boundary")
    species = 2 if system.kind == "gray_scott_2" else 3
    if diffusion.spec.channels != species or initial.spec.channels != species:
        raise ValueError(f"expected {species} diffusion and state channels")
    h = spec.spacing
    dmax = float(np.max(diffusion.values))
    if dt > h**2 / (4.0 * dmax):
        raise ValueError(f"dt={dt} violates the explicit stability bound {h**2 / (4 * dmax):.3e}")
    if snapshot_count < 2:
        raise ValueError("need at least the initial and terminal snapshots")

    record_at = set(np.round(np.linspace(0, steps, snapshot_count)).astype(int))
    state = initial.values.copy()
    dvals = diffusion.values
    snapshots = []
    if 0 in record_at:
        snapshots.append(Field(spec, state.copy()))

    for step in range(1, steps + 1):
        state = state + dt * _rd_rate(system, dvals, state, h)
        if not np.all(np.isfinite(state)):
            raise BlowUpError(f"non-finite state at step {step}", step=step)
        if step in record_at:
            snapshots.append(Field(spec, state.copy()))
    return snapshots


def _rd_rate(system: PdeSystem, dvals: np.ndarray, state: np.ndarray, h: float) -> np.ndarray:
    if system.kind == "gray_scott_2":
        u, v = state
        uvv = u * v * v
        du = dvals[0] * laplacian_2d(u, h, PERIODIC) - uvv + system.feed * (1.0 - u)
        dv = dvals[1] * laplacian_2d(v, h, PERIODIC) + uvv - (system.feed + system.removal) * v
        return np.stack([du, dv])
    mat = system.coupling_matrix
    rates = []
    for i in range(3):
        others = sum(mat[i, j] * state[j] for j in range(3) if j != i)
        rates.append(
            flux_divergence_2d(dvals[i], state[i], h, PERIODIC)
            + state[i] * (1.0 - state[i] - others)
        )
    return np.stack(rates)


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
    level.
    """
    cells = x.spec.cells
    if n_obs > cells:
        raise ValueError(f"n_obs={n_obs} exceeds the {cells} cells per channel")
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
# Dataset assembly and persistence.
# ---------------------------------------------------------------------------


def generate_sample(spec: DatasetSpec, sample_index: int) -> Field:
    """One full state sample (coefficients plus solved/simulated solutions)."""
    kind = spec.system.kind
    coeff = sample_coefficients(spec, sample_index)
    if kind in ELLIPTIC_KINDS:
        a = coeff
        if kind == "darcy" and not isinstance(spec.coeff_model, ThresholdedGrf):
            # keep permeability positive for smooth models
            a = Field(a.spec, np.exp(0.5 * a.values))
        u = solve_elliptic(spec.system, a)
        state = np.concatenate([a.values, u.values])
        return Field(spec.grid, state)
    species = 2 if kind == "gray_scott_2" else 3
    sub = GridSpec(spec.grid.height, spec.grid.width, species, spec.grid.spacing, spec.grid.boundary)
    diffusion = Field(sub, coeff.values[:species])
    initial = Field(sub, coeff.values[species:])
    traj = simulate_rd(spec.system, diffusion, initial, spec.rd_dt, spec.rd_steps, spec.rd_snapshots)
    state = np.concatenate([diffusion.values, initial.values, traj[-1].values])
    return Field(spec.grid, state)


def generate_dataset(spec: DatasetSpec, out_dir: str | Path | None = None) -> list[Field]:
    samples = [generate_sample(spec, i) for i in range(spec.sample_count)]
    if out_dir is not None:
        save_dataset(spec, samples, out_dir)
    return samples


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dataset_spec_dict(spec: DatasetSpec) -> dict:
    sys_d = {
        "kind": spec.system.kind,
        "source": spec.system.source,
        "k_wave": spec.system.k_wave,
        "feed": spec.system.feed,
        "removal": spec.system.removal,
        "horizon": spec.system.horizon,
        "coupling": spec.system.coupling,
    }
    return {
        "system": sys_d,
        "grid": {
            "height": spec.grid.height,
            "width": spec.grid.width,
            "channels": spec.grid.channels,
            "spacing": spec.grid.spacing,
            "boundary": spec.grid.boundary,
        },
        "sample_count": spec.sample_count,
        "coeff_model": {
            "type": type(spec.coeff_model).__name__,
            **spec.coeff_model.__dict__,
        },
        "rng_seed": spec.rng_seed,
        "rd_dt": spec.rd_dt,
        "rd_steps": spec.rd_steps,
        "rd_snapshots": spec.rd_snapshots,
        "rd_diffusion_base": list(spec.rd_diffusion_base),
        "rd_diffusion_rel_amp": spec.rd_diffusion_rel_amp,
    }


def save_dataset(spec: DatasetSpec, samples: list[Field], out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, sample in enumerate(samples):
        name = f"sample_{i:05d}.pgdf"
        write_field(sample, out / name)
        entries.append({"index": i, "file": name, "sha256": _file_sha256(out / name)})
    manifest = {"spec": dataset_spec_dict(spec), "seed": spec.rng_seed, "files": entries}
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_dataset(out_dir: str | Path) -> tuple[dict, list[Field]]:
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    samples = []
    for entry in manifest["files"]:
        path = out / entry["file"]
        if _file_sha256(path) != entry["sha256"]:
            raise ValueError(f"{path}: digest mismatch against manifest")
        samples.append(read_field(path))
    return manifest, samples
