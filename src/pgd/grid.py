"""Uniform 2-D grids, fields, finite-difference stencils and their exact adjoints.

Fields live on an H x W grid of cells with C channels, stored row-major as
(channel, row, col). Two boundary rules are supported:

- ``dirichlet_zero``: ghost cells outside the domain are fixed at 0. Cell
  (i, j) sits at coordinates ((i+1)h, (j+1)h), so the ghost ring lies exactly
  on the zero boundary of the (H+1)h x (W+1)h box.
- ``periodic``: indices wrap; cell (i, j) sits at (i h, j h) on a torus of
  side H h (resp. W h).

All stencil operations are linear and pure; every stencil registered here has
an exact adjoint so that gradients of residual norms can be assembled without
automatic differentiation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

DIRICHLET = "dirichlet_zero"
PERIODIC = "periodic"
BOUNDARIES = (DIRICHLET, PERIODIC)

_BOUNDARY_CODES = {DIRICHLET: 0, PERIODIC: 1}
_BOUNDARY_NAMES = {v: k for k, v in _BOUNDARY_CODES.items()}

PGDF_MAGIC = b"PGDF"
PGDF_VERSION = 1
_PGDF_HEADER = struct.Struct("<4sIIIIdB")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform grid: cell counts, channels, spacing, boundary rule."""

    height: int
    width: int
    channels: int = 1
    spacing: float = 1.0
    boundary: str = DIRICHLET

    def __post_init__(self):
        if self.height < 3 or self.width < 3:
            raise ValueError(f"grid must be at least 3x3, got {self.height}x{self.width}")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}, expected one of {BOUNDARIES}")

    @property
    def cells(self) -> int:
        return self.height * self.width

    @property
    def size(self) -> int:
        return self.height * self.width * self.channels

    def with_channels(self, channels: int) -> "GridSpec":
        return replace(self, channels=channels)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Physical coordinates of cell centers along one axis."""
        n = self.height if axis == 0 else self.width
        idx = np.arange(n, dtype=float)
        if self.boundary == DIRICHLET:
            return (idx + 1.0) * self.spacing
        return idx * self.spacing

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (rows, cols) of cell-center coordinates, each (H, W)."""
        r = self.axis_coords(0)
        c = self.axis_coords(1)
        return np.meshgrid(r, c, indexing="ij")


@dataclass(frozen=True)
class Field:
    """Multi-channel scalar field on a grid. Values are (C, H, W) float64, finite."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        shape = (self.spec.channels, self.spec.height, self.spec.width)
        if arr.size != self.spec.size:
            raise ValueError(f"expected {self.spec.size} values, got {arr.size}")
        arr = arr.reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, spec: GridSpec) -> "Field":
        return cls(spec, np.zeros((spec.channels, spec.height, spec.width)))

    @classmethod
    def constant(cls, spec: GridSpec, value: float) -> "Field":
        return cls(spec, np.full((spec.channels, spec.height, spec.width), float(value)))

    @classmethod
    def from_flat(cls, spec: GridSpec, flat: np.ndarray) -> "Field":
        return cls(spec, np.asarray(flat, dtype=float).reshape(spec.channels, spec.height, spec.width))

    def flat(self) -> np.ndarray:
        """Copy of values flattened in (channel, row, col) order."""
        return self.values.reshape(-1).copy()

    def channel(self, c: int) -> np.ndarray:
        if not 0 <= c < self.spec.channels:
            raise ValueError(f"channel {c} out of range for {self.spec.channels} channels")
        return self.values[c]

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.spec, values)


@dataclass(frozen=True)
class Mask:
    """Binary observation mask over the cells of a single-channel grid."""

    spec: GridSpec
    indicator: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.spec.channels != 1:
            raise ValueError("mask spec must be single-channel")
        ind = np.asarray(self.indicator)
        if ind.shape != (self.spec.height, self.spec.width):
            raise ValueError("indicator shape must be (H, W)")
        if not np.isin(ind, (0, 1)).all():
            raise ValueError("indicator entries must be 0 or 1")
        object.__setattr__(self, "indicator", ind.astype(np.uint8))

    @property
    def count(self) -> int:
        return int(self.indicator.sum())

    def flat_indices(self) -> np.ndarray:
        """Indices of observed cells in row-major (row, col) order."""
        return np.flatnonzero(self.indicator.reshape(-1))

    @classmethod
    def from_indices(cls, spec: GridSpec, indices: np.ndarray) -> "Mask":
        ind = np.zeros(spec.height * spec.width, dtype=np.uint8)
        ind[np.asarray(indices, dtype=int)] = 1
        return cls(spec.with_channels(1), ind.reshape(spec.height, spec.width))


# ---------------------------------------------------------------------------
# Shift primitives. All stencils below are compositions of these, which keeps
# the adjoints exact: shifting with zero fill transposes to the opposite
# shift, periodic rolls are orthogonal, and edge-replication transposes to a
# zero-fill shift plus an edge correction.
# ---------------------------------------------------------------------------


def _axis_slices(axis: int, sl: slice) -> tuple:
    return (sl, slice(None)) if axis == 0 else (slice(None), sl)


def shift(a: np.ndarray, axis: int, step: int, boundary: str, fill: str = "zero") -> np.ndarray:
    """Return b with b[idx] = a[idx + step] along ``axis`` (step in {-1, +1})."""
    if step not in (-1, 1):
        raise ValueError("step must be -1 or +1")
    if boundary == PERIODIC:
        return np.roll(a, -step, axis=axis)
    out = np.empty_like(a)
    if step == 1:
        out[_axis_slices(axis, slice(None, -1))] = a[_axis_slices(axis, slice(1, None))]
        edge = a[_axis_slices(axis, slice(-1, None))] if fill == "edge" else 0.0
        out[_axis_slices(axis, slice(-1, None))] = edge
    else:
        out[_axis_slices(axis, slice(1, None))] = a[_axis_slices(axis, slice(None, -1))]
        edge = a[_axis_slices(axis, slice(None, 1))] if fill == "edge" else 0.0
        out[_axis_slices(axis, slice(None, 1))] = edge
    return out


def shift_adjoint(g: np.ndarray, axis: int, step: int, boundary: str, fill: str = "zero") -> np.ndarray:
    """Adjoint of :func:`shift` with the same (axis, step, boundary, fill)."""
    if boundary == PERIODIC:
        return np.roll(g, step, axis=axis)
    out = shift(g, axis, -step, boundary, fill="zero")
    if fill == "edge":
        out = out.copy()
        if step == 1:
            sl = _axis_slices(axis, slice(-1, None))
        else:
            sl = _axis_slices(axis, slice(None, 1))
        out[sl] += g[sl]
    return out


# ---------------------------------------------------------------------------
# Stencils on 2-D arrays.
# ---------------------------------------------------------------------------


def laplacian_2d(a: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """5-point Laplacian (neighbors minus 4x center) / h^2."""
    total = (
        shift(a, 0, 1, boundary)
        + shift(a, 0, -1, boundary)
        + shift(a, 1, 1, boundary)
        + shift(a, 1, -1, boundary)
        - 4.0 * a
    )
    return total / (h * h)


def diff_2d(a: np.ndarray, axis: int, h: float, boundary: str) -> np.ndarray:
    """Central difference (a[idx+1] - a[idx-1]) / (2h) along ``axis``."""
    return (shift(a, axis, 1, boundary) - shift(a, axis, -1, boundary)) / (2.0 * h)


def diff_2d_adjoint(g: np.ndarray, axis: int, h: float, boundary: str) -> np.ndarray:
    """Adjoint of :func:`diff_2d`; equals its negative for both boundary rules."""
    return -diff_2d(g, axis, h, boundary)


def flux_divergence_2d(coef: np.ndarray, u: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """Conservative div(coef * grad u) with arithmetic face averages of coef.

    Ghost values of u follow the boundary rule (zero for dirichlet_zero);
    ghost values of coef are replicated from the nearest interior cell, which
    keeps the operator bilinear in (coef, u).
    """
    out = np.zeros_like(u)
    for axis in (0, 1):
        c_plus = 0.5 * (coef + shift(coef, axis, 1, boundary, fill="edge"))
        c_minus = 0.5 * (coef + shift(coef, axis, -1, boundary, fill="edge"))
        d_plus = shift(u, axis, 1, boundary) - u
        d_minus = u - shift(u, axis, -1, boundary)
        out += c_plus * d_plus - c_minus * d_minus
    return out / (h * h)


def flux_divergence_2d_adjoint_u(coef: np.ndarray, w: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """Adjoint in u of u -> flux_divergence_2d(coef, u); the operator is symmetric."""
    return flux_divergence_2d(coef, w, h, boundary)


def flux_divergence_2d_adjoint_coef(u: np.ndarray, w: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """Adjoint in coef of the bilinear map coef -> flux_divergence_2d(coef, u)."""
    out = np.zeros_like(u)
    for axis in (0, 1):
        g_plus = (shift(u, axis, 1, boundary) - u) * w
        g_minus = (u - shift(u, axis, -1, boundary)) * w
        out += 0.5 * (g_plus + shift_adjoint(g_plus, axis, 1, boundary, fill="edge"))
        out -= 0.5 * (g_minus + shift_adjoint(g_minus, axis, -1, boundary, fill="edge"))
    return out / (h * h)


# ---------------------------------------------------------------------------
# Field-level operations and the stencil registry.
# ---------------------------------------------------------------------------


def _single(spec: GridSpec, arr: np.ndarray) -> Field:
    return Field(spec.with_channels(1), arr[None])


def laplacian(f: Field, channel: int = 0) -> Field:
    """Discrete Laplacian of one channel under the field's boundary rule."""
    a = f.channel(channel)
    return _single(f.spec, laplacian_2d(a, f.spec.spacing, f.spec.boundary))


def gradient(f: Field, channel: int = 0) -> tuple[Field, Field]:
    """Central-difference gradient of one channel: (d/d row-axis, d/d col-axis)."""
    a = f.channel(channel)
    h, b = f.spec.spacing, f.spec.boundary
    return _single(f.spec, diff_2d(a, 0, h, b)), _single(f.spec, diff_2d(a, 1, h, b))


def divergence(g_row: Field, g_col: Field) -> Field:
    """Central-difference divergence, the adjoint-consistent pair of :func:`gradient`."""
    if g_row.spec != g_col.spec:
        raise ValueError("divergence components must share a grid spec")
    h, b = g_row.spec.spacing, g_row.spec.boundary
    out = diff_2d(g_row.channel(0), 0, h, b) + diff_2d(g_col.channel(0), 1, h, b)
    return _single(g_row.spec, out)


_STENCILS = {
    "laplacian": (
        lambda a, h, b: laplacian_2d(a, h, b),
        lambda a, h, b: laplacian_2d(a, h, b),  # symmetric
    ),
    "grad_row": (
        lambda a, h, b: diff_2d(a, 0, h, b),
        lambda a, h, b: diff_2d_adjoint(a, 0, h, b),
    ),
    "grad_col": (
        lambda a, h, b: diff_2d(a, 1, h, b),
        lambda a, h, b: diff_2d_adjoint(a, 1, h, b),
    ),
}


def stencil_tags() -> tuple[str, ...]:
    return tuple(_STENCILS)


def _stencil(op_tag: str):
    try:
        return _STENCILS[op_tag]
    except KeyError:
        raise ValueError(f"unknown stencil {op_tag!r}; registered: {sorted(_STENCILS)}") from None


def stencil_apply(op_tag: str, f: Field) -> Field:
    """Apply a registered stencil channel-wise."""
    fwd, _ = _stencil(op_tag)
    out = np.stack([fwd(f.values[c], f.spec.spacing, f.spec.boundary) for c in range(f.spec.channels)])
    return Field(f.spec, out)


def stencil_adjoint_apply(op_tag: str, f: Field) -> Field:
    """Apply the exact transpose of a registered stencil channel-wise."""
    _, adj = _stencil(op_tag)
    out = np.stack([adj(f.values[c], f.spec.spacing, f.spec.boundary) for c in range(f.spec.channels)])
    return Field(f.spec, out)


# ---------------------------------------------------------------------------
# Serialization: flat binary PGDF format.
# ---------------------------------------------------------------------------


def write_field(f: Field, path) -> None:
    """Write a field in the PGDF binary format (header + little-endian f64)."""
    header = _PGDF_HEADER.pack(
        PGDF_MAGIC,
        PGDF_VERSION,
        f.spec.height,
        f.spec.width,
        f.spec.channels,
        f.spec.spacing,
        _BOUNDARY_CODES[f.spec.boundary],
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(f.values.astype("<f8").tobytes())


def read_field(path) -> Field:
    with open(path, "rb") as fh:
        raw = fh.read(_PGDF_HEADER.size)
        if len(raw) != _PGDF_HEADER.size:
            raise ValueError(f"{path}: truncated PGDF header")
        magic, version, height, width, channels, spacing, bcode = _PGDF_HEADER.unpack(raw)
        if magic != PGDF_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != PGDF_VERSION:
            raise ValueError(f"{path}: unsupported PGDF version {version}")
        if bcode not in _BOUNDARY_NAMES:
            raise ValueError(f"{path}: unknown boundary code {bcode}")
        spec = GridSpec(height, width, channels, spacing, _BOUNDARY_NAMES[bcode])
        data = np.frombuffer(fh.read(8 * spec.size), dtype="<f8")
        if data.size != spec.size:
            raise ValueError(f"{path}: truncated PGDF payload")
    return Field.from_flat(spec, data)

