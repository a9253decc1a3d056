"""Uniform 2-D grids, fields, finite-difference stencils and their exact adjoints.

Fields live on an H x W grid of cells with C channels, stored row-major as
(channel, row, col). A field may carry leading batch axes, one per particle
of a population, so its values are (..., C, H, W); every stencil acts on the
last two axes of an (..., H, W) array, where axis 0 is the row axis and
axis 1 the column axis, and maps each leading index independently. Two
boundary rules are supported:

- ``dirichlet_zero``: ghost cells outside the domain are fixed at 0. Cell
  (i, j) sits at coordinates ((i+1)h, (j+1)h), so the ghost ring lies exactly
  on the zero boundary of the (H+1)h x (W+1)h box.
- ``periodic``: indices wrap; cell (i, j) sits at (i h, j h) on a torus of
  side H h (resp. W h).

All stencil operations are linear and pure, and each has an exact adjoint,
so gradients of residual norms can be assembled without automatic
differentiation: the Laplacian and u -> flux_divergence_2d(coef, u) are
symmetric, and the central difference is antisymmetric.

The flux divergence is written in face form: ``face_averages`` gives the
coefficient on the faces, ``face_differences`` the differences of u across
them, and each face flux is formed once for the two cells it separates. The
coefficient adjoint ``face_flux_adjoint_coef`` takes face differences too, so
a caller forms each face array once (darcy's kernel: faces, u's differences).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

DIRICHLET = "dirichlet_zero"
PERIODIC = "periodic"
BOUNDARIES = (DIRICHLET, PERIODIC)


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


@dataclass(frozen=True)
class Field:
    """Multi-channel scalar field on a grid, or a batch of them.

    Values are (C, H, W) float64, or (..., C, H, W) for a batch, C-contiguous
    and finite. An array with more than three axes whose last three are
    (C, H, W) is a batch; any other array of exactly C*H*W values is reshaped
    to one field. Finiteness is checked once for the whole batch. A field is
    the type of the API boundary (datasets, solves, priors, point estimates,
    the public residual); the sampler's inner loop works on plain arrays.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        # C order lets consumers write through reshaped views of the values
        arr = np.ascontiguousarray(self.values, dtype=float)
        shape = (self.spec.channels, self.spec.height, self.spec.width)
        if arr.ndim <= 3 or arr.shape[-3:] != shape:
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
    def from_flat(cls, spec: GridSpec, flat: np.ndarray) -> "Field":
        """Field from (d,) values, or a batch from (..., d) rows, in (channel, row, col) order."""
        flat = np.asarray(flat, dtype=float)
        return cls(spec, flat.reshape(flat.shape[:-1] + (spec.channels, spec.height, spec.width)))

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """Leading batch axes of the values; () for a single field."""
        return self.values.shape[:-3]

    def flat(self) -> np.ndarray:
        """Copy of values flattened in (channel, row, col) order, as (..., d)."""
        return self.values.reshape(self.batch_shape + (-1,)).copy()

    def channel(self, c: int) -> np.ndarray:
        """Channel ``c`` as (..., H, W)."""
        if not 0 <= c < self.spec.channels:
            raise ValueError(f"channel {c} out of range for {self.spec.channels} channels")
        return self.values[..., c, :, :]


@dataclass(frozen=True)
class Mask:
    """Observed cells of a single-channel grid, held as sorted unique flat (row-major) indices."""

    spec: GridSpec
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.spec.channels != 1:
            raise ValueError("mask spec must be single-channel")
        cells = self.spec.cells
        idx = np.asarray(self.indices)
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"mask indices must be integers, got dtype {idx.dtype}")
        if idx.size and not (0 <= idx.min() and idx.max() < cells):
            raise ValueError(f"mask indices must lie in [0, {cells})")
        indicator = np.zeros(cells, dtype=bool)
        indicator[idx.astype(int)] = True
        flat = np.flatnonzero(indicator)
        flat.flags.writeable = False
        object.__setattr__(self, "indices", flat)

    @property
    def count(self) -> int:
        return self.indices.size

    def flat_indices(self) -> np.ndarray:
        """Indices of observed cells in row-major (row, col) order, sorted, unique and read-only."""
        return self.indices

    @classmethod
    def from_indices(cls, spec: GridSpec, indices) -> "Mask":
        """Mask of the cells at the given flat (row-major) indices of ``spec``'s grid, each in [0, H * W)."""
        return cls(spec.with_channels(1), indices)


# ---------------------------------------------------------------------------
# Shift primitives. The point stencils below are compositions of shifts,
# which keeps their adjoints exact: shifting with zero fill transposes to the
# opposite shift, and a periodic shift is a permutation whose transpose is the
# opposite periodic shift.
# ---------------------------------------------------------------------------


_HEAD, _TAIL = slice(None, -1), slice(1, None)  # all lines but the last; all but the first
_FIRST, _LAST, _INNER = slice(None, 1), slice(-1, None), slice(1, -1)


def _axis_slices(axis: int, sl: slice) -> tuple:
    return (Ellipsis, sl, slice(None)) if axis == 0 else (Ellipsis, sl)


def shift(a: np.ndarray, axis: int, step: int, boundary: str) -> np.ndarray:
    """Return b with b[idx] = a[idx + step] along ``axis`` (step in {-1, +1}).

    ``a`` is (..., H, W); axis 0 is the row axis (-2) and axis 1 the column
    axis (-1), so leading batch axes are never mixed. The interior is one
    slice copy; the vacated edge line is filled with the opposite edge of
    ``a`` (periodic) or with zeros. The adjoint is the shift by ``-step``.
    """
    if step not in (-1, 1):
        raise ValueError("step must be -1 or +1")
    body, src, edge, wrap = (_HEAD, _TAIL, _LAST, _FIRST) if step == 1 else (_TAIL, _HEAD, _FIRST, _LAST)
    out = np.empty_like(a)
    out[_axis_slices(axis, body)] = a[_axis_slices(axis, src)]
    out[_axis_slices(axis, edge)] = a[_axis_slices(axis, wrap)] if boundary == PERIODIC else 0.0
    return out


# ---------------------------------------------------------------------------
# Stencils on (..., H, W) arrays.
# ---------------------------------------------------------------------------


def laplacian_2d(a: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """5-point Laplacian (neighbors minus 4x center) / h^2."""
    total = shift(a, 0, 1, boundary)  # summed in place, left to right
    total += shift(a, 0, -1, boundary)
    total += shift(a, 1, 1, boundary)
    total += shift(a, 1, -1, boundary)
    total -= 4.0 * a
    total /= h * h
    return total


def diff_2d(a: np.ndarray, axis: int, h: float, boundary: str) -> np.ndarray:
    """Central difference (a[idx+1] - a[idx-1]) / (2h) along ``axis``."""
    return (shift(a, axis, 1, boundary) - shift(a, axis, -1, boundary)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Face form. Face k along an axis lies between cells k-1 and k, so an
# (..., H, W) array has (..., H+1, W) row faces and (..., H, W+1) column
# faces. On a periodic grid faces 0 and H are one face and hold equal values.
# ---------------------------------------------------------------------------

Faces = tuple[np.ndarray, np.ndarray]  # (row faces, column faces)


def _face_pairs(a: np.ndarray, axis: int, op, boundary: str, edge: bool = False) -> np.ndarray:
    """op(a[k], a[k-1]) on each face k of ``axis``.

    Ghost cells wrap (periodic), copy the edge cell (``edge``) or are zero.
    """
    first, last = _axis_slices(axis, _FIRST), _axis_slices(axis, _LAST)
    low, high = (a[last], a[first]) if boundary == PERIODIC else (a[first], a[last]) if edge else (0.0, 0.0)
    shape = list(a.shape)
    shape[axis - 2] += 1
    out = np.empty(shape)
    op(a[_axis_slices(axis, _TAIL)], a[_axis_slices(axis, _HEAD)], out=out[_axis_slices(axis, _INNER)])
    op(a[first], low, out=out[first])
    op(high, a[last], out=out[last])
    return out


def face_differences(a: np.ndarray, boundary: str) -> Faces:
    """a[k] - a[k-1] on the faces of each axis; ghost values of ``a`` follow the boundary rule."""
    return tuple(_face_pairs(a, axis, np.subtract, boundary) for axis in (0, 1))


def face_averages(coef: np.ndarray, boundary: str) -> Faces:
    """Averages of ``coef`` on the faces of each axis; ghosts copy the edge (dirichlet_zero) or wrap."""
    sums = (_face_pairs(coef, axis, np.add, boundary, edge=True) for axis in (0, 1))
    return tuple(np.multiply(s, 0.5, out=s) for s in sums)


def face_flux_divergence(faces: Faces, du: Faces, h: float) -> np.ndarray:
    """div(coef * grad u) from coef's :func:`face_averages` and u's :func:`face_differences`;
    each face flux is formed once and shared by the two cells it separates."""
    out = np.zeros(du[1].shape[:-1] + du[0].shape[-1:])
    for axis, face, diff in zip((0, 1), faces, du):
        flux = face * diff
        out += flux[_axis_slices(axis, _TAIL)] - flux[_axis_slices(axis, _HEAD)]
    out /= h * h
    return out


def face_flux_adjoint_coef(du: Faces, dw: Faces, h: float, boundary: str) -> np.ndarray:
    """:func:`flux_divergence_2d_adjoint_coef` from u's and w's face differences: the adjoint of
    :func:`face_averages` applied to -(du * dw) / h^2. A dirichlet_zero edge cell also takes the
    ghost half of its boundary face; on a periodic grid face H is face 0, counted once."""
    for axis, (a, b) in enumerate(zip(du, dw)):
        prod = a * b
        term = prod[_axis_slices(axis, _HEAD)] + prod[_axis_slices(axis, _TAIL)]
        if boundary != PERIODIC:
            for edge in (_axis_slices(axis, _FIRST), _axis_slices(axis, _LAST)):
                term[edge] += prod[edge]
        out = term if axis == 0 else np.add(term, out, out=term)
    out *= -0.5 / (h * h)
    return out


def flux_divergence_faces(faces: Faces, u: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """div(coef * grad u) from the face averages of coef given by :func:`face_averages`: the
    face differences of u, scaled into fluxes in place, one axis' worth alive at a time."""
    out = np.zeros(u.shape)
    for axis, face in zip((0, 1), faces):
        flux = _face_pairs(u, axis, np.subtract, boundary)
        flux *= face
        out += flux[_axis_slices(axis, _TAIL)] - flux[_axis_slices(axis, _HEAD)]
    out /= h * h
    return out


def flux_divergence_2d(coef: np.ndarray, u: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """Conservative div(coef * grad u) with arithmetic face averages of coef; bilinear in (coef, u)."""
    return flux_divergence_faces(face_averages(coef, boundary), u, h, boundary)


def flux_divergence_2d_adjoint_coef(u: np.ndarray, w: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """Adjoint in coef of the bilinear map coef -> flux_divergence_2d(coef, u)."""
    return face_flux_adjoint_coef(face_differences(u, boundary), face_differences(w, boundary), h, boundary)
