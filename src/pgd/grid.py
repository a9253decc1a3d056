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

The flux divergence is written in face form on one layout: ``ghost_lined``
copies an (..., H, W) array once into a C-contiguous (..., H+2, W+2) array,
cell (i, j) at (i+1, j+1) inside a ring of ghost cells. Row face k (between
cells k-1 and k) sits at padded row k and column face j at padded column j, so
a face op over the whole batch is one 1-D ufunc on the flat array and itself
shifted by W+2 or 1, as is the divergence: NumPy runs a ufunc on a sliced
operand at 2-5x the contiguous cost on rows this short. Entries that are no
face (ghost columns of row faces, rows straddling two particles) hold junk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import is_count, is_real

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
        if not (is_count(self.height, 3) and is_count(self.width, 3)):
            raise ValueError(f"grid must be at least 3x3 integer cells, got {self.height}x{self.width}")
        if not is_count(self.channels):
            raise ValueError("channels must be an integer >= 1")
        if not (is_real(self.spacing) and np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError("spacing must be finite and positive")
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
    and finite; any other shape is rejected, and :meth:`from_flat` builds a
    field from flat (..., C*H*W) rows. Finiteness is checked once for the
    whole batch. A field is the type of the API boundary (datasets, solves,
    priors, point estimates, the public residual); the sampler's inner loop
    works on plain arrays.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        # C order lets consumers write through reshaped views of the values
        arr = np.ascontiguousarray(self.values, dtype=float)
        shape = (self.spec.channels, self.spec.height, self.spec.width)
        if arr.shape[-3:] != shape:
            raise ValueError(f"expected values of shape (..., C, H, W) with (C, H, W) = {shape}, got {arr.shape}")
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
    """Observed cells of a single-channel grid as ``indices``: sorted, unique, read-only row-major flat indices."""

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


_FIRST, _LAST = slice(None, 1), slice(-1, None)


def _axis_slices(axis: int, sl: slice) -> tuple:
    return (Ellipsis, sl, slice(None)) if axis == 0 else (Ellipsis, sl)


def shift(a: np.ndarray, axis: int, step: int, boundary: str, out: np.ndarray | None = None) -> np.ndarray:
    """Return b with b[idx] = a[idx + step] along ``axis`` (step in {-1, +1}), in ``out`` if given.

    ``a`` is (..., H, W); axis 0 is the row axis (-2) and axis 1 the column
    axis (-1), so leading batch axes are never mixed. The interior is one flat
    copy of the whole C-contiguous batch, offset by W (rows) or 1 (columns); the
    only lines it fills across a row end or a particle boundary are the vacated
    edge lines, which are then filled with the opposite edge of ``a`` (periodic)
    or with zeros. A strided ``a`` is copied to contiguous first; ``out`` is
    C-contiguous. The adjoint is the shift by ``-step``.
    """
    if step not in (-1, 1):
        raise ValueError("step must be -1 or +1")
    a = np.ascontiguousarray(a)
    out = np.empty_like(a) if out is None else out
    n = a.shape[-1] if axis == 0 else 1  # the flat offset of one line
    ahead, behind = slice(n, None), slice(-n)  # all but the first line's worth of entries; all but the last
    body, src, edge, wrap = (behind, ahead, _LAST, _FIRST) if step == 1 else (ahead, behind, _FIRST, _LAST)
    out.reshape(-1)[body] = a.reshape(-1)[src]
    out[_axis_slices(axis, edge)] = a[_axis_slices(axis, wrap)] if boundary == PERIODIC else 0.0
    return out


# ---------------------------------------------------------------------------
# Stencils on (..., H, W) arrays.
# ---------------------------------------------------------------------------


def laplacian_2d(a: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """5-point Laplacian (neighbors minus 4x center) / h^2."""
    a = np.ascontiguousarray(a)  # copied once here, not in each shift
    total, scratch = shift(a, 0, 1, boundary), np.empty_like(a)
    for axis, step in ((0, -1), (1, 1), (1, -1)):  # summed in place, left to right, through one scratch buffer
        total += shift(a, axis, step, boundary, scratch)
    total -= np.multiply(a, 4.0, out=scratch)
    total /= h * h
    return total


def diff_2d(a: np.ndarray, axis: int, h: float, boundary: str) -> np.ndarray:
    """Central difference (a[idx+1] - a[idx-1]) / (2h) along ``axis``."""
    a = np.ascontiguousarray(a)  # copied once here, not in each shift
    return (shift(a, axis, 1, boundary) - shift(a, axis, -1, boundary)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Face form: face arrays and cell results share the ghost-lined layout.
# ---------------------------------------------------------------------------

Faces = tuple[np.ndarray, np.ndarray]  # (row faces, column faces), ghost-lined


def fill_ghosts(p: np.ndarray, boundary: str, edge: bool = False) -> np.ndarray:
    """Refill the ghost ring of a ghost-lined ``p`` in place, as :func:`ghost_lined` fills it;
    returns ``p``. Columns go first, so the corners are what ``np.pad`` puts there."""
    copy = boundary == PERIODIC or edge
    low, high = (-2, 1) if boundary == PERIODIC else (1, -2)  # the cells a ghost copies
    p[..., 1:-1, 0], p[..., 1:-1, -1] = (p[..., 1:-1, low], p[..., 1:-1, high]) if copy else (0.0, 0.0)
    p[..., 0, :], p[..., -1, :] = (p[..., low, :], p[..., high, :]) if copy else (0.0, 0.0)
    return p


def ghost_lined(a: np.ndarray, boundary: str, edge: bool = False) -> np.ndarray:
    """C-contiguous (..., H+2, W+2) copy of an (..., H, W) array, cell (i, j) at (i+1, j+1), inside
    a ring of ghost cells that wrap (periodic), copy the edge cell (``edge``) or are zero."""
    p = np.empty(a.shape[:-2] + (a.shape[-2] + 2, a.shape[-1] + 2))
    p[..., 1:-1, 1:-1] = a
    return fill_ghosts(p, boundary, edge)


def interior(p: np.ndarray) -> np.ndarray:
    """The (..., H, W) cells of a ghost-lined array, as a view."""
    return p[..., 1:-1, 1:-1]


def _pairs(op, p: np.ndarray) -> Faces:
    """op(p[k], p[k-1]) on the faces of each axis: one flat op shifted by W+2 (rows) or 1 (columns)."""
    flat, out = p.reshape(-1), (np.empty_like(p), np.empty_like(p))
    for f, step in zip((face.reshape(-1) for face in out), (p.shape[-1], 1)):
        op(flat[step:], flat[:-step], out=f[:-step])
        f[-step:] = 0.0  # past the last face: written so that no entry is left unset
    return out


def face_differences(p: np.ndarray) -> Faces:
    """p[k] - p[k-1] on the faces of each axis of a ghost-lined ``p``."""
    return _pairs(np.subtract, p)


def face_averages(coef: np.ndarray, boundary: str) -> Faces:
    """Averages of an (..., H, W) ``coef`` on the faces of each axis; ghosts copy the edge or wrap."""
    return tuple(np.multiply(s, 0.5, out=s) for s in _pairs(np.add, ghost_lined(coef, boundary, edge=True)))


def face_flux_divergence(fluxes: Faces, h: float) -> np.ndarray:
    """div(coef * grad u), ghost-lined, from the fluxes coef's :func:`face_averages` times u's
    :func:`face_differences`: per cell, the flux on its high face minus that on its low face,
    summed over both axes, / h^2. Overwrites the row fluxes."""
    step, out = fluxes[0].shape[-1], np.empty_like(fluxes[0])
    o, rows, cols = (f.reshape(-1) for f in (out, *fluxes))
    o[:step] = 0.0  # the first ghost row has no low row face
    np.subtract(rows[step:], rows[:-step], out=o[step:])
    np.subtract(cols[1:], cols[:-1], out=rows[1:])
    o[step:] += rows[step:]
    o += 0.0  # a sum started at zero: a -0.0 total reads +0.0
    o /= h * h
    return out


def face_flux_adjoint_coef(products: Faces, h: float, boundary: str) -> np.ndarray:
    """:func:`flux_divergence_2d_adjoint_coef`, ghost-lined, from the products du * dw of u's and w's
    :func:`face_differences`: the adjoint of :func:`face_averages` applied to -(du * dw) / h^2. A
    dirichlet_zero edge cell also takes the ghost half of its boundary face; on a periodic grid face
    H is face 0, counted once. Overwrites the row products."""
    (rows, cols), out = products, np.empty_like(products[0])
    step = rows.shape[-1]
    o, r, c = (f.reshape(-1) for f in (out, rows, cols))
    o[:step] = 0.0
    np.add(r[:-step], r[step:], out=o[step:])
    if boundary != PERIODIC:  # edge rows 0 and H - 1 take faces 0 and H again
        out[..., (1, -2), 1:-1] += rows[..., (0, -2), 1:-1]
    np.add(c[:-1], c[1:], out=r[1:])
    if boundary != PERIODIC:
        rows[..., 1:-1, (1, -2)] += cols[..., 1:-1, (0, -2)]
    o[step:] += r[step:]
    o *= -0.5 / (h * h)
    return out


def face_products(a: Faces, b: Faces) -> Faces:
    """a * b on the faces of each axis, in ``b``'s buffers: for a caller that no longer reads ``b``."""
    for x, y in zip(a, b):
        np.multiply(x, y, out=y)
    return b


def flux_divergence_faces(faces: Faces, u: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """div(coef * grad u) on (..., H, W) cells from the face averages of coef given by
    :func:`face_averages`: u's face differences, scaled into fluxes in place."""
    return interior(face_flux_divergence(face_products(faces, face_differences(ghost_lined(u, boundary))), h))


def flux_divergence_2d(coef: np.ndarray, u: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """Conservative div(coef * grad u) with arithmetic face averages of coef; bilinear in (coef, u)."""
    return flux_divergence_faces(face_averages(coef, boundary), u, h, boundary)


def flux_divergence_2d_adjoint_coef(u: np.ndarray, w: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """Adjoint in coef of the bilinear map coef -> flux_divergence_2d(coef, u)."""
    du, dw = (face_differences(ghost_lined(x, boundary)) for x in (u, w))
    return interior(face_flux_adjoint_coef(face_products(du, dw), h, boundary))
