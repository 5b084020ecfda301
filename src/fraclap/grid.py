"""Periodic-box discretization, spectral transform and quadrature norms.

Conventions (everything else in the package leans on these):

* grid points are x_j = j*h per axis, j = 0..N-1, with spacing h = L/N, so
  the box is the torus [0, L)^dim;
* the forward transform is F(xi) = h^dim * sum_j f(x_j) exp(-2 pi i x_j.xi)
  evaluated at the lattice frequencies xi = m/L, m in [-N/2, N/2); it is
  h^dim * numpy.fft.fftn and approximates the continuum transform with the
  exp(-2 pi i x.xi) convention;
* the inverse is f = ifftn(F) / h^dim, an exact round trip;
* the discrete Parseval identity, exact for this normalization, reads

      h^dim * sum_j |f(x_j)|^2  =  L^(-dim) * sum_m |F(xi_m)|^2,

  i.e. frequency cells carry measure L^(-dim).

Fields are real: a GridFunction holds float64 values and refuses complex
ones, so every coefficient table of a field is Hermitian, F(-xi) = conj(F(xi)).
It adopts a freshly built float64 array without a copy and freezes it.
Frequency and mode tables and periodic displacements are built from 1D
per-axis arrays that broadcast along their own axis (per_axis);
Grid.support_box gives the per-axis index box of a ball, so a compactly
supported field is evaluated there alone.

Balls, annuli and all distances are periodic (minimum image): per axis,
(t % L) - L/2 with t = x - c + L/2, bit for bit but without the float
modulo.  numpy's % is fmod, plus L when the signs differ: on [L, 2L) it is
t - L, exact (Sterbenz), and on [-L, 0) the rounded t + L, which may be L
itself, so both ranges are read from the unwrapped t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

SIZE_GUARD = 2**24


class GridError(ValueError):
    """Invalid grid or mask parameters."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^dim.

    dim must be 1, 2 or 3; points_per_axis a power of two >= 8; the total
    point count must stay below the size guard (2^24 by default).
    """

    dim: int
    points_per_axis: int
    box_length: float = 1.0

    def __post_init__(self):
        n, N, L = self.dim, self.points_per_axis, self.box_length
        if n not in (1, 2, 3):
            raise GridError(f"dim must be 1, 2 or 3, got {n}")
        if N < 8 or (N & (N - 1)) != 0:
            raise GridError(f"points_per_axis must be a power of two >= 8, got {N}")
        if N**n > SIZE_GUARD:
            raise GridError(f"size guard exceeded: {N}^{n} > {SIZE_GUARD}")
        if not (L > 0):
            raise GridError(f"box_length must be positive, got {L}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def npoints(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_measure(self) -> float:
        return self.spacing**self.dim

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * self.spacing

    def coords(self) -> list:
        """Meshgrid coordinate arrays, one per axis (ij indexing)."""
        x = self.axis_coords()
        return list(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def axis_frequencies(self, index=None) -> np.ndarray:
        """Physical frequencies xi = m/L of one axis, in fftfreq order, or at
        the lattice indices `index` (0..N-1) alone.  Formed as
        np.fft.fftfreq(N, h) forms them, the integer m times 1/(N h), so both
        are its bits."""
        N = self.points_per_axis
        m = np.arange(N) if index is None else np.asarray(index)
        return np.where(m < (N + 1) // 2, m, m - N) * (1.0 / (N * self.spacing))

    def _axis_displacements(self, center) -> list:
        """Minimum-image x_a - center_a as 1D arrays, each shaped to
        broadcast along its own axis (N along axis a, 1 elsewhere)."""
        L = self.box_length
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape[0] != self.dim:
            raise GridError(f"center must have {self.dim} components")
        x = self.axis_coords()
        out = []
        for c in center:
            t = x - c
            t += 0.5 * L  # nondecreasing in x: the wrap is a prefix and a suffix
            if -L <= t[0] and t[-1] < 2 * L:  # t % L (module docstring)
                lo, hi = np.searchsorted(t, [0.0, L])
                t[hi:] -= L
                t[:lo] += L
            else:  # a center far outside the box, or NaN
                t %= L
            out.append(np.subtract(t, 0.5 * L, out=t))
        return per_axis(out)

    def support_box(self, center, radius: float) -> tuple:
        """The per-axis index box of grid points with |x_a - center_a| < radius
        on every axis, as (index, disp): vals[index] addresses the box of a
        full-grid array (np.ix_), and disp holds the minimum-image
        x_a - center_a on the box, shaped per_axis.  Every point off the box
        lies at periodic distance >= radius from center.
        """
        axis_disp = [d.ravel() for d in self._axis_displacements(center)]
        box = [np.flatnonzero(np.abs(d) < radius) for d in axis_disp]
        return np.ix_(*box), per_axis([d[i] for d, i in zip(axis_disp, box)])

    def periodic_displacement(self, center) -> list:
        """Signed minimum-image displacement x - center per axis, in [-L/2, L/2).

        Each component is a read-only np.broadcast_to view of shape grid.shape
        over the 1D per-axis displacement; copy it before writing.
        """
        return [np.broadcast_to(d, self.shape) for d in self._axis_displacements(center)]

    def periodic_distance(self, center) -> np.ndarray:
        # squares of the 1D per-axis displacements, summed by broadcasting
        return np.sqrt(sum(d * d for d in self._axis_displacements(center)))

    @property
    def center(self) -> np.ndarray:
        return np.full(self.dim, 0.5 * self.box_length)


def per_axis(arrays) -> list:
    """1D arrays, one per axis, each reshaped to broadcast along its own axis
    (its length along axis a, 1 elsewhere)."""
    dim = len(arrays)
    return [np.reshape(x, [-1 if b == a else 1 for b in range(dim)]) for a, x in enumerate(arrays)]


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1D array without NaN in ascending order,
    each once: np.unique's values, by a sort and an adjacent-difference mask
    (np.unique itself imports numpy.ma)."""
    v = np.sort(values)
    keep = np.ones(v.size, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


@dataclass(frozen=True)
class DomainMask:
    """Boolean field on a grid (ball, annulus, ...)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise GridError("mask shape does not match grid")
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=bool))

    @property
    def npoints(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def measure(self) -> float:
        return self.npoints * self.grid.cell_measure


def _check_same_grid(g1: Grid, g2: Grid):
    if g1 != g2:
        raise GridError("grids differ")


def ball_mask(grid: Grid, center, radius: float) -> DomainMask:
    """Mask of B_radius(center): grid points with periodic distance < radius."""
    vals = grid.periodic_distance(center) < radius
    return DomainMask(grid, vals)


def annulus_mask(grid: Grid, center, r_inner: float, r_outer: float) -> DomainMask:
    """Mask of B_r_outer \\ closure(B_r_inner): r_inner < dist < r_outer."""
    d = grid.periodic_distance(center)
    vals = (d > r_inner) & (d < r_outer)
    return DomainMask(grid, vals)


@dataclass(frozen=True)
class GridFunction:
    """Real field sampled on a periodic grid, stored as float64.

    Values are immutable after construction and must be real and finite
    (complex input is refused, never silently cast).  When a
    support mask is attached, the values must vanish outside it to within
    1e-14 * max|values|.

    A writeable float64 array that owns its data is adopted without a copy
    and frozen in place, so the caller's handle becomes read-only too.  Views,
    read-only arrays and other dtypes are copied.  A view taken of the array
    before construction stays writeable and can still change the values.
    """

    grid: Grid
    values: np.ndarray
    support: Optional[DomainMask] = None

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise GridError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if np.iscomplexobj(v):
            raise GridError("GridFunction values must be real")
        if not (v.dtype == np.float64 and v.flags.owndata and v.flags.writeable):
            v = v.astype(np.float64, copy=True)
        if not (np.isfinite(v.max()) and np.isfinite(v.min())):  # NaN propagates through max
            raise GridError("GridFunction values must be finite")
        if self.support is not None:
            _check_same_grid(self.grid, self.support.grid)
            peak = np.max(np.abs(v)) if v.size else 0.0
            outside = np.abs(v[~self.support.values])
            if outside.size and peak > 0 and np.max(outside) > 1e-14 * peak:
                raise GridError("values do not vanish outside the attached support mask")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            _check_same_grid(self.grid, other.grid)
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * other)

    __rmul__ = __mul__


def transform_forward(f: GridFunction) -> np.ndarray:
    """Spectral coefficient table F(xi) = h^dim * fftn(f) on the frequency lattice."""
    return np.fft.fftn(f.values) * f.grid.cell_measure


def transform_inverse(grid: Grid, coeffs: np.ndarray) -> GridFunction:
    """Inverse of transform_forward for a Hermitian table; the (tiny)
    imaginary residue of the inverse FFT is dropped."""
    return GridFunction(grid, (np.fft.ifftn(coeffs) / grid.cell_measure).real)


def lp_norm(f: GridFunction, p: float, mask: Optional[DomainMask] = None) -> float:
    """Quadrature L^p norm (sum |f|^p h^dim)^(1/p); sup norm for p = inf.

    Masked points only when a mask is given.  Mask monotone and absolutely
    homogeneous by construction.
    """
    if p < 1:
        raise GridError(f"p must be >= 1, got {p}")
    v = np.abs(f.values)
    if mask is not None:
        _check_same_grid(f.grid, mask.grid)
        v = v[mask.values]
    if v.size == 0:
        return 0.0
    if np.isinf(p):
        return float(np.max(v))
    return float(np.sum(v**p) * f.grid.cell_measure) ** (1.0 / p)


_CHUNK = 2**16  # entries of the product formed at once by l2_inner


def _pairwise_dot(a: np.ndarray, b: np.ndarray, scratch: np.ndarray):
    """np.sum(a * b) for 1D a and b, bit for bit, with no product longer
    than scratch: numpy sums a contiguous array pairwise, splitting n
    entries at n/2 rounded down to a multiple of 8 down to blocks of 128, so
    runs of at most len(scratch) >= 128 entries are summed by np.sum and
    their sums are added along the same splits."""
    n = a.size
    if n <= scratch.size:
        prod = np.multiply(a, b, out=scratch[:n])
        return np.sum(prod)
    mid = n // 2 - (n // 2) % 8
    return _pairwise_dot(a[:mid], b[:mid], scratch) + _pairwise_dot(a[mid:], b[mid:], scratch)


def l2_inner(f: GridFunction, g: GridFunction, mask: Optional[DomainMask] = None) -> float:
    """Quadrature inner product sum f*g*h^dim.

    Unmasked, the product is formed in chunks of at most 2^16 entries in one
    scratch array and summed in numpy's pairwise order, so the result is
    np.sum(f.values * g.values) * h^dim bit for bit without a full-grid
    product.
    """
    _check_same_grid(f.grid, g.grid)
    u, v = f.values, g.values
    if mask is not None:
        total = np.sum((u * v)[mask.values])
    elif u.flags.c_contiguous and v.flags.c_contiguous:
        total = _pairwise_dot(u.reshape(-1), v.reshape(-1), np.empty(min(u.size, _CHUNK)))
    else:  # numpy sums another layout in its own memory order
        total = np.sum(u * v)
    return float(total * f.grid.cell_measure)


def spectral_mass_fraction_above(f: GridFunction, mode_cut: float) -> float:
    """Fraction of spectral L^2 mass carried by modes with max-norm > mode_cut."""
    F = transform_forward(f)
    N = f.grid.points_per_axis
    m = (np.fft.fftfreq(N) * N).astype(np.int64)
    hi = np.zeros(f.grid.shape, dtype=bool)
    for m_a in per_axis([m] * f.grid.dim):
        hi |= np.abs(m_a) > mode_cut
    total = np.sum(np.abs(F) ** 2)
    if total == 0:
        return 0.0
    return float(np.sum(np.abs(F[hi]) ** 2) / total)
