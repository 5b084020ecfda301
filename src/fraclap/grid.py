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

Balls, annuli and all distances are periodic (minimum image).
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

    def axis_frequencies(self) -> np.ndarray:
        """Physical frequencies xi = m/L of one axis, in fftfreq order."""
        return np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def frequencies(self) -> list:
        """Physical frequency arrays xi = m/L per axis, broadcast to shape."""
        f = self.axis_frequencies()
        return list(np.meshgrid(*([f] * self.dim), indexing="ij"))

    def mode_numbers(self) -> list:
        """Integer mode arrays m in [-N/2, N/2) per axis, broadcast to shape."""
        m = np.fft.fftfreq(self.points_per_axis) * self.points_per_axis
        grids = np.meshgrid(*([m] * self.dim), indexing="ij")
        return [g.astype(np.int64) for g in grids]

    def frequency_magnitude(self) -> np.ndarray:
        """|xi| on the lattice; zero exactly at the zero mode only."""
        fs = self.frequencies()
        return np.sqrt(sum(f * f for f in fs))

    def _axis_displacements(self, center) -> list:
        """Minimum-image x_a - center_a as 1D arrays, each shaped to
        broadcast along its own axis (N along axis a, 1 elsewhere)."""
        L = self.box_length
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape[0] != self.dim:
            raise GridError(f"center must have {self.dim} components")
        x = self.axis_coords()
        return per_axis([(x - center[a] + 0.5 * L) % L - 0.5 * L for a in range(self.dim)])

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


@dataclass(frozen=True)
class DomainMask:
    """Boolean field on a grid (ball, annulus, complement, union, ...)."""

    grid: Grid
    values: np.ndarray
    label: str = "mask"

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

    def complement(self) -> "DomainMask":
        return DomainMask(self.grid, ~self.values, f"not({self.label})")

    def union(self, other: "DomainMask") -> "DomainMask":
        _check_same_grid(self.grid, other.grid)
        return DomainMask(self.grid, self.values | other.values, f"({self.label})|({other.label})")

    def intersection(self, other: "DomainMask") -> "DomainMask":
        _check_same_grid(self.grid, other.grid)
        return DomainMask(self.grid, self.values & other.values, f"({self.label})&({other.label})")

    def issubset(self, other: "DomainMask") -> bool:
        return bool(np.all(~self.values | other.values))

    def point_coords(self) -> np.ndarray:
        """(P, dim) coordinates of the masked points."""
        idx = np.nonzero(self.values)
        cols = [self.grid.axis_coords()[i] for i in idx]
        return np.stack(cols, axis=1)


def _check_same_grid(g1: Grid, g2: Grid):
    if g1 != g2:
        raise GridError("grids differ")


def ball_mask(grid: Grid, center, radius: float, label: Optional[str] = None) -> DomainMask:
    """Mask of B_radius(center): grid points with periodic distance < radius."""
    vals = grid.periodic_distance(center) < radius
    return DomainMask(grid, vals, label or f"ball(r={radius:g})")


def annulus_mask(
    grid: Grid, center, r_inner: float, r_outer: float, label: Optional[str] = None
) -> DomainMask:
    """Mask of B_r_outer \\ closure(B_r_inner): r_inner < dist < r_outer."""
    d = grid.periodic_distance(center)
    vals = (d > r_inner) & (d < r_outer)
    return DomainMask(grid, vals, label or f"annulus({r_inner:g},{r_outer:g})")


def full_mask(grid: Grid) -> DomainMask:
    return DomainMask(grid, np.ones(grid.shape, dtype=bool), "full")


@dataclass(frozen=True)
class GridFunction:
    """Real- or complex-valued field sampled on a periodic grid.

    Values are immutable after construction and must be finite.  When a
    support mask is attached, the values must vanish outside it to within
    1e-14 * max|values|.
    """

    grid: Grid
    values: np.ndarray
    support: Optional[DomainMask] = None

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise GridError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.iscomplexobj(v):
            v = v.astype(np.float64, copy=True)
        else:
            v = v.astype(np.complex128, copy=True)
        if not np.all(np.isfinite(v.real)) or (np.iscomplexobj(v) and not np.all(np.isfinite(v.imag))):
            raise GridError("GridFunction values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.support is not None:
            _check_same_grid(self.grid, self.support.grid)
            peak = np.max(np.abs(v)) if v.size else 0.0
            outside = np.abs(v[~self.support.values])
            if outside.size and peak > 0 and np.max(outside) > 1e-14 * peak:
                raise GridError("values do not vanish outside the attached support mask")

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def __add__(self, other):
        if isinstance(other, GridFunction):
            _check_same_grid(self.grid, other.grid)
            return GridFunction(self.grid, self.values + other.values)
        return GridFunction(self.grid, self.values + other)

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            _check_same_grid(self.grid, other.grid)
            return GridFunction(self.grid, self.values - other.values)
        return GridFunction(self.grid, self.values - other)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            _check_same_grid(self.grid, other.grid)
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * other)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    def mean(self) -> float:
        return float(np.mean(self.values.real)) if self.is_real else complex(np.mean(self.values))


def transform_forward(f: GridFunction) -> np.ndarray:
    """Spectral coefficient table F(xi) = h^dim * fftn(f) on the frequency lattice."""
    return np.fft.fftn(f.values) * f.grid.cell_measure


def transform_inverse(grid: Grid, coeffs: np.ndarray, real: bool = True) -> GridFunction:
    """Inverse of transform_forward.  With real=True the (tiny) imaginary
    residue of a Hermitian table is dropped."""
    vals = np.fft.ifftn(coeffs) / grid.cell_measure
    if real:
        vals = vals.real
    return GridFunction(grid, vals)


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


def l2_inner(f: GridFunction, g: GridFunction, mask: Optional[DomainMask] = None) -> float:
    """Quadrature inner product sum f*conj(g)*h^dim (real part for real inputs)."""
    _check_same_grid(f.grid, g.grid)
    prod = f.values * np.conjugate(g.values)
    if mask is not None:
        prod = prod[mask.values]
    out = np.sum(prod) * f.grid.cell_measure
    return float(out.real) if (f.is_real and g.is_real) else complex(out)


def parseval_coefficient_norm(grid: Grid, coeffs: np.ndarray) -> float:
    """Coefficient-side L^2 norm: sqrt(sum |F|^2 * L^-dim).  Equals lp_norm(f, 2)."""
    return float(np.sqrt(np.sum(np.abs(coeffs) ** 2) / grid.box_length**grid.dim))


def spectral_mass_fraction_above(f: GridFunction, mode_cut: float) -> float:
    """Fraction of spectral L^2 mass carried by modes with max-norm > mode_cut."""
    F = transform_forward(f)
    modes = f.grid.mode_numbers()
    hi = np.zeros(f.grid.shape, dtype=bool)
    for m in modes:
        hi |= np.abs(m) > mode_cut
    total = np.sum(np.abs(F) ** 2)
    if total == 0:
        return 0.0
    return float(np.sum(np.abs(F[hi]) ** 2) / total)
