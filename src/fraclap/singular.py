"""Real-space (singular integral) forms of the fractional Laplacian.

The pointwise quadrature uses the symmetric second-difference form

    Lap^s f(x) ~ c_{n,s} * 1/2 * sum_z (2 f(x) - f(x+z) - f(x-z)) K(z) h^n

with K the periodized kernel sum_k |z + L k|^(-n-s), summed exactly over
the whole lattice by an Ewald split (see ``periodized_kernel``) and memoized
per (grid, order): the functions here read that one read-only table and take
no kernel argument.
The constant c_{n,s} is never taken from a formula: it is calibrated once
against the spectral operator on the reference eigenfunction cos(2 pi x_1/L)
and must then transfer to other functions, which is what the tests check.

Orientation note: the quadrature is written with 2f(x) - f(x+z) - f(x-z),
the sign that makes the calibrated constant positive and the quadratic form
positive semidefinite; the equivalent first-difference orientation printed
in some references is its negative and is exercised in the sign-structure
tests via ``raw_second_difference``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .grid import DomainMask, Grid, GridFunction, lp_norm, per_axis, sorted_distinct
from .multipliers import _conjugate_symmetrize, abs_power_symbol, derivative_tensor, frac_laplacian

# Pair sums are exact over every masked point and no longer use these caps;
# only the benchmark's tracing hooks still read them.
PAIR_SUM_CAPS = {1: 2**13, 2: 2**12, 3: 2**11}


class SingularError(ValueError):
    pass


def _validate_order(s: float) -> None:
    if not (0 < s < 2):
        raise SingularError(f"singular quadrature needs s in (0,2), got {s}")


@dataclass(frozen=True)
class CalibratedConstant:
    """An empirically fixed constant with its provenance."""

    name: str
    value: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value > 0):
            raise SingularError(f"calibrated constant {self.name} must be finite positive")


# Ewald splitting parameter eta = _EWALD_ETA_L / L.  Both parts of the split
# are dropped where their incomplete-gamma argument reaches _EWALD_CUT
# (e^-40 ~ 4e-18); at eta L = 8 the real-space part then needs only the 3^n
# nearest images and the Fourier part |k_j| <= 17.  A larger eta L moves work
# from real to Fourier space but loses accuracy at far offsets, where the
# Fourier part carries the value (1D, s = 1.9: 2e-14 relative at eta L = 8,
# 5e-13 at 16).
_EWALD_ETA_L = 8.0
_EWALD_CUT = 40.0
_CF_TERMS = 50
_SERIES_TERMS = 40
_GAMMA_CHUNK = 2**14


def upper_gamma(a: float, x) -> np.ndarray:
    """Upper incomplete gamma Gamma(a, x) for a in (-1, 0) or (0, 3) and x > 0,
    elementwise.

    A power series for x < max(a, 0) + 1.5, a fixed-length modified Lentz
    continued fraction beyond; for a < 0 the series side uses the recurrence
    Gamma(a, x) = (Gamma(a+1, x) - x^a e^-x) / a.  A long input goes through
    in chunks, so the half-dozen temporaries stay small on a whole grid.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    if x.size > _GAMMA_CHUNK:
        for i in range(0, x.size, _GAMMA_CHUNK):
            out.flat[i : i + _GAMMA_CHUNK] = upper_gamma(a, x.flat[i : i + _GAMMA_CHUNK])
        return out
    big = x >= max(a, 0.0) + 1.5
    xb = x[big]
    b = xb + (1.0 - a)
    c = np.full_like(xb, 1e300)
    d = 1.0 / b
    cf = d.copy()
    for i in range(1, _CF_TERMS):  # in place
        an = -i * (i - a)
        b += 2.0
        d *= an
        d += b
        np.reciprocal(d, out=d)  # d = 1 / (an d + b)
        np.divide(an, c, out=c)
        c += b  # c = b + an / c
        cf *= d
        cf *= c
    cf *= xb**a
    cf *= np.exp(-xb)
    out[big] = cf
    xs = x[~big]
    a_s = a if a > 0 else a + 1.0
    term = np.full_like(xs, 1.0 / a_s)
    series = term.copy()
    for k in range(1, _SERIES_TERMS):
        term *= xs / (a_s + k)
        series += term
    lower = series * xs**a_s * np.exp(-xs)  # gamma(a_s, x)
    if a > 0:
        out[~big] = math.gamma(a) - lower
    else:
        out[~big] = (math.gamma(a_s) - lower - xs**a * np.exp(-xs)) / a
    return out


@functools.lru_cache(maxsize=1)
def periodized_kernel(grid: Grid, s: float) -> np.ndarray:
    """Kernel table K(z) h^dim with K(z) = sum_k |z + L k|^(-p), p = dim + s.

    The lattice sum is exact to roundoff, by the Ewald split of
    Gamma(p/2) |x|^-p = int_0^inf t^(p/2-1) e^(-t|x|^2) dt at t = eta^2:
    the short-range part Gamma(p/2, eta^2 |x|^2) |x|^-p is summed in real
    space over the 3^dim nearest images, and the lattice sum of the
    long-range part is, by Poisson summation, the Fourier series
    sum_xi F(xi) e^(2 pi i xi.z) over xi = k/L with
    F(xi) = pi^(dim/2) eta^s L^-dim y^(s/2) Gamma(-s/2, y), y = pi^2 |xi|^2 / eta^2
    (2/s at xi = 0).  Frequencies are folded onto the grid modulo N, so one
    inverse FFT sums them exactly on any grid size.
    The z = 0 cell carries 0; every other offset is at distance >= h and
    carries a positive value.

    |x|^2 of an image is the sum, in axis order, of its per-axis squared
    displacements, and every axis takes its values from the same 3N, so the
    short-range part is tabulated once per tuple of distinct per-axis values
    within the cut, evaluated once per distinct sum |x|^2 among them, and
    gathered for each image: the per-image sum bit for bit, with fewer
    incomplete-gamma evaluations (0.79 instead of 1.58 per grid point in 1D
    at 65536 points, 0.16 instead of 1.96 in 2D at 256^2, 0.016 instead of
    2.07 in 3D at 32^3, on a box of side 1).

    The last table built is memoized per (grid, s) and returned read-only;
    ``periodized_kernel.cache_clear()`` drops it.
    """
    _validate_order(s)
    n, N, L, h = grid.dim, grid.points_per_axis, grid.box_length, grid.spacing
    p = n + s
    eta = _EWALD_ETA_L / L
    ax = np.arange(N) * h
    ax = np.where(ax > 0.5 * L, ax - L, ax)  # minimum-image representative
    # The real-space term depends on the image's per-axis squared
    # displacements alone, summed in axis order: tabulate it once for each
    # tuple of distinct ones within the cut (0 past it and at r = 0), then
    # gather it for each image and add the images in turn.
    eta2 = eta * eta
    offsets = (-L, 0.0, L)
    squares = ((ax + o) * (ax + o) for o in offsets)
    u = sorted_distinct(np.concatenate([q[eta2 * q < _EWALD_CUT] for q in squares]))
    r2 = sum(per_axis([u] * n))
    near = (eta2 * r2 < _EWALD_CUT) & (r2 > 0)
    table = np.zeros(tuple(m + 1 for m in r2.shape))  # slot u.size of an axis: past the cut
    r2 = r2[near]
    # tuples with equal sums share one evaluation (equal inputs, equal bits);
    # sums already strictly ascending (1D) are evaluated as they stand
    w = r2 if np.all(r2[1:] > r2[:-1]) else sorted_distinct(r2)
    short = upper_gamma(0.5 * p, eta2 * w) / w ** (0.5 * p)
    table[(slice(0, -1),) * n][near] = short if w is r2 else short[np.searchsorted(w, r2)]
    del r2, near, w, short

    def slots(o):  # each point's slot in u on an axis shifted by the image offset o
        q = (ax + o) * (ax + o)
        slot = np.searchsorted(u, q)
        slot[eta2 * q >= _EWALD_CUT] = u.size
        return slot

    K = np.zeros(grid.shape)
    for image in itertools.product(offsets, repeat=n):
        K += table[np.ix_(*[slots(o) for o in image])]
    del table
    kmax = math.ceil(math.sqrt(_EWALD_CUT) * _EWALD_ETA_L / math.pi)
    k = np.arange(-kmax, kmax + 1)
    y = (math.pi / _EWALD_ETA_L) ** 2 * sum(per_axis([k * k] * n))
    F = np.zeros(y.shape)
    far = (y > 0) & (y < _EWALD_CUT)
    F[far] = y[far] ** (0.5 * s) * upper_gamma(-0.5 * s, y[far])
    F[(kmax,) * n] = 2.0 / s
    folded = np.zeros(grid.shape)
    np.add.at(folded, tuple(per_axis([k % N] * n)), F)
    # folded is real and even, so its inverse transform is real
    series = np.fft.irfftn(folded[..., : N // 2 + 1], s=grid.shape, axes=tuple(range(n)))
    K += math.pi ** (0.5 * n) * eta**s / L**n * grid.npoints * series
    K /= math.gamma(0.5 * p)
    K[(0,) * n] = 0.0
    K *= grid.cell_measure
    K.flags.writeable = False
    return K


def raw_second_difference(f: GridFunction, s: float, points) -> np.ndarray:
    """Uncalibrated 1/2 sum_z (2f(x) - f(x+z) - f(x-z)) K(z) h^n at points,
    with the memoized kernel of (f.grid, s).

    points: tuple of index arrays (one per axis).  Nonpositive at interior
    maxima of even data up to roundoff; multiply by -1 for the orientation
    with f(x+z) + f(x-z) - 2 f(x).
    """
    if f.grid.dim > 2:
        raise SingularError("pointwise quadrature supports dim 1 and 2")
    if f.grid.dim == 1 and not isinstance(points, tuple):
        points = (points,)
    index = tuple(np.atleast_1d(np.asarray(points[a], dtype=np.int64)) for a in range(f.grid.dim))
    return _kernels.second_difference_sum(f.values, index, periodized_kernel(f.grid, s))


def raw_operator_field(f: GridFunction, s: float) -> GridFunction:
    """The same raw quadrature at every grid point, via FFT convolution.

    raw_second_difference reads the same field at its points: the symmetric
    sum collapses to f * sum(K) - f conv K for symmetric K.
    """
    return GridFunction(f.grid, _kernels.second_difference_field(f.values, periodized_kernel(f.grid, s)))


def calibrate_cns(grid: Grid, s: float) -> CalibratedConstant:
    """Fix c_{n,s} = spectral / raw on the reference eigenfunction cos(2 pi x_1/L).

    Idempotent and grid-deterministic.  Raises when the raw value degenerates.
    """
    _validate_order(s)
    x1 = grid.coords()[0]
    ref = GridFunction(grid, np.cos(2 * np.pi * x1 / grid.box_length))
    spectral = frac_laplacian(ref, s)
    pt = (0,) * grid.dim  # cos == 1 there
    raw = raw_second_difference(ref, s, tuple(np.array([0]) for _ in range(grid.dim)))[0]
    if abs(raw) < 1e-12:
        raise SingularError("degenerate reference: raw quadrature value below 1e-12")
    value = float(spectral.values[pt] / raw)
    return CalibratedConstant(
        name=f"c_{{{grid.dim},{s:g}}}",
        value=value,
        provenance={
            "reference": "cos(2 pi x_1 / L) at the origin",
            "grid": {"dim": grid.dim, "points_per_axis": grid.points_per_axis, "box_length": grid.box_length},
            "kernel": "exact periodic lattice sum (Ewald split)",
        },
    )


def frac_lap_pointwise(f: GridFunction, s: float, points,
                       constant: Optional[CalibratedConstant] = None) -> np.ndarray:
    """Calibrated singular-integral fractional Laplacian at grid points."""
    if constant is None:
        raise SingularError("uncalibrated constant: run calibrate_cns first")
    return constant.value * raw_second_difference(f, s, points)


def _pair_data(fields, D: Optional[DomainMask], s: float) -> tuple:
    """Indices (P, dim) of the masked points, the exponent n + 2(s - k) and,
    per field, its floor(s)-jet stacked at those points, one column per
    component."""
    grid, k = fields[0].grid, int(math.floor(s))
    sel = np.ones(grid.shape, dtype=bool) if D is None else D.values
    points = np.argwhere(sel)
    if points.shape[0] == 0:
        raise SingularError("empty mask")
    jets = [np.stack([c.values[sel] for c in derivative_tensor(f, k)], axis=1) for f in fields]
    return points, grid.dim + 2.0 * (s - k), jets


def gagliardo_seminorm(f: GridFunction, D: Optional[DomainMask], s: float) -> float:
    """[f]_{D,s}: double-sum seminorm of the floor(s)-jet for fractional s,
    the L^2 norm of the spectral derivative tensor for integer s.

    Fractional case: sqrt of sum over D x D (diagonal excluded) of
    |grad^k f(z1) - grad^k f(z2)|^2 / |z1-z2|^(n + 2(s-k)) h^(2n), k = floor(s),
    summed over every pair of masked points.
    """
    if s < 0:
        raise SingularError("order must be nonnegative")
    if s == math.floor(s):  # integer order: local norm of the derivative tensor
        total = sum(lp_norm(c, 2, D) ** 2 for c in derivative_tensor(f, int(s)))
        return math.sqrt(total)
    points, expo, (jet,) = _pair_data([f], D, s)
    return math.sqrt(_kernels.pair_sum_sq_diff(points, jet, expo, f.grid)) * f.grid.cell_measure


def gagliardo_seminorms(fields, D: Optional[DomainMask], s: float) -> list:
    """gagliardo_seminorm of each field on one mask, bit for bit; at a
    fractional order their pair sums share one box convolution."""
    if s < 0 or s == math.floor(s):  # no pair sum
        return [gagliardo_seminorm(f, D, s) for f in fields]
    points, expo, jets = _pair_data(fields, D, s)
    grid = fields[0].grid
    return [math.sqrt(t) * grid.cell_measure for t in _kernels.pair_sums_sq_diff(points, jets, expo, grid)]


@functools.lru_cache(maxsize=1)
def _equivalence_tables(grid: Grid, s: float) -> tuple:
    """(S, 2 (S - K^), |xi|^(2s)) for equivalence_ratio: S = sum(K) and the
    real K^ = rfftn(K) of the even kernel K of order 2s, and the symbol, on
    the rfftn half lattice.  The last tables built are memoized per (grid, s)
    and returned read-only; ``_equivalence_tables.cache_clear()`` drops them."""
    kernel = periodized_kernel(grid, 2.0 * s)
    total = float(np.sum(kernel))
    weight = 2.0 * (total - np.fft.rfftn(kernel).real)
    symbol = _conjugate_symmetrize(grid, abs_power_symbol(grid.dim, 2.0 * s))
    weight.flags.writeable = symbol.flags.writeable = False
    return total, weight, symbol


def equivalence_ratio(f: GridFunction, s: float) -> float:
    """||Lap^s f||_2^2 divided by the raw Gagliardo double sum (exponent n+2s).

    f-independence of this ratio is the numerical content of the spectral /
    integral equivalence; the ratio itself plays the role of the unspecified
    normalization constant.  The whole-box double sum uses the exact
    periodized kernel of order 2s (the |z|^(-n-2s) tail is long-range, so a
    truncated kernel would leak an f-dependent error).  By Parseval, with
    F = rfftn(f - f(0)) summed over the full lattice (interior half-lattice
    columns twice), S = sum(K) and the real K^ = rfftn(K) of the even K:

        ||Lap^s f||^2 = h^n N^-n sum |F|^2 |xi|^(2s),
        sumsum |f(x)-f(y)|^2 K = 2 <f S - f conv K, f> = 2 h^n N^-n sum |F|^2 (S - K^).

    S, 2 (S - K^) and |xi|^(2s) depend on (grid, s) alone and are memoized
    (``_equivalence_tables``), so calls on one grid and order transform
    only f.
    """
    if not (0 < s < 1):
        raise SingularError(f"equivalence ratio needs s in (0,1), got {s}")
    grid, N = f.grid, f.grid.points_per_axis
    total, weight, symbol = _equivalence_tables(grid, s)  # before f's transform: a cold build peaks alone
    power = np.abs(np.fft.rfftn(f.values - f.values.flat[0]))
    power *= power
    power[..., 1 : N // 2] *= 2.0
    num = float(np.sum(power * symbol))
    denom = float(np.sum(power * weight))
    if denom * grid.cell_measure / grid.npoints <= 1e-12 * total * lp_norm(f, 2) ** 2:
        raise SingularError("zero seminorm (constant input)")
    return num / denom
