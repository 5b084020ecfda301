"""Fourier multiplier operators on the periodic grid.

The fractional Laplacian used throughout is the multiplier |xi|^s in the
cycles-per-length frequency convention of :mod:`fraclap.grid`, so that
cos(2 pi k x / L) is an eigenfunction with eigenvalue (k/L)^s.  Negative
orders invert on the mean-zero complement.  Derived symbols

    m_{alpha,s}(xi) = (2 pi i)^(-|alpha|) |xi|^(|alpha|-s) d^alpha(|xi|^s m(xi))

realize the polynomial product rule

    M Lap^s (x^alpha phi) = sum_{beta <= alpha} d^beta(x^alpha) / beta!
                            * M_{beta,s} Lap^(s-|beta|) phi,

which holds exactly on R^n and up to a measurable quadrature/wrap-around
floor on the torus (monomials are only asserted against interior windows).

Symbol evaluators receive one 1D frequency array per axis, shaped to
broadcast along its own axis (length along axis a, 1 elsewhere), and must
return an array that broadcasts to the lattice shape; tables are broadcast
to shape only at the end, so no meshgrid is ever built.  The arithmetic per
lattice entry is the same as on full meshgrids.

apply_symbol on real input with a real-flagged symbol (m(-xi) = conj(m(xi)))
runs on rfftn/irfftn, so its output is real by construction.  Its table is
evaluated per call on the rfftn half lattice and on its mirror -xi, and
conjugate symmetrized there (which zeroes the odd part of the symbol on the
Nyquist planes) and checked finite off the zero mode.  Complex input, or
a symbol without the reality flag, takes the complex fftn/ifftn path.
apply_table stays a complex-FFT fast path on raw arrays for the iterative
solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product as _iterproduct
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import (
    DomainMask,
    Grid,
    GridFunction,
    lp_norm,
    per_axis,
    transform_forward,
    transform_inverse,
)


class ZeroModePolicy(Enum):
    ANNIHILATE = "annihilate"
    IDENTITY_FOR_S_ZERO = "identity-for-s-zero"
    PROJECT_MEAN_FIRST = "project-mean-first"


class SymbolError(ValueError):
    pass


def _sample_points(dim: int) -> np.ndarray:
    """Deterministic nonzero test frequencies used to verify symbol metadata."""
    rng = np.random.default_rng(20240)
    pts = rng.integers(-8, 9, size=(24, dim)).astype(float)
    pts[np.all(pts == 0, axis=1)] = 1.0
    pts = np.vstack([pts, np.eye(dim), 3.0 * np.eye(dim)])
    return pts


@dataclass(frozen=True)
class FrequencySymbol:
    """Multiplier m(xi) with homogeneity metadata.

    evaluator maps a list of per-axis frequency arrays to a complex array.
    The arrays broadcast against each other (on the lattice, axis a varies
    along axis a only) and the result must broadcast to their common shape,
    entry by entry the value at that frequency.  reality_flag asserts
    m(-xi) = conj(m(xi)); homogeneity_degree delta asserts
    m(lambda xi) = lambda^delta m(xi).  Both are spot-checked at
    construction on sampled frequencies (lambda in {2, 4}).
    """

    name: str
    dim: int
    evaluator: Callable[[Sequence[np.ndarray]], np.ndarray]
    homogeneity_degree: Optional[float] = None
    reality_flag: bool = False

    def __post_init__(self):
        pts = _sample_points(self.dim)
        vals = self._eval_points(pts)
        if not np.all(np.isfinite(vals)):
            raise SymbolError(f"symbol {self.name} not finite at sample frequencies")
        scale = np.max(np.abs(vals)) + 1e-300
        if self.reality_flag:
            neg = self._eval_points(-pts)
            if np.max(np.abs(neg - np.conjugate(vals))) > 1e-12 * scale:
                raise SymbolError(f"symbol {self.name} violates m(-xi) = conj(m(xi))")
        if self.homogeneity_degree is not None:
            for lam in (2.0, 4.0):
                scaled = self._eval_points(lam * pts)
                expect = lam**self.homogeneity_degree * vals
                err = np.max(np.abs(scaled - expect))
                if err > 1e-10 * (np.max(np.abs(expect)) + 1e-300):
                    raise SymbolError(
                        f"symbol {self.name} violates homogeneity of order "
                        f"{self.homogeneity_degree} (lambda={lam}, err={err:.2e})"
                    )

    def _eval_points(self, pts: np.ndarray) -> np.ndarray:
        axes = [pts[:, a] for a in range(self.dim)]
        return np.asarray(self.evaluator(axes), dtype=complex)

    def on_axes(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Complex table at the frequencies of per-axis arrays that broadcast
        against each other, broadcast (read-only) to their common shape."""
        with np.errstate(divide="ignore", invalid="ignore"):
            table = np.asarray(self.evaluator(axes), dtype=complex)
        return np.broadcast_to(table, np.broadcast_shapes(*(np.shape(x) for x in axes)))

    def check_grid(self, grid: Grid) -> None:
        if grid.dim != self.dim:
            raise SymbolError(f"symbol is {self.dim}-dimensional, grid is {grid.dim}")

    def on_lattice(self, grid: Grid) -> np.ndarray:
        """Read-only table on the full frequency lattice."""
        self.check_grid(grid)
        return self.on_axes(per_axis([grid.axis_frequencies()] * grid.dim))


def identity_symbol(dim: int) -> FrequencySymbol:
    return FrequencySymbol(
        "identity", dim, lambda xs: np.ones_like(xs[0], dtype=complex), 0.0, True
    )


def abs_power_symbol(dim: int, s: float) -> FrequencySymbol:
    def ev(xs):
        mag = np.sqrt(sum(np.asarray(x, dtype=float) ** 2 for x in xs))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = mag**s
        return out.astype(complex)

    return FrequencySymbol(f"abs_pow:{s:g}", dim, ev, float(s), True)


def riesz_symbol(dim: int, j: int) -> FrequencySymbol:
    if not (0 <= j < dim):
        raise SymbolError(f"riesz component {j} out of range for dim {dim}")

    def ev(xs):
        mag = np.sqrt(sum(np.asarray(x, dtype=float) ** 2 for x in xs))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 1j * np.asarray(xs[j], dtype=float) / mag
        return np.where(mag == 0, 0.0, out)

    return FrequencySymbol(f"riesz:{j}", dim, ev, 0.0, True)


def _conjugate_symmetrize(grid: Grid, symbol: FrequencySymbol) -> np.ndarray:
    """(m(xi) + conj(m(-xi)))/2 on the rfftn half lattice [..., :N//2+1].

    m is evaluated twice, on the half lattice and on its mirror (lattice
    index -j mod N per axis, so a Nyquist frequency is its own mirror).  A
    no-op (to roundoff) for symbols with m(-xi) = conj(m(xi)) except at the
    self-conjugate Nyquist planes, where it drops the imaginary part; without
    this, odd symbols (Riesz type) would map the Nyquist content of real
    inputs to non-Hermitian coefficients.  The result is the half of a table
    that is exactly Hermitian at every finite entry, as irfftn assumes.
    """
    symbol.check_grid(grid)
    N, dim = grid.points_per_axis, grid.dim
    f = grid.axis_frequencies()
    half = N // 2 + 1
    mirror = f[(-np.arange(N)) % N]
    table = symbol.on_axes(per_axis([f] * (dim - 1) + [f[:half]]))
    neg = symbol.on_axes(per_axis([mirror] * (dim - 1) + [mirror[:half]]))
    with np.errstate(invalid="ignore"):  # zero mode may hold inf, fixed by policy
        return 0.5 * (table + np.conjugate(neg))


def apply_symbol(
    f: GridFunction,
    symbol: FrequencySymbol,
    policy: ZeroModePolicy = ZeroModePolicy.ANNIHILATE,
) -> GridFunction:
    """Inverse transform of m(xi) * F(xi), zero mode handled per policy.

    Real input with a real-flagged symbol takes the real path: rfftn, the
    conjugate-symmetrized half-lattice table, irfftn, whose output is real by
    construction.  Anything else takes the complex fftn/ifftn path.
    """
    grid = f.grid
    real = f.is_real and symbol.reality_flag
    if real:
        axes = tuple(range(grid.dim))
        F = np.fft.rfftn(f.values, axes=axes)
        table = _conjugate_symmetrize(grid, symbol)
    else:
        F = transform_forward(f)
        table = symbol.on_lattice(grid)
    zero = (0,) * grid.dim
    if policy is ZeroModePolicy.PROJECT_MEAN_FIRST:
        F[zero] = 0.0
    # on the real path this checks the whole lattice: symmetrization makes an
    # entry and its mirror non-finite together, and each pair meets the half
    bad = ~np.isfinite(table)
    bad[zero] = False
    if np.any(bad):
        raise SymbolError(f"symbol {symbol.name} evaluates to NaN/Inf off the zero mode")
    with np.errstate(invalid="ignore"):  # inf * 0 at the zero mode, fixed below
        out = table * F
    if policy is ZeroModePolicy.IDENTITY_FOR_S_ZERO:
        out[zero] = F[zero]
    else:
        if not np.isfinite(table[zero]):
            out[zero] = 0.0
        elif policy is ZeroModePolicy.ANNIHILATE:
            out[zero] = 0.0
    if real:
        return GridFunction(grid, np.fft.irfftn(out, s=grid.shape, axes=axes))
    return transform_inverse(grid, out, real=False)


def frac_laplacian(f: GridFunction, s: float) -> GridFunction:
    """Order-s fractional Laplacian: multiplier |xi|^s, zero mode annihilated.

    s = 0 is the identity (0^0 := 1 convention); s < 0 delegates to the
    mean-zero inverse.
    """
    if s == 0:
        return f
    if s < 0:
        return inv_frac_laplacian(f, -s)
    return apply_symbol(f, abs_power_symbol(f.grid.dim, s), ZeroModePolicy.ANNIHILATE)


def inv_frac_laplacian(f: GridFunction, s: float, project_mean: bool = False) -> GridFunction:
    """Multiplier |xi|^(-s) on nonzero modes; requires mean-zero input.

    A non-mean-zero input raises unless project_mean is set, in which case
    the mean is removed first (policy project-mean-first).
    """
    if s <= 0:
        raise SymbolError(f"inverse order must be positive, got {s}")
    grid = f.grid
    mean = np.mean(f.values)
    scale = lp_norm(f, 2) / math.sqrt(grid.box_length**grid.dim) + 1e-300
    if abs(mean) > 1e-10 * scale and not project_mean:
        raise SymbolError(
            "input has nonzero mean; pass project_mean=True to project it out first"
        )
    policy = ZeroModePolicy.PROJECT_MEAN_FIRST if project_mean else ZeroModePolicy.ANNIHILATE
    return apply_symbol(f, abs_power_symbol(grid.dim, -s), policy)


def abs_power_table(grid: Grid, s: float) -> np.ndarray:
    """|xi|^s on the lattice with the zero mode annihilated (fast path for
    iterative solvers working on raw arrays)."""
    mag = grid.frequency_magnitude()
    with np.errstate(divide="ignore"):
        table = mag**s
    table[(0,) * grid.dim] = 1.0 if s == 0 else 0.0
    return table


def apply_table(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Real multiplier application on a raw array (no invariant checks)."""
    return np.fft.ifftn(np.fft.fftn(values) * table).real


def gradient(f: GridFunction) -> list:
    """Spectral gradient components (d_j f via multiplier 2 pi i xi_j)."""
    F = transform_forward(f)
    out = []
    for xi in f.grid.frequencies():
        out.append(transform_inverse(f.grid, 2j * np.pi * xi * F, real=f.is_real))
    return out


def derivative(f: GridFunction, alpha: Sequence[int]) -> GridFunction:
    """Spectral partial derivative d^alpha f."""
    F = transform_forward(f)
    mult = np.ones(f.grid.shape, dtype=complex)
    for a, (xi, k) in enumerate(zip(f.grid.frequencies(), alpha)):
        if k:
            mult = mult * (2j * np.pi * xi) ** k
    return transform_inverse(f.grid, mult * F, real=f.is_real)


def derivative_tensor(f: GridFunction, order: int) -> list:
    """All order-many spectral derivatives (full n^order tensor, flattened)."""
    if order == 0:
        return [f]
    out = []
    for combo in _iterproduct(range(f.grid.dim), repeat=order):
        alpha = [0] * f.grid.dim
        for a in combo:
            alpha[a] += 1
        out.append(derivative(f, alpha))
    return out


# -- derived symbols --------------------------------------------------------

def _multiindex(alpha) -> tuple:
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise SymbolError(f"bad multiindex {alpha}")
    return alpha


def _factorial_multi(alpha) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def _closed_form_derivative(base: str, riesz_axis: int, alpha, s: float):
    """d^alpha (|xi|^s m(xi)) for m identity or a Riesz component, |alpha| <= 2."""
    alpha = tuple(alpha)
    order = sum(alpha)
    dirs = [a for a, k in enumerate(alpha) for _ in range(k)]

    def ev(xs):
        xs = [np.asarray(x, dtype=float) for x in xs]
        mag2 = sum(x * x for x in xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            mag = np.sqrt(mag2)
            if base == "identity":
                if order == 0:
                    return mag**s + 0j
                if order == 1:
                    (j,) = dirs
                    return (s * xs[j] * mag ** (s - 2)) + 0j
                j, k = dirs
                out = s * (s - 2) * xs[j] * xs[k] * mag ** (s - 4)
                if j == k:
                    out = out + s * mag ** (s - 2)
                return out + 0j
            # base == riesz, g = i xi_l |xi|^(s-1)
            l = riesz_axis
            if order == 0:
                return 1j * xs[l] * mag ** (s - 1)
            if order == 1:
                (j,) = dirs
                out = (s - 1) * xs[l] * xs[j] * mag ** (s - 3)
                if j == l:
                    out = out + mag ** (s - 1)
                return 1j * out
            j, k = dirs
            out = (s - 1) * (s - 3) * xs[j] * xs[k] * xs[l] * mag ** (s - 5)
            if j == l:
                out = out + (s - 1) * xs[k] * mag ** (s - 3)
            if k == l:
                out = out + (s - 1) * xs[j] * mag ** (s - 3)
            if j == k:
                out = out + (s - 1) * xs[l] * mag ** (s - 3)
            return 1j * out

    return ev


def _finite_difference_derivative(g: Callable, dirs, dim: int, step_rel: float = 5e-3):
    """Nested 4th-order central differences of g along dirs, steps relative to |xi|."""

    def d_one(fun, axis):
        def out(xs):
            xs = [np.asarray(x, dtype=float) for x in xs]
            mag = np.sqrt(sum(x * x for x in xs))
            hstep = step_rel * np.where(mag > 0, mag, 1.0)

            def shifted(c):
                ys = list(xs)
                ys[axis] = ys[axis] + c * hstep
                return fun(ys)

            return (-shifted(2.0) + 8.0 * shifted(1.0) - 8.0 * shifted(-1.0) + shifted(-2.0)) / (
                12.0 * hstep
            )

        return out

    fun = g
    for axis in dirs:
        fun = d_one(fun, axis)
    return fun


def derived_symbol(m: FrequencySymbol, alpha, s: float) -> FrequencySymbol:
    """The symbol m_{alpha,s}; closed forms for identity/Riesz bases, nested
    relative-step central differences otherwise.  |alpha| <= 2."""
    alpha = _multiindex(alpha)
    if len(alpha) != m.dim:
        raise SymbolError(f"multiindex length {len(alpha)} does not match dim {m.dim}")
    order = sum(alpha)
    if order > 2:
        raise SymbolError("derived symbols support |alpha| <= 2 only")
    if order == 0:
        return m

    if m.name == "identity":
        dg = _closed_form_derivative("identity", 0, alpha, s)
    elif m.name.startswith("riesz:"):
        dg = _closed_form_derivative("riesz", int(m.name.split(":")[1]), alpha, s)
    else:
        def g(xs):
            xs = [np.asarray(x, dtype=float) for x in xs]
            mag = np.sqrt(sum(x * x for x in xs))
            return mag**s * np.asarray(m.evaluator(xs), dtype=complex)

        dirs = [a for a, k in enumerate(alpha) for _ in range(k)]
        dg = _finite_difference_derivative(g, dirs, m.dim)

    pref = (2j * np.pi) ** (-order)

    def ev(xs):
        xs = [np.asarray(x, dtype=float) for x in xs]
        mag = np.sqrt(sum(x * x for x in xs))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = pref * mag ** (order - s) * np.asarray(dg(xs), dtype=complex)
        return out

    hom = m.homogeneity_degree
    name = f"derived:{m.name}:{','.join(map(str, alpha))}:{s:g}"
    return FrequencySymbol(name, m.dim, ev, hom, m.reality_flag)


# -- monomials and the product rule -----------------------------------------

def monomial_values(grid: Grid, alpha, center=None) -> np.ndarray:
    """x^alpha in periodic displacement coordinates about center (box center
    by default).  Not periodic; only meaningful against windowed data."""
    alpha = _multiindex(alpha)
    if center is None:
        center = grid.center
    disp = grid.periodic_displacement(center)
    out = np.ones(grid.shape)
    for a, k in enumerate(alpha):
        if k:
            out = out * disp[a] ** k
    return out


def monomial_derivative_values(grid: Grid, alpha, beta, center=None) -> np.ndarray:
    """d^beta x^alpha evaluated on the grid (zero when beta exceeds alpha)."""
    alpha = _multiindex(alpha)
    beta = _multiindex(beta)
    if any(b > a for a, b in zip(alpha, beta)):
        return np.zeros(grid.shape)
    coeff = 1.0
    remaining = []
    for a, b in zip(alpha, beta):
        coeff *= math.factorial(a) / math.factorial(a - b)
        remaining.append(a - b)
    return coeff * monomial_values(grid, remaining, center)


def _multi_indices_upto(dim: int, max_order: int):
    rng = range(max_order + 1)
    for combo in _iterproduct(rng, repeat=dim):
        if sum(combo) <= max_order:
            yield combo


def product_rule_residual(
    phi: GridFunction,
    alpha,
    s: float,
    window: DomainMask,
    center=None,
) -> dict:
    """L^2-window residual of the polynomial product rule for Q = x^alpha.

    Returns a dict with the residual, the window norm of Lap^s(Q phi) and the
    reference size ||Lap^s phi||_2 used for relative reporting.
    """
    alpha = _multiindex(alpha)
    if sum(alpha) > s:
        raise SymbolError(f"|alpha| = {sum(alpha)} exceeds s = {s}")
    grid = phi.grid
    if center is None:
        center = grid.center
    Q = monomial_values(grid, alpha, center)
    lhs = frac_laplacian(GridFunction(grid, Q * phi.values), s)
    acc = np.zeros(grid.shape)
    ident = identity_symbol(grid.dim)
    for beta in _multi_indices_upto(grid.dim, sum(alpha)):
        if any(b > a for a, b in zip(alpha, beta)):
            continue
        dQ = monomial_derivative_values(grid, alpha, beta, center)
        order = sum(beta)
        inner = frac_laplacian(phi, s - order) if s != order else phi
        if order == 0:
            term = inner.values
        else:
            sym = derived_symbol(ident, beta, s)
            term = apply_symbol(inner, sym).values / _factorial_multi(beta)
        acc = acc + dQ * term
    resid = GridFunction(grid, lhs.values - acc)
    return {
        "residual": lp_norm(resid, 2, window),
        "lhs_window_norm": lp_norm(lhs, 2, window),
        "reference": lp_norm(frac_laplacian(phi, s), 2),
    }


def polynomial_annihilation(
    alpha,
    s: float,
    phi: GridFunction,
    radii: Sequence[float],
    p_prime: float = 2.0,
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> dict:
    """Decay report for I(R) = |integral eta_R x^alpha Lap^s phi|.

    Fits the log-log slope over the given radii and reports the theoretical
    bound -s + |alpha| + n/p_prime it must stay below.
    """
    alpha = _multiindex(alpha)
    if len(radii) < 3:
        raise SymbolError("need at least 3 radii for a decay fit")
    if not s > sum(alpha):
        raise SymbolError("requires s > |alpha|")
    grid = phi.grid
    if profile is None:
        from .cutoffs import base_profile_values

        profile = base_profile_values
    lap = frac_laplacian(phi, s)
    xalpha = monomial_values(grid, alpha)
    rho = grid.periodic_distance(grid.center)
    vals, logs = [], []
    for R in radii:
        eta = profile(rho / R)
        I = abs(np.sum(eta * xalpha * lap.values) * grid.cell_measure)
        vals.append(I)
        logs.append(math.log(max(I, 1e-300)))
    slope = float(np.polyfit(np.log(np.asarray(radii, dtype=float)), logs, 1)[0])
    bound = -s + sum(alpha) + grid.dim / p_prime
    return {"radii": list(map(float, radii)), "values": vals, "slope": slope, "bound": bound}


def parse_symbol_id(spec: str, dim: int) -> FrequencySymbol:
    """Symbols nameable in CLI configs: 'identity', 'abs_pow:s', 'riesz:j',
    'derived:<base>:<alpha csv>:<s>'."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "identity":
        return identity_symbol(dim)
    if kind == "abs_pow":
        return abs_power_symbol(dim, float(parts[1]))
    if kind == "riesz":
        return riesz_symbol(dim, int(parts[1]))
    if kind == "derived":
        base = parse_symbol_id(":".join(parts[1:-2]), dim)
        alpha = tuple(int(a) for a in parts[-2].split(","))
        return derived_symbol(base, alpha, float(parts[-1]))
    raise SymbolError(f"unknown symbol id {spec!r}")
