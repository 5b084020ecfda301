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
A symbol is its term list, a finite sum of terms c xi^gamma |xi|^p, so
derived symbols are exact: |xi|^s m is differentiated term by term,
d_a(c xi^gamma |xi|^p) = gamma_a c xi^(gamma - e_a) |xi|^p
+ p c xi^(gamma + e_a) |xi|^(p - 2).

FrequencySymbol.evaluate receives one 1D frequency array per axis, shaped
to broadcast along its own axis (length along axis a, 1 elsewhere), and
returns an array that broadcasts to the lattice shape; tables are broadcast
to shape only at the end, so no meshgrid is ever built.  The arithmetic per
lattice entry is the same as on full meshgrids.

Fields are real and every symbol satisfies m(-xi) = conj(m(xi)) (checked
term by term at construction), so apply_symbol has one path: rfftn, then the
table evaluated per call on the rfftn half lattice, block by block over
axis-0 rows, each block checked finite off the zero mode and multiplied into
the rfftn output in place, and the steps of irfftn, whose output is real by
construction; the zero mode is annihilated.  Real symbols (|xi|^s, the
identity) are even, so their float64 table, half the size of a complex one,
is used as evaluated; numpy multiplies it into complex coefficients exactly
as its complex cast.  Only complex symbols are also evaluated on the mirror
-xi and conjugate symmetrized, which zeroes their odd part on the Nyquist
planes.  Spectral derivatives are apply_symbol with the symbol
(2 pi i xi)^alpha.

apply_table is the raw-array path of the iterative solvers: a full-lattice
table (abs_power_table: abs_power_symbol evaluated on the full lattice) and
complex FFTs.  Both paths transform in place in one work buffer that they own (apply_symbol's is real, in the padded
in-place real-FFT layout, and becomes its output), with numpy's FFT calls in
numpy's order, so each output equals the allocating form
(irfftn(table * rfftn(f)), ifftn(fftn(values) * table).real) bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product as _iterproduct
from typing import Optional, Sequence

import numpy as np

from .grid import DomainMask, Grid, GridFunction, lp_norm, per_axis


class SymbolError(ValueError):
    pass


@dataclass(frozen=True)
class FrequencySymbol:
    """Multiplier m(xi) = sum of terms c xi^gamma |xi|^p, one (c, gamma, p) each.

    The term list is the whole symbol: evaluate sums it, homogeneity_degree
    is read off it, and derived_symbol differentiates it term by term.
    Construction checks each term exactly: gamma is a multiindex of length
    dim, c and p are finite, and c (-1)^|gamma| = conj(c) to 1e-12 |c|, so
    that m(-xi) = conj(m(xi)) and the symbol maps real fields to real fields.
    Tables are float64 when every c is real and complex128 otherwise.
    """

    name: str
    dim: int
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise SymbolError(f"symbol {self.name} has no terms")
        for c, gamma, p in self.terms:
            if len(gamma) != self.dim or not all(isinstance(k, (int, np.integer)) and k >= 0 for k in gamma):
                raise SymbolError(f"symbol {self.name}: {gamma} is not a multiindex of length {self.dim}")
            if not (np.isfinite(c) and np.isfinite(p)):
                raise SymbolError(f"symbol {self.name}: term coefficient {c} and power {p} must be finite")
            if abs(c * (-1) ** sum(gamma) - np.conjugate(c)) > 1e-12 * abs(c):
                raise SymbolError(f"symbol {self.name} violates m(-xi) = conj(m(xi)) in its term {c} xi^{gamma}")

    @property
    def homogeneity_degree(self) -> Optional[float]:
        """delta with m(lambda xi) = lambda^delta m(xi): the degree |gamma| + p
        common to every term (to 1e-12), or None when the degrees differ."""
        degrees = [sum(gamma) + p for _, gamma, p in self.terms]
        if max(degrees) - min(degrees) > 1e-12 * max(1.0, abs(degrees[0])):
            return None
        return float(degrees[0])

    def evaluate(self, xs: Sequence[np.ndarray]):
        """The sum of the terms at per-axis frequency arrays xs that broadcast
        against each other; the result broadcasts to their common shape.

        Each term is |xi|^p, times c, times each xi_a gamma_a times in axis
        order, with the power skipped for p = 0 and the product for c = 1, so
        |xi|^s allocates |xi| and then |xi|^s alone.  The terms are added in
        order.  Non-finite entries (the zero mode of a negative power, an
        overflow) are left for apply_symbol to refuse off the zero mode.
        """
        xs = [np.asarray(x, dtype=float) for x in xs]
        if any(p for _, _, p in self.terms):
            mag = np.sqrt(sum(x**2 for x in xs))
        out = None
        with np.errstate(all="ignore"):
            for c, gamma, p in self.terms:
                term = c
                if p:
                    term = mag**p if c == 1 else c * mag**p
                for x, k in zip(xs, gamma):
                    for _ in range(k):
                        term = term * x
                out = term if out is None else out + term
        return out

    def on_axes(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Table at the frequencies of per-axis arrays that broadcast against
        each other, broadcast (read-only) to their common shape: float64 for
        real coefficients, complex128 otherwise."""
        table = np.asarray(self.evaluate(axes))
        table = table.astype(complex if np.iscomplexobj(table) else float, copy=False)
        return np.broadcast_to(table, np.broadcast_shapes(*(np.shape(x) for x in axes)))

    def check_grid(self, grid: Grid) -> None:
        if grid.dim != self.dim:
            raise SymbolError(f"symbol is {self.dim}-dimensional, grid is {grid.dim}")


def identity_symbol(dim: int) -> FrequencySymbol:
    return FrequencySymbol("identity", dim, ((1.0, (0,) * dim, 0.0),))


@functools.cache
def abs_power_symbol(dim: int, s: float) -> FrequencySymbol:
    """|xi|^s, built and checked once per (dim, s) and shared: the symbol is immutable."""
    return FrequencySymbol(f"abs_pow:{s:g}", dim, ((1.0, (0,) * dim, float(s)),))


def riesz_symbol(dim: int, j: int) -> FrequencySymbol:
    """i xi_j / |xi|; NaN at the zero mode, which apply_symbol annihilates."""
    if not (0 <= j < dim):
        raise SymbolError(f"riesz component {j} out of range for dim {dim}")
    return FrequencySymbol(f"riesz:{j}", dim, ((1j, tuple(int(a == j) for a in range(dim)), -1.0),))


def _conjugate_symmetrize(grid: Grid, symbol: FrequencySymbol, rows: slice = slice(None)) -> np.ndarray:
    """The table of symbol on the rows `rows` (axis-0 indices) of the rfftn
    half lattice [..., :N//2+1]: m(xi) for a real symbol, (m(xi) +
    conj(m(-xi)))/2 for a complex one.  In 1D the rows are entries of the
    half lattice itself.

    A real table is returned as evaluated (possibly a read-only broadcast
    view): a real symbol is even, and for |xi|^s and the identity the mirror
    frequencies are exact negations (or the Nyquist entry itself), so the
    average would reproduce the table bit for bit.  A complex symbol is
    evaluated again on the mirror of the same rows (lattice index -j mod N
    per axis, so a Nyquist frequency is its own mirror) and averaged; a no-op
    (to roundoff) except at the self-conjugate Nyquist planes, where it drops
    the imaginary part.  Without this, odd symbols (Riesz type) would map the
    Nyquist content of real inputs to non-Hermitian coefficients.  The
    result is the half of a table that is exactly Hermitian at every finite
    entry, as irfftn assumes.  The average is formed in place in the
    conjugated mirror table (IEEE + and * commute, so the bits are those of
    0.5 * (table + conj(neg))).  Every entry is computed as on the whole half
    lattice, so a block of rows is that block of the whole table bit for bit.
    """
    symbol.check_grid(grid)
    N, dim = grid.points_per_axis, grid.dim
    index = [np.arange(N)] * (dim - 1) + [np.arange(N // 2 + 1)]
    index[0] = index[0][rows]

    def on_indices(per_axis_index):
        return symbol.on_axes(per_axis([grid.axis_frequencies(i) for i in per_axis_index]))

    table = on_indices(index)
    if not np.iscomplexobj(table):
        return table
    out = np.conjugate(on_indices([(-i) % N for i in index]))
    with np.errstate(invalid="ignore"):  # zero mode may hold inf; apply_symbol annihilates it
        out += table
        out *= 0.5
    return out


_BLOCK = 2**16  # half-lattice entries per block of axis-0 rows


def _row_blocks(nrows: int, row_size: int) -> list:
    """Consecutive slices over nrows rows of row_size entries each, about
    _BLOCK entries (at least one row) per slice."""
    step = max(1, _BLOCK // row_size)
    return [slice(r, min(r + step, nrows)) for r in range(0, nrows, step)]


def _multiply_symbol(F: np.ndarray, grid: Grid, symbol: FrequencySymbol) -> None:
    """Multiply symbol into the half-lattice coefficients F in place, block
    by block over axis-0 rows, each block's table checked finite off the zero
    mode first (irfftn reads only the half lattice, so this checks every
    entry applied); the zero mode is annihilated."""
    zero = (0,) * grid.dim
    for rows in _row_blocks(F.shape[0], F[0].size):
        table = _conjugate_symmetrize(grid, symbol, rows)
        bad = ~np.isfinite(table)
        if rows.start == 0:
            bad[zero] = False
        if np.any(bad):
            raise SymbolError(f"symbol {symbol.name} evaluates to NaN/Inf off the zero mode")
        block = F[rows]
        with np.errstate(invalid="ignore"):  # inf * 0 at the zero mode, fixed below
            np.multiply(table, block, out=block)
        del table, bad  # before the next block's table is evaluated
    F[zero] = 0.0


def apply_symbol(f: GridFunction, symbol: FrequencySymbol) -> GridFunction:
    """Inverse transform of m(xi) * F(xi), zero mode annihilated.

    Every step runs in one real buffer of shape (*lead, 2*(N//2+1)), whose
    complex view is the rfftn half lattice (the padded in-place real-FFT
    layout of FFTW): rfftn into it; then, block by block over axis-0 rows
    of about 2^16 entries, the block's table (conjugate symmetrized if
    complex) checked finite off the zero mode and multiplied in; ifft over
    each leading axis in place; irfft over blocks of rows, each row's N
    reals written into the same row; the rows compacted in place and the
    buffer shrunk to the grid's shape, so the output owns its data and no
    other field-sized array is allocated.  A symbol that is NaN/Inf off the
    zero mode raises SymbolError (after the forward transform) and returns
    nothing.  The output is real by construction and equals
    irfftn(table * rfftn(f)) bit for bit.
    """
    grid = f.grid
    N, dim = grid.points_per_axis, grid.dim
    symbol.check_grid(grid)
    half = N // 2 + 1
    buf = np.empty(grid.shape[:-1] + (2 * half,))
    F = buf.view(complex)
    np.fft.rfftn(f.values, axes=tuple(range(dim)), out=F)
    _multiply_symbol(F, grid, symbol)
    for axis in range(dim - 1):
        np.fft.ifft(F, N, axis, out=F)
    rows_out = buf.reshape(-1, 2 * half)
    rows_in = F.reshape(-1, half)
    blocks = _row_blocks(rows_out.shape[0], half)
    for rows in blocks:  # numpy copies each block's input, as it overlaps the output
        np.fft.irfft(rows_in[rows], N, out=rows_out[rows, :N])
    if dim > 1:  # row r moves from offset r*2*half to r*N; row 0 is in place
        flat = buf.reshape(-1)
        for rows in blocks:
            flat[rows.start * N : rows.stop * N].reshape(-1, N)[...] = rows_out[rows, :N]
        del flat
    del F, rows_in, rows_out
    # no view of buf is left; a tracer's or debugger's frame snapshot may
    # still hold buf itself, which refcheck would refuse
    buf.resize(grid.shape, refcheck=False)
    return GridFunction(grid, buf)


def frac_laplacian(f: GridFunction, s: float) -> GridFunction:
    """Order-s fractional Laplacian: multiplier |xi|^s, zero mode annihilated.

    s = 0 is the identity (0^0 := 1 convention); s < 0 delegates to the
    mean-zero inverse.
    """
    if s == 0:
        return f
    if s < 0:
        return inv_frac_laplacian(f, -s)
    return apply_symbol(f, abs_power_symbol(f.grid.dim, s))


def inv_frac_laplacian(f: GridFunction, s: float) -> GridFunction:
    """Multiplier |xi|^(-s) on nonzero modes; requires mean-zero input."""
    if s <= 0:
        raise SymbolError(f"inverse order must be positive, got {s}")
    grid = f.grid
    mean = np.mean(f.values)
    scale = lp_norm(f, 2) / math.sqrt(grid.box_length**grid.dim) + 1e-300
    if abs(mean) > 1e-10 * scale:
        raise SymbolError("input has nonzero mean; subtract it first")
    return apply_symbol(f, abs_power_symbol(grid.dim, -s))


def abs_power_table(grid: Grid, s: float) -> np.ndarray:
    """abs_power_symbol's |xi|^s on the full lattice, writable, with the zero
    mode annihilated (1 for s = 0): apply_table's table on raw arrays."""
    table = abs_power_symbol(grid.dim, s).on_axes(per_axis([grid.axis_frequencies()] * grid.dim)).copy()
    table[(0,) * grid.dim] = 1.0 if s == 0 else 0.0
    return table


def apply_table(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Real multiplier application on a raw array (no invariant checks).

    One complex work buffer, the cast of values, holds every step: fft over
    each axis in fftn's order (last axis first), the table multiplied in,
    then ifft in ifftn's order, each in place.  The result is the real part
    of that buffer and equals ifftn(fftn(values) * table).real bit for bit.
    """
    F = values.astype(complex)
    axes = range(F.ndim - 1, -1, -1)
    for axis in axes:
        np.fft.fft(F, axis=axis, out=F)
    F *= table
    for axis in axes:
        np.fft.ifft(F, axis=axis, out=F)
    return F.real


def derivative_symbol(dim: int, alpha) -> FrequencySymbol:
    """The symbol (2 pi i xi)^alpha of d^alpha, homogeneous of order |alpha|."""
    alpha = _multiindex(alpha)
    if len(alpha) != dim:
        raise SymbolError(f"multiindex length {len(alpha)} does not match dim {dim}")
    return FrequencySymbol(f"d:{','.join(map(str, alpha))}", dim, (((2j * np.pi) ** sum(alpha), alpha, 0.0),))


def derivative(f: GridFunction, alpha: Sequence[int]) -> GridFunction:
    """Spectral partial derivative d^alpha f (f itself for alpha = 0)."""
    if not any(alpha):
        return f
    return apply_symbol(f, derivative_symbol(f.grid.dim, alpha))


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


def _differentiate(terms, a: int) -> list:
    """d/dxi_a term by term: d_a(c xi^gamma |xi|^p) = gamma_a c xi^(gamma - e_a) |xi|^p
    + p c xi^(gamma + e_a) |xi|^(p - 2), the first term dropped where gamma_a = 0.
    Terms whose coefficient is exactly 0 (p = 0) are dropped too, except one
    when all vanish, so that the zero symbol keeps a term."""
    out = []
    for c, gamma, p in terms:
        k = gamma[a]
        if k:
            out.append((k * c, gamma[:a] + (k - 1,) + gamma[a + 1 :], p))
        out.append((p * c, gamma[:a] + (k + 1,) + gamma[a + 1 :], p - 2))
    return [t for t in out if t[0] != 0] or out[:1]


def derived_symbol(m: FrequencySymbol, alpha, s: float) -> FrequencySymbol:
    """The symbol m_{alpha,s}, |alpha| <= 2, exact: |xi|^s m is differentiated
    term by term in m's term list, and the result is a term list again, so
    derived symbols of derived symbols are exact too."""
    alpha = _multiindex(alpha)
    if len(alpha) != m.dim:
        raise SymbolError(f"multiindex length {len(alpha)} does not match dim {m.dim}")
    order = sum(alpha)
    if order > 2:
        raise SymbolError("derived symbols support |alpha| <= 2 only")
    if order == 0:
        return m
    terms = [(c, gamma, p + s) for c, gamma, p in m.terms]
    for a in [a for a, k in enumerate(alpha) for _ in range(k)]:
        terms = _differentiate(terms, a)
    pref = (2j * np.pi) ** (-order)
    terms = tuple((pref * c, gamma, p + order - s) for c, gamma, p in terms)
    return FrequencySymbol(f"derived:{m.name}:{','.join(map(str, alpha))}:{s:g}", m.dim, terms)


# -- monomials and the product rule -----------------------------------------

def polynomial_values(disp: Sequence[np.ndarray], coeffs: dict, beta) -> np.ndarray:
    """d^beta of sum_alpha c_alpha x^alpha / alpha! at displacements disp, one
    array per axis (broadcast grid views or masked points), the terms added to
    zeros in the order of coeffs; the monomial x^alpha is {alpha: alpha!}.
    Not periodic; only meaningful against windowed data."""
    beta = tuple(beta)
    shape = np.broadcast_shapes(*(np.shape(d) for d in disp))
    out = np.zeros(shape)
    for alpha, c in coeffs.items():
        if any(b > a for a, b in zip(alpha, beta)):
            continue
        rem = tuple(a - b for a, b in zip(alpha, beta))
        term = np.full(shape, c / _factorial_multi(rem))
        for d, k in zip(disp, rem):
            if k:
                term = term * d**k
        out += term
    return out


def _multi_indices_upto(dim: int, max_order: int):
    rng = range(max_order + 1)
    for combo in _iterproduct(rng, repeat=dim):
        if sum(combo) <= max_order:
            yield combo


def product_rule_residual(phi: GridFunction, alpha, s: float, window: DomainMask) -> dict:
    """L^2-window residual of the polynomial product rule for Q = x^alpha
    about the box center.

    Returns a dict with the residual and the reference size ||Lap^s phi||_2
    used for relative reporting.
    """
    alpha = _multiindex(alpha)
    if sum(alpha) > s:
        raise SymbolError(f"|alpha| = {sum(alpha)} exceeds s = {s}")
    grid = phi.grid
    disp = grid.periodic_displacement(grid.center)
    monomial = {alpha: _factorial_multi(alpha)}
    Q = polynomial_values(disp, monomial, (0,) * grid.dim)
    lhs = frac_laplacian(GridFunction(grid, Q * phi.values), s)
    acc = np.zeros(grid.shape)
    ident = identity_symbol(grid.dim)
    for beta in _multi_indices_upto(grid.dim, sum(alpha)):
        if any(b > a for a, b in zip(alpha, beta)):
            continue
        dQ = polynomial_values(disp, monomial, beta)
        order = sum(beta)
        inner = frac_laplacian(phi, s - order)
        if order == 0:
            reference = lp_norm(inner, 2)
            term = inner.values
        else:
            sym = derived_symbol(ident, beta, s)
            term = apply_symbol(inner, sym).values / _factorial_multi(beta)
        acc = acc + dQ * term
    resid = GridFunction(grid, lhs.values - acc)
    return {"residual": lp_norm(resid, 2, window), "reference": reference}


def polynomial_annihilation(alpha, s: float, phi: GridFunction, radii: Sequence[float]) -> dict:
    """Decay report for I(R) = |integral eta_R x^alpha Lap^s phi|, eta_R the
    base cutoff profile at scale R about the box center.

    Fits the log-log slope over the given radii and reports the theoretical
    bound -s + |alpha| + n/p' (p' = 2) it must stay below.
    """
    from .cutoffs import base_profile_values  # local: cutoffs imports multipliers

    alpha = _multiindex(alpha)
    if len(radii) < 3:
        raise SymbolError("need at least 3 radii for a decay fit")
    if not s > sum(alpha):
        raise SymbolError("requires s > |alpha|")
    grid = phi.grid
    lap = frac_laplacian(phi, s)
    xalpha = polynomial_values(
        grid.periodic_displacement(grid.center), {alpha: _factorial_multi(alpha)}, (0,) * grid.dim
    )
    rho = grid.periodic_distance(grid.center)
    vals, logs = [], []
    for R in radii:
        eta = base_profile_values(rho / R)
        I = abs(np.sum(eta * xalpha * lap.values) * grid.cell_measure)
        vals.append(I)
        logs.append(math.log(max(I, 1e-300)))
    slope = float(np.polyfit(np.log(np.asarray(radii, dtype=float)), logs, 1)[0])
    bound = -s + sum(alpha) + grid.dim / 2.0
    return {"radii": list(map(float, radii)), "values": vals, "slope": slope, "bound": bound}


def parse_symbol_id(spec: str, dim: int) -> FrequencySymbol:
    """Symbols nameable in CLI configs: 'identity', 'abs_pow:s', 'riesz:j',
    'derived:<base>:<alpha csv>:<s>'."""
    kind, *fields = spec.split(":")
    arity = {"identity": 0, "abs_pow": 1, "riesz": 1}.get(kind)
    if arity is not None and len(fields) != arity or kind == "derived" and len(fields) < 3:
        raise SymbolError(f"symbol id {spec!r} has the wrong number of fields")
    if kind == "identity":
        return identity_symbol(dim)
    if kind == "abs_pow":
        return abs_power_symbol(dim, float(fields[0]))
    if kind == "riesz":
        return riesz_symbol(dim, int(fields[0]))
    if kind == "derived":
        base = parse_symbol_id(":".join(fields[:-2]), dim)
        alpha = tuple(int(a) for a in fields[-2].split(","))
        return derived_symbol(base, alpha, float(fields[-1]))
    raise SymbolError(f"unknown symbol id {spec!r}")
