"""The compensation commutator H(u,v), its elementary defect inequalities,
the Fourier-side domination, and the structure-equation identity.

    H(a,b) = Lap^{n/2}(ab) - a Lap^{n/2} b - b Lap^{n/2} a

(orders in this package's |xi|^s convention, i.e. the half-Laplacian order
n/2 pairs with maps of the energy space).  H is bilinear and symmetric; for
sphere-valued w = eta u the exact pointwise identity

    w . Lap^{n/2} w = -1/2 H(w,w) + 1/2 Lap^{n/2}(eta^2)

holds on the grid to machine precision, because it is pure algebra in the
discrete operations once |u| = 1 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid, GridError, GridFunction, lp_norm, spectral_mass_fraction_above, transform_forward
from .multipliers import abs_power_table, frac_laplacian

ALIAS_GUARD_FRACTION = 1e-8


class CompensationError(ValueError):
    pass


@dataclass(frozen=True)
class SphereValuedMap:
    """Components of a map into the unit sphere; |u(x)| = 1 to 1e-12."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise CompensationError("need at least one component")
        norm_sq = sum(np.asarray(c.values, dtype=float) ** 2 for c in comps)
        if np.max(np.abs(norm_sq - 1.0)) > 1e-12:
            raise CompensationError("components do not lie on the unit sphere pointwise")
        object.__setattr__(self, "components", comps)

    @property
    def grid(self) -> Grid:
        return self.components[0].grid


def _check_alias_guard(f: GridFunction, name: str) -> None:
    frac = spectral_mass_fraction_above(f, f.grid.points_per_axis / 4)
    if frac > ALIAS_GUARD_FRACTION:
        raise CompensationError(
            f"aliasing guard violated for {name}: mass fraction above N/4 is {frac:.2e}"
        )


def commutator_H(
    u: GridFunction, v: GridFunction, order: Optional[float] = None, guard: bool = True
) -> GridFunction:
    """H(u,v) at the given operator order (default n/2), zero modes annihilated.

    The pointwise product folds spectra, so both inputs must keep their
    spectral mass below N/4 (checked unless guard=False).
    """
    s = _checked_order(u, v, order, guard)
    return _commutator_from(u, v, frac_laplacian(u, s).values, frac_laplacian(v, s).values, s)


def _checked_order(u: GridFunction, v: GridFunction, order: Optional[float], guard: bool) -> float:
    if u.grid != v.grid:
        raise GridError("grids differ")
    if guard:
        _check_alias_guard(u, "u")
        _check_alias_guard(v, "v")
    return float(order) if order is not None else u.grid.dim / 2.0


def _commutator_from(
    u: GridFunction, v: GridFunction, lap_u: np.ndarray, lap_v: np.ndarray, s: float
) -> GridFunction:
    """H(u,v) from Lap^s u and Lap^s v already at hand (no checks)."""
    uv = GridFunction(u.grid, u.values * v.values)
    out = frac_laplacian(uv, s).values - u.values * lap_v - v.values * lap_u
    return GridFunction(u.grid, out)


# -- elementary defect inequalities -----------------------------------------

DEFECT_SUP = 2.0
"""Sup of defect_ratio for p in (0, 1], in every dim: the sharp C in
| |x-xi|^p - |xi|^p - |x|^p | <= C |x|^(p/2) |xi|^(p/2).

Write a = |x|^(p/2), b = |xi|^(p/2).  Subadditivity of t -> t^p (p <= 1)
gives |a^2 - b^2| <= |x-xi|^p <= a^2 + b^2, so the defect
a^2 + b^2 - |x-xi|^p lies in [0, 2 min(a, b)^2], a subset of [0, 2ab].
Equality holds at x = xi, where |x-xi|^p = 0 and a = b.
"""

# roundoff allowance on DEFECT_SUP for defect_ratio in float64: 4 ulp of 2
# (defect_ratio(xi, xi, p) reaches 2 + 2 ulp)
DEFECT_ROUNDOFF = 4 * float(np.spacing(DEFECT_SUP))


def defect_ratio(x: np.ndarray, xi: np.ndarray, p: float) -> np.ndarray:
    """| |x-xi|^p - |xi|^p - |x|^p | over the compensation majorant.

    Majorant: |x|^(p/2) |xi|^(p/2) for p <= 1, else
    |x|^(p-1)|xi| + |xi|^(p-1)|x|.  Vectorized over rows of x, xi.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    ax = np.linalg.norm(x, axis=-1)
    axi = np.linalg.norm(xi, axis=-1)
    if np.any(ax == 0) or np.any(axi == 0):
        raise CompensationError("defect samples must avoid the origin")
    num = np.abs(np.linalg.norm(x - xi, axis=-1) ** p - axi**p - ax**p)
    if p <= 1:
        den = ax ** (0.5 * p) * axi ** (0.5 * p)
    else:
        den = ax ** (p - 1) * axi + axi ** (p - 1) * ax
    return num / den


def defect_scan(dim: int, p: float, samples: int = 1_000_000, seed: int = 0) -> dict:
    """Sup of defect_ratio over seeded samples with |xi| = 1 (homogeneity
    reduction: both sides are p-homogeneous under (x,xi) -> (t x, t xi))."""
    rng = np.random.default_rng(seed)
    xdir = rng.standard_normal((samples, dim))
    xdir /= np.linalg.norm(xdir, axis=1, keepdims=True)
    radius = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=samples))
    x = xdir * radius[:, None]
    xi = rng.standard_normal((samples, dim))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    ratios = defect_ratio(x, xi, p)
    return {"sup": float(np.max(ratios)), "samples": samples, "p": p}


# -- Fourier-side domination --------------------------------------------------

def mode_convolution(grid: Grid, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Linear convolution of coefficient tables over the mode lattice with
    frequency-cell measure L^-dim, returned in fft layout."""
    N = grid.points_per_axis
    a = np.fft.fftshift(A)
    b = np.fft.fftshift(B)
    shape = tuple(2 * N for _ in range(grid.dim))
    axes = tuple(range(grid.dim))
    fa = np.fft.fftn(a, s=shape, axes=axes)
    fb = np.fft.fftn(b, s=shape, axes=axes)
    full = np.fft.ifftn(fa * fb, axes=axes).real
    # modes of the factors run over [-N/2, N/2); index m in the shifted layout
    # is m + N/2, so the sum index (m1 + m2) + N sits at offset N/2 from the
    # output's origin when we crop back to the central window
    start = N // 2
    sl = tuple(slice(start, start + N) for _ in range(grid.dim))
    out = full[sl]
    return np.fft.ifftshift(out) / grid.box_length**grid.dim


def fourier_domination_check(u: GridFunction, v: GridFunction) -> dict:
    """Pointwise |H(u,v)^| against the dominating convolution sum over order
    pairs (a, b) of |(Lap^a u)^| * |(Lap^b v)^|; returns the max ratio where
    the majorant exceeds 1e-12 of its maximum.  The pairs are (n/4, n/4) in
    dims 1, 2 and ((n-2)/2, 1), (1, (n-2)/2) in dim 3; each order is positive,
    so |(Lap^a u)^| = |xi|^a |u^| (abs_power_table) from one transform of u.
    """
    grid = u.grid
    n = grid.dim
    H_hat = np.abs(transform_forward(commutator_H(u, v)))
    u_hat, v_hat = np.abs(transform_forward(u)), np.abs(transform_forward(v))
    pairs = [(n / 4.0, n / 4.0)] if n <= 2 else [((n - 2) / 2.0, 1.0), (1.0, (n - 2) / 2.0)]
    dom = sum(
        mode_convolution(grid, abs_power_table(grid, a) * u_hat, abs_power_table(grid, b) * v_hat)
        for a, b in pairs
    )
    dom = np.abs(dom)
    if float(np.max(dom)) == 0.0:
        if float(np.max(H_hat)) <= 1e-300:
            return {"max_ratio": 0.0, "points": 0}
        raise CompensationError("dominating convolution is identically negligible")
    floor = 1e-12 * float(np.max(dom))
    sel = dom > floor
    ratios = H_hat[sel] / dom[sel]
    return {"max_ratio": float(np.max(ratios)), "points": int(sel.sum())}


def h_norm_ratio(u: GridFunction, v: GridFunction) -> float:
    """||H(u,v)||_2 / (||Lap^{n/2}u||_2 ||Lap^{n/2}v||_2)."""
    s = _checked_order(u, v, None, guard=True)
    lap_u = frac_laplacian(u, s)
    lap_v = frac_laplacian(v, s)
    H = _commutator_from(u, v, lap_u.values, lap_v.values, s)
    nu, nv = lp_norm(lap_u, 2), lp_norm(lap_v, 2)
    if nu == 0 or nv == 0:
        raise CompensationError("zero energy denominators")
    return lp_norm(H, 2) / (nu * nv)


def structure_identity_residual(u: SphereValuedMap, eta: GridFunction) -> dict:
    """Residual of w . Lap^{n/2} w + 1/2 H(w,w) - 1/2 Lap^{n/2}(eta^2) in L^2,
    relative to ||Lap^{n/2}(eta^2)||_2 (exact identity, not an estimate)."""
    grid = u.grid
    n = grid.dim
    if eta.grid != grid:
        raise GridError("grids differ")
    _check_alias_guard(eta, "eta")
    eta_sq = GridFunction(grid, eta.values * eta.values)
    rhs = frac_laplacian(eta_sq, n / 2.0)
    acc = np.zeros(grid.shape)
    for comp in u.components:
        w = GridFunction(grid, eta.values * comp.values)
        lap_w = frac_laplacian(w, n / 2.0)
        H_ww = _commutator_from(w, w, lap_w.values, lap_w.values, n / 2.0)
        acc = acc + w.values * lap_w.values + 0.5 * H_ww.values
    resid = GridFunction(grid, acc - 0.5 * rhs.values)
    scale = lp_norm(rhs, 2)
    if scale == 0:
        raise CompensationError("degenerate cutoff")
    return {"residual": lp_norm(resid, 2), "scale": scale, "relative": lp_norm(resid, 2) / scale}
