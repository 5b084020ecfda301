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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid, GridError, GridFunction, lp_norm, spectral_mass_fraction_above, transform_forward
from .lorentz import lorentz_norm_profile, profile_from_values
from .multipliers import frac_laplacian

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

def defect_ratio(x: np.ndarray, xi: np.ndarray, p: float, theta: float = 0.5) -> np.ndarray:
    """| |x-xi|^p - |xi|^p - |x|^p | over the compensation majorant.

    Majorant: |x|^(p theta) |xi|^(p(1-theta)) for p <= 1, else
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
        den = ax ** (p * theta) * axi ** (p * (1.0 - theta))
    else:
        den = ax ** (p - 1) * axi + axi ** (p - 1) * ax
    return num / den


def defect_scan(
    dim: int, p: float, theta: float = 0.5, samples: int = 1_000_000, seed: int = 0
) -> dict:
    """Sup of defect_ratio over seeded samples with |xi| = 1 (homogeneity
    reduction: both sides are p-homogeneous under (x,xi) -> (t x, t xi))."""
    rng = np.random.default_rng(seed)
    xdir = rng.standard_normal((samples, dim))
    xdir /= np.linalg.norm(xdir, axis=1, keepdims=True)
    radius = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=samples))
    x = xdir * radius[:, None]
    xi = rng.standard_normal((samples, dim))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    ratios = defect_ratio(x, xi, p, theta)
    return {"sup": float(np.max(ratios)), "samples": samples, "p": p, "theta": theta}


def triangle_defect_scan(
    dim: int, p: float, samples: int = 1_000_000, seed: int = 0
) -> dict:
    """Sup of ||x-y|^p - |y|^p| / |x|^p over seeded samples, p in (0,1)."""
    if not (0 < p < 1):
        raise CompensationError("triangle variant needs p in (0,1)")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = rng.standard_normal((samples, dim))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    y *= np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=samples))[:, None]
    num = np.abs(np.linalg.norm(x - y, axis=1) ** p - np.linalg.norm(y, axis=1) ** p)
    return {"sup": float(np.max(num)), "samples": samples, "p": p}


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
    full = np.fft.ifftn(fa * fb, axes=axes)
    if not (np.iscomplexobj(A) or np.iscomplexobj(B)):
        full = full.real
    # modes of the factors run over [-N/2, N/2); index m in the shifted layout
    # is m + N/2, so the sum index (m1 + m2) + N sits at offset N/2 from the
    # output's origin when we crop back to the central window
    start = N // 2
    sl = tuple(slice(start, start + N) for _ in range(grid.dim))
    out = full[sl]
    return np.fft.ifftshift(out) / grid.box_length**grid.dim


def fourier_domination_check(
    u: GridFunction, v: GridFunction, threshold: float = 1e-12
) -> dict:
    """Pointwise |H(u,v)^| against the dominating convolution of half-order
    coefficient magnitudes; returns the max ratio where the majorant is
    non-negligible.

    dims 1, 2: |(Lap^{n/4} u)^| * |(Lap^{n/4} v)^|;
    dim 3: the two-term version with orders (n-2)/2 and 1.
    """
    grid = u.grid
    n = grid.dim
    H = commutator_H(u, v)
    H_hat = np.abs(transform_forward(H))
    if n <= 2:
        A = np.abs(transform_forward(frac_laplacian(u, n / 4.0)))
        B = np.abs(transform_forward(frac_laplacian(v, n / 4.0)))
        dom = mode_convolution(grid, A, B)
    else:
        A1 = np.abs(transform_forward(frac_laplacian(u, (n - 2) / 2.0)))
        B1 = np.abs(transform_forward(frac_laplacian(v, 1.0)))
        A2 = np.abs(transform_forward(frac_laplacian(u, 1.0)))
        B2 = np.abs(transform_forward(frac_laplacian(v, (n - 2) / 2.0)))
        dom = mode_convolution(grid, A1, B1) + mode_convolution(grid, A2, B2)
    dom = np.abs(dom)
    if float(np.max(dom)) == 0.0:
        if float(np.max(H_hat)) <= 1e-300:
            return {"max_ratio": 0.0, "points": 0}
        raise CompensationError("dominating convolution is identically negligible")
    floor = threshold * float(np.max(dom))
    sel = dom > floor
    ratios = H_hat[sel] / dom[sel]
    return {"max_ratio": float(np.max(ratios)), "points": int(sel.sum())}


def h_norm_ratio(u: GridFunction, v: GridFunction) -> dict:
    """The three compensation ratio families for H(u,v).

    l2: ||H||_2 / (||Lap^{n/2}u||_2 ||Lap^{n/2}v||_2);
    lorentz21: ||H^||_{2,1} over the same product;
    weak_factor: ||H||_2 / (||(Lap^{n/2}u)^||_{2,inf} ||Lap^{n/2}v||_2).
    """
    grid = u.grid
    n = grid.dim
    s = _checked_order(u, v, None, guard=True)
    lap_u = frac_laplacian(u, s)
    lap_v = frac_laplacian(v, s)
    H = _commutator_from(u, v, lap_u.values, lap_v.values, s)
    nu, nv = lp_norm(lap_u, 2), lp_norm(lap_v, 2)
    if nu == 0 or nv == 0:
        raise CompensationError("zero energy denominators")
    cell = grid.box_length ** (-grid.dim)
    H_prof = profile_from_values(np.abs(transform_forward(H)), cell)
    u_prof = profile_from_values(np.abs(transform_forward(lap_u)), cell)
    weak_u = lorentz_norm_profile(u_prof, 2.0, math.inf)
    return {
        "l2": lp_norm(H, 2) / (nu * nv),
        "lorentz21": lorentz_norm_profile(H_prof, 2.0, 1.0) / (nu * nv),
        "weak_factor": lp_norm(H, 2) / (weak_u * nv) if weak_u > 0 else 0.0,
    }


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
