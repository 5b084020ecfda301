"""Variational Hodge splitting and the localization experiments built on it.

hodge_decompose minimizes E(phi) = ||Lap^s phi - f||_2^2 over phi supported
in D (conjugate gradient on the D-restricted normal equations) and returns
f = Lap^s phi + h.  The remainder h is then orthogonal to Lap^s of every
interior test function, which for the delta basis is simply the statement
that Lap^s h vanishes on D up to the CG residual; that quantity doubles as
the harmonic remainder driving the interior decay experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import smooth_bump
from .grid import DomainMask, Grid, GridFunction, ball_mask, l2_inner, lp_norm
from .multipliers import (
    FrequencySymbol, _check_mean_zero, abs_power_symbol, abs_power_table, apply_symbol, apply_table, frac_laplacian,
)
from .solve import NumericalError, SolveError, restricted_cg


class HodgeError(NumericalError):
    pass


def _test_basis_norm(grid: Grid, s: float) -> float:
    """||Lap^s e_p||_2 for a unit vector at any grid point (p-independent)."""
    table = abs_power_table(grid, s)
    return math.sqrt(float(np.sum(table**2)) * grid.cell_measure**2 / grid.box_length**grid.dim)


@dataclass
class HodgeDecomposition:
    phi: GridFunction
    h: GridFunction
    s: float
    f: GridFunction
    mask: DomainMask
    iterations: int = 0
    cg_residual: float = 0.0

    def residual_norm(self) -> float:
        """||f - Lap^s phi - h||_2 (zero by construction up to roundoff)."""
        lap_phi = frac_laplacian(self.phi, self.s)
        return lp_norm(GridFunction(self.f.grid, self.f.values - lap_phi.values - self.h.values), 2)

    def orthogonality_margin(self) -> float:
        """max over the interior delta basis of |<h, Lap^s psi>| normalized by
        ||h||_2 ||Lap^s psi||_2."""
        grid = self.f.grid
        lap_h = frac_laplacian(self.h, self.s)
        peak = float(np.max(np.abs(lap_h.values[self.mask.values]))) * grid.cell_measure
        h_norm = lp_norm(self.h, 2)
        if h_norm == 0:
            return 0.0
        return peak / (h_norm * _test_basis_norm(grid, self.s))

    def factor_bound(self) -> float:
        """(||h||_2 + ||Lap^s phi||_2) / ||f||_2, claimed <= 5."""
        f_norm = lp_norm(self.f, 2)
        if f_norm == 0:
            return 0.0
        return (lp_norm(self.h, 2) + lp_norm(frac_laplacian(self.phi, self.s), 2)) / f_norm


def hodge_decompose(f: GridFunction, D: DomainMask, s: float, maxiter: int = 500) -> HodgeDecomposition:
    """Minimize ||Lap^s phi - f||_2 over supp phi in D; h = f - Lap^s phi.

    CG stops at relative residual 1e-10 and raises after maxiter iterations.
    """
    if s <= 0:
        raise HodgeError("order must be positive")
    grid = f.grid
    sel = D.values
    if not sel.any():
        raise HodgeError("empty domain")
    table_s = abs_power_table(grid, s)
    table_2s = abs_power_table(grid, 2.0 * s)

    def apply_A(u):
        return apply_table(u, table_2s)

    b = apply_table(np.asarray(f.values, dtype=float), table_s)
    b[~sel] = 0.0
    try:
        phi_vals, iters, resid = restricted_cg(sel, apply_A, b, 1e-10, maxiter)
    except SolveError as exc:
        raise HodgeError(str(exc)) from exc
    phi = GridFunction(grid, phi_vals, D)
    h = GridFunction(grid, f.values - apply_table(phi_vals, table_s))
    return HodgeDecomposition(phi, h, s, f, D, iterations=iters, cg_residual=resid)


def harmonic_decay_check(f: GridFunction, r: float, x, lambdas: Sequence[float], s: float) -> dict:
    """Decompose f on B_{Lambda r}(x) for each Lambda and track
    rho(Lambda) = ||h||_{L2(B_r)} / ||h||_2 against the Lambda^(-1/4) law."""
    grid = f.grid
    lambdas = sorted(lambdas)
    if lambdas[-1] * r > 0.45 * grid.box_length:
        raise HodgeError("largest ball leaves the padded box")
    inner = ball_mask(grid, x, r)
    rhos = []
    margins = []
    for lam in lambdas:
        dec = hodge_decompose(f, ball_mask(grid, x, lam * r), s, maxiter=2000)
        margins.append(dec.orthogonality_margin())
        h_norm = lp_norm(dec.h, 2)
        rhos.append(lp_norm(dec.h, 2, inner) / h_norm if h_norm > 0 else 0.0)
    lam_lo, lam_hi = lambdas[0], lambdas[-1]
    bound = (lam_hi / lam_lo) ** (-0.25) * 1.1
    return {
        "lambdas": list(lambdas),
        "rho": rhos,
        "orthogonality": margins,
        "decay_ratio": rhos[-1] / rhos[0] if rhos[0] > 0 else 0.0,
        "bound": bound,
    }


def disjoint_pairing_decay(grid: Grid, s: float, t: float, gamma: float, d_list: Sequence[float]) -> dict:
    """|<Lap^s a, Lap^t b>| against the separation d, with a the smooth bump
    on B_gamma(x) about the box center x and b the same bump centered at
    x + (gamma + d + gamma) e_1, so supported beyond B_{gamma+d}(x); fits the
    log-log slope whose continuum value is -(n+s+t).

    Geometry guards: the occupied extent stays under a third of the box and
    the nearest periodic image distance stays above the largest tested d.

    Each full-grid field is dropped at its last use (a after lap_a, b after
    lap_b), so a transform of b runs beside lap_a and b alone.
    """
    if len(d_list) < 3:
        raise HodgeError("need at least 3 separations")
    x = grid.center
    L = grid.box_length
    d_max = max(d_list)
    if gamma + d_max + 2 * gamma > L / 3.0 + 1e-12:
        raise HodgeError("supports occupy more than a third of the box")
    if L - (gamma + d_max + 2 * gamma) < d_max:
        raise HodgeError("periodic image closer than the largest tested separation")
    a = smooth_bump(grid, x, gamma)
    a_on = np.flatnonzero(a.values)
    a_abs = np.abs(a.values.ravel()[a_on])
    lap_a = frac_laplacian(a, s)
    del a
    vals = []
    for d in d_list:
        c_b = x.copy()
        c_b[0] = x[0] + gamma + d + gamma
        b = smooth_bump(grid, c_b, gamma)
        if not _supports_disjoint(a_abs, a_on, b):
            raise HodgeError("supports are not disjoint")
        lap_b = frac_laplacian(b, t)
        del b
        vals.append(abs(l2_inner(lap_a, lap_b)))
        del lap_b
    logs = np.log(np.maximum(vals, 1e-300))  # s = t = 0 pairings vanish exactly
    slope = float(np.polyfit(np.log(np.asarray(d_list, dtype=float)), logs, 1)[0])
    return {
        "d": list(map(float, d_list)),
        "pairing": vals,
        "slope": slope,
        "target": -(grid.dim + s + t),
    }


def _supports_disjoint(a_abs: np.ndarray, a_on: np.ndarray, b: GridFunction) -> bool:
    """max |a b| <= 1e-12 max|a| max|b|, given a_abs = |a| at a_on, the flat
    indices where a is nonzero (a and a b vanish elsewhere, so the maxima are
    those over the whole grid; max|b| is read without a full-grid |b|)."""
    overlap = a_abs * np.abs(b.values.ravel()[a_on])
    scale = np.max(a_abs) * max(b.values.max(), -b.values.min()) + 1e-300
    return float(np.max(overlap)) <= 1e-12 * scale


def localization_representative(b: GridFunction, gamma: float, d: float) -> GridFunction:
    """The function a on D = B_gamma(x), x the box center, representing
    phi -> <Lap^{n/2} b, Lap^{n/2} phi>.

    By self-adjointness of the multiplier the representative is the plain
    restriction of Lap^n b to D; the support condition on b (vanishing on
    B_{gamma+d}(x)) is enforced, the identity itself is checked in the tests
    against independently computed pairings.
    """
    grid = b.grid
    x = grid.center
    n = grid.dim
    guard = ball_mask(grid, x, gamma + d)
    inside = np.abs(b.values[guard.values])
    peak = float(np.max(np.abs(b.values))) + 1e-300
    if inside.size and float(np.max(inside)) > 1e-12 * peak:
        raise HodgeError("b does not vanish on the guard ball")
    D = ball_mask(grid, x, gamma)
    vals = frac_laplacian(b, float(n)).values.copy()
    vals[~D.values] = 0.0
    return GridFunction(grid, vals, D)


def local_norm_recovery(v: GridFunction, r: float, x, lam: float) -> dict:
    """||v||_{L2(B_r)} over the dual-norm sup of phi -> <v, Lap^{n/2} phi>
    with phi ranging over the discrete space supported in B_{Lambda r}(x).

    The sup is the exact finite-dimensional dual norm sqrt(<b, A^{-1} b>) with
    A phi = b the normal equations of the order-n/2 Hodge solve on B_{Lambda r}
    (CG to relative residual 1e-10, at most 4000 iterations), whose remainder
    h = v - Lap^{n/2} phi gives sup^2 = <b, phi> = <v, Lap^{n/2} phi> = <v, v - h>.
    """
    grid = v.grid
    if lam * r > 0.45 * grid.box_length:
        raise HodgeError("Lambda r exceeds the padded box")
    v_norm = lp_norm(v, 2, ball_mask(grid, x, r))
    if v_norm == 0:
        return {"ratio": 0.0, "sup": 0.0, "v_norm": 0.0}
    dec = hodge_decompose(v, ball_mask(grid, x, lam * r), grid.dim / 2.0, maxiter=4000)
    sup = math.sqrt(max(float(np.sum(v.values * (v.values - dec.h.values))) * grid.cell_measure, 0.0))
    return {"ratio": v_norm / sup if sup > 0 else math.inf, "sup": sup, "v_norm": v_norm,
            "iterations": dec.iterations}


def lower_order_product_norm(
    u: GridFunction, v: GridFunction, s: float, m1: FrequencySymbol, m2: FrequencySymbol
) -> dict:
    """||M1 Lap^{s - n/2} u . M2 Lap^{-s} v||_2 over ||u||_2 ||v||_2 for s in
    (0, n/2), each factor one symbol (m1 |xi|^(s - n/2), m2 |xi|^(-s)) applied
    once; both orders are negative, so u and v must be mean-zero (SymbolError)."""
    n = u.grid.dim
    if not (0 < s < n / 2.0):
        raise HodgeError(f"order must lie in (0, n/2), got {s}")
    _check_mean_zero(u)
    _check_mean_zero(v)
    f1 = apply_symbol(u, m1 * abs_power_symbol(n, s - n / 2.0))
    f2 = apply_symbol(v, m2 * abs_power_symbol(n, -s))
    prod_norm = lp_norm(f1 * f2, 2)
    denom = lp_norm(u, 2) * lp_norm(v, 2)
    return {"product_norm": prod_norm, "ratio": prod_norm / denom if denom > 0 else 0.0}
