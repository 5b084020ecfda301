"""Mean-value polynomials, Poincare constants, and the mean-value Poincare
experiments on balls and annuli.

The mean-value polynomial P of degree N on a domain D is the unique
polynomial with  mean_D d^alpha (v - P) = 0  for all |alpha| <= N.  It is
built by the top-down recursion

    Q^N = sum_{|a|=N} x^a/a! mean_D d^a v,
    Q^i = Q^{i+1} + sum_{|a|=i} x^a/a! mean_D d^a (v - Q^{i+1}),

which zeroes the means order by order; coefficientwise d^a Q^i = d^a Q^0
for |a| >= i, and the discrete means vanish to roundoff because the same
spectral derivatives enter every level.  P is evaluated, on D inside the
recursion and on the grid afterwards, by multipliers.polynomial_values.  The
ball mean-value Poincare ratio is the annulus ratio's case k = 0.

Poincare constants are extremal Rayleigh quotients of inverse restricted
operators, computed by inverse power iteration with an inner CG solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cutoffs import DyadicCutoffFamily, evaluate
from .grid import DomainMask, Grid, GridFunction, annulus_mask, ball_mask, lp_norm
from .multipliers import (
    _multi_indices_upto,
    abs_power_table,
    apply_table,
    derivative,
    frac_laplacian,
    polynomial_values,
)
from .singular import gagliardo_seminorms
from .solve import restricted_cg


class MeanValueError(ValueError):
    pass


def _indices_of_order(dim: int, order: int):
    return [alpha for alpha in _multi_indices_upto(dim, order) if sum(alpha) == order]


def default_degree(dim: int) -> int:
    """ceil(n/2) - 1, the degree of the mean-value polynomial at the critical
    order n/2 (0 below dimension 3)."""
    return max(math.ceil(dim / 2) - 1, 0)


@dataclass
class MeanValuePolynomial:
    """Polynomial sum_a c_a x^a / a! in displacement coordinates about center."""

    grid: Grid
    center: np.ndarray
    degree: int
    coeffs: dict
    stages: list = field(default_factory=list)  # Q^i coefficient dicts, i = N..0

    def evaluate(self) -> np.ndarray:
        return self.derivative_values((0,) * self.grid.dim)

    def derivative_values(self, beta) -> np.ndarray:
        """d^beta P on the grid (exact polynomial differentiation)."""
        return polynomial_values(self.grid.periodic_displacement(self.center), self.coeffs, beta)


def meanvalue_polynomial(v: GridFunction, D: DomainMask, degree: int, center=None) -> MeanValuePolynomial:
    """Mean-value polynomial of v on D via the inductive recursion.

    degree is capped at 2 (covers all supported dimensions).
    """
    return meanvalue_polynomials([v], D, degree, center)[0]


def meanvalue_polynomials(fields, D: DomainMask, degree: int, center=None) -> list:
    """meanvalue_polynomial of each field on one mask, the displacement on D
    built once for all of them."""
    if degree > 2 or degree < 0:
        raise MeanValueError("degree must lie in {0, 1, 2}")
    if D.npoints == 0:
        raise MeanValueError("empty mask")
    grid = D.grid
    if center is None:
        center = grid.center
    center = np.atleast_1d(np.asarray(center, dtype=float))
    sel = D.values
    disp = [d[sel] for d in grid.periodic_displacement(center)]
    out = []
    for v in fields:
        coeffs: dict = {}
        stages = []
        for i in range(degree, -1, -1):
            for alpha in _indices_of_order(grid.dim, i):
                residual = derivative(v, alpha).values[sel] - polynomial_values(disp, coeffs, alpha)
                coeffs[alpha] = float(np.mean(residual))
            stages.append(dict(coeffs))
        out.append(MeanValuePolynomial(grid, center, degree, coeffs, stages))
    return out


# -- Poincare constants ------------------------------------------------------

def poincare_constant(
    D: DomainMask,
    s: float,
    t: Optional[float] = None,
    max_power_iterations: int = 1000,
) -> dict:
    """Extremal constant sup ||Lap^s f|| / ||Lap^t f|| over f supported in D
    (s = 0 by default order pair (0, s): the plain Poincare constant
    sup ||f|| / ||Lap^s f||).

    Power iteration on the inverse restricted operator from a seed-0 random
    start: each step solves (P_D Lap^{2t} P_D) u = B f by CG (relative
    residual 1e-12, at most 20000 iterations) and converges when successive
    Rayleigh quotients differ by less than 1e-8 (relative).
    """
    if t is None:
        s, t = 0.0, s
    if not (0 <= s <= t and t > 0):
        raise MeanValueError("orders must satisfy 0 <= s <= t, t > 0")
    grid = D.grid
    sel = D.values
    if not sel.any():
        raise MeanValueError("empty mask")

    table_A = abs_power_table(grid, 2.0 * t)
    table_B = abs_power_table(grid, 2.0 * s) if s > 0 else None

    def apply_A(u):
        return apply_table(u, table_A)

    def apply_B(u):
        """P_D Lap^{2s} on u supported in D; the identity at s = 0."""
        if table_B is None:
            return u
        out = apply_table(u, table_B)
        out[~sel] = 0.0
        return out

    rng = np.random.default_rng(0)
    f = np.zeros(grid.shape)
    f[sel] = rng.standard_normal(int(sel.sum()))
    f /= math.sqrt(float(np.sum(f * f)))
    lam_prev = 0.0
    for it in range(1, max_power_iterations + 1):
        u, _, _ = restricted_cg(sel, apply_A, apply_B(f), 1e-12, 20000)
        num = float(np.sum(u * apply_B(u)))
        den = float(np.sum(u * apply_A(u)))
        lam = num / den
        nrm = math.sqrt(float(np.sum(u * u)))
        f = u / nrm
        if it > 1 and abs(lam - lam_prev) <= 1e-8 * abs(lam):
            return {"constant": math.sqrt(lam), "iterations": it, "s": s, "t": t}
        lam_prev = lam
    raise MeanValueError(
        f"power iteration did not converge within {max_power_iterations} iterations"
    )


# -- mean-value Poincare experiments ----------------------------------------

def _checked_degree(dim: int, degree: Optional[int], s: float, t: float) -> int:
    if degree is None:
        degree = default_degree(dim)
    if not (0 <= s < degree + 1 and 0 <= t < degree + 1 - s):
        raise MeanValueError("orders must satisfy s in [0,N+1), t in [0,N+1-s)")
    return degree


def _mv_ratios(fields, D, wide, r, x, k, s, t, family, degree) -> list:
    """||Lap^s (eta^k_{r,x} (v-P))||_2 / ((2^k r)^t [v]_{wide, s+t}) for each
    field v, with P the mean-value polynomial of v on D; k = 0 is the ball
    case.  The cutoff and the displacement are built once for all fields, and
    the seminorms share one box convolution."""
    grid = fields[0].grid
    eta = evaluate(family, k, r, x, grid).values
    disp = grid.periodic_displacement(x)
    nums = []
    for v, P in zip(fields, meanvalue_polynomials(fields, D, degree, center=x)):
        w = GridFunction(grid, eta * (v.values - polynomial_values(disp, P.coeffs, (0,) * grid.dim)))
        nums.append(lp_norm(frac_laplacian(w, s), 2) if s > 0 else lp_norm(w, 2))
    out = []
    for num, sem in zip(nums, gagliardo_seminorms(fields, wide, s + t)):
        if sem == 0:
            raise MeanValueError("zero seminorm")
        den = (2.0**k * r) ** t * sem
        out.append({"numerator": num, "denominator": den, "ratio": num / den})
    return out


def mv_poincare_ratio(
    fields,
    r: float,
    x,
    s: float,
    t: float,
    family: DyadicCutoffFamily,
    degree: Optional[int] = None,
) -> list:
    """||Lap^s (eta_{r,x} (v-P))||_2 / (r^t [v]_{B_4r(x), s+t}) for each
    field v, with P the mean-value polynomial of v on B_4r(x)."""
    degree = _checked_degree(fields[0].grid.dim, degree, s, t)
    D = ball_mask(fields[0].grid, x, 4.0 * r)
    return _mv_ratios(fields, D, D, r, x, 0, s, t, family, degree)


def annulus_mv_poincare_ratio(
    fields,
    r: float,
    x,
    k: int,
    s: float,
    t: float,
    family: DyadicCutoffFamily,
    degree: Optional[int] = None,
) -> list:
    """Annulus variant, for each field: P on A_k = B_{2^{k+1}r} minus
    closure(B_{2^{k-1}r}), seminorm on the fattened annulus, normalizer
    (2^k r)^t."""
    grid = fields[0].grid
    degree = _checked_degree(grid.dim, degree, s, t)
    if k < 1:
        raise MeanValueError("annulus index k must be >= 1")
    D = annulus_mask(grid, x, 2.0 ** (k - 1) * r, 2.0 ** (k + 1) * r)
    wide = annulus_mask(grid, x, 2.0 ** (k - 2) * r, 2.0 ** (k + 2) * r)
    return _mv_ratios(fields, D, wide, r, x, k, s, t, family, degree)


def polynomial_gap_scan(
    fields,
    r: float,
    x,
    k_max: int,
    family: DyadicCutoffFamily,
    degree: Optional[int] = None,
) -> list:
    """Sup-norm gaps between the ball and annulus mean-value polynomials and
    the L^2 closeness of v to its ball polynomial, per dyadic scale, for
    each field v:

    g_k = ||eta^k_r (P_{B_r} - P_{A_k})||_inf / ((1+k) ||Lap^{n/2} v||_2),
    e_k = ||eta^k_r (v - P_{B_2r})||_2 / ((2^k r)^{n/2} (1+k) ||Lap^{n/2} v||_2),
    with A_k = B_{2^{k+1}r} minus B_{2^k r}.  Masks, cutoffs and the
    displacement are built once for all fields.
    """
    grid = fields[0].grid
    n = grid.dim
    if degree is None:
        degree = default_degree(n)
    if 2.0 ** (k_max + 1) * r > 0.5 * grid.box_length:
        raise MeanValueError("k_max support exceeds the box")
    lap_norms = [lp_norm(frac_laplacian(v, n / 2.0), 2) for v in fields]
    if 0 in lap_norms:
        raise MeanValueError("degenerate input")
    disp = grid.periodic_displacement(x)
    zero = (0,) * n

    def on_grid(D):
        return [polynomial_values(disp, P.coeffs, zero) for P in meanvalue_polynomials(fields, D, degree, x)]

    P_ball, P_2ball = on_grid(ball_mask(grid, x, r)), on_grid(ball_mask(grid, x, 2.0 * r))
    out = [{"g": [], "e": [], "lap_norm": lap, "k_max": k_max} for lap in lap_norms]
    for k in range(1, k_max + 1):
        P_ann = on_grid(annulus_mask(grid, x, 2.0**k * r, 2.0 ** (k + 1) * r))
        eta = evaluate(family, k, r, x, grid).values
        for i, v in enumerate(fields):
            gap = eta * (P_ball[i] - P_ann[i])
            out[i]["g"].append(float(np.max(np.abs(gap))) / ((1 + k) * lap_norms[i]))
            err = GridFunction(grid, eta * (v.values - P_2ball[i]))
            out[i]["e"].append(lp_norm(err, 2) / ((2.0**k * r) ** (n / 2.0) * (1 + k) * lap_norms[i]))
    return out
