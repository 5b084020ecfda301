"""Dyadic annuli partition of unity.

The family starts from a fixed smooth radial bump eta0 (== 1 on B_{3/2},
supported in B_2, values in [0,1]) and builds

    eta^k = (1 - sum_{l<k} eta^l) * sum_{l<k} eta^l(./2),      k >= 1,

equivalently 1 - Psi_k = (1 - Psi_{k-1}) (1 - Psi_{k-1}(./2)) for the
partial sums Psi_k = sum_{l<=k} eta^l.  By induction Psi_k = eta0(2^-k .):
(1 - eta0(2^(1-k) rho)) (1 - eta0(2^-k rho)) = 1 - eta0(2^-k rho), since the
first factor is 1 wherever the second is nonzero (2^-k rho > 3/2 gives
2^(1-k) rho > 3).  So eta^k = eta0(2^-k .) - eta0(2^(1-k) .) vanishes outside
the annulus B_{2^{k+1}} \\ closure(B_{2^{k-1}}), the partial sums are
identically 1 on B_{2^k}, and sup |d^i eta^k| <= C_i 2^(-k i).

Radial values and first/second radial derivatives of Psi_k are the closed
form of eta0 at 2^-k rho, with derivatives scaled by 2^-k and 4^-k (no grid
differencing).  In floating point this equals the recursion bit for bit on
values: where eta0(2^(1-k) rho) lies strictly between 0 and 1, the rounded
v + (1 - v) is exactly 1.

evaluate samples eta^k on a grid from the values alone, and only on the
per-axis index box of its support ball; it equals ring(k, .)[0] bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, GridError, GridFunction, lp_norm
from .multipliers import frac_laplacian


def _ramp(t: np.ndarray, derivatives: bool = True):
    """Smooth ramp: 0 for t <= 0, 1 for t >= 1, exp-mollifier blend between.

    Returns (value, d/dt, d2/dt2), or the value alone when derivatives is
    False; exactly 0.0 / 1.0 outside the blend zone.
    """
    t = np.asarray(t, dtype=float)
    v = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    v[t >= 1.0] = 1.0
    ti = t[inside]
    p = 1.0 / ti
    q = 1.0 / (1.0 - ti)
    a = np.exp(-p)  # -(1/t) and -1/t round alike: the values are those of exp(-1/t)
    b = np.exp(-q)
    s = a + b
    v[inside] = a / s
    if not derivatives:
        return v
    d1 = np.zeros_like(t)
    d2 = np.zeros_like(t)
    # powers of p = 1/t and q = 1/(1 - t) by products, not by the generic power
    p2 = p * p
    q2 = q * q
    ap = a * p2
    bp = -b * q2
    app = ap * (p2 - 2.0 * p)  # a (t^-4 - 2 t^-3)
    bpp = b * q2 * (q2 - 2.0 * q)
    d1[inside] = (ap * b - a * bp) / s**2
    num = app * b - a * bpp
    d2[inside] = (num * s - 2.0 * (ap * b - a * bp) * (ap + bp)) / s**3
    return v, d1, d2


def base_profile(rho: np.ndarray):
    """eta0 as a radial profile with derivatives: 1 on [0, 3/2], 0 from 2 on."""
    rho = np.asarray(rho, dtype=float)
    v, d1, d2 = _ramp(2.0 * (2.0 - rho))
    return v, -2.0 * d1, 4.0 * d2


def base_profile_values(rho: np.ndarray) -> np.ndarray:
    """eta0 values alone (no derivative arrays)."""
    return _ramp(2.0 * (2.0 - np.asarray(rho, dtype=float)), derivatives=False)


def _check_base(profile) -> None:
    rho = np.linspace(0.0, 3.0, 4001)
    v = profile(rho)[0]
    if np.any(np.abs(v[rho <= 1.5] - 1.0) > 0):
        raise GridError("base profile must be identically 1 on B_{3/2}")
    if np.any(v[rho >= 2.0] != 0.0):
        raise GridError("base profile must vanish outside B_2")
    if np.any(v < 0) or np.any(v > 1):
        raise GridError("base profile must take values in [0, 1]")


MAX_DEPTH = 511  # 4^-depth, the deepest second-derivative bound's scale, is a normal float


def ring_radii(k: int, n: int) -> np.ndarray:
    """n radii on [0, 2.1 * 2^k], over eta^k's support band (2^(k-1), 2^(k+1))
    and both sides: one sample scaled by 2^k, exactly, for every ring."""
    return np.linspace(0.0, 2.1, n) * 2.0**k


@dataclass
class DyadicCutoffFamily:
    """The eta^k family up to depth K, as radial closed forms.

    partial(k, rho) evaluates Psi_k = sum_{l<=k} eta^l = eta0(2^-k rho) with
    first and second radial derivatives; ring(k, rho) evaluates eta^k alone.
    """

    depth: int
    derivative_constants: dict = field(init=False)

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise GridError(f"depth must lie in [1, {MAX_DEPTH}], got {self.depth}")
        _check_base(base_profile)
        rho = np.linspace(0.0, 2.2, 8001)
        _, d1, d2 = base_profile(rho)
        # paper-style constants: C_i = (1 + 2^i) sup |d^i eta0|
        self.derivative_constants = {
            1: 3.0 * float(np.max(np.abs(d1))),
            2: 5.0 * float(np.max(np.abs(d2))),
        }

    def partial(self, k: int, rho: np.ndarray, derivatives: bool = True):
        """(Psi_k, Psi_k', Psi_k'') at radii rho: eta0 and its chain-rule
        derivatives at 2^-k rho (the closed form of the recursion).  With
        derivatives False, Psi_k alone, bit for bit the first entry."""
        rho = np.asarray(rho, dtype=float)
        if k < 0:
            z = np.zeros_like(rho)
            return (z, z.copy(), z.copy()) if derivatives else z
        h = 2.0**-k
        if not derivatives:
            return base_profile_values(rho * h)
        v, d1, d2 = base_profile(rho * h)
        return v, h * d1, (h * h) * d2

    def ring(self, k: int, rho: np.ndarray, derivatives: bool = True):
        """(eta^k, (eta^k)', (eta^k)'') at radii rho, or eta^k alone with
        derivatives False."""
        here = self.partial(k, rho, derivatives)
        if k == 0:
            return here
        inner = self.partial(k - 1, rho, derivatives)
        if not derivatives:
            return here - inner
        return tuple(x - y for x, y in zip(here, inner))

    def measured_gradient_sup(self, k: int, order: int) -> float:
        """sup over 8192 radii of the support annulus of |d^order eta^k|
        (radial closed form, tangential curvature term |eta'|/rho included
        for order 2)."""
        lo = 0.0 if k == 0 else 2.0 ** (k - 1)
        hi = 2.0 ** (k + 1)
        rho = np.linspace(max(lo, 1e-9), hi, 8192)
        _, d1, d2 = self.ring(k, rho)
        if order == 1:
            return float(np.max(np.abs(d1)))
        if order == 2:
            return float(max(np.max(np.abs(d2)), np.max(np.abs(d1) / rho)))
        raise GridError("derivative bounds are tracked for orders 1 and 2")


def build_family(depth: int) -> DyadicCutoffFamily:
    """Construct the family and assert its structural invariants.

    Checks, on 20001 radii of each ring's own scale (ring_radii): supports
    (property (i), exact zeros), the partition property (ii) within 1e-12
    and the range [0, 1 + 1e-14] from values alone, and the measured
    derivative bounds sup|d^i eta^k| <= C_i 2^(-k i).
    """
    fam = DyadicCutoffFamily(depth)
    for k in range(depth + 1):
        rho = ring_radii(k, 20001)
        v = fam.ring(k, rho, derivatives=False)
        if np.any(v < -1e-14) or np.any(v > 1.0 + 1e-14):
            raise GridError(f"eta^{k} leaves [0,1]")
        if k >= 1:
            outside = (rho <= 2.0 ** (k - 1)) | (rho >= 2.0 ** (k + 1))
            if np.max(np.abs(v[outside])) > 1e-14:
                raise GridError(f"eta^{k} violates the support annulus")
        vp = fam.partial(k, rho, derivatives=False)
        on_ball = rho <= 2.0**k
        if np.max(np.abs(vp[on_ball] - 1.0)) > 1e-12:
            raise GridError(f"partial sum through eta^{k} is not 1 on B_2^{k}")
    for k in range(1, depth + 1):
        for order in (1, 2):
            sup = fam.measured_gradient_sup(k, order)
            bound = fam.derivative_constants[order] * 2.0 ** (-k * order)
            if sup > bound * (1.0 + 1e-9):
                raise GridError(
                    f"derivative bound failed: sup|d^{order} eta^{k}| = {sup:.3e} "
                    f"> C_{order} 2^(-{k}*{order}) = {bound:.3e}"
                )
    return fam


def evaluate(family: DyadicCutoffFamily, k: int, r: float, x, grid: Grid) -> GridFunction:
    """Sample eta^k((. - x)/r) on the grid: values only, in closed form
    eta0(2^-k rho/r) - eta0(2^(1-k) rho/r) (one term for k = 0).

    They are computed only on the per-axis index box of grid points y with
    |y_a - x_a| < R = 2^(k+1) r, and are exactly 0.0 elsewhere, which is the
    value of ring(k, rho / r)[0] there too: off the box the computed rho is
    >= R, and R is r times a power of two, so by monotone rounding
    fl(rho/r) >= 2^(k+1) and eta0 is 0.0 at 2^-k rho/r >= 2.
    """
    if k > family.depth:
        raise GridError(f"k = {k} exceeds family depth {family.depth}")
    R = 2.0 ** (k + 1) * r
    if R > 0.5 * grid.box_length:
        raise GridError(f"support radius {R:g} exceeds half the box {0.5 * grid.box_length:g}")
    box, disp = grid.support_box(x, R)
    t = np.sqrt(sum(d * d for d in disp)) / r
    ring = base_profile_values(t * 2.0**-k)
    if k > 0:
        ring -= base_profile_values(t * 2.0 ** (1 - k))
    vals = np.zeros(grid.shape)
    vals[box] = ring
    return GridFunction(grid, vals)


def norm_scaling_experiment(
    family: DyadicCutoffFamily,
    grid: Grid,
    s: float,
    p_prime: float,
    k_range,
    r: float,
) -> dict:
    """Regress log2 ||Lap^s eta^k_{r,x}||_{p'} on k, x the box center.

    The fitted slope tracks -s + n/p' (eta^k lives at scale 2^k r and the
    operator/norm scalings combine to that exponent).
    """
    k_range = list(k_range)
    if len(k_range) < 4:
        raise GridError("need at least 4 values of k")
    if p_prime not in (2.0, 4.0, float("inf"), 2, 4):
        raise GridError("p_prime restricted to {2, 4, inf}")
    norms = []
    for k in k_range:
        eta = evaluate(family, k, r, grid.center, grid)
        norms.append(lp_norm(frac_laplacian(eta, s), float(p_prime)))
    logs = np.log2(np.asarray(norms))
    slope = float(np.polyfit(np.asarray(k_range, dtype=float), logs, 1)[0])
    n_over_p = 0.0 if math.isinf(float(p_prime)) else grid.dim / float(p_prime)
    return {
        "k": k_range,
        "norms": norms,
        "slope": slope,
        "target": -s + n_over_p,
    }
