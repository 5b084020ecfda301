"""Distribution function, decreasing rearrangement and Lorentz norms.

A grid function is a simple function with cells of measure h^dim, so its
decreasing rearrangement is an exact step function.  Every Lorentz integral
here is evaluated in closed form on that step function:

    ||f||_{p,q}^q = sum_i v_i^q (p/q) (t_i^{q/p} - t_{i-1}^{q/p}),   q < inf,
    ||f||_{p,inf} = max_i t_i^{1/p} v_i,

for profile heights v_1 >= v_2 >= ... on measure intervals (t_{i-1}, t_i].
No quadrature in t appears anywhere, which is what makes the rearrangement
inequalities exactly assertable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction, sorted_distinct


class LorentzError(ValueError):
    pass


@dataclass(frozen=True)
class RearrangementProfile:
    """The decreasing rearrangement f* as a right-open step function.

    heights: strictly positive step values, nonincreasing;
    breakpoints: cumulative measures t_1 < ... < t_M (t_0 = 0 implicit);
    total_measure: measure of the underlying space (zeros padded implicitly).
    """

    heights: np.ndarray
    breakpoints: np.ndarray
    total_measure: float

    def __post_init__(self):
        h = np.asarray(self.heights, dtype=float)
        t = np.asarray(self.breakpoints, dtype=float)
        if h.shape != t.shape:
            raise LorentzError("heights and breakpoints must align")
        if h.size and (np.any(np.diff(h) > 0) or np.any(h < 0)):
            raise LorentzError("profile heights must be nonincreasing and nonnegative")
        if t.size and (np.any(np.diff(t) <= 0) or t[0] <= 0):
            raise LorentzError("breakpoints must be positive and increasing")
        object.__setattr__(self, "heights", h)
        object.__setattr__(self, "breakpoints", t)

    def evaluate(self, t) -> np.ndarray:
        """f*(t) = height of the piece containing t (right-continuous)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right")
        padded = np.append(self.heights, 0.0)
        out = padded[np.minimum(idx, len(self.heights))]
        return np.where(t < 0, np.nan, out)


def profile_from_values(values: np.ndarray, cell_measure: float) -> RearrangementProfile:
    """Rearrangement of a simple function given raw cell values."""
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    total = v.size * cell_measure
    v = np.sort(v)[::-1]
    v = v[v > 0]
    if v.size == 0:
        return RearrangementProfile(np.array([]), np.array([]), total)
    # compress equal runs so breakpoints are the genuine jump locations
    change = np.nonzero(np.diff(v))[0]
    ends = np.append(change, v.size - 1)
    heights = v[ends]
    breakpoints = (ends + 1) * cell_measure
    return RearrangementProfile(heights, breakpoints, total)


def decreasing_rearrangement(f: GridFunction) -> RearrangementProfile:
    """Profile of |f| with cell measure h^dim per sample."""
    return profile_from_values(f.values, f.grid.cell_measure)


def lorentz_norm_profile(prof: RearrangementProfile, p: float, q: float) -> float:
    if not (p > 1):
        raise LorentzError(f"p must lie in (1, inf], got {p}")
    if math.isinf(p) and not math.isinf(q):
        raise LorentzError("for p = inf only q = inf is admissible")
    if not (1 <= q):
        raise LorentzError(f"q must lie in [1, inf], got {q}")
    v, t = prof.heights, prof.breakpoints
    if v.size == 0:
        return 0.0
    if math.isinf(p):
        return float(v[0])
    if math.isinf(q):
        return float(np.max(t ** (1.0 / p) * v))
    t0 = np.append(0.0, t[:-1])
    pieces = v**q * (p / q) * (t ** (q / p) - t0 ** (q / p))
    return float(np.sum(pieces) ** (1.0 / q))


def lorentz_norm(f: GridFunction, p: float, q: float) -> float:
    """Exact closed-form ||f||_{p,q} of the step-function rearrangement."""
    return lorentz_norm_profile(decreasing_rearrangement(f), p, q)


def weak_norm_bound_margin(prof: RearrangementProfile, p: float, q: float) -> dict:
    """Check sup_t t^(1/p) f*(t) <= (q/p)^(1/q) ||f||_{p,q} on the profile.

    The constant comes from integrating t^(q/p-1) below any fixed t0 where
    f* is still >= f*(t0); both sides are closed-form on step profiles.
    """
    weak = lorentz_norm_profile(prof, p, math.inf)
    strong = lorentz_norm_profile(prof, p, q)
    bound = (q / p) ** (1.0 / q) * strong
    return {"weak": weak, "bound": bound, "margin": bound - weak}


def product_rearrangement_gaps(f: GridFunction, g: GridFunction) -> np.ndarray:
    """(fg)*(2t) - f*(t) g*(t) at every relevant breakpoint (all must be <= 0).

    Checked at the breakpoints of f* and g* and at half the breakpoints of
    (fg)*, which exhausts the places where either side can jump.
    """
    pf = decreasing_rearrangement(f)
    pg = decreasing_rearrangement(g)
    pfg = decreasing_rearrangement(f * g)
    ts = np.concatenate([pf.breakpoints, pg.breakpoints, 0.5 * pfg.breakpoints])
    ts = sorted_distinct(ts[ts > 0])
    return pfg.evaluate(2.0 * ts) - pf.evaluate(ts) * pg.evaluate(ts)


def weighted_power_profile(grid: Grid, lam: float, cap: float) -> RearrangementProfile:
    """Profile of x -> min(|x|^-lam, cap) about the box center.

    |.|^-lam belongs to L^{n/lam, inf} exactly; the capped, gridded version
    has a weak n/lam-norm that stabilizes under cap and grid refinement while
    every other p diverges on its unbounded side.
    """
    if not (0 < lam < grid.dim):
        raise LorentzError(f"lambda must lie in (0, n), got {lam}")
    rho = grid.periodic_distance(grid.center)
    with np.errstate(divide="ignore"):
        vals = np.minimum(rho**-lam, cap)
    return profile_from_values(vals, grid.cell_measure)
