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

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid, GridError, GridFunction


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

    def distribution(self, lam) -> np.ndarray:
        """d_f(lambda) = measure{|f| > lambda}, recovered from the profile."""
        lam = np.asarray(lam, dtype=float)
        # measure above level lam: largest t_i with v_i > lam
        idx = len(self.heights) - np.searchsorted(self.heights[::-1], lam, side="right")
        padded = np.append(0.0, self.breakpoints)
        return padded[idx]

    def scaled(self, factor: float) -> "RearrangementProfile":
        """Profile of |factor| * f."""
        a = abs(factor)
        if a == 0:
            return RearrangementProfile(np.array([]), np.array([]), self.total_measure)
        return RearrangementProfile(a * self.heights, self.breakpoints, self.total_measure)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "value"])
            for t, v in zip(self.breakpoints, self.heights):
                w.writerow([repr(float(t)), repr(float(v))])


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
    ts = np.unique(ts[ts > 0])
    return pfg.evaluate(2.0 * ts) - pf.evaluate(ts) * pg.evaluate(ts)


def weighted_power_profile(
    grid: Grid, lam: float, cap: float, truncation: Optional[float] = None
) -> RearrangementProfile:
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
    if truncation is not None:
        vals = np.where(rho < truncation, vals, 0.0)
    return profile_from_values(vals, grid.cell_measure)


def periodic_convolution(f: GridFunction, g: GridFunction) -> GridFunction:
    """f * g on the torus via the spectral core (h^dim-weighted)."""
    if f.grid != g.grid:
        raise GridError("grids differ")
    F = np.fft.fftn(f.values) * np.fft.fftn(g.values)
    vals = np.fft.ifftn(F) * f.grid.cell_measure
    if f.is_real and g.is_real:
        vals = vals.real
    return GridFunction(f.grid, vals)


def holder_product_ratio(f, g, p1, q1, p2, q2) -> float:
    """||fg||_{p,q} / (||f||_{p1,q1} ||g||_{p2,q2}) for the Hoelder exponents."""
    p = 1.0 / (1.0 / p1 + 1.0 / p2)
    q = 1.0 / (1.0 / q1 + 1.0 / q2) if not (math.isinf(q1) and math.isinf(q2)) else math.inf
    denom = lorentz_norm(f, p1, q1) * lorentz_norm(g, p2, q2)
    if denom == 0:
        raise LorentzError("degenerate factors")
    return lorentz_norm(f * g, p, q) / denom


def compact_support_ratio(f: GridFunction, measure: float, p, q, p1) -> float:
    """||f||_{p,q} / (|D|^(1/p - 1/p1) ||f||_{p1}) for supported f."""
    from .grid import lp_norm

    denom = measure ** (1.0 / p - 1.0 / p1) * lp_norm(f, p1)
    if denom == 0:
        raise LorentzError("degenerate input")
    return lorentz_norm(f, p, q) / denom


def oneil_convolution_ratio(f, g, p1, q1, p2, q2) -> float:
    """||f*g||_{p,q} / (||f||_{p1,q1} ||g||_{p2,q2}), 1/p = 1/p1 + 1/p2 - 1."""
    p = 1.0 / (1.0 / p1 + 1.0 / p2 - 1.0)
    if p <= 0:
        raise LorentzError("O'Neil exponents need 1/p1 + 1/p2 > 1")
    q = 1.0 / (1.0 / q1 + 1.0 / q2) if not (math.isinf(q1) and math.isinf(q2)) else math.inf
    denom = lorentz_norm(f, p1, q1) * lorentz_norm(g, p2, q2)
    if denom == 0:
        raise LorentzError("degenerate factors")
    return lorentz_norm(periodic_convolution(f, g), p, q) / denom
