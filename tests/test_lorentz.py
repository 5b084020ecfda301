import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.fields import band_limited_field, confined_field
from fraclap.grid import Grid, GridError, GridFunction, lp_norm
from fraclap.lorentz import (
    LorentzError,
    decreasing_rearrangement,
    lorentz_norm,
    lorentz_norm_profile,
    product_rearrangement_gaps,
    profile_from_values,
    weak_norm_bound_margin,
    weighted_power_profile,
)


def test_indicator_profile_and_norm():
    # chi of a set of measure mu: f* = 1 on [0, mu); ||f||_{p,q} = (p/q)^(1/q) mu^(1/p)
    g = Grid(1, 512, 1.0)
    sel = np.zeros(g.shape)
    sel[:100] = 1.0
    f = GridFunction(g, sel)
    mu = 100 * g.cell_measure
    prof = decreasing_rearrangement(f)
    assert prof.heights.tolist() == [1.0]
    assert abs(prof.breakpoints[0] - mu) < 1e-15
    assert prof.evaluate(mu / 2) == 1.0 and prof.evaluate(mu) == 0.0
    for p, q in ((2.0, 1.0), (3.0, 2.0), (1.5, 1.5)):
        expect = (p / q) ** (1.0 / q) * mu ** (1.0 / p)
        assert abs(lorentz_norm(f, p, q) - expect) <= 1e-12 * expect


def test_lpp_equals_lp():
    g = Grid(1, 512, 1.0)
    f = band_limited_field(g, 0)
    assert abs(lorentz_norm(f, 2.0, 2.0) - lp_norm(f, 2)) <= 1e-12 * lp_norm(f, 2)


def test_zero_function():
    g = Grid(1, 64, 1.0)
    f = GridFunction(g, np.zeros(g.shape))
    assert lorentz_norm(f, 2.0, 1.0) == 0.0


def test_profile_invariances():
    g = Grid(1, 256, 1.0)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(g.shape)
    f = GridFunction(g, vals)
    perm = GridFunction(g, rng.permutation(vals))
    pf, pp = decreasing_rearrangement(f), decreasing_rearrangement(perm)
    assert np.array_equal(pf.heights, pp.heights)
    assert np.array_equal(pf.breakpoints, pp.breakpoints)
    scaled = decreasing_rearrangement(GridFunction(g, -2.5 * vals))
    assert np.allclose(scaled.heights, 2.5 * pf.heights, rtol=1e-15)
    assert pf.total_measure == g.npoints * g.cell_measure


def distribution(prof, lam) -> np.ndarray:
    """d_f(lambda) = measure{|f| > lambda}, recovered from the profile."""
    lam = np.asarray(lam, dtype=float)
    # measure above level lam: largest t_i with v_i > lam
    idx = len(prof.heights) - np.searchsorted(prof.heights[::-1], lam, side="right")
    padded = np.append(0.0, prof.breakpoints)
    return padded[idx]


def test_distribution_function_recovery():
    vals = np.array([3.0, 1.0, 1.0, 0.5, 0.0])
    prof = profile_from_values(vals, 0.1)
    # d(lambda) = measure{|f| > lambda}, right-continuous
    assert distribution(prof, 2.9) == pytest.approx(0.1)
    assert distribution(prof, 1.0) == pytest.approx(0.1)  # strictly greater only
    assert distribution(prof, 0.9) == pytest.approx(0.3)
    assert distribution(prof, 0.0) == pytest.approx(0.4)
    # f*(t) = inf{s : d(s) <= t} at breakpoints
    for t in prof.breakpoints:
        s = prof.evaluate(t)
        assert distribution(prof, s) <= t + 1e-15


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_product_rearrangement_inequality(seed):
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.standard_normal(g.shape))
    h = GridFunction(g, rng.standard_normal(g.shape))
    gaps = product_rearrangement_gaps(f, h)
    assert np.max(gaps) <= 1e-14 * max(1.0, float(np.max(np.abs(f.values * h.values))))


def test_product_rearrangement_gaps_at_the_unique_breakpoints():
    # repeated values give repeated breakpoints; each is checked once
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.integers(-3, 4, g.shape) * 1.0)
    h = GridFunction(g, rng.integers(-2, 3, g.shape) * 0.5)
    pf, ph, pfh = (decreasing_rearrangement(x) for x in (f, h, f * h))
    ts = np.concatenate([pf.breakpoints, ph.breakpoints, 0.5 * pfh.breakpoints])
    ts = np.unique(ts[ts > 0])
    ref = pfh.evaluate(2.0 * ts) - pf.evaluate(ts) * ph.evaluate(ts)
    assert np.array_equal(product_rearrangement_gaps(f, h), ref)


def test_lorentz_norm_oracle_quadrature():
    # closed-form profile integration against a brute-force midpoint sum;
    # substituting u = t^(q/p) removes the endpoint singularity:
    # ||f||^q = (p/q) int f*(u^(p/q))^q du
    g = Grid(1, 128, 1.0)
    f = band_limited_field(g, 5)
    prof = decreasing_rearrangement(f)
    p, q = 2.5, 1.5
    u_max = prof.breakpoints[-1] ** (q / p)
    du = u_max / 2_000_000
    u_mid = (np.arange(2_000_000) + 0.5) * du
    brute = ((p / q) * np.sum(prof.evaluate(u_mid ** (p / q)) ** q) * du) ** (1.0 / q)
    exact = lorentz_norm(f, p, q)
    assert abs(brute - exact) <= 2e-4 * exact


def test_admissibility():
    g = Grid(1, 64, 1.0)
    f = band_limited_field(g, 0)
    with pytest.raises(LorentzError):
        lorentz_norm(f, math.inf, 2.0)
    with pytest.raises(LorentzError):
        lorentz_norm(f, 1.0, 1.0)
    assert lorentz_norm(f, math.inf, math.inf) == lp_norm(f, math.inf)


def test_scaling_law():
    # ||f(lambda .)||_{p,q} = lambda^(-n/p) ||f||_{p,q}: sample an analytic trig
    # field on the unit box and its half-dilation on the doubled box
    g1 = Grid(1, 512, 1.0)
    g2 = Grid(1, 1024, 2.0)
    rng = np.random.default_rng(7)
    modes, amps, phases = rng.integers(1, 10, 5), rng.standard_normal(5), rng.uniform(0, 2 * np.pi, 5)

    def field(g, lam):
        x = g.coords()[0]
        vals = sum(a * np.cos(2 * np.pi * m * lam * x + ph) for m, a, ph in zip(modes, amps, phases))
        return GridFunction(g, vals)

    for p, q in ((2.0, 1.0), (3.0, 3.0)):
        base = lorentz_norm(field(g1, 1.0), p, q)
        dil = lorentz_norm(field(g2, 0.5), p, q)
        assert abs(dil - 2.0 ** (1.0 / p) * base) <= 0.01 * base


def test_weak_norm_bound_exact():
    g = Grid(1, 512, 1.0)
    for seed in range(6):
        prof = decreasing_rearrangement(band_limited_field(g, seed))
        for p, q in ((2.0, 1.0), (4.0, 2.0), (1.5, 1.0)):
            out = weak_norm_bound_margin(prof, p, q)
            assert out["weak"] <= out["bound"] * (1 + 1e-12)


def test_weighted_power_profile_limits():
    g = Grid(1, 2048, 1.0)
    with pytest.raises(LorentzError):
        weighted_power_profile(g, 1.5, 10.0)
    # lambda -> 0 with unit cap: the weight becomes the constant 1 and the
    # weak norms are plain box-measure powers |box|^(1/p)
    prof = weighted_power_profile(g, 1e-9, 1.0)
    assert abs(lorentz_norm_profile(prof, 2.0, math.inf) - 1.0) < 1e-6
    assert abs(lorentz_norm_profile(prof, 4.0, math.inf) - 1.0) < 1e-6


def test_weighted_power_weak_norm_refinement():
    lam = 0.5
    weak, p4 = [], []
    for n_pts in (512, 8192):
        g = Grid(1, n_pts, 1.0)
        cap = g.spacing ** (-lam)
        prof = weighted_power_profile(g, lam, cap)
        weak.append(lorentz_norm_profile(prof, 1.0 / lam, math.inf))
        p4.append(lorentz_norm_profile(prof, 4.0, math.inf))
    assert abs(weak[1] / weak[0] - 1.0) <= 0.05
    assert p4[1] >= 2.0 * p4[0]


# -- O'Neil and Hoelder ratios, calibrated then regressed on seeded fields ------

def periodic_convolution(f: GridFunction, g: GridFunction) -> GridFunction:
    """f * g on the torus via the spectral core (h^dim-weighted)."""
    if f.grid != g.grid:
        raise GridError("grids differ")
    F = np.fft.fftn(f.values) * np.fft.fftn(g.values)
    return GridFunction(f.grid, (np.fft.ifftn(F) * f.grid.cell_measure).real)


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


def test_calibrated_inequalities_regression():
    g = Grid(1, 512, 1.0)

    def families(seed0, count):
        sup_h = sup_o = sup_c = 0.0
        for k in range(count):
            f = band_limited_field(g, seed0 + k, cutoff=64)
            h = band_limited_field(g, seed0 + 100 + k, cutoff=64)
            sup_h = max(sup_h, holder_product_ratio(f, h, 4.0, 2.0, 4.0, 2.0))
            sup_o = max(sup_o, oneil_convolution_ratio(f, h, 1.5, 2.0, 1.5, 2.0))
            w = confined_field(g, seed0 + 200 + k, radius=1 / 6)
            sup_c = max(sup_c, compact_support_ratio(w, w.support.measure, 2.0, 2.0, 4.0))
        return sup_h, sup_o, sup_c

    cal = families(0, 20)
    fresh = families(1000, 8)
    for c, f in zip(cal, fresh):
        assert f <= c * 1.01


def test_periodic_convolution_identity():
    # delta-like convolution: f * (normalized cell indicator) ~ f smoothed;
    # exactness check via Fourier: conv of two harmonics
    g = Grid(1, 256, 1.0)
    x = g.coords()[0]
    f = GridFunction(g, np.cos(2 * np.pi * x))
    h = GridFunction(g, np.cos(2 * np.pi * x))
    conv = periodic_convolution(f, h)
    # cos_1 * cos_1 on the unit torus = cos(2 pi x)/2
    assert np.max(np.abs(conv.values - 0.5 * np.cos(2 * np.pi * x))) < 1e-12
