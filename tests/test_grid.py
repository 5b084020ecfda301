import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.grid import (
    Grid,
    GridError,
    GridFunction,
    annulus_mask,
    ball_mask,
    full_mask,
    l2_inner,
    lp_norm,
    parseval_coefficient_norm,
    transform_forward,
    transform_inverse,
)


def test_grid_validation():
    with pytest.raises(GridError, match="points_per_axis"):
        Grid(1, 12)
    with pytest.raises(GridError, match="points_per_axis"):
        Grid(1, 4)
    with pytest.raises(GridError):
        Grid(4, 16)
    with pytest.raises(GridError, match="size guard"):
        Grid(3, 1024)
    g = Grid(2, 64, 2.0)
    assert g.spacing == 2.0 / 64
    assert g.cell_measure == (2.0 / 64) ** 2


def test_constant_mode():
    g = Grid(1, 64, 1.0)
    F = transform_forward(GridFunction(g, np.ones(g.shape)))
    assert abs(F[0] - 1.0) < 1e-14
    assert np.max(np.abs(F[1:])) < 1e-13


def test_single_harmonic_coefficients():
    g = Grid(1, 128, 1.0)
    x = g.coords()[0]
    F = transform_forward(GridFunction(g, np.cos(2 * np.pi * x)))
    assert abs(F[1] - 0.5) < 1e-12
    assert abs(F[-1] - 0.5) < 1e-12
    other = np.delete(F, [1, g.points_per_axis - 1])
    assert np.max(np.abs(other)) < 1e-12


def test_round_trip_and_parseval():
    g = Grid(2, 32, 1.5)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.standard_normal(g.shape))
    F = transform_forward(f)
    back = transform_inverse(g, F)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
    # independent oracle: direct quadrature sum against the coefficient side
    quad = float(np.sqrt(np.sum(f.values**2) * g.cell_measure))
    assert abs(quad - parseval_coefficient_norm(g, F)) <= 1e-12 * quad


def test_lp_norm_basics():
    g = Grid(1, 256, 1.0)
    zero = GridFunction(g, np.zeros(g.shape))
    for p in (1.0, 2.0, np.inf):
        assert lp_norm(zero, p) == 0.0
    x = g.coords()[0]
    f = GridFunction(g, np.cos(2 * np.pi * x))
    assert abs(lp_norm(f, 2) - 1 / np.sqrt(2)) < 1e-12
    with pytest.raises(GridError):
        lp_norm(f, 0.5)


def test_ball_measure_refinement():
    # indicator of B_{1/4}: the masked count times h converges to the measure 1/2
    errors = []
    for n_pts in (256, 512, 1024):
        g = Grid(1, n_pts, 1.0)
        mask = ball_mask(g, g.center, 0.25)
        f = GridFunction(g, mask.values.astype(float))
        errors.append(abs(lp_norm(f, 1) - 0.5))
    assert errors[-1] <= errors[0]
    assert errors[-1] < 2.0 / 1024


@settings(max_examples=25, deadline=None)
@given(st.floats(-8, 8).filter(lambda c: abs(c) > 1e-3), st.integers(0, 10**6))
def test_lp_norm_absolute_homogeneity(c, seed):
    g = Grid(1, 64, 1.0)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(g.shape)
    f = GridFunction(g, vals)
    cf = GridFunction(g, c * vals)
    for p in (1.0, 2.0, 3.0, np.inf):
        a, b = lp_norm(cf, p), abs(c) * lp_norm(f, p)
        assert abs(a - b) <= 1e-12 * max(a, b, 1e-30)


def test_mask_monotonicity():
    g = Grid(1, 256, 1.0)
    rng = np.random.default_rng(0)
    f = GridFunction(g, rng.standard_normal(g.shape))
    small = ball_mask(g, g.center, 0.1)
    big = ball_mask(g, g.center, 0.3)
    assert small.issubset(big)
    for p in (1.0, 2.0, np.inf):
        assert lp_norm(f, p, small) <= lp_norm(f, p, big) + 1e-15


def test_ball_mask_is_exact_periodic_distance():
    g = Grid(1, 64, 1.0)
    r = 0.21
    mask = ball_mask(g, [0.05], r)  # wraps around the origin
    dist = g.periodic_distance([0.05])
    assert np.array_equal(mask.values, dist < r)
    assert mask.values[0]  # point at x=0 is within 0.05 < r


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_periodic_geometry_matches_meshgrid_bitwise(dim):
    g = Grid(dim, 16, 3.0)
    center = [0.1, 2.95, 1.5][:dim]
    L = g.box_length
    mesh = [(x - c + 0.5 * L) % L - 0.5 * L for x, c in zip(g.coords(), center)]
    disp = g.periodic_displacement(center)
    for d, m in zip(disp, mesh):
        assert d.shape == g.shape and not d.flags.writeable
        assert np.array_equal(d, m)
    assert np.array_equal(g.periodic_distance(center), np.sqrt(sum(m * m for m in mesh)))


def test_annulus_and_set_algebra():
    g = Grid(2, 32, 1.0)
    ann = annulus_mask(g, g.center, 0.1, 0.3)
    inner = ball_mask(g, g.center, 0.1)
    outer = ball_mask(g, g.center, 0.3)
    assert ann.issubset(outer)
    assert ann.intersection(inner).npoints == 0
    assert ann.union(inner).npoints <= outer.npoints
    assert full_mask(g).npoints == g.npoints


def test_gridfunction_invariants():
    g = Grid(1, 64, 1.0)
    with pytest.raises(GridError, match="finite"):
        GridFunction(g, np.full(g.shape, np.nan))
    mask = ball_mask(g, g.center, 0.2)
    vals = np.ones(g.shape)
    with pytest.raises(GridError, match="support"):
        GridFunction(g, vals, mask)
    ok = np.where(mask.values, 1.0, 0.0)
    f = GridFunction(g, ok, mask)
    assert f.support is mask
    # values are immutable
    with pytest.raises(ValueError):
        f.values[0] = 3.0


def test_l2_inner_matches_norm():
    g = Grid(1, 128, 1.0)
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.standard_normal(g.shape))
    assert abs(l2_inner(f, f) - lp_norm(f, 2) ** 2) < 1e-12
