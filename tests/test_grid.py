import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.grid import (
    DomainMask,
    Grid,
    GridError,
    GridFunction,
    annulus_mask,
    ball_mask,
    l2_inner,
    lp_norm,
    sorted_distinct,
    spectral_mass_fraction_above,
    transform_forward,
    transform_inverse,
)
from fraclap.multipliers import abs_power_table


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
    coef = float(np.sqrt(np.sum(np.abs(F) ** 2) / g.box_length**g.dim))
    assert abs(quad - coef) <= 1e-12 * quad


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
    assert np.all(big.values[small.values])
    for p in (1.0, 2.0, np.inf):
        assert lp_norm(f, p, small) <= lp_norm(f, p, big) + 1e-15


def test_ball_mask_is_exact_periodic_distance():
    g = Grid(1, 64, 1.0)
    r = 0.21
    mask = ball_mask(g, [0.05], r)  # wraps around the origin
    dist = g.periodic_distance([0.05])
    assert np.array_equal(mask.values, dist < r)
    assert mask.values[0]  # point at x=0 is within 0.05 < r


def _wrap_centers(L, h, seed):
    rng = np.random.default_rng(seed)
    fixed = [0.0, L - h, L, -L, 2 * L, 7 * L, -7 * L, -h / 3, 2 * L - h, 0.5 * h]
    return fixed + list(rng.uniform(-2 * L, 3 * L, 6)) + list(rng.uniform(0, L, 6))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("L", [1.0, 0.7, 3.0, 1e-3])
def test_axis_displacements_match_float_modulo_bitwise(dim, L):
    for N in (8, 16, 64):
        g = Grid(dim, N, L)
        x = g.axis_coords()
        for c in _wrap_centers(L, g.spacing, N + dim):
            center = [c, -c, c + 0.5 * L][:dim]
            for d, ca in zip(g._axis_displacements(center), center):
                assert d.ravel().tobytes() == ((x - ca + 0.5 * L) % L - 0.5 * L).tobytes()


def test_axis_displacements_wrap_a_rounded_element_once():
    # at c = L - h the point x_7 has t = x - c + L/2 = -5.6e-17, and t + L
    # rounds to L itself; wrapped a second time it would read -L/2, not L/2
    g = Grid(3, 16, 0.7)
    L, c = g.box_length, g.box_length - g.spacing
    t = g.axis_coords() - c + 0.5 * L
    assert t[7] < 0 and t[7] + L == L
    ref = (t % L - 0.5 * L).tobytes()
    disp = g._axis_displacements([c] * 3)
    assert all(d.ravel().tobytes() == ref for d in disp)
    assert disp[0].ravel()[7] == 0.5 * L


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
    freqs = np.meshgrid(*([g.axis_frequencies()] * dim), indexing="ij")
    assert abs_power_table(g, 1.0).tobytes() == np.sqrt(sum(f * f for f in freqs)).tobytes()
    # the alias guard's max-norm mode cut, against integer-mode meshgrids
    modes = np.meshgrid(*([(np.fft.fftfreq(16) * 16).astype(np.int64)] * dim), indexing="ij")
    f = GridFunction(g, np.random.default_rng(dim).standard_normal(g.shape))
    F = transform_forward(f)
    for cut in (0, 3, 4.5, 8):
        hi = np.zeros(g.shape, dtype=bool)
        for m in modes:
            hi |= np.abs(m) > cut
        ref = float(np.sum(np.abs(F[hi]) ** 2) / np.sum(np.abs(F) ** 2))
        assert spectral_mass_fraction_above(f, cut) == ref


def test_annulus_and_set_algebra():
    g = Grid(2, 32, 1.0)
    ann = annulus_mask(g, g.center, 0.1, 0.3)
    inner = ball_mask(g, g.center, 0.1)
    outer = ball_mask(g, g.center, 0.3)
    assert np.all(outer.values[ann.values])
    assert not np.any(ann.values & inner.values)
    assert np.count_nonzero(ann.values | inner.values) <= outer.npoints
    assert DomainMask(g, np.ones(g.shape, bool)).npoints == g.npoints


def test_gridfunction_invariants():
    g = Grid(1, 64, 1.0)
    with pytest.raises(GridError, match="finite"):
        GridFunction(g, np.full(g.shape, np.nan))
    with pytest.raises(GridError, match="real"):
        GridFunction(g, np.ones(g.shape, dtype=complex))
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1000, -1])
def test_gridfunction_refuses_one_nonfinite_entry(bad, where):
    g = Grid(2, 64, 1.0)
    vals = np.random.default_rng(0).standard_normal(g.shape)
    vals.flat[where] = bad
    with pytest.raises(GridError, match="finite"):
        GridFunction(g, vals)


def test_sorted_distinct_equals_unique():
    rng = np.random.default_rng(1)
    cases = [rng.integers(-5, 6, 200), rng.integers(-5, 6, 200) * 0.1, rng.standard_normal(50),
             np.array([0.0, -0.0, 1.0, -0.0]), np.array([3]), np.linspace(0, 6, 9).astype(int)]
    for v in cases:
        got = sorted_distinct(v)
        assert got.dtype == v.dtype and np.array_equal(got, np.unique(v))


def test_gridfunction_adopts_a_fresh_array():
    g = Grid(2, 16, 1.0)
    fresh = np.random.default_rng(0).standard_normal(g.shape)
    f = GridFunction(g, fresh)
    assert np.shares_memory(f.values, fresh)
    assert not fresh.flags.writeable
    with pytest.raises(ValueError):
        fresh[0, 0] = 1.0


@pytest.mark.parametrize("make", [lambda a: a[:, :], lambda a: a.astype(np.float32)])
def test_gridfunction_copies_views_and_other_dtypes(make):
    g = Grid(2, 16, 1.0)
    source = np.random.default_rng(1).standard_normal(g.shape)
    given = make(source)
    f = GridFunction(g, given)
    assert not np.shares_memory(f.values, given)
    assert given.flags.writeable and source.flags.writeable
    assert np.array_equal(f.values, given.astype(np.float64))


def test_gridfunction_copies_read_only_input():
    g = Grid(1, 64, 1.0)
    frozen = np.ones(g.shape)
    frozen.setflags(write=False)
    f = GridFunction(g, frozen)
    assert not np.shares_memory(f.values, frozen)
    # the owner may unfreeze its array; the field does not change with it
    frozen.setflags(write=True)
    frozen[0] = 5.0
    assert f.values[0] == 1.0


def test_failed_construction_leaves_the_array_writeable():
    g = Grid(1, 64, 1.0)
    vals = np.ones(g.shape)
    with pytest.raises(GridError, match="support"):
        GridFunction(g, vals, ball_mask(g, g.center, 0.2))
    assert vals.flags.writeable


@pytest.mark.parametrize("dim,n_pts", [(1, 1024), (1, 2**16), (1, 2**20), (2, 64), (2, 512), (3, 16), (3, 64)])
def test_l2_inner_equals_the_full_grid_product_sum_bitwise(dim, n_pts):
    # the chunked product summed in numpy's pairwise order, at sizes below,
    # at and above the 2^16-entry chunk; masked, and in Fortran order, where
    # numpy sums in memory order, too
    g = Grid(dim, n_pts, 3.0)
    rng = np.random.default_rng(n_pts)
    a, b = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    f, h = GridFunction(g, a.copy()), GridFunction(g, b.copy())
    assert l2_inner(f, h) == float(np.sum(a * b) * g.cell_measure)
    mask = ball_mask(g, g.center, 1.0)
    assert l2_inner(f, h, mask) == float(np.sum((a * b)[mask.values]) * g.cell_measure)
    ff, hf = GridFunction(g, np.asfortranarray(a)), GridFunction(g, np.asfortranarray(b))
    assert l2_inner(ff, hf) == float(np.sum(ff.values * hf.values) * g.cell_measure)


def test_l2_inner_peak_memory(traced_peak):
    # one scratch chunk of 2^16 entries: 0.25x the field's bytes at 512^2
    # measured (1.0x for the full-grid product)
    g = Grid(2, 512, 1.0)
    f = GridFunction(g, np.random.default_rng(0).standard_normal(g.shape))
    assert traced_peak(l2_inner, f, f) <= 0.26 * g.npoints * 8


@pytest.mark.parametrize("n_pts", [8, 9, 15, 16, 1024, 2**20])
@pytest.mark.parametrize("box", [1.0, 3.0, 0.7])
def test_axis_frequencies_are_fftfreq_bitwise(n_pts, box):
    g = object.__new__(Grid)  # past the power-of-two check, for odd N
    for name, value in (("dim", 1), ("points_per_axis", n_pts), ("box_length", box)):
        object.__setattr__(g, name, value)
    whole = g.axis_frequencies()
    assert whole.tobytes() == np.fft.fftfreq(n_pts, d=g.spacing).tobytes()
    index = np.arange(n_pts)[n_pts // 3 :]
    assert g.axis_frequencies(index).tobytes() == whole[index].tobytes()
    mirror = (-np.arange(n_pts // 2 + 1)) % n_pts
    assert g.axis_frequencies(mirror).tobytes() == whole[mirror].tobytes()


def test_l2_inner_matches_norm():
    g = Grid(1, 128, 1.0)
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.standard_normal(g.shape))
    assert abs(l2_inner(f, f) - lp_norm(f, 2) ** 2) < 1e-12
