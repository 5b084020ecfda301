"""Generator determinism, and the lattice-identity kernels against brute-force
O(P^2) references."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclap import _kernels
from fraclap.cutoffs import base_profile_values
from fraclap.fields import (
    band_limited_field,
    confined_field,
    moment_free_bump,
    smooth_bump,
    sphere_valued_map,
)
from fraclap.grid import Grid, ball_mask, lp_norm, per_axis


def test_band_limited_field_deterministic_unit_norm():
    g = Grid(1, 512, 1.0)
    a = band_limited_field(g, 42)
    b = band_limited_field(g, 42)
    assert np.array_equal(a.values, b.values)
    assert abs(lp_norm(a, 2) - 1.0) < 1e-12
    assert abs(np.mean(a.values)) < 1e-13


def test_band_limit_respected():
    g = Grid(1, 512, 1.0)
    f = band_limited_field(g, 3, cutoff=32)
    F = np.fft.fft(f.values)
    modes = (np.fft.fftfreq(512) * 512).astype(int)
    assert np.max(np.abs(F[np.abs(modes) > 32])) < 1e-10


def _meshgrid_band_limited_values(grid, seed, cutoff, envelope):
    """band_limited_field's values computed on integer-mode meshgrids of the
    rfftn half lattice."""
    N = grid.points_per_axis
    W = np.fft.rfftn(np.random.default_rng(seed).standard_normal(grid.shape))
    m = (np.fft.fftfreq(N) * N).astype(np.int64)
    modes = np.meshgrid(*([m] * (grid.dim - 1) + [np.arange(N // 2 + 1)]), indexing="ij")
    mag = np.sqrt(sum(m.astype(float) ** 2 for m in modes))
    W = np.where(mag <= cutoff, W, 0.0)
    if envelope is not None:
        W = W * np.exp(-((mag / envelope) ** 2))
    W[(0,) * grid.dim] = 0.0
    vals = np.fft.irfftn(W, s=grid.shape, axes=tuple(range(grid.dim)))
    return vals / np.sqrt(np.sum(vals**2) * grid.cell_measure)


def _complex_band_limited_values(grid, seed, cutoff, envelope):
    """The same field drawn on the full complex lattice: fftn, cut, ifftn,
    real part."""
    W = np.fft.fftn(np.random.default_rng(seed).standard_normal(grid.shape))
    m = (np.fft.fftfreq(grid.points_per_axis) * grid.points_per_axis).astype(np.int64)
    modes = np.meshgrid(*([m] * grid.dim), indexing="ij")
    mag = np.sqrt(sum(m.astype(float) ** 2 for m in modes))
    W = np.where(mag <= cutoff, W, 0.0)
    if envelope is not None:
        W = W * np.exp(-((mag / envelope) ** 2))
    W[(0,) * grid.dim] = 0.0
    vals = np.fft.ifftn(W).real
    return vals / np.sqrt(np.sum(vals**2) * grid.cell_measure)


_BAND_LIMITED_CASES = [
    (dim, n_pts, cutoff, envelope)
    for dim, n_pts in ((1, 256), (1, 2048), (2, 32), (2, 64), (3, 16))
    for cutoff, envelope in ((n_pts / 8, n_pts / 16), (n_pts / 16, n_pts / 32), (n_pts / 8, None),
                             (n_pts / 4, None))
]


def test_band_limited_field_matches_meshgrid_reference():
    # per-axis mode arrays give the same |m| at every half-lattice point, and
    # the in-place cutoff, the envelope taken on kept modes only and irfftn
    # the same values as np.where, the envelope on the whole half lattice and
    # fresh arrays, bit for bit
    for dim, n_pts, cutoff, envelope in _BAND_LIMITED_CASES:
        g = Grid(dim, n_pts, 2.0)
        for seed in (0, 5, 11):
            got = band_limited_field(g, seed, cutoff=cutoff, envelope=envelope).values
            ref = _meshgrid_band_limited_values(g, seed, cutoff, envelope)
            assert got.tobytes() == ref.tobytes(), (dim, n_pts, cutoff, envelope, seed)


def test_band_limited_field_matches_full_complex_lattice():
    # the half-lattice draw is the complex full-lattice field in exact
    # arithmetic; over these cases and 1D 65536, 2D 256^2, 3D 32^3 the two
    # differ by at most 6.9e-16 of max|f|
    cases = _BAND_LIMITED_CASES + [(1, 65536, 8192, None), (2, 256, 32, 16), (3, 32, 4, None)]
    for dim, n_pts, cutoff, envelope in cases:
        g = Grid(dim, n_pts, 2.0)
        for seed in (0, 5, 11):
            got = band_limited_field(g, seed, cutoff=cutoff, envelope=envelope).values
            ref = _complex_band_limited_values(g, seed, cutoff, envelope)
            assert np.max(np.abs(got - ref)) <= 1.6e-15 * np.max(np.abs(ref)), (dim, n_pts, seed)


def test_band_limited_field_peak_memory(traced_peak):
    # the draw and the half-lattice spectrum, then irfftn's copy of it and
    # its output: 3.03x the field's bytes measured at 256^2 (5.0x on the full
    # complex lattice, 8.0x with np.where and fresh arrays)
    g = Grid(2, 256, 1.0)
    band_limited_field(Grid(1, 8, 1.0), 0)  # numpy.random imports on first use
    peak = traced_peak(band_limited_field, g, 0)
    assert peak <= 3.1 * g.npoints * 8


def test_confined_field_support():
    g = Grid(1, 1024, 1.0)
    f = confined_field(g, 7, radius=1 / 6)
    assert f.support is not None
    outside = ~f.support.values
    assert np.max(np.abs(f.values[outside])) <= 1e-14 * np.max(np.abs(f.values))
    # the support is the ball of the window's radius, taken from its distances
    for dim, n_pts in ((1, 1024), (1, 65536), (2, 64)):
        g = Grid(dim, n_pts, 1.0)
        for radius in (1 / 6, 1 / 64):
            f = confined_field(g, 3, radius=radius)
            assert np.array_equal(f.support.values, ball_mask(g, g.center, radius).values)


def _full_grid_confined_values(grid, seed, radius, cutoff, envelope, mean_zero):
    """confined_field's values and support with the window on every grid point."""
    f = band_limited_field(grid, seed, cutoff=cutoff, envelope=envelope)
    rho = grid.periodic_distance(grid.center)
    window = base_profile_values(2.0 * rho / radius)
    vals = f.values * window
    if mean_zero:
        vals = vals - window * (np.sum(vals) / max(np.sum(window), 1e-300))
    return vals / np.sqrt(np.sum(vals**2) * grid.cell_measure), rho < radius


@pytest.mark.parametrize("dim,n_pts", [(1, 256), (1, 4096), (2, 64), (3, 16)])
@pytest.mark.parametrize("mean_zero", [False, True])
def test_confined_field_matches_full_grid_window_bitwise(dim, n_pts, mean_zero):
    g = Grid(dim, n_pts, 3.0)
    h, L = g.spacing, g.box_length
    # radii from two cells to past half the box, where the box is the grid
    for radius in (2 * h, L / 6, 0.49 * L, 0.6 * L):
        for seed in (0, 3):
            f = confined_field(g, seed, radius, cutoff=n_pts / 8, envelope=n_pts / 16, mean_zero=mean_zero)
            vals, support = _full_grid_confined_values(g, seed, radius, n_pts / 8, n_pts / 16, mean_zero)
            # off the support box the full-grid product f * 0.0 is -0.0 where
            # f < 0; adding 0.0 maps -0.0 to 0.0 and keeps the rest
            assert (f.values + 0.0).tobytes() == (vals + 0.0).tobytes(), (radius, seed)
            assert np.array_equal(f.support.values, support), (radius, seed)


def test_confined_field_peak_memory(traced_peak):
    # band_limited_field's peak, then the field, the windowed copy and the
    # support check of GridFunction: 3.19x the field's bytes measured at
    # 256^2, r = L/6 (6.96x with the window on every grid point)
    g = Grid(2, 256, 1.0)
    band_limited_field(Grid(1, 8, 1.0), 0)  # numpy.random imports on first use
    for mean_zero in (False, True):
        peak = traced_peak(confined_field, g, 0, 1 / 6, 32, 16, mean_zero)
        assert peak <= 3.3 * g.npoints * 8, mean_zero


def test_moment_free_bump_moments():
    g = Grid(1, 1024, 1.0)
    f = moment_free_bump(g, radius=1 / 8)
    x = g.periodic_displacement(g.center)[0]
    m0 = abs(np.sum(f.values) * g.cell_measure)
    m1 = abs(np.sum(x * f.values) * g.cell_measure)
    assert m0 < 1e-10 and m1 < 1e-10


def _full_grid_bump(grid, center, radius, modulation_mode, seed):
    """smooth_bump's formula evaluated on every grid point."""
    vals = base_profile_values(2.0 * grid.periodic_distance(center) / radius)
    if modulation_mode:
        rng = np.random.default_rng(seed)
        phase = rng.uniform(0, 2 * np.pi)
        d = rng.standard_normal(grid.dim)
        carrier = sum(x * w for x, w in zip(grid.periodic_displacement(center), d / np.linalg.norm(d)))
        vals = vals * np.cos(2 * np.pi * modulation_mode * carrier / grid.box_length + phase)
    return vals / np.sqrt(np.sum(vals**2) * grid.cell_measure)


@pytest.mark.parametrize("dim,n_pts", [(1, 256), (2, 64), (3, 32)])
@pytest.mark.parametrize("modulation_mode", [0, 1])
def test_smooth_bump_matches_full_grid_formula_bitwise(dim, n_pts, modulation_mode):
    g = Grid(dim, n_pts, 3.0)
    h, L = g.spacing, g.box_length
    # centers within one cell of the box edge wrap the support box around it
    centers = [g.center, np.full(dim, 0.3 * h), np.full(dim, L - 0.6 * h)]
    for center in centers:
        for radius in (8 * h, 0.2 * L, 0.49 * L):
            got = smooth_bump(g, center, radius, modulation_mode, seed=5).values
            ref = _full_grid_bump(g, center, radius, modulation_mode, seed=5)
            # off the support box the full-grid product 0.0 * cos is -0.0
            # where cos < 0; adding 0.0 maps -0.0 to 0.0 and keeps the rest
            assert (got + 0.0).tobytes() == (ref + 0.0).tobytes(), (center, radius)


def _former_box_normalized(grid, box, on_box):
    """The former closing steps of smooth_bump and confined_field: the box
    values written into zeros and the whole grid divided by the norm."""
    vals = np.zeros(grid.shape)
    vals[box] = on_box
    vals /= np.sqrt(np.sum(vals**2) * grid.cell_measure)
    return vals


@pytest.mark.parametrize("dim,n_pts", [(1, 256), (2, 64), (3, 16)])
def test_compact_fields_equal_their_former_formulas_bitwise(dim, n_pts):
    # only the box is normalized now; 0/norm is the 0.0 left off the box, so
    # the bits are the former ones, -0.0 included
    g = Grid(dim, n_pts, 3.0)
    for radius in (4 * g.spacing, g.box_length / 6, 0.6 * g.box_length):
        box, disp = g.support_box(g.center, radius)
        window = base_profile_values(2.0 * np.sqrt(sum(d * d for d in disp)) / radius)
        got = smooth_bump(g, g.center, radius).values
        assert got.tobytes() == _former_box_normalized(g, box, window).tobytes(), radius
        for seed in (0, 3):
            f = band_limited_field(g, seed, cutoff=n_pts / 8, envelope=n_pts / 16)
            got = confined_field(g, seed, radius, cutoff=n_pts / 8, envelope=n_pts / 16).values
            ref = _former_box_normalized(g, box, f.values[box] * window)
            assert got.tobytes() == ref.tobytes(), (radius, seed)
    # band_limited_field divides in place; the former formula built vals / norm
    for seed in (0, 3):
        N = g.points_per_axis
        W = np.fft.rfftn(np.random.default_rng(seed).standard_normal(g.shape))
        modes = [np.fft.fftfreq(N) * N for _ in range(dim - 1)] + [np.arange(N // 2 + 1.0)]
        W[np.sqrt(sum(x**2 for x in per_axis(modes))) > N / 8] = 0.0
        W[(0,) * dim] = 0.0
        vals = np.fft.irfftn(W, s=g.shape, axes=tuple(range(dim)))
        ref = vals / np.sqrt(np.sum(vals**2) * g.cell_measure)
        assert band_limited_field(g, seed).values.tobytes() == ref.tobytes(), seed


def test_smooth_bump_peak_memory(traced_peak):
    # the zero-filled field, its squares for the norm and the copy
    # GridFunction makes: 2.15x the field's bytes measured with an 8-cell
    # radius (4.4x when the profile was evaluated on every grid point)
    g = Grid(2, 256, 1.0)
    peak = traced_peak(smooth_bump, g, g.center, 8 * g.spacing)
    assert peak <= 2.5 * g.npoints * 8


def test_sphere_map_on_sphere():
    g = Grid(1, 256, 1.0)
    comps = sphere_valued_map(g, 3, 5)
    norm_sq = sum(c.values**2 for c in comps)
    assert np.max(np.abs(norm_sq - 1.0)) < 1e-12


# -- kernels against brute-force references --------------------------------------

GRID_POINTS = {1: 64, 2: 16, 3: 8}

dims = st.sampled_from([1, 2, 3])
boxes = st.sampled_from([1.0, 3.0])  # L = 3 makes h = 3/N, not a power of two
seeds = st.integers(0, 2**32 - 1)
# None: random scattered mask; a number r: ball of radius r L about a random
# center, which wraps the boundary and for r > 1/4 is wider than L/2
mask_radii = st.one_of(st.none(), st.floats(0.1, 0.8))


def _lattice_case(dim, box, seed, radius):
    g = Grid(dim, GRID_POINTS[dim], box)
    rng = np.random.default_rng(seed)
    if radius is None:
        mask = rng.random(g.shape) < rng.uniform(0.05, 0.95)
    else:
        mask = ball_mask(g, rng.random(dim) * box, radius * box).values
    mask.flat[rng.integers(mask.size)] = True
    return g, np.argwhere(mask), rng


def _pair_dist2(points, g):
    """Squared minimum-image distance between every pair of points."""
    N = g.points_per_axis
    d = np.abs(points[:, None, :] - points[None, :, :])
    d = np.minimum(d, N - d) * g.spacing
    return sum(d[..., a] ** 2 for a in range(g.dim))


def _pair_sum_reference(points, comps, expo, g):
    d2 = _pair_dist2(points, g)
    np.fill_diagonal(d2, 1.0)
    num = np.sum((comps[:, None, :] - comps[None, :, :]) ** 2, axis=2)
    return float(np.sum(num / d2 ** (0.5 * expo)))


def _ball_scan_reference(points, vals, rho, g):
    inside = _pair_dist2(points, g) < rho * rho
    return inside @ (vals * vals), inside @ vals, inside.sum(axis=1), inside @ np.abs(vals)


def _modulus_scan_reference(points, vals, edges, g):
    dist = np.sqrt(_pair_dist2(points, g))
    np.fill_diagonal(dist, -1.0)
    dv = np.abs(vals[:, None] - vals[None, :])
    best = np.zeros(len(edges) - 1)
    for b in range(len(best)):
        sel = (edges[b] <= dist) & (dist < edges[b + 1])
        if sel.any():
            best[b] = dv[sel].max()
    return best


def _second_difference_reference(values, index, kernel):
    N, axes = values.shape[0], tuple(range(values.ndim))
    mirror = np.ix_(*[(-np.arange(N)) % N] * values.ndim)
    out = []
    for x in zip(*index):
        plus = np.roll(values, tuple(-i for i in x), axis=axes)  # plus[z] = f(x + z)
        out.append(0.5 * np.sum((2.0 * values[x] - plus - plus[mirror]) * kernel))
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(dim=dims, box=boxes, seed=seeds, radius=mask_radii,
       expo=st.one_of(st.just(0.0), st.floats(0.5, 4.0)), ncomp=st.integers(1, 3))
@example(dim=3, box=3.0, seed=0, radius=0.7, expo=0.0, ncomp=2)
@example(dim=2, box=1.0, seed=1, radius=None, expo=2.5, ncomp=1)
def test_pair_sum_matches_brute_force(dim, box, seed, radius, expo, ncomp):
    g, points, rng = _lattice_case(dim, box, seed, radius)
    comps = rng.standard_normal((len(points), ncomp))
    ref = _pair_sum_reference(points, comps, expo, g)
    got = _kernels.pair_sum_sq_diff(points, comps, expo, g)
    assert abs(got - ref) <= 1e-12 * ref
    if ncomp == 1:
        assert _kernels.pair_sum_sq_diff(points, comps[:, 0], expo, g) == got


@settings(max_examples=30, deadline=None)
@given(dim=dims, box=boxes, seed=seeds, radius=mask_radii, expo=st.floats(0.5, 4.0),
       ncomps=st.lists(st.integers(1, 3), min_size=1, max_size=5))
@example(dim=1, box=1.0, seed=4, radius=0.3, expo=1.5, ncomps=[1] * 5)
def test_pair_sums_equal_each_single_sum_bitwise(dim, box, seed, radius, expo, ncomps):
    # one box convolution for every sample; each total is its own call's bits
    g, points, rng = _lattice_case(dim, box, seed, radius)
    samples = [rng.standard_normal((len(points), c)) for c in ncomps]
    samples[0] = samples[0][:, 0]  # a (P,) sample too
    got = _kernels.pair_sums_sq_diff(points, samples, expo, g)
    assert got == [_kernels.pair_sum_sq_diff(points, v, expo, g) for v in samples]


@settings(max_examples=60, deadline=None)
@given(dim=dims, box=boxes, seed=seeds, radius=mask_radii, rho_sq_steps=st.integers(1, 200))
@example(dim=1, box=1.0, seed=2, radius=0.6, rho_sq_steps=9)  # rho = 3h, a lattice distance
@example(dim=3, box=3.0, seed=3, radius=None, rho_sq_steps=9)
def test_ball_scan_matches_brute_force(dim, box, seed, radius, rho_sq_steps):
    g, points, rng = _lattice_case(dim, box, seed, radius)
    vals = rng.standard_normal(len(points))
    rho = g.spacing * np.sqrt(rho_sq_steps)
    sum_sq, sums, cnt, abs_sums = _ball_scan_reference(points, vals, rho, g)
    got_sq, got_sums, got_cnt = _kernels.ball_scan(points, vals, rho, g)
    assert np.array_equal(got_cnt, cnt)
    assert np.max(np.abs(got_sq - sum_sq)) <= 1e-12 * np.max(sum_sq)
    assert np.max(np.abs(got_sums - sums)) <= 1e-12 * np.max(abs_sums)


@settings(max_examples=60, deadline=None)
@given(dim=dims, box=boxes, seed=seeds, radius=mask_radii,
       edge_sq_steps=st.lists(st.integers(1, 1100), min_size=1, max_size=5, unique=True))
@example(dim=2, box=3.0, seed=4, radius=0.45, edge_sq_steps=[1, 4, 9, 16])
@example(dim=1, box=1.0, seed=5, radius=0.7, edge_sq_steps=[1023, 1025])  # last bin: offset N/2 only
def test_modulus_scan_matches_brute_force(dim, box, seed, radius, edge_sq_steps):
    g, points, rng = _lattice_case(dim, box, seed, radius)
    vals = rng.standard_normal(len(points))
    edges = np.concatenate([[0.0], g.spacing * np.sqrt(sorted(edge_sq_steps))])
    ref = _modulus_scan_reference(points, vals, edges, g)
    assert np.array_equal(_kernels.modulus_scan(points, vals, edges, g), ref)


@settings(max_examples=40, deadline=None)
@given(dim=dims, box=boxes, seed=seeds)
def test_second_difference_matches_brute_force(dim, box, seed):
    g, points, rng = _lattice_case(dim, box, seed, None)
    values = rng.standard_normal(g.shape)
    kernel = np.abs(rng.standard_normal(g.shape))  # not symmetric: the sum symmetrizes it
    index = tuple(points[:5].T)
    ref = _second_difference_reference(values, index, kernel)
    got = _kernels.second_difference_sum(values, index, kernel)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- the padded-box path: small balls on large grids, transform length M << N ------

def _ball_points(g, cells, where):
    """Lattice points within `cells` cells of the grid point with index 0,
    N/2 or N - 1 on every axis."""
    N = g.points_per_axis
    centre = {"origin": 0, "middle": N // 2, "last": N - 1}[where] * g.spacing
    return np.argwhere(ball_mask(g, np.full(g.dim, centre), (cells + 0.5) * g.spacing).values)


@pytest.mark.parametrize("where", ["origin", "middle", "last"])
@pytest.mark.parametrize("dim,N,cells", [(1, 2048, c) for c in (1, 2, 7, 40)] + [(2, 128, c) for c in (3, 10)])
def test_box_path_matches_brute_force(dim, N, cells, where):
    g = Grid(dim, N, 1.0)
    points = _ball_points(g, cells, where)
    rng = np.random.default_rng(cells)
    vals = rng.standard_normal(len(points))
    h = g.spacing

    ref = _pair_sum_reference(points, vals[:, None], dim + 0.5, g)
    assert abs(_kernels.pair_sum_sq_diff(points, vals, dim + 0.5, g) - ref) <= 1e-12 * ref

    for rho in (1.5 * h, (cells + 0.5) * h):
        sum_sq, sums, cnt, abs_sums = _ball_scan_reference(points, vals, rho, g)
        got_sq, got_sums, got_cnt = _kernels.ball_scan(points, vals, rho, g)
        assert np.array_equal(got_cnt, cnt)
        assert np.max(np.abs(got_sq - sum_sq)) <= 1e-12 * np.max(sum_sq)
        assert np.max(np.abs(got_sums - sums)) <= 1e-12 * np.max(abs_sums)

    edges = h * np.array([0.0, 1.0, 2.5, 7.0, 30.0])
    assert np.array_equal(_kernels.modulus_scan(points, vals, edges, g),
                          _modulus_scan_reference(points, vals, edges, g))


# -- the modulus scan as a dilation: sliding maxima over runs of offsets ----------

def _window_max_reference(a, w):
    """fmax over each window a[..., j : j + w], one window at a time."""
    n = a.shape[-1]
    return np.stack([np.fmax.reduce(a[..., j : j + w], axis=-1) for j in range(n - w + 1)], axis=-1)


@pytest.mark.parametrize("shape", [(1,), (7,), (64,), (3, 10), (2, 3, 17)])
def test_sliding_max_matches_each_window(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.4] = np.nan
    a[..., : min(5, shape[-1])] = np.nan  # every window of width <= 5 at the start is NaN only
    for w in range(1, shape[-1] + 1):
        got = _kernels._sliding_max(a, w)
        assert np.array_equal(got, _window_max_reference(a, w), equal_nan=True), w
        if w <= 5:
            assert np.all(np.isnan(got[..., 0]))


def _dilation_case(dim, N, where, seed):
    """A ball of radius 3.5 h about the grid point with index N/2 (inside the
    box) or 0 (across the periodic wrap on every axis)."""
    g = Grid(dim, N, 1.0)
    centre = {"middle": N // 2, "wrap": 0}[where] * g.spacing
    points = np.argwhere(ball_mask(g, np.full(dim, centre), 3.5 * g.spacing).values)
    vals = np.random.default_rng(seed).standard_normal(len(points))
    return g, points, vals


@pytest.mark.parametrize("dim,N", [(2, 16), (3, 8), (3, 16)])
@pytest.mark.parametrize("where", ["middle", "wrap"])
def test_modulus_scan_dilation_cases(dim, N, where):
    g, points, vals = _dilation_case(dim, N, where, dim * N)
    if where == "wrap":
        assert np.all(points.min(axis=0) == 0) and np.all(points.max(axis=0) == N - 1)
    h = g.spacing
    # bins of |m|/h: [0, 1) holds only m = 0, which pairs nothing; [1, 1.05)
    # holds |m| = 1, whose last-axis offsets at leading offsets 0 are the two
    # runs {-1} and {1}; [1.05, 1.2) holds no lattice distance; [1.2, 3)
    # splits into -2 and 2 at leading offsets 0 and is one run -2..2 at
    # leading offset 1 on the first axis; [3, 5) is a wide band of many runs
    edges = h * np.array([0.0, 1.0, 1.05, 1.2, 3.0, 5.0])
    got = _kernels.modulus_scan(points, vals, edges, g)
    assert got.tobytes() == _modulus_scan_reference(points, vals, edges, g).tobytes()
    assert got[0] == 0.0 and got[2] == 0.0
    assert np.all(got[[1, 3, 4]] > 0.0)


@pytest.mark.parametrize("dim,N", [(1, 16), (2, 16)])
def test_modulus_scan_runs_of_unequal_width(dim, N):
    # on the whole grid the offsets reach N/2, whose mirror -N/2 is the same
    # residue and left out: the last bin's run -7..-3 at leading offsets 0 is
    # one shorter than 3..8, and only offset 8 joins the two extreme values
    g = Grid(dim, N, 1.0)
    points = np.argwhere(np.ones(g.shape, dtype=bool))
    vals = 0.01 * np.random.default_rng(dim).standard_normal(len(points))
    vals[0], vals[N // 2] = 1.0, -1.0  # index 0 and N/2 on the last axis
    edges = g.spacing * np.array([0.0, 3.0, N / 2 + 0.5])
    got = _kernels.modulus_scan(points, vals, edges, g)
    assert got.tobytes() == _modulus_scan_reference(points, vals, edges, g).tobytes()
    assert got[1] == 2.0


@pytest.mark.parametrize("dim,N", [(2, 16), (3, 8)])
def test_modulus_scan_ties_and_signed_zeros(dim, N):
    # +0.0 and -0.0 only: every difference is a zero, and each bin must read
    # +0.0, as the maximum of |v_i - v_j| does; rounded values tie often
    g, points, _ = _dilation_case(dim, N, "wrap", 0)
    edges = g.spacing * np.array([0.0, 1.0, 2.0, 4.0])
    zeros = np.where(np.arange(len(points)) % 2 == 0, 0.0, -0.0)
    assert _kernels.modulus_scan(points, zeros, edges, g).tobytes() == np.zeros(3).tobytes()
    ties = np.round(np.random.default_rng(1).standard_normal(len(points)))
    assert (_kernels.modulus_scan(points, ties, edges, g).tobytes()
            == _modulus_scan_reference(points, ties, edges, g).tobytes())


def _record_rfftn(monkeypatch) -> list:
    """Clear the kernel-spectrum memo and record the shape of every rfftn input."""
    _kernels._kernel_spectrum.cache_clear()
    shapes = []
    rfftn = np.fft.rfftn

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return rfftn(a, *args, **kwargs)

    monkeypatch.setattr(_kernels.np.fft, "rfftn", recording)
    return shapes


def test_box_path_transform_length(monkeypatch):
    # a ball of 683 points on 16384 spans E = 683 cells: the pair sum convolves on
    # M = 2048 >= 2E - 1, not N; at rho = 10h the ball weight keeps one-axis
    # offsets up to R = 9, so the ball scan needs only M = 1024 >= E + R.  Each
    # kernel is transformed once: a second call transforms the fields alone
    g = Grid(1, 16384, 1.0)
    points = _ball_points(g, 341, "middle")
    assert len(points) == 683
    shapes = _record_rfftn(monkeypatch)
    vals = np.random.default_rng(0).standard_normal(len(points))
    for _ in range(2):
        _kernels.pair_sum_sq_diff(points, vals, 1.5, g)
        _kernels.ball_scan(points, vals, 10 * g.spacing, g)
    assert shapes == [(2, 2048), (2048,), (3, 1024), (1024,), (2, 2048), (3, 1024)]


@pytest.mark.parametrize("dim,N,arc,reach,length", [
    (1, 4096, (100,), 28, (128,)),  # E + R = 128, the shortest exact length
    (1, 4096, (100,), 29, (256,)),  # E + R = 129
    (1, 4096, (100,), 99, (256,)),  # R >= E - 1: 2E - 1, as for the pair sum
    (2, 64, (20, 7), 11, (32, 16)),  # per axis: E + R = 31, then 2E - 1 = 13
])
def test_ball_scan_transform_reaches_the_weight(monkeypatch, dim, N, arc, reach, length):
    # scattered points on an arc that wraps the boundary, both ends kept, so
    # every offset -(E-1)..E-1 occurs; rho keeps one-axis offsets up to R
    g = Grid(dim, N, 1.0)
    rng = np.random.default_rng(reach)
    box = np.argwhere(rng.random(arc) < 0.5)
    box = np.unique(np.vstack([box, np.zeros(dim, int), np.array(arc) - 1]), axis=0)
    points = (box + (N - arc[0] // 2)) % N
    vals = rng.standard_normal(len(points))
    rho = (reach + 0.5) * g.spacing
    shapes = _record_rfftn(monkeypatch)
    got_sq, got_sums, got_cnt = _kernels.ball_scan(points, vals, rho, g)
    again = _kernels.ball_scan(points, vals, rho, g)
    assert shapes == [(3, *length), length, (3, *length)]
    assert all(np.array_equal(a, b) for a, b in zip(again, (got_sq, got_sums, got_cnt)))
    sum_sq, sums, cnt, abs_sums = _ball_scan_reference(points, vals, rho, g)
    assert np.array_equal(got_cnt, cnt)
    assert np.max(np.abs(got_sq - sum_sq)) <= 1e-12 * np.max(sum_sq)
    assert np.max(np.abs(got_sums - sums)) <= 1e-12 * np.max(abs_sums)


def test_kernel_spectrum_memo_is_shared_and_read_only():
    g = Grid(2, 64, 1.0)
    first = _kernels._kernel_spectrum(g, (32, 16), ("power", 2.5))
    assert _kernels._kernel_spectrum(g, (32, 16), ("power", 2.5)) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 1] = 1.0
    # another shape, weight or grid is another kernel
    for key in ((g, (32, 32), ("power", 2.5)), (g, (32, 16), ("power", 2.25)),
                (g, (32, 16), ("ball", 0.1)), (Grid(2, 64, 2.0), (32, 16), ("power", 2.5))):
        other = _kernels._kernel_spectrum(*key)
        assert other is not first and not np.array_equal(other, first), key
    _kernels._kernel_spectrum.cache_clear()
    again = _kernels._kernel_spectrum(g, (32, 16), ("power", 2.5))
    assert again is not first and np.array_equal(again, first)
