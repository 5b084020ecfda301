"""Generator determinism, and the lattice-identity kernels against brute-force
O(P^2) references."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclap import _kernels
from fraclap.fields import (
    band_limited_field,
    confined_field,
    moment_free_bump,
    sphere_valued_map,
)
from fraclap.grid import Grid, ball_mask, lp_norm


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
    """band_limited_field's values computed on full integer-mode meshgrids."""
    W = np.fft.fftn(np.random.default_rng(seed).standard_normal(grid.shape))
    mag = np.sqrt(sum(m.astype(float) ** 2 for m in grid.mode_numbers()))
    W = np.where(mag <= cutoff, W, 0.0) * np.exp(-((mag / envelope) ** 2))
    W[(0,) * grid.dim] = 0.0
    vals = np.fft.ifftn(W).real
    return vals / np.sqrt(np.sum(vals**2) * grid.cell_measure)


def test_band_limited_field_matches_meshgrid_reference():
    # per-axis mode arrays give the same |m| at every lattice point, bit for bit
    for dim, n_pts in ((1, 256), (2, 32), (3, 16)):
        g = Grid(dim, n_pts, 2.0)
        got = band_limited_field(g, 5, cutoff=n_pts / 8, envelope=n_pts / 16).values
        ref = _meshgrid_band_limited_values(g, 5, n_pts / 8, n_pts / 16)
        assert got.tobytes() == ref.tobytes()


def test_confined_field_support():
    g = Grid(1, 1024, 1.0)
    f = confined_field(g, 7, radius=1 / 6)
    assert f.support is not None
    outside = ~f.support.values
    assert np.max(np.abs(f.values[outside])) <= 1e-14 * np.max(np.abs(f.values))


def test_moment_free_bump_moments():
    g = Grid(1, 1024, 1.0)
    f = moment_free_bump(g, radius=1 / 8, order=2)
    x = g.periodic_displacement(g.center)[0]
    m0 = abs(np.sum(f.values) * g.cell_measure)
    m1 = abs(np.sum(x * f.values) * g.cell_measure)
    assert m0 < 1e-10 and m1 < 1e-10


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
