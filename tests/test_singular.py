import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fraclap import singular
from fraclap.fields import band_limited_field, confined_field
from fraclap.grid import Grid, GridFunction, annulus_mask, ball_mask, l2_inner, lp_norm, per_axis
from fraclap.multipliers import frac_laplacian
from fraclap.singular import (
    _GAMMA_CHUNK,
    CalibratedConstant,
    SingularError,
    _equivalence_tables,
    calibrate_cns,
    equivalence_ratio,
    frac_lap_pointwise,
    gagliardo_seminorm,
    gagliardo_seminorms,
    periodized_kernel,
    raw_operator_field,
    raw_second_difference,
    upper_gamma,
)


@pytest.fixture(scope="module")
def calib():
    g = Grid(1, 2048, 1.0)
    return g, calibrate_cns(g, 0.5)


def test_kernel_rejects_order_outside_0_2():
    with pytest.raises(SingularError, match=r"\(0,2\)"):
        periodized_kernel(Grid(1, 8), 2.5)


def test_calibration_idempotent(calib):
    g, const = calib
    again = calibrate_cns(g, 0.5)
    assert abs(again.value - const.value) <= 1e-12 * const.value


def test_calibrated_constant_positive(calib):
    _, const = calib
    assert const.value > 0
    with pytest.raises(SingularError):
        CalibratedConstant("bad", -1.0)


def test_cross_validation_on_second_harmonic(calib):
    g, const = calib
    x = g.coords()[0]
    f = GridFunction(g, np.cos(4 * np.pi * x))
    spectral = frac_laplacian(f, 0.5)
    pts = np.arange(0, g.points_per_axis, 61)
    vals = frac_lap_pointwise(f, 0.5, (pts,), const)
    err = np.max(np.abs(vals - spectral.values[pts])) / np.max(np.abs(spectral.values))
    assert err <= 1e-3


def test_constant_scan_continuous_no_sign_flips():
    # computed truth: positive and continuous in s, peaked near s ~ 0.5
    # (NOT monotone: c(0.25) = 0.0697, c(0.5) = 0.0796, c(0.75) = 0.0681)
    g = Grid(1, 2048, 1.0)
    values = [calibrate_cns(g, s).value for s in (0.25, 0.4, 0.5, 0.6, 0.75)]
    assert all(v > 0 for v in values)
    steps = np.abs(np.diff(values)) / np.abs(values[:-1])
    assert np.max(steps) < 0.2  # small parameter steps move the constant mildly
    assert abs(values[0] - 0.0697) < 2e-3
    assert abs(values[2] - 0.0796) < 2e-3


def test_pointwise_constant_input_vanishes(calib):
    g, const = calib
    f = GridFunction(g, np.full(g.shape, 3.3))
    vals = frac_lap_pointwise(f, 0.5, (np.array([0, 7, 100]),), const)
    assert np.max(np.abs(vals)) == 0.0


def test_second_difference_sign_structure(calib):
    # at an interior maximum of even data the symmetric second differences are
    # nonpositive, i.e. the first-difference orientation of the raw sum is <= 0
    g, _ = calib
    x = g.coords()[0]
    f = GridFunction(g, np.cos(2 * np.pi * (x - 0.5)))
    at_max = np.array([g.points_per_axis // 2])
    raw_standard = raw_second_difference(f, 0.5, (at_max,))[0]
    assert -raw_standard <= 0.0


def test_pointwise_matches_convolution_field(calib):
    g, _ = calib
    f = band_limited_field(g, 8, cutoff=64)
    field = raw_operator_field(f, 0.5)
    pts = np.arange(0, g.points_per_axis, 97)
    direct = raw_second_difference(f, 0.5, (pts,))
    assert np.max(np.abs(direct - field.values[pts])) <= 1e-10 * np.max(np.abs(field.values))


def test_pointwise_uncalibrated_errors(calib):
    g, _ = calib
    f = band_limited_field(g, 0)
    with pytest.raises(SingularError, match="[Uu]ncalibrated"):
        frac_lap_pointwise(f, 0.5, (np.array([0]),), None)


def test_refinement_convergence():
    # |pointwise - spectral| decreases under grid doubling (10% slack)
    errs = []
    for n_pts in (512, 1024, 2048):
        g = Grid(1, n_pts, 1.0)
        const = calibrate_cns(g, 0.5)
        f = confined_field(g, 4, radius=1 / 6, cutoff=30, envelope=15)
        spectral = frac_laplacian(f, 0.5)
        pts = np.nonzero(ball_mask(g, g.center, 1 / 5).values)[0][::7]
        vals = frac_lap_pointwise(f, 0.5, (pts,), const)
        errs.append(np.max(np.abs(vals - spectral.values[pts])) / np.max(np.abs(spectral.values)))
    assert errs[1] <= errs[0] * 1.1
    assert errs[2] <= errs[1] * 1.1


# -- exact periodized kernel -------------------------------------------------------

GAMMA_X = np.geomspace(1e-3, 40.0, 80)


@pytest.mark.parametrize("a", [0.05, 0.5, 0.75, 1.0, 1.45, 2.2, 2.95])
def test_upper_gamma_matches_scipy(a):
    special = pytest.importorskip("scipy.special")
    ref = special.gammaincc(a, GAMMA_X) * special.gamma(a)
    assert np.max(np.abs(upper_gamma(a, GAMMA_X) / ref - 1)) <= 1e-12


@pytest.mark.parametrize("a", [-0.95, -0.75, -0.5, -0.25, -0.125, -0.05])
def test_upper_gamma_negative_order_matches_mpmath(a):
    mpmath = pytest.importorskip("mpmath")
    ref = np.array([float(mpmath.gammainc(a, x)) for x in GAMMA_X])
    assert np.max(np.abs(upper_gamma(a, GAMMA_X) / ref - 1)) <= 1e-12


def test_upper_gamma_is_elementwise_across_chunks():
    # longer than one chunk, and evaluated again in pieces that cut it elsewhere
    x = np.random.default_rng(0).uniform(1e-3, 45.0, 3 * _GAMMA_CHUNK + 17)
    for a in (-0.5, 0.75, 2.2):
        whole = upper_gamma(a, x)
        pieces = np.concatenate([upper_gamma(a, x[i : i + 1000]) for i in range(0, x.size, 1000)])
        assert whole.tobytes() == pieces.tobytes()
        assert upper_gamma(a, x.reshape(-1, 1)).shape == (x.size, 1)


def test_package_import_does_not_load_scipy():
    # scipy and mpmath serve the oracles only; neither is a runtime dependency
    code = "import sys, fraclap, fraclap.cli; sys.exit(int('scipy' in sys.modules or 'mpmath' in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _per_image_kernel(grid, s):
    """periodized_kernel as it was first written: the real-space term
    evaluated at every point of each of the 3^dim images in turn."""
    n, N, L, h = grid.dim, grid.points_per_axis, grid.box_length, grid.spacing
    p, eta = n + s, 8.0 / L
    ax = np.arange(N) * h
    ax = np.where(ax > 0.5 * L, ax - L, ax)
    K = np.zeros(grid.shape)
    for image in itertools.product((-L, 0.0, L), repeat=n):
        r2 = sum(d * d for d in per_axis([ax + o for o in image]))
        near = (eta * eta * r2 < 40.0) & (r2 > 0)
        r2 = r2[near]
        K[near] += upper_gamma(0.5 * p, eta * eta * r2) / r2 ** (0.5 * p)
    kmax = math.ceil(math.sqrt(40.0) * 8.0 / math.pi)
    k = np.arange(-kmax, kmax + 1)
    y = (math.pi / 8.0) ** 2 * sum(per_axis([k * k] * n))
    F = np.zeros(y.shape)
    far = (y > 0) & (y < 40.0)
    F[far] = y[far] ** (0.5 * s) * upper_gamma(-0.5 * s, y[far])
    F[(kmax,) * n] = 2.0 / s
    folded = np.zeros(grid.shape)
    np.add.at(folded, tuple(per_axis([k % N] * n)), F)
    series = np.fft.irfftn(folded[..., : N // 2 + 1], s=grid.shape, axes=tuple(range(n)))
    K += math.pi ** (0.5 * n) * eta**s / L**n * grid.npoints * series
    K /= math.gamma(0.5 * p)
    K[(0,) * n] = 0.0
    return K * grid.cell_measure


@pytest.mark.parametrize("dim,N", [(1, 8), (1, 64), (1, 4096), (2, 8), (2, 64), (3, 8), (3, 16)])
@pytest.mark.parametrize("L", [1.0, 0.7])  # dyadic and non-dyadic spacing
@pytest.mark.parametrize("s", [0.25, 0.5, 1.5, 1.9])
def test_kernel_table_equals_per_image_sum_bitwise(dim, N, L, s):
    # one Gamma evaluation per distinct tuple of per-axis squared
    # displacements, gathered per image, gives the per-image sum's bits
    grid = Grid(dim, N, L)
    assert np.array_equal(periodized_kernel(grid, s), _per_image_kernel(grid, s))


@pytest.mark.parametrize("dim,N", [(1, 256), (2, 64), (3, 16)])
def test_short_range_term_once_per_distinct_r2(monkeypatch, dim, N):
    # the first incomplete-gamma call is the real-space term: one argument
    # eta^2 r^2 per distinct r^2 in the cut, ascending
    args = []

    def recording(a, x):
        args.append(np.array(x))
        return upper_gamma(a, x)

    monkeypatch.setattr(singular, "upper_gamma", recording)
    periodized_kernel.cache_clear()
    periodized_kernel(Grid(dim, N, 1.0), 0.5)
    periodized_kernel.cache_clear()
    x = args[0]
    assert x.size > 1 and np.all(x[1:] > x[:-1])


@pytest.mark.parametrize("dim,N,bound", [(1, 65536, 7.6), (2, 256, 4.7)])
def test_kernel_build_peak_memory(traced_peak, dim, N, bound):
    # measured 7.34 and 4.43 field sizes; the per-image sum peaked at 8.41 and 7.41
    grid = Grid(dim, N, 1.0)
    assert traced_peak(periodized_kernel, grid, 0.5) <= bound * 8 * grid.npoints


@pytest.mark.parametrize("N", [8, 64, 2048])
@pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 1.9])
def test_kernel_1d_matches_hurwitz_zeta(N, s):
    # sum_k |x + L k|^-p = L^-p [zeta(p, x/L) + zeta(p, 1 - x/L)] for 0 < x < L
    special = pytest.importorskip("scipy.special")
    g = Grid(1, N, 2.0)
    p = 1 + s
    u = np.arange(1, N) / N
    ref = g.box_length**-p * (special.zeta(p, u) + special.zeta(p, 1 - u))
    K = periodized_kernel(g, s) / g.cell_measure
    assert K[0] == 0.0
    assert np.max(np.abs(K[1:] / ref - 1)) <= 1e-12


@pytest.mark.parametrize("N", [8, 32, 256])
@pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 1.9])
def test_kernel_2d_sum_matches_lattice_zeta(N, s):
    # sum over x != 0 of sum_k |x + L k|^-p counts every nonzero point h m of
    # the fine lattice except the multiples of L, and sum_{m != 0} |m|^-2t =
    # 4 zeta(t) beta(t) on Z^2 with beta(t) = 4^-t (zeta(t, 1/4) - zeta(t, 3/4))
    special = pytest.importorskip("scipy.special")
    g = Grid(2, N, 1.5)
    p, t = 2 + s, 1 + s / 2
    beta = 4.0**-t * (special.zeta(t, 0.25) - special.zeta(t, 0.75))
    ref = (g.spacing**-p - g.box_length**-p) * 4.0 * special.zeta(t) * beta
    K = periodized_kernel(g, s)
    assert abs(np.sum(K) / g.cell_measure / ref - 1) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("s", [0.1, 1.9])
def test_kernel_zero_only_at_the_origin(dim, s):
    # every nonzero offset is at distance >= h, so only z = 0 carries 0
    K = periodized_kernel(Grid(dim, 8), s)
    assert np.count_nonzero(K == 0.0) == 1 and K[(0,) * dim] == 0.0
    off = np.ones(K.shape, dtype=bool)
    off[(0,) * dim] = False
    assert np.all(K[off] > 0.0)


@pytest.mark.parametrize("dim,N", [(2, 8), (2, 32), (3, 8)])
@pytest.mark.parametrize("s", [0.1, 0.5, 1.9])
def test_kernel_restriction_to_coarse_grid(dim, N, s):
    # the lattice sum at a point does not depend on the grid it is tabulated on
    coarse, fine = Grid(dim, N, 1.0), Grid(dim, 2 * N, 1.0)
    Kc = periodized_kernel(coarse, s) / coarse.cell_measure
    Kf = periodized_kernel(fine, s)[(slice(None, None, 2),) * dim] / fine.cell_measure
    off = np.ones(coarse.shape, dtype=bool)
    off[(0,) * dim] = False
    assert Kc[(0,) * dim] == Kf[(0,) * dim] == 0.0
    assert np.max(np.abs(Kf[off] / Kc[off] - 1)) <= 1e-12


# -- Gagliardo seminorm --------------------------------------------------------

def test_seminorm_constant_vanishes():
    g = Grid(1, 512, 1.0)
    c = GridFunction(g, np.full(g.shape, 2.0))
    D = ball_mask(g, g.center, 0.2)
    for s in (0.5, 1.0, 1.5):
        assert gagliardo_seminorm(c, D, s) <= 1e-12


@pytest.mark.parametrize("dim,N", [(1, 512), (2, 32)])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_seminorms_equal_each_single_seminorm_bitwise(dim, N, s):
    # at s = 1.5 the 2D jet has two components per point
    g = Grid(dim, N, 1.0)
    fields = [band_limited_field(g, seed, cutoff=N / 8) for seed in range(3)]
    for D in (ball_mask(g, g.center, 0.2), annulus_mask(g, g.center, 0.1, 0.3), None):
        assert gagliardo_seminorms(fields, D, s) == [gagliardo_seminorm(f, D, s) for f in fields]


def test_seminorm_polynomial_shift_invariance():
    # [v + P]_{D,s} = [v]_{D,s} for deg P < s, tested with linear P at s = 1.5;
    # the monomial is windowed (identically 1 well beyond D) so it is smooth
    # on the torus before the spectral derivative is taken
    from fraclap.cutoffs import base_profile_values

    g = Grid(1, 512, 1.0)
    v = band_limited_field(g, 11, cutoff=32)
    D = ball_mask(g, g.center, 0.15)
    disp = g.periodic_displacement(g.center)[0]
    window = base_profile_values(np.abs(disp) / 0.2)  # == 1 on B_0.3, support in B_0.4
    shifted = GridFunction(g, v.values + window * (0.7 * disp + 2.0))
    a = gagliardo_seminorm(v, D, 1.5)
    b = gagliardo_seminorm(shifted, D, 1.5)
    assert abs(a - b) <= 1e-8 * a


def test_seminorm_domain_monotonicity():
    g = Grid(1, 512, 1.0)
    v = band_limited_field(g, 2, cutoff=32)
    small = ball_mask(g, g.center, 0.1)
    big = ball_mask(g, g.center, 0.2)
    assert gagliardo_seminorm(v, small, 0.5) <= gagliardo_seminorm(v, big, 0.5) + 1e-14


def test_seminorm_integer_order_is_gradient_norm():
    g = Grid(1, 512, 1.0)
    v = band_limited_field(g, 3, cutoff=32)
    D = ball_mask(g, g.center, 0.2)
    from fraclap.multipliers import derivative

    grad = derivative(v, (1,))
    assert abs(gagliardo_seminorm(v, D, 1.0) - lp_norm(grad, 2, D)) < 1e-12


# -- bilinear form ---------------------------------------------------------------

def bilinear_form(v, w, s, constant):
    """c_{n,s}/2 * sumsum (v(x)-v(y))(w(x)-w(y)) K(x-y) h^(2n).

    Evaluated through the convolution identity with the pointwise operator
    (exact rearrangement of the finite double sum), so it matches
    <Lap^s v, w> within the quadrature floor, is exactly symmetric, and the
    diagonal is excluded by the kernel.  Empirically validated orientation:
    the (v(x)-v(y))(w(y)-w(x)) variant printed in some sources is the
    negative of the spectrally consistent pairing.
    """
    if constant is None:
        raise SingularError("uncalibrated constant: run calibrate_cns first")
    return constant.value * l2_inner(raw_operator_field(v, s), w)


def test_bilinear_symmetry_and_const(calib):
    g, const = calib
    v = band_limited_field(g, 6, cutoff=48)
    w = band_limited_field(g, 7, cutoff=48)
    a = bilinear_form(v, w, 0.5, const)
    b = bilinear_form(w, v, 0.5, const)
    assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)
    c = GridFunction(g, np.full(g.shape, 1.7))
    assert abs(bilinear_form(c, w, 0.5, const)) <= 1e-12


def test_bilinear_positivity(calib):
    g, const = calib
    v = band_limited_field(g, 9, cutoff=48)
    assert bilinear_form(v, v, 0.5, const) >= -1e-10 * lp_norm(v, 2) ** 2


def test_bilinear_matches_spectral_pairing(calib):
    g, const = calib
    x = g.coords()[0]
    v = GridFunction(g, np.cos(2 * np.pi * x))
    pairing = bilinear_form(v, v, 0.5, const)
    spectral = l2_inner(frac_laplacian(v, 0.5), v)
    assert abs(pairing - spectral) <= 1e-2 * abs(spectral)


def test_bilinear_requires_constant(calib):
    g, _ = calib
    v = band_limited_field(g, 1)
    with pytest.raises(SingularError, match="[Uu]ncalibrated"):
        bilinear_form(v, v, 0.5, None)


# -- equivalence ratio ------------------------------------------------------------

def test_equivalence_ratio_constant_independence():
    g = Grid(1, 2048, 1.0)
    ratios = [
        equivalence_ratio(confined_field(g, seed, radius=1 / 6, cutoff=48, envelope=24), 0.25)
        for seed in range(5)
    ]
    assert max(ratios) / min(ratios) <= 1.02


def test_equivalence_ratio_dilation_invariance():
    g = Grid(1, 2048, 1.0)
    f = confined_field(g, 3, radius=1 / 6, cutoff=48, envelope=24)
    dil = GridFunction(g, f.values[(np.arange(g.points_per_axis) * 2) % g.points_per_axis])
    a, b = equivalence_ratio(f, 0.25), equivalence_ratio(dil, 0.25)
    assert abs(a / b - 1) <= 0.02


def test_equivalence_ratio_rejects_constants():
    g = Grid(1, 512, 1.0)
    with pytest.raises(SingularError):
        equivalence_ratio(GridFunction(g, np.ones(g.shape)), 0.25)
    with pytest.raises(SingularError, match="constant"):
        equivalence_ratio(GridFunction(Grid(2, 32, 3.0), np.full((32, 32), -2.5)), 0.75)


@pytest.mark.parametrize("dim,N", [(1, 2048), (2, 64)])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_equivalence_ratio_matches_field_form(dim, N, s):
    # the field form: the spectral norm and the raw double sum built as grid
    # functions, against the Parseval form from one transform of f
    g = Grid(dim, N, 1.0)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        f = confined_field(g, seed, radius=1 / 6, cutoff=N // 8, envelope=N // 16)
        for field in (f, GridFunction(g, rng.standard_normal(g.shape) + 3.0)):
            num = lp_norm(frac_laplacian(field, s), 2) ** 2
            ref = num / (2.0 * l2_inner(raw_operator_field(field, 2.0 * s), field))
            assert abs(equivalence_ratio(field, s) / ref - 1) <= 1e-13


def _per_call_equivalence_ratio(f, s):
    """equivalence_ratio with S, 2 (S - K^) and |xi|^(2s) built afresh."""
    grid, N = f.grid, f.grid.points_per_axis
    kernel = periodized_kernel(grid, 2.0 * s)
    total = float(np.sum(kernel))
    weight = 2.0 * (total - np.fft.rfftn(kernel).real)
    power = np.abs(np.fft.rfftn(f.values - f.values.flat[0]))
    power *= power
    power[..., 1 : N // 2] *= 2.0
    freqs = np.meshgrid(*([grid.axis_frequencies()] * grid.dim), indexing="ij")
    num = float(np.sum(power * np.sqrt(sum(x * x for x in freqs))[..., : N // 2 + 1] ** (2.0 * s)))
    return num / float(np.sum(power * weight))


@pytest.mark.parametrize("dim,N", [(1, 2048), (2, 64), (3, 16)])
def test_equivalence_ratio_memo_matches_recomputed_tables(dim, N):
    # orders alternate, so the one-entry memo is rebuilt and reused in turn
    g = Grid(dim, N, 1.0)
    for s in (0.25, 0.25, 0.75, 0.25):
        for seed in range(2):
            f = confined_field(g, seed, radius=1 / 6, cutoff=N // 8, envelope=N // 16)
            assert equivalence_ratio(f, s) == _per_call_equivalence_ratio(f, s), (s, seed)
    total, weight, symbol = _equivalence_tables(g, 0.25)
    assert _equivalence_tables(g, 0.25)[1] is weight
    assert not weight.flags.writeable and not symbol.flags.writeable
    _equivalence_tables.cache_clear()
    again = _equivalence_tables(g, 0.25)
    assert again[0] == total and again[1] is not weight
    assert np.array_equal(again[1], weight) and np.array_equal(again[2], symbol)


def test_kernel_memo_is_shared_and_read_only():
    g = Grid(2, 16, 1.0)
    first = periodized_kernel(g, 0.5)
    assert periodized_kernel(g, 0.5) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 1] = 1.0
    other = periodized_kernel(g, 0.75)  # a new order rebuilds
    assert other is not first and not np.array_equal(other, first)
    periodized_kernel.cache_clear()
    again = periodized_kernel(g, 0.5)
    assert again is not first and np.array_equal(again, first)
