import numpy as np
import pytest

from fraclap.fields import band_limited_field, confined_field
from fraclap.grid import Grid, GridFunction, ball_mask, l2_inner, lp_norm
from fraclap.multipliers import frac_laplacian
from fraclap.singular import (
    CalibratedConstant,
    SingularError,
    SingularQuadratureScheme,
    bilinear_form,
    calibrate_cns,
    equivalence_ratio,
    frac_lap_pointwise,
    gagliardo_seminorm,
    periodized_kernel,
    raw_operator_field,
    raw_second_difference,
)


@pytest.fixture(scope="module")
def calib():
    g = Grid(1, 2048, 1.0)
    scheme = SingularQuadratureScheme()
    return g, scheme, calibrate_cns(g, 0.5, scheme), periodized_kernel(g, 0.5, scheme)


def test_scheme_validation():
    with pytest.raises(SingularError):
        SingularQuadratureScheme(exclusion_factor=0.0)
    with pytest.raises(SingularError):
        SingularQuadratureScheme(symmetrization="midpoint")
    scheme = SingularQuadratureScheme(symmetrization="first-difference")
    with pytest.raises(SingularError, match="first-difference"):
        scheme.validate_order(1.2)
    with pytest.raises(SingularError):
        SingularQuadratureScheme().validate_order(2.5)


def test_calibration_idempotent(calib):
    g, scheme, const, _ = calib
    again = calibrate_cns(g, 0.5, scheme)
    assert abs(again.value - const.value) <= 1e-12 * const.value


def test_calibrated_constant_positive(calib):
    _, _, const, _ = calib
    assert const.value > 0
    with pytest.raises(SingularError):
        CalibratedConstant("bad", -1.0)


def test_cross_validation_on_second_harmonic(calib):
    g, scheme, const, kernel = calib
    x = g.coords()[0]
    f = GridFunction(g, np.cos(4 * np.pi * x))
    spectral = frac_laplacian(f, 0.5)
    pts = np.arange(0, g.points_per_axis, 61)
    vals = frac_lap_pointwise(f, 0.5, (pts,), scheme, const, kernel)
    err = np.max(np.abs(vals - spectral.values[pts])) / np.max(np.abs(spectral.values))
    assert err <= 1e-3


def test_constant_scan_continuous_no_sign_flips():
    # computed truth: positive and continuous in s, peaked near s ~ 0.5
    # (NOT monotone: c(0.25) = 0.0697, c(0.5) = 0.0796, c(0.75) = 0.0681)
    g = Grid(1, 2048, 1.0)
    scheme = SingularQuadratureScheme()
    values = [calibrate_cns(g, s, scheme).value for s in (0.25, 0.4, 0.5, 0.6, 0.75)]
    assert all(v > 0 for v in values)
    steps = np.abs(np.diff(values)) / np.abs(values[:-1])
    assert np.max(steps) < 0.2  # small parameter steps move the constant mildly
    assert abs(values[0] - 0.0697) < 2e-3
    assert abs(values[2] - 0.0796) < 2e-3


def test_pointwise_constant_input_vanishes(calib):
    g, scheme, const, kernel = calib
    f = GridFunction(g, np.full(g.shape, 3.3))
    vals = frac_lap_pointwise(f, 0.5, (np.array([0, 7, 100]),), scheme, const, kernel)
    assert np.max(np.abs(vals)) == 0.0


def test_second_difference_sign_structure(calib):
    # at an interior maximum of even data the symmetric second differences are
    # nonpositive, i.e. the first-difference orientation of the raw sum is <= 0
    g, scheme, _, kernel = calib
    x = g.coords()[0]
    f = GridFunction(g, np.cos(2 * np.pi * (x - 0.5)))
    at_max = np.array([g.points_per_axis // 2])
    raw_standard = raw_second_difference(f, 0.5, (at_max,), scheme, kernel)[0]
    assert -raw_standard <= 0.0


def test_pointwise_matches_convolution_field(calib):
    g, scheme, _, kernel = calib
    f = band_limited_field(g, 8, cutoff=64)
    field = raw_operator_field(f, 0.5, scheme, kernel)
    pts = np.arange(0, g.points_per_axis, 97)
    direct = raw_second_difference(f, 0.5, (pts,), scheme, kernel)
    assert np.max(np.abs(direct - field.values[pts])) <= 1e-10 * np.max(np.abs(field.values))


def test_pointwise_uncalibrated_errors(calib):
    g, scheme, _, kernel = calib
    f = band_limited_field(g, 0)
    with pytest.raises(SingularError, match="[Uu]ncalibrated"):
        frac_lap_pointwise(f, 0.5, (np.array([0]),), scheme, None, kernel)


def test_refinement_convergence():
    # |pointwise - spectral| decreases under grid doubling (10% slack)
    errs = []
    for n_pts in (512, 1024, 2048):
        g = Grid(1, n_pts, 1.0)
        scheme = SingularQuadratureScheme()
        const = calibrate_cns(g, 0.5, scheme)
        kernel = periodized_kernel(g, 0.5, scheme)
        f = confined_field(g, 4, radius=1 / 6, cutoff=30, envelope=15)
        spectral = frac_laplacian(f, 0.5)
        pts = np.nonzero(ball_mask(g, g.center, 1 / 5).values)[0][::7]
        vals = frac_lap_pointwise(f, 0.5, (pts,), scheme, const, kernel)
        errs.append(np.max(np.abs(vals - spectral.values[pts])) / np.max(np.abs(spectral.values)))
    assert errs[1] <= errs[0] * 1.1
    assert errs[2] <= errs[1] * 1.1


# -- Gagliardo seminorm --------------------------------------------------------

def test_seminorm_constant_vanishes():
    g = Grid(1, 512, 1.0)
    c = GridFunction(g, np.full(g.shape, 2.0))
    D = ball_mask(g, g.center, 0.2)
    for s in (0.5, 1.0, 1.5):
        assert gagliardo_seminorm(c, D, s) <= 1e-12


def test_seminorm_polynomial_shift_invariance():
    # [v + P]_{D,s} = [v]_{D,s} for deg P < s, tested with linear P at s = 1.5;
    # the monomial is windowed (identically 1 well beyond D) so it is smooth
    # on the torus before the spectral gradient is taken
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
    from fraclap.multipliers import gradient

    grad = gradient(v)[0]
    assert abs(gagliardo_seminorm(v, D, 1.0) - lp_norm(grad, 2, D)) < 1e-12


# -- bilinear form ---------------------------------------------------------------

def test_bilinear_symmetry_and_const(calib):
    g, scheme, const, _ = calib
    v = band_limited_field(g, 6, cutoff=48)
    w = band_limited_field(g, 7, cutoff=48)
    a = bilinear_form(v, w, 0.5, scheme, const)
    b = bilinear_form(w, v, 0.5, scheme, const)
    assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)
    c = GridFunction(g, np.full(g.shape, 1.7))
    assert abs(bilinear_form(c, w, 0.5, scheme, const)) <= 1e-12


def test_bilinear_positivity(calib):
    g, scheme, const, _ = calib
    v = band_limited_field(g, 9, cutoff=48)
    assert bilinear_form(v, v, 0.5, scheme, const) >= -1e-10 * lp_norm(v, 2) ** 2


def test_bilinear_matches_spectral_pairing(calib):
    g, scheme, const, _ = calib
    x = g.coords()[0]
    v = GridFunction(g, np.cos(2 * np.pi * x))
    pairing = bilinear_form(v, v, 0.5, scheme, const)
    spectral = l2_inner(frac_laplacian(v, 0.5), v)
    assert abs(pairing - spectral) <= 1e-2 * abs(spectral)


def test_bilinear_requires_constant(calib):
    g, scheme, _, _ = calib
    v = band_limited_field(g, 1)
    with pytest.raises(SingularError, match="[Uu]ncalibrated"):
        bilinear_form(v, v, 0.5, scheme, None)


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
