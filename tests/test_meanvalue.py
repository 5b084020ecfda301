import numpy as np
import pytest

from fraclap import _kernels
from fraclap.cutoffs import base_profile_values, build_family
from fraclap.fields import band_limited_field
from fraclap.grid import DomainMask, Grid, GridFunction, ball_mask, lp_norm
from fraclap.meanvalue import (
    MeanValueError,
    MeanValuePolynomial,
    annulus_mv_poincare_ratio,
    meanvalue_polynomial,
    meanvalue_polynomials,
    mv_poincare_ratio,
    poincare_constant,
    polynomial_gap_scan,
)
from fraclap.multipliers import _multi_indices_upto, derivative


@pytest.fixture(scope="module")
def family():
    return build_family(5)


def _windowed_poly(grid, coeff_const, coeff_lin, window_scale=0.22):
    disp = grid.periodic_displacement(grid.center)
    window = base_profile_values(
        np.sqrt(sum(d * d for d in disp)) / window_scale
    )  # == 1 on B_{1.5 w},support B_{2w}
    poly = coeff_const + sum(coeff_lin[a] * disp[a] for a in range(grid.dim))
    return GridFunction(grid, window * poly)


def meanvalue_residuals(v: GridFunction, D: DomainMask, P: MeanValuePolynomial) -> dict:
    """max_alpha |mean_D d^alpha (v - P)| normalized by ||d^alpha v||_{L2(D)}."""
    sel = D.values
    out = {}
    for alpha in _multi_indices_upto(v.grid.dim, P.degree):
        dv = derivative(v, alpha).values
        resid = abs(float(np.mean(dv[sel] - P.derivative_values(alpha)[sel])))
        scale = float(np.sqrt(np.mean(dv[sel] ** 2))) + 1e-300
        out[alpha] = resid / scale
    return out


def test_meanvalue_residuals_are_tiny():
    # degree >= 1 takes d^beta P with beta != 0 on the grid, against the
    # masked evaluation inside the recursion
    for dim, n_pts, degree in ((1, 1024, 0), (2, 64, 1), (2, 64, 2), (3, 16, 1)):
        g = Grid(dim, n_pts, 1.0)
        v = band_limited_field(g, 5, cutoff=min(32, n_pts // 4))
        D = ball_mask(g, g.center, 0.1 if dim == 1 else 0.2)
        P = meanvalue_polynomial(v, D, degree, center=g.center)
        assert max(meanvalue_residuals(v, D, P).values()) <= 1e-10, (dim, degree)


def test_degree_zero_is_the_mean():
    g = Grid(2, 64, 1.0)
    v = band_limited_field(g, 3, cutoff=6)
    D = ball_mask(g, g.center, 0.15)
    P = meanvalue_polynomial(v, D, 0, center=g.center)
    direct = float(np.mean(v.values[D.values]))
    assert abs(P.coeffs[(0, 0)] - direct) <= 1e-12 * max(abs(direct), 1e-300)


def test_polynomial_reproduction():
    # windowed degree-1 polynomial: P recovers it on the ball and v - P
    # vanishes there (window identically 1 on the domain)
    g = Grid(2, 512, 1.0)
    v = _windowed_poly(g, 0.8, (1.5, -0.4))
    D = ball_mask(g, g.center, 0.1)
    P = meanvalue_polynomial(v, D, 1, center=g.center)
    resid = np.abs(v.values - P.evaluate())[D.values]
    assert np.max(resid) <= 1e-8


def test_zero_derivative_means_zero_polynomial():
    g = Grid(1, 512, 1.0)
    x = g.coords()[0]
    v = GridFunction(g, np.cos(2 * np.pi * 8 * x))  # zero mean and mean slope on the box
    P = meanvalue_polynomial(v, DomainMask(g, np.ones(g.shape, bool)), 0, center=g.center)
    assert abs(P.coeffs[(0,)]) <= 1e-12


def test_stage_derivative_consistency():
    # d^alpha Q^i = d^alpha Q^0 coefficientwise for |alpha| >= i
    g = Grid(2, 64, 1.0)
    v = band_limited_field(g, 9, cutoff=6)
    D = ball_mask(g, g.center, 0.2)
    P = meanvalue_polynomial(v, D, 2, center=g.center)
    final = P.coeffs
    # stages run i = N..0; stage for Q^i holds exactly the orders >= i written so far
    for stage_idx, stage in enumerate(P.stages):
        for alpha, c in stage.items():
            assert abs(c - final[alpha]) <= 1e-12 * max(abs(c), 1e-300)


def test_degree_cap():
    g = Grid(1, 256, 1.0)
    v = band_limited_field(g, 0)
    with pytest.raises(MeanValueError):
        meanvalue_polynomial(v, ball_mask(g, g.center, 0.1), 3)


# -- Poincare constants ---------------------------------------------------------

def test_poincare_scaling_exponent():
    g = Grid(1, 1024, 1.0)
    radii = [1 / 64, 1 / 32, 1 / 16]
    for s in (0.5, 1.0):
        consts = [poincare_constant(ball_mask(g, g.center, r), s)["constant"] for r in radii]
        slope = float(np.polyfit(np.log(radii), np.log(consts), 1)[0])
        assert abs(slope - s) <= 0.05 * s
        assert consts[0] <= consts[1] <= consts[2] * (1 + 1e-6)


def test_poincare_doubling_ratio():
    g = Grid(1, 1024, 1.0)
    c1 = poincare_constant(ball_mask(g, g.center, 1 / 32), 0.5)["constant"]
    c2 = poincare_constant(ball_mask(g, g.center, 1 / 16), 0.5)["constant"]
    assert abs(c2 / c1 - 2**0.5) <= 0.05 * 2**0.5


def test_generalized_poincare_scaling():
    g = Grid(1, 1024, 1.0)
    radii = [1 / 64, 1 / 32, 1 / 16]
    consts = [
        poincare_constant(ball_mask(g, g.center, r), s=0.25, t=0.75)["constant"] for r in radii
    ]
    slope = float(np.polyfit(np.log(radii), np.log(consts), 1)[0])
    assert abs(slope - 0.5) <= 0.05 * 0.5


def test_poincare_iteration_cap():
    g = Grid(1, 256, 1.0)
    with pytest.raises(MeanValueError, match="power iteration"):
        poincare_constant(ball_mask(g, g.center, 0.1), 0.5, max_power_iterations=1)


# -- mean-value Poincare ----------------------------------------------------------

def test_mv_poincare_polynomial_kills_numerator(family):
    g = Grid(1, 1024, 1.0)
    v = _windowed_poly(g, 0.5, (1.2,))
    r = 1 / 32
    (out,) = mv_poincare_ratio([v], r, g.center, 0.5, 0.0, family, degree=1)
    # the numerator vanishes up to the spectral tail of the windowed polynomial
    from fraclap.multipliers import frac_laplacian

    scale = lp_norm(frac_laplacian(v, 0.5), 2)
    assert out["numerator"] <= 1e-8 * scale


def test_mv_poincare_scale_covariance(family):
    g = Grid(1, 2048, 1.0)
    v = band_limited_field(g, 4, cutoff=64, envelope=32)
    r = 1 / 32
    (base,) = (out["ratio"] for out in mv_poincare_ratio([v], r, g.center, 0.5, 0.0, family))
    dil = GridFunction(g, v.values[(np.arange(g.points_per_axis) * 2) % g.points_per_axis])
    (halved,) = (out["ratio"] for out in mv_poincare_ratio([dil], r / 2, g.center, 0.5, 0.0, family))
    assert abs(halved / base - 1.0) <= 0.05


def test_mv_poincare_order_preconditions(family):
    g = Grid(1, 512, 1.0)
    v = band_limited_field(g, 1)
    with pytest.raises(MeanValueError):
        mv_poincare_ratio([v], 1 / 32, g.center, 1.2, 0.0, family, degree=0)


def test_annulus_polynomial_trivial(family):
    g = Grid(1, 1024, 1.0)
    v = _windowed_poly(g, 0.3, (0.9,))
    (out,) = annulus_mv_poincare_ratio([v], 1 / 64, g.center, 2, 0.5, 0.0, family, degree=1)
    from fraclap.multipliers import frac_laplacian

    scale = lp_norm(frac_laplacian(v, 0.5), 2)
    assert out["numerator"] <= 1e-8 * scale


def test_annulus_k_uniformity(family):
    g = Grid(1, 2048, 1.0)
    r = 1 / 64
    fields = [band_limited_field(g, seed, cutoff=64, envelope=32) for seed in range(6)]
    per_k = []
    for k in (1, 2, 3, 4):
        outs = annulus_mv_poincare_ratio(fields, r, g.center, k, 0.5, 0.0, family)
        per_k.append(max(out["ratio"] for out in outs))
    assert max(per_k) / min(per_k) <= 2.0


def test_studies_give_each_field_its_own_result_bitwise(family):
    # masks, cutoffs, displacements and box convolutions are shared by the
    # fields of a call; each field's result is the one it gets alone
    g = Grid(1, 2048, 1.0)
    fields = [band_limited_field(g, seed, cutoff=64, envelope=32) for seed in range(3)]
    fields.append(_windowed_poly(g, 0.4, (1.1,)))
    x = g.center
    for study, args in ((mv_poincare_ratio, (1 / 32, x, 0.5, 0.0, family)),
                        (annulus_mv_poincare_ratio, (1 / 64, x, 2, 0.5, 0.0, family, 1)),
                        (polynomial_gap_scan, (1 / 64, x, 4, family))):
        assert study(fields, *args) == [study([v], *args)[0] for v in fields]
    D = ball_mask(g, x, 0.1)
    for P, v in zip(meanvalue_polynomials(fields, D, 2, x), fields):
        assert P.coeffs == meanvalue_polynomial(v, D, 2, x).coeffs


def test_polynomial_gap_scan_trivial(family):
    g = Grid(1, 2048, 1.0)
    v = _windowed_poly(g, 0.4, (1.1,))
    (out,) = polynomial_gap_scan([v], 1 / 64, g.center, 3, family, degree=0)
    # degree 0 in one dimension: both mean-value polynomials see the same
    # windowed polynomial, so the gaps reduce to discretization noise
    assert max(out["g"]) <= 1e-6
    # e_k is not zero (v - P is the linear part) but finite
    assert all(np.isfinite(out["e"]))


def test_polynomial_gap_shift_invariance(family):
    g = Grid(1, 2048, 1.0)
    r = 1 / 64
    v = band_limited_field(g, 6, cutoff=64, envelope=32)
    shifted = GridFunction(g, v.values + _windowed_poly(g, 0.9, (0.0,)).values)
    out1, out2 = polynomial_gap_scan([v, shifted], r, g.center, 3, family)
    # both mean-value polynomials shift by the same constant, so the gap
    # numerators g_k * ||Lap^{n/2} v|| agree (the normalizer itself moves)
    for a, b in zip(out1["g"], out2["g"]):
        num1, num2 = a * out1["lap_norm"], b * out2["lap_norm"]
        assert abs(num1 - num2) <= 1e-6 * max(abs(num1), 1e-12)


def test_polynomial_gap_box_guard(family):
    g = Grid(1, 512, 1.0)
    v = band_limited_field(g, 0)
    with pytest.raises(MeanValueError, match="box"):
        polynomial_gap_scan([v], 1 / 8, g.center, 4, family)


# -- auxiliary closed-bound checks ------------------------------------------------

def test_kernel_integral_slope():
    # int_{B_r(x0)} |x-y|^(2-n-2s) dy <= C_s r^(2-2s): fitted growth exponent
    g = Grid(1, 4096, 1.0)
    s = 0.3
    x_idx = g.points_per_axis // 2
    x = g.axis_coords()[x_idx]
    vals = []
    radii = [1 / 64, 1 / 32, 1 / 16, 1 / 8]
    for r in radii:
        sel = g.periodic_distance([x]) < r
        y = g.axis_coords()[sel.ravel()]
        d = np.abs(y - x)
        d = np.minimum(d, g.box_length - d)
        d = d[d > 0]
        vals.append(float(np.sum(d ** (2 - 1 - 2 * s)) * g.spacing))
    slope = float(np.polyfit(np.log(radii), np.log(vals), 1)[0])
    assert abs(slope - (2 - 2 * s)) <= 0.1 * (2 - 2 * s)


def test_convex_set_gradient_estimate():
    # double integral of |v(x)-v(y)|^2/|x-y|^gamma over B x B against
    # C ||grad v||^2_{L2(B)}, calibrated then regressed, gamma in {0, n+1}
    g = Grid(1, 1024, 1.0)
    D = ball_mask(g, g.center, 0.12)
    points = np.argwhere(D.values)

    def ratio(v, gamma):
        num = _kernels.pair_sum_sq_diff(points, v.values[D.values], gamma, g)
        num *= g.cell_measure**2
        den = lp_norm(derivative(v, (1,)), 2, D) ** 2
        return num / den

    for gamma in (0.0, 2.0):
        cal = max(ratio(band_limited_field(g, s, cutoff=64), gamma) for s in range(6))
        fresh = max(ratio(band_limited_field(g, 100 + s, cutoff=64), gamma) for s in range(3))
        assert fresh <= cal * 1.01
