import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.compensation import (
    DEFECT_ROUNDOFF,
    DEFECT_SUP,
    CompensationError,
    SphereValuedMap,
    commutator_H,
    defect_ratio,
    defect_scan,
    fourier_domination_check,
    h_norm_ratio,
    mode_convolution,
    structure_identity_residual,
)
from fraclap.cutoffs import build_family, evaluate
from fraclap.fields import band_limited_field, sphere_valued_map
from fraclap.grid import Grid, GridFunction, lp_norm, transform_forward
from fraclap.lorentz import lorentz_norm_profile, profile_from_values
from fraclap.multipliers import derivative, frac_laplacian


@pytest.fixture(scope="module")
def g1():
    return Grid(1, 512, 1.0)


def test_H_symmetric_bilinear(g1):
    u = band_limited_field(g1, 1, cutoff=32)
    v = band_limited_field(g1, 2, cutoff=32)
    w = band_limited_field(g1, 3, cutoff=32)
    H_uv = commutator_H(u, v)
    H_vu = commutator_H(v, u)
    assert np.max(np.abs(H_uv.values - H_vu.values)) <= 1e-12 * lp_norm(H_uv, 2)
    lin = commutator_H(GridFunction(g1, 2 * u.values + 3 * w.values), v)
    split = 2 * commutator_H(u, v).values + 3 * commutator_H(w, v).values
    assert np.max(np.abs(lin.values - split)) <= 1e-12 * np.max(np.abs(split))


def test_H_annihilates_constants(g1):
    v = band_limited_field(g1, 4, cutoff=32)
    c = GridFunction(g1, np.full(g1.shape, 2.5))
    assert lp_norm(commutator_H(c, v, guard=False), 2) <= 1e-12


def test_H_laplacian_case_identity():
    # with the |xi|^2 multiplier, H(u,v) = -2 (2 pi)^-2 grad u . grad v exactly
    g = Grid(2, 128, 1.0)
    u = band_limited_field(g, 3, cutoff=12, envelope=8)
    v = band_limited_field(g, 4, cutoff=12, envelope=8)
    H = commutator_H(u, v, order=2.0)
    axes = np.eye(g.dim, dtype=int)
    dot = sum(derivative(u, e).values * derivative(v, e).values for e in axes)
    resid = np.max(np.abs(H.values + 2 * (2 * np.pi) ** -2 * dot))
    assert resid <= 1e-10 * lp_norm(H, 2)


def test_alias_guard(g1):
    rng = np.random.default_rng(0)
    rough = GridFunction(g1, rng.standard_normal(g1.shape))
    smooth = band_limited_field(g1, 1, cutoff=32)
    with pytest.raises(CompensationError, match="alias"):
        commutator_H(rough, smooth)
    with pytest.raises(CompensationError, match="alias"):
        h_norm_ratio(rough, smooth)


# -- defect inequalities ---------------------------------------------------------

def test_defect_collinear_cancellation():
    x = np.array([[1.0, 0.0]])
    assert defect_ratio(x, -x, 1.0)[0] <= 1e-14


def test_defect_equal_points_p2():
    x = np.array([[0.7, -0.2]])
    assert abs(defect_ratio(x, x, 2.0)[0] - 1.0) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.floats(0.2, 1.8), st.floats(0.05, 20.0), st.integers(0, 10**6))
def test_defect_scaling_invariance(p, lam, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 2))
    xi = rng.standard_normal((4, 2))
    base = defect_ratio(x, xi, p)
    scaled = defect_ratio(lam * x, lam * xi, p)
    assert np.max(np.abs(base - scaled)) <= 1e-11 * np.max(np.abs(base) + 1e-300)


def test_defect_origin_rejected():
    with pytest.raises(CompensationError):
        defect_ratio(np.zeros((1, 2)), np.ones((1, 2)), 1.0)


def test_defect_scan_finite_and_regresses():
    cal = defect_scan(1, 0.5, samples=100000, seed=0)["sup"]
    fresh = defect_scan(1, 0.5, samples=100000, seed=9)["sup"]
    assert np.isfinite(cal)
    assert fresh <= cal * 1.01


def test_defect_sup_is_attained_on_the_diagonal():
    # equality case of the proof: x = xi gives 2 |xi|^p / |xi|^p = DEFECT_SUP
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        xi = rng.standard_normal((2000, dim)) * np.exp(rng.uniform(-10, 10, size=(2000, 1)))
        for p in (0.25, 0.5, 1.0):
            ratios = defect_ratio(xi, xi, p)
            assert np.max(np.abs(ratios - DEFECT_SUP)) <= DEFECT_ROUNDOFF, (dim, p)


def test_defect_scan_stays_within_exact_sup():
    # the fresh draws of the compensation experiment at seeds 0-19
    for seed in range(1000, 1020):
        assert defect_scan(1, 0.5, samples=200000, seed=seed)["sup"] <= DEFECT_SUP + DEFECT_ROUNDOFF


# -- Fourier domination -----------------------------------------------------------

def test_mode_convolution_matches_direct_sum(g1):
    u = band_limited_field(g1, 1, cutoff=24)
    v = band_limited_field(g1, 2, cutoff=24)
    A = np.abs(transform_forward(frac_laplacian(u, 0.25)))
    B = np.abs(transform_forward(frac_laplacian(v, 0.25)))
    conv = mode_convolution(g1, A, B)
    N = g1.points_per_axis
    modes = (np.fft.fftfreq(N) * N).astype(int)
    for m in (0, 3, 17, -9):
        direct = 0.0
        for k in range(N):
            mj = m - modes[k]
            if -N // 2 <= mj < N // 2:
                direct += A[modes[k] % N] * B[mj % N]
        assert abs(conv[m % N] - direct) <= 1e-12 * max(direct, 1e-300)


def test_domination_zero_input(g1):
    zero = GridFunction(g1, np.zeros(g1.shape))
    out = fourier_domination_check(zero, zero)
    assert out["max_ratio"] == 0.0


def test_domination_single_harmonic_hand_oracle(g1):
    # u = v = cos(2 pi x): three-mode configuration computable by hand;
    # H^ lives on modes 0, +-2 and the dominating convolution is explicit
    x = g1.coords()[0]
    u = GridFunction(g1, np.cos(2 * np.pi * x))
    out = fourier_domination_check(u, u)
    # H = (sqrt2/2 - 1) cos(4 pi x) - 1: |H^| = 1 at mode 0, (2-sqrt2)/4 at +-2;
    # dominating convolution of the quarter-order tables: 1/2 at 0, 1/4 at +-2;
    # ratios 2 and 2-sqrt2, so the max is exactly 2
    assert abs(out["max_ratio"] - 2.0) <= 1e-10


def test_domination_bounded_by_defect_constant(g1):
    # the pointwise ratio never exceeds the p = n/2 defect constant
    for seed in range(5):
        u = band_limited_field(g1, seed, cutoff=64)
        v = band_limited_field(g1, 100 + seed, cutoff=64)
        out = fourier_domination_check(u, v)
        assert out["max_ratio"] <= 2.0 + 1e-9


def _explicit_domination(u, v):
    """The former fourier_domination_check: each factor |(Lap^a u)^| from a
    multiplier round trip and a second transform, two terms in dim 3."""
    grid, n = u.grid, u.grid.dim
    H_hat = np.abs(transform_forward(commutator_H(u, v)))

    def mag(f, a):
        return np.abs(transform_forward(frac_laplacian(f, a)))

    if n <= 2:
        dom = mode_convolution(grid, mag(u, n / 4.0), mag(v, n / 4.0))
    else:
        dom = mode_convolution(grid, mag(u, (n - 2) / 2.0), mag(v, 1.0))
        dom = dom + mode_convolution(grid, mag(u, 1.0), mag(v, (n - 2) / 2.0))
    dom = np.abs(dom)
    sel = dom > 1e-12 * float(np.max(dom))
    return {"max_ratio": float(np.max(H_hat[sel] / dom[sel])), "points": int(sel.sum())}


@pytest.mark.parametrize("dim,n,cutoff", [(1, 512, 64), (2, 64, 8), (3, 16, 3)])
def test_domination_matches_explicit_formula(dim, n, cutoff):
    g = Grid(dim, n, 1.0)
    for seed in range(3):
        u = band_limited_field(g, seed, cutoff=cutoff)
        v = band_limited_field(g, seed + 10, cutoff=cutoff)
        for a, b in ((u, v), (u, u)):
            got, ref = fourier_domination_check(a, b), _explicit_domination(a, b)
            assert got["points"] == ref["points"] > 0
            assert abs(got["max_ratio"] - ref["max_ratio"]) <= 1e-12 * ref["max_ratio"]


# -- norm ratios -------------------------------------------------------------------

def _lap_half(u):
    return frac_laplacian(u, u.grid.dim / 2.0)


def _lorentz21_ratio(u, v):
    """||H(u,v)^||_{2,1} / (||Lap^{n/2}u||_2 ||Lap^{n/2}v||_2)."""
    cell = u.grid.box_length ** (-u.grid.dim)
    prof = profile_from_values(np.abs(transform_forward(commutator_H(u, v))), cell)
    return lorentz_norm_profile(prof, 2.0, 1.0) / (lp_norm(_lap_half(u), 2) * lp_norm(_lap_half(v), 2))


def _weak_factor_ratio(u, v):
    """||H(u,v)||_2 / (||(Lap^{n/2}u)^||_{2,inf} ||Lap^{n/2}v||_2)."""
    cell = u.grid.box_length ** (-u.grid.dim)
    prof = profile_from_values(np.abs(transform_forward(_lap_half(u))), cell)
    weak_u = lorentz_norm_profile(prof, 2.0, np.inf)
    return lp_norm(commutator_H(u, v), 2) / (weak_u * lp_norm(_lap_half(v), 2)) if weak_u > 0 else 0.0


def test_h_norm_ratio_scaling_invariance(g1):
    u = band_limited_field(g1, 5, cutoff=64)
    v = band_limited_field(g1, 6, cutoff=64)
    for ratio in (h_norm_ratio, _lorentz21_ratio, _weak_factor_ratio):
        a, b = ratio(u, v), ratio(2.0 * u, v)
        assert a > 0 and abs(a - b) <= 1e-12 * a, ratio


def test_h_norm_ratio_eigenfunction_oracle(g1):
    # u = v = cos(2 pi x): H = ((sqrt2 - 2)/2) cos(4 pi x) - 1 exactly, so
    # ||H||_2^2 = 1 + (sqrt2 - 2)^2/8 and the denominators are 1/2
    x = g1.coords()[0]
    u = GridFunction(g1, np.cos(2 * np.pi * x))
    got = h_norm_ratio(u, u)
    expected = np.sqrt(1.0 + (2 - 2**0.5) ** 2 / 8.0) / 0.5
    assert abs(got - expected) <= 1e-10


def test_h_norm_ratio_degenerate(g1):
    zero = GridFunction(g1, np.zeros(g1.shape))
    with pytest.raises(CompensationError):
        h_norm_ratio(zero, zero)


# -- structure identity ---------------------------------------------------------------

@pytest.fixture(scope="module")
def eta(g1):
    fam = build_family(4)
    return evaluate(fam, 0, 1 / 8, g1.center, g1)


def test_structure_identity_m1(g1, eta):
    one = SphereValuedMap((GridFunction(g1, np.ones(g1.shape)),))
    out = structure_identity_residual(one, eta)
    assert out["relative"] <= 1e-12


def test_structure_identity_seeded_maps(g1, eta):
    for seed in range(10):
        umap = SphereValuedMap(tuple(sphere_valued_map(g1, 2, seed, cutoff=24)))
        out = structure_identity_residual(umap, eta)
        assert out["relative"] <= 1e-10


def test_structure_identity_phase_map(g1, eta):
    # u = (cos phi, sin phi) with a smooth band-limited phase
    phase = band_limited_field(g1, 8, cutoff=16).values * 2.0
    umap = SphereValuedMap(
        (GridFunction(g1, np.cos(phase)), GridFunction(g1, np.sin(phase)))
    )
    assert structure_identity_residual(umap, eta)["relative"] <= 1e-10


def test_reused_transforms_match_commutator_H_bitwise(g1, eta):
    # h_norm_ratio and structure_identity_residual form H from the Lap^{n/2}
    # arrays they already hold; the result must equal commutator_H's exactly
    u = band_limited_field(g1, 5, cutoff=64)
    v = band_limited_field(g1, 6, cutoff=64)
    H = commutator_H(u, v)
    lap_u, lap_v = frac_laplacian(u, 0.5), frac_laplacian(v, 0.5)
    nu, nv = lp_norm(lap_u, 2), lp_norm(lap_v, 2)
    assert h_norm_ratio(u, v) == lp_norm(H, 2) / (nu * nv)

    umap = SphereValuedMap(tuple(sphere_valued_map(g1, 2, 3, cutoff=24)))
    rhs = frac_laplacian(GridFunction(g1, eta.values * eta.values), 0.5)
    acc = np.zeros(g1.shape)
    for comp in umap.components:
        w = GridFunction(g1, eta.values * comp.values)
        acc = acc + w.values * frac_laplacian(w, 0.5).values + 0.5 * commutator_H(w, w, guard=False).values
    resid = lp_norm(GridFunction(g1, acc - 0.5 * rhs.values), 2)
    out = structure_identity_residual(umap, eta)
    assert (out["residual"], out["scale"]) == (resid, lp_norm(rhs, 2))


def test_sphere_constraint_enforced(g1):
    bad = GridFunction(g1, np.full(g1.shape, 1.1))
    with pytest.raises(CompensationError, match="sphere"):
        SphereValuedMap((bad,))
