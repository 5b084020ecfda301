import math

import numpy as np
import pytest

from fraclap.cutoffs import build_family, evaluate
from fraclap.fields import band_limited_field, confined_field, smooth_bump
from fraclap import hodge
from fraclap.grid import Grid, GridFunction, ball_mask, l2_inner, lp_norm
from fraclap.hodge import (
    HodgeDecomposition,
    HodgeError,
    _supports_disjoint,
    disjoint_pairing_decay,
    harmonic_decay_check,
    hodge_decompose,
    local_norm_recovery,
    localization_representative,
    lower_order_product_norm,
)
from fraclap.meanvalue import default_degree, meanvalue_polynomial
from fraclap.multipliers import SymbolError, abs_power_table, apply_table, frac_laplacian
from fraclap.solve import NumericalError


def minimizer_optimality_check(dec: HodgeDecomposition) -> float:
    """Smallest energy increase E(phi + eps psi) - E(phi) over 10 seeded random
    interior directions (nonnegative up to roundoff for the discrete minimizer)."""
    grid = dec.f.grid
    rng = np.random.default_rng(0)
    table_s = abs_power_table(grid, dec.s)
    base = apply_table(np.asarray(dec.phi.values, dtype=float), table_s) - dec.f.values
    E0 = float(np.sum(base**2)) * grid.cell_measure
    worst = np.inf
    eps = 1e-3 * (lp_norm(dec.phi, 2) + 1.0)
    for _ in range(10):
        psi = np.zeros(grid.shape)
        psi[dec.mask.values] = rng.standard_normal(dec.mask.npoints)
        psi /= math.sqrt(float(np.sum(psi**2)))
        pert = apply_table(psi * eps, table_s)
        E1 = float(np.sum((base + pert) ** 2)) * grid.cell_measure
        worst = min(worst, (E1 - E0) / max(E0, 1e-300))
    return worst


@pytest.fixture(scope="module")
def setup():
    g = Grid(1, 1024, 1.0)
    D = ball_mask(g, g.center, 1 / 6)
    return g, D


def test_zero_input(setup):
    g, D = setup
    dec = hodge_decompose(GridFunction(g, np.zeros(g.shape)), D, 0.5)
    assert lp_norm(dec.phi, 2) == 0.0 and lp_norm(dec.h, 2) == 0.0


def test_representable_input_has_tiny_remainder(setup):
    g, D = setup
    src = confined_field(g, 3, radius=1 / 8)
    f = frac_laplacian(src, 0.5)
    dec = hodge_decompose(f, D, 0.5)
    assert lp_norm(dec.h, 2) <= 1e-8 * lp_norm(f, 2)


def test_invariants_over_seeds(setup):
    g, D = setup
    for seed in range(8):
        f = band_limited_field(g, seed, cutoff=128)
        dec = hodge_decompose(f, D, 0.5)
        assert dec.residual_norm() <= 1e-10 * lp_norm(f, 2)
        assert dec.orthogonality_margin() <= 1e-8
        assert dec.factor_bound() <= 5.0
        assert dec.iterations <= 500


def test_minimizer_optimality(setup):
    g, D = setup
    f = band_limited_field(g, 17, cutoff=128)
    dec = hodge_decompose(f, D, 0.5)
    assert minimizer_optimality_check(dec) >= -1e-10


def test_cg_cap_raises(setup):
    # a numerical failure: `fraclap run` exits 3 for it, not 1 as for a
    # failed verdict
    g, D = setup
    f = band_limited_field(g, 0, cutoff=128)
    for maxiter in (1, 2):
        with pytest.raises(HodgeError, match="CG") as err:
            hodge_decompose(f, D, 0.5, maxiter=maxiter)
        assert isinstance(err.value, NumericalError)


def test_operator_errors_are_not_numerical_failures(setup, monkeypatch):
    # a programming error inside the solve propagates as itself, not as a
    # HodgeError (which `fraclap run` would report as a numerical failure)
    def broken(*args):
        raise TypeError("bad operator")

    monkeypatch.setattr(hodge, "restricted_cg", broken)
    g, D = setup
    with pytest.raises(TypeError, match="bad operator"):
        hodge_decompose(band_limited_field(g, 0), D, 0.5)


def test_distant_source_gives_small_phi(setup):
    # f supported far outside D: the representable part decays with the gap
    g, D = setup
    fractions = []
    for offset in (0.28, 0.38):
        center = g.center.copy()
        center[0] += offset
        f = smooth_bump(g, center, 1 / 24, modulation_mode=1, seed=1)
        dec = hodge_decompose(f, D, 0.5)
        fractions.append(lp_norm(frac_laplacian(dec.phi, 0.5), 2) / lp_norm(f, 2))
    assert fractions[0] < 0.5
    assert fractions[1] <= fractions[0]


# -- harmonic decay ----------------------------------------------------------------

def test_harmonic_decay_law():
    g = Grid(1, 4096, 1.0)
    f = band_limited_field(g, 42, cutoff=256)
    out = harmonic_decay_check(f, 1 / 128, g.center, [8, 16, 32], 0.5)
    assert out["decay_ratio"] <= out["bound"]
    for i in range(len(out["rho"]) - 1):
        assert out["rho"][i + 1] <= out["rho"][i] * 1.05
    assert max(out["orthogonality"]) <= 1e-8


def test_harmonic_decay_trivial_for_zero_remainder():
    # h identically zero: every interior ratio is reported as 0
    g = Grid(1, 1024, 1.0)
    f = GridFunction(g, np.zeros(g.shape))
    out = harmonic_decay_check(f, 1 / 64, g.center, [4, 8], 0.5)
    assert out["rho"] == [0.0, 0.0]
    assert out["decay_ratio"] == 0.0


# -- disjoint support decay ----------------------------------------------------------

def test_disjoint_pairing_zero_order_vanishes():
    g = Grid(1, 2048, 1.0)
    r = 1 / 128
    out = disjoint_pairing_decay(g, 0.0, 0.0, r, [4 * r, 8 * r, 16 * r])
    assert max(out["pairing"]) <= 1e-12


def test_disjoint_pairing_linearity():
    g = Grid(1, 2048, 1.0)
    r = 1 / 128
    gam = 8 * g.spacing
    a = smooth_bump(g, g.center, gam)
    d = 8 * r
    c_b = g.center.copy()
    c_b[0] += gam + d + gam
    b = smooth_bump(g, c_b, gam)
    p1 = abs(l2_inner(frac_laplacian(a, 0.25), frac_laplacian(b, 0.25)))
    p2 = abs(l2_inner(frac_laplacian(a, 0.25), frac_laplacian(2.0 * b, 0.25)))
    assert abs(p2 - 2 * p1) <= 0.01 * p2


def test_disjoint_pairing_slope_n1():
    g = Grid(1, 8192, 1.0)
    r = 1 / 320
    gam = 12 * g.spacing
    out = disjoint_pairing_decay(g, 0.25, 0.25, gam, [m * r for m in (4, 8, 16, 32)])
    assert abs(out["slope"] - out["target"]) <= 0.15 * abs(out["target"])


def _full_grid_disjoint(a, b):
    overlap = np.abs(a.values) * np.abs(b.values)
    scale = np.max(np.abs(a.values)) * np.max(np.abs(b.values)) + 1e-300
    return float(np.max(overlap)) <= 1e-12 * scale


@pytest.mark.parametrize("dim,n_pts", [(1, 512), (2, 64)])
def test_supports_disjoint_matches_full_grid_product(dim, n_pts):
    g = Grid(dim, n_pts, 1.0)
    gam = 8 * g.spacing
    a = smooth_bump(g, g.center, gam)
    a_on = np.flatnonzero(a.values)
    a_abs = np.abs(a.values.ravel()[a_on])
    answers = []
    # disjoint, touching (centers 2 gamma apart), overlapping, nested
    for gap in (3 * g.spacing, 0.0, -4 * g.spacing, -2 * gam):
        c_b = g.center.copy()
        c_b[0] += 2 * gam + gap
        for b in (smooth_bump(g, c_b, gam), smooth_bump(g, c_b, gam, modulation_mode=1, seed=2)):
            answers.append(_supports_disjoint(a_abs, a_on, b))
            assert answers[-1] == _full_grid_disjoint(a, b), gap
    assert answers == [True] * 4 + [False] * 4


def test_disjoint_pairing_peak_memory(traced_peak):
    # tracemalloc peak in field sizes, 2D 256^2: 4.53, against 5.53 while a
    # stayed alive through every transform of b
    g = Grid(2, 256, 1.0)
    r = 1 / 128
    radii = [m * r for m in (4, 8, 16)]
    peak = traced_peak(disjoint_pairing_decay, g, 0.5, 0.5, 8 * g.spacing, radii)
    assert peak <= 4.6 * g.npoints * 8


def test_disjoint_geometry_guards():
    g = Grid(1, 1024, 1.0)
    with pytest.raises(HodgeError, match="third"):
        disjoint_pairing_decay(g, 0.25, 0.25, 0.05, [0.1, 0.2, 0.3])
    with pytest.raises(HodgeError, match="3 separations"):
        disjoint_pairing_decay(g, 0.25, 0.25, 0.01, [0.05, 0.1])


# -- localization ----------------------------------------------------------------------

def test_localization_zero_input():
    g = Grid(1, 1024, 1.0)
    b = GridFunction(g, np.zeros(g.shape))
    a = localization_representative(b, 1 / 32, 1 / 16)
    assert lp_norm(a, 2) == 0.0


def test_localization_representation_identity():
    g = Grid(1, 1024, 1.0)
    gamma, d = 1 / 32, 1 / 8
    c_b = g.center.copy()
    c_b[0] += gamma + d + 1 / 16
    b = smooth_bump(g, c_b, 1 / 16, modulation_mode=1, seed=3)
    a = localization_representative(b, gamma, d)
    rng = np.random.default_rng(0)
    lap_b = frac_laplacian(b, 0.5)
    for _ in range(5):
        psi_vals = np.zeros(g.shape)
        psi_vals[a.support.values] = rng.standard_normal(a.support.npoints)
        psi = GridFunction(g, psi_vals)
        lhs = l2_inner(lap_b, frac_laplacian(psi, 0.5))
        rhs = l2_inner(a, psi)
        assert abs(lhs - rhs) <= 1e-10 * (lp_norm(a, 2) * lp_norm(psi, 2) + 1e-300)


def test_localization_support_guard():
    g = Grid(1, 1024, 1.0)
    b = smooth_bump(g, g.center, 1 / 8)  # overlaps the guard ball
    with pytest.raises(HodgeError, match="guard"):
        localization_representative(b, 1 / 32, 1 / 16)


def test_localization_norm_decays_with_gap():
    g = Grid(1, 2048, 1.0)
    gamma = 1 / 64
    ratios = []
    for mult in (2.0, 4.0, 8.0):
        d = mult * gamma
        c_b = g.center.copy()
        c_b[0] += gamma + d + 2 * gamma
        b = smooth_bump(g, c_b, 2 * gamma, modulation_mode=1, seed=1)
        a = localization_representative(b, gamma, d)
        ratios.append(lp_norm(a, 2) / lp_norm(b, 2))
    assert ratios[1] <= ratios[0] * 1.1 and ratios[2] <= ratios[1] * 1.1


# -- local norm recovery ------------------------------------------------------------------

def test_local_norm_recovery_zero():
    g = Grid(1, 1024, 1.0)
    v = GridFunction(g, np.zeros(g.shape))
    assert local_norm_recovery(v, 1 / 64, g.center, 8.0)["ratio"] == 0.0


def test_local_norm_recovery_representable_case():
    # v that IS Lap^{n/2} of an interior function: the dual sup nearly
    # saturates and the ratio is order one
    g = Grid(1, 1024, 1.0)
    r = 1 / 64
    src = confined_field(g, 2, radius=r / 2)
    v_full = frac_laplacian(src, 0.5)
    vals = np.where(ball_mask(g, g.center, r).values, v_full.values, 0.0)
    v = GridFunction(g, vals)
    out = local_norm_recovery(v, r, g.center, 8.0)
    assert 0.9 <= out["ratio"] <= 3.0


def test_local_norm_recovery_padding_guard():
    g = Grid(1, 512, 1.0)
    v = confined_field(g, 0, radius=1 / 32)
    with pytest.raises(HodgeError, match="padded"):
        local_norm_recovery(v, 1 / 32, g.center, 32.0)
    # B_{Lambda r} between grid points: no test function to take the sup over
    with pytest.raises(HodgeError, match="empty domain"):
        local_norm_recovery(v, 1 / 32, g.center + 0.5 * g.spacing, 1e-3)


@pytest.mark.parametrize("N", [256, 512, 1024])
def test_local_norm_recovery_matches_dense_restricted_solve(N):
    # the dual norm sqrt(<b, A^-1 b>) with A = P_D Lap^n P_D assembled densely
    # from its circulant column and b = P_D Lap^{n/2} v
    g = Grid(1, N, 1.0)
    r = 1 / 64
    col = np.fft.ifft(abs_power_table(g, 1.0)).real
    for lam, seed in ((8.0, 0), (8.0, 3), (16.0, 5)):
        v = confined_field(g, seed, radius=r)
        D = np.flatnonzero(ball_mask(g, g.center, lam * r).values)
        A = col[(D[:, None] - D[None, :]) % N]
        b = np.fft.ifft(np.fft.fft(v.values) * abs_power_table(g, 0.5)).real[D]
        sup = math.sqrt(float(b @ np.linalg.solve(A, b)) * g.cell_measure)
        out = local_norm_recovery(v, r, g.center, lam)
        assert abs(out["sup"] - sup) <= 1e-12 * sup, (lam, seed)
        assert out["ratio"] == out["v_norm"] / out["sup"]


# -- lower order products ------------------------------------------------------------------

def test_lower_order_zero_and_scaling():
    g = Grid(2, 128, 1.0)
    u = band_limited_field(g, 1, cutoff=12)
    v = band_limited_field(g, 2, cutoff=12)
    zero = GridFunction(g, np.zeros(g.shape))
    assert lower_order_product_norm(zero, v, 0.5)["product_norm"] == 0.0
    r1 = lower_order_product_norm(u, v, 0.5)["ratio"]
    r2 = lower_order_product_norm(2.0 * u, 3.0 * v, 0.5)["ratio"]
    assert abs(r1 - r2) <= 1e-12 * r1


def test_lower_order_range_and_mean_guards():
    g = Grid(2, 64, 1.0)
    u = band_limited_field(g, 1, cutoff=8)
    v = band_limited_field(g, 2, cutoff=8)
    with pytest.raises(HodgeError, match="n/2"):
        lower_order_product_norm(u, v, 1.0)
    for a, b in ((GridFunction(g, u.values + 1.0), v), (u, GridFunction(g, v.values + 1.0))):
        with pytest.raises(SymbolError, match="mean"):
            lower_order_product_norm(a, b, 0.5)


def test_lower_order_regression():
    g = Grid(2, 128, 1.0)

    def sup(seed0, count):
        worst = 0.0
        for k in range(count):
            u = band_limited_field(g, seed0 + 2 * k, cutoff=16)
            v = band_limited_field(g, seed0 + 2 * k + 1, cutoff=16)
            worst = max(worst, lower_order_product_norm(u, v, 0.5)["ratio"])
        return worst

    assert sup(500, 4) <= sup(0, 10) * 1.01


# -- product rule localization ----------------------------------------------------------------

def product_rule_localization(
    u: GridFunction,
    phi: GridFunction,
    r: float,
    x,
    lam: float,
    family,
) -> dict:
    """Commutation defect of a mean-value polynomial against the bracket that
    absorbs it: ||Lap^{n/2}(P phi) - P Lap^{n/2} phi||_{L2(B_r)} over

        ||Lap^{n/2}(eta_{L r}(u-P))||_2 + ||Lap^{n/2} u||_{L2(B_2Lr)}
        + L^-1 sum_{k=1..6} 2^-k ||eta^k_{L r} Lap^{n/2} u||_2,

    P the degree ceil(n/2)-1 mean-value polynomial of u on B_{L r}(x).
    Nontrivial only for n >= 3 (below that P is a constant and the defect
    vanishes identically, which the tests also assert)."""
    grid = u.grid
    n = grid.dim
    s = n / 2.0
    D = ball_mask(grid, x, lam * r)
    P = meanvalue_polynomial(u, D, default_degree(n), center=x)
    P_vals = P.evaluate()
    inner = ball_mask(grid, x, r)
    lhs_fun = GridFunction(
        grid,
        frac_laplacian(GridFunction(grid, P_vals * phi.values), s).values
        - P_vals * frac_laplacian(phi, s).values,
    )
    lhs = lp_norm(lhs_fun, 2, inner)
    eta0 = evaluate(family, 0, lam * r, x, grid)
    bracket = lp_norm(
        frac_laplacian(GridFunction(grid, eta0.values * (u.values - P_vals)), s), 2
    )
    lap_u = frac_laplacian(u, s)
    bracket += lp_norm(lap_u, 2, ball_mask(grid, x, 2.0 * lam * r))
    tail = 0.0
    for k in range(1, 7):
        if 2.0 ** (k + 1) * lam * r > 0.5 * grid.box_length:
            break
        eta = evaluate(family, k, lam * r, x, grid)
        tail += 2.0**-k * lp_norm(GridFunction(grid, eta.values * lap_u.values), 2)
    bracket += tail / lam
    return {"lhs": lhs, "bracket": bracket,
            "needed_constant": lhs / bracket if bracket > 0 else 0.0}


def test_product_rule_localization_trivial_below_dim3():
    # degree cap makes P constant for n <= 2, so the commutator defect is zero
    g = Grid(1, 512, 1.0)
    fam = build_family(4)
    u = band_limited_field(g, 3, cutoff=32)
    phi = smooth_bump(g, radius=1 / 64)
    out = product_rule_localization(u, phi, 1 / 64, g.center, 4.0, fam)
    assert out["lhs"] <= 1e-10 * max(out["bracket"], 1e-300)


def test_product_rule_localization_dim3():
    g = Grid(3, 64, 1.0)
    fam = build_family(3)
    u = band_limited_field(g, 5, cutoff=6)
    phi = smooth_bump(g, radius=1 / 16)
    out = product_rule_localization(u, phi, 1 / 16, g.center, 2.0, fam)
    assert np.isfinite(out["needed_constant"]) and out["needed_constant"] >= 0.0
    fresh = product_rule_localization(
        band_limited_field(g, 50, cutoff=6), phi, 1 / 16, g.center, 2.0, fam
    )
    cal = max(
        product_rule_localization(band_limited_field(g, s, cutoff=6), phi, 1 / 16,
                                  g.center, 2.0, fam)["needed_constant"]
        for s in range(5, 11)
    )
    assert fresh["needed_constant"] <= cal * 1.5  # coarse stability, n=3 is small-grid
