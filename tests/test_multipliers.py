import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclap.fields import band_limited_field, moment_free_bump, smooth_bump
from fraclap import multipliers
from fraclap.grid import (
    Grid,
    GridFunction,
    ball_mask,
    l2_inner,
    lp_norm,
    transform_forward,
    transform_inverse,
)
from fraclap.multipliers import (
    SymbolError,
    FrequencySymbol,
    ZeroModePolicy,
    abs_power_symbol,
    apply_symbol,
    derived_symbol,
    frac_laplacian,
    identity_symbol,
    inv_frac_laplacian,
    parse_symbol_id,
    polynomial_annihilation,
    product_rule_residual,
    riesz_symbol,
)


@pytest.fixture(scope="module")
def g1():
    return Grid(1, 256, 1.0)


def test_identity_symbol_is_identity(g1):
    f = band_limited_field(g1, 0)
    out = apply_symbol(f, identity_symbol(1), ZeroModePolicy.IDENTITY_FOR_S_ZERO)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_abs_symbol_eigenfunction(g1):
    x = g1.coords()[0]
    f = GridFunction(g1, np.cos(2 * np.pi * x))
    out = apply_symbol(f, abs_power_symbol(1, 1.0))
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_riesz_maps_sin_to_cos(g1):
    x = g1.coords()[0]
    f = GridFunction(g1, np.sin(2 * np.pi * x))
    out = apply_symbol(f, riesz_symbol(1, 0))
    assert np.max(np.abs(out.values - np.cos(2 * np.pi * x))) < 1e-12


def test_frac_laplacian_eigen_scaling(g1):
    x = g1.coords()[0]
    f3 = GridFunction(g1, np.cos(2 * np.pi * 3 * x))
    out = frac_laplacian(f3, 0.5)
    assert np.max(np.abs(out.values - 3**0.5 * f3.values)) < 1e-12


def test_frac_laplacian_annihilates_constants(g1):
    c = GridFunction(g1, np.full(g1.shape, 4.2))
    assert lp_norm(frac_laplacian(c, 1.0), 2) < 1e-12


def test_s_zero_is_identity_with_mean(g1):
    f = GridFunction(g1, 2.0 + band_limited_field(g1, 1).values)
    out = frac_laplacian(f, 0.0)
    assert np.max(np.abs(out.values - f.values)) == 0.0


def test_semigroup_composition(g1):
    f = band_limited_field(g1, 7)
    ab = frac_laplacian(frac_laplacian(f, 0.3), 0.45)
    direct = frac_laplacian(f, 0.75)
    assert lp_norm(ab - direct, 2) <= 1e-10 * lp_norm(direct, 2)


def test_inverse_unit_eigenvalue(g1):
    x = g1.coords()[0]
    f = GridFunction(g1, np.cos(2 * np.pi * x))
    out = inv_frac_laplacian(f, 1.0)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_inverse_rejects_mean(g1):
    f = GridFunction(g1, np.ones(g1.shape))
    with pytest.raises(SymbolError, match="mean"):
        inv_frac_laplacian(f, 0.5)
    out = inv_frac_laplacian(f, 0.5, project_mean=True)
    assert lp_norm(out, 2) < 1e-12


def test_inverse_then_forward_projects(g1):
    f = GridFunction(g1, 1.0 + band_limited_field(g1, 3).values)
    out = frac_laplacian(inv_frac_laplacian(f, 0.5, project_mean=True), 0.5)
    mean_zero = f.values - np.mean(f.values)
    assert np.max(np.abs(out.values - mean_zero)) <= 1e-10 * np.max(np.abs(mean_zero))


def test_inverse_scaling_law():
    # ||Lap^-s f||_2 <= C r^s ||f||_2 for f supported in B_r, s < n/2;
    # the empirical constant is radius-stable (calibration oracle)
    from fraclap.fields import confined_field

    g = Grid(1, 2048, 1.0)
    s = 0.25
    consts = []
    for r in (1 / 32, 1 / 16, 1 / 8):
        worst = 0.0
        for seed in range(6):
            f = confined_field(g, seed, radius=r, mean_zero=True)
            ratio = lp_norm(inv_frac_laplacian(f, s, project_mean=True), 2) / (r**s * lp_norm(f, 2))
            worst = max(worst, ratio)
        consts.append(worst)
    assert max(consts) / min(consts) < 1.6


def test_linearity(g1):
    f = band_limited_field(g1, 1)
    h = band_limited_field(g1, 2)
    sym = abs_power_symbol(1, 0.7)
    lhs = apply_symbol(GridFunction(g1, 2.0 * f.values - 3.0 * h.values), sym)
    rhs = 2.0 * apply_symbol(f, sym).values - 3.0 * apply_symbol(h, sym).values
    assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_self_adjointness(g1):
    f = band_limited_field(g1, 4)
    h = band_limited_field(g1, 5)
    a = l2_inner(frac_laplacian(f, 0.6), h)
    b = l2_inner(f, frac_laplacian(h, 0.6))
    assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def test_riesz_l2_bounded(g1):
    for seed in range(5):
        f = band_limited_field(g1, seed)
        out = apply_symbol(f, riesz_symbol(1, 0))
        assert lp_norm(out, 2) <= lp_norm(f, 2) * (1 + 1e-12)


def test_reality_of_flagged_symbols(g1):
    f = band_limited_field(g1, 9)
    for sym in (riesz_symbol(1, 0), abs_power_symbol(1, 0.5)):
        out = apply_symbol(f, sym)
        assert out.is_real


def test_symbol_singular_off_zero_rejected_at_application(g1):
    # finite at the construction samples but infinite at a nonzero lattice
    # frequency: application must refuse
    def pole(xs):
        xi = np.asarray(xs[0], dtype=float)
        with np.errstate(divide="ignore"):
            return (1.0 / (np.abs(xi) - 10.0)).astype(complex)

    sym = FrequencySymbol("pole", 1, pole)
    f = band_limited_field(g1, 0)
    with pytest.raises(SymbolError, match="NaN/Inf"):
        apply_symbol(f, sym)


# -- real path against the full complex path ---------------------------------

def _reference_apply(f, symbol, policy):
    """Full-lattice complex path: conjugate-symmetrize the table, fftn, apply,
    ifftn, check the imaginary residue, take the real part."""
    grid = f.grid
    F = transform_forward(f)
    table = symbol.on_lattice(grid)
    rev = (-np.arange(grid.points_per_axis)) % grid.points_per_axis
    with np.errstate(invalid="ignore"):
        table = 0.5 * (table + np.conjugate(table[np.ix_(*([rev] * grid.dim))]))
    zero = (0,) * grid.dim
    if policy is ZeroModePolicy.PROJECT_MEAN_FIRST:
        F[zero] = 0.0
    bad = ~np.isfinite(table)
    bad[zero] = False
    assert not np.any(bad)
    with np.errstate(invalid="ignore"):
        out = table * F
    if policy is ZeroModePolicy.IDENTITY_FOR_S_ZERO:
        out[zero] = F[zero]
    elif not np.isfinite(table[zero]) or policy is ZeroModePolicy.ANNIHILATE:
        out[zero] = 0.0
    g = transform_inverse(grid, out, real=False).values
    amp = max(1.0, float(np.max(np.abs(table[np.isfinite(table)]))))
    assert np.max(np.abs(g.imag)) <= 1e-12 * amp * lp_norm(f, 2)
    return g.real


def _oracle_symbol(dim, kind, j, alpha_axes, s):
    if kind == "abs_pow":
        return abs_power_symbol(dim, s)
    if kind == "riesz":
        return riesz_symbol(dim, j % dim)
    alpha = [0] * dim
    for a in alpha_axes:
        alpha[a % dim] += 1
    base = identity_symbol(dim) if kind == "derived:identity" else riesz_symbol(dim, j % dim)
    return derived_symbol(base, alpha, 1.5)


@settings(max_examples=120, deadline=None)
@given(
    dim=st.integers(1, 3),
    n_pts=st.sampled_from([8, 16]),
    box=st.sampled_from([1.0, 3.0]),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["abs_pow", "riesz", "derived:identity", "derived:riesz"]),
    s=st.sampled_from([0.5, 1.0, 1.5, -0.5]),
    j=st.integers(0, 2),
    alpha_axes=st.lists(st.integers(0, 2), min_size=1, max_size=2),
    policy=st.sampled_from(list(ZeroModePolicy)),
)
@example(dim=2, n_pts=8, box=1.0, seed=0, kind="riesz", s=1.0, j=1, alpha_axes=[0],
         policy=ZeroModePolicy.ANNIHILATE)
@example(dim=3, n_pts=8, box=1.0, seed=1, kind="riesz", s=1.0, j=2, alpha_axes=[0],
         policy=ZeroModePolicy.IDENTITY_FOR_S_ZERO)
@example(dim=1, n_pts=16, box=1.0, seed=2, kind="abs_pow", s=-0.5, j=0, alpha_axes=[0],
         policy=ZeroModePolicy.PROJECT_MEAN_FIRST)
def test_real_path_matches_full_complex_reference(dim, n_pts, box, seed, kind, s, j, alpha_axes, policy):
    # white noise carries content on every Nyquist plane
    g = Grid(dim, n_pts, box)
    values = np.random.default_rng(seed).standard_normal(g.shape)
    if kind == "abs_pow" and s < 0:
        values -= np.mean(values)
    f = GridFunction(g, values)
    sym = _oracle_symbol(dim, kind, j, alpha_axes, s)
    ref = _reference_apply(f, sym, policy)
    got = apply_symbol(f, sym, policy)
    assert got.is_real
    assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_half_lattice_table():
    g = Grid(2, 16, 1.0)
    half = multipliers._conjugate_symmetrize(g, abs_power_symbol(2, -0.5))
    assert half.shape == (16, 9) and np.isinf(half[0, 0].real)
    # odd symbols lose their Nyquist plane along the odd axis, on either axis
    riesz = multipliers._conjugate_symmetrize(g, riesz_symbol(2, 1))
    assert np.all(riesz[:, -1] == 0)
    riesz = multipliers._conjugate_symmetrize(g, riesz_symbol(2, 0))
    assert np.all(riesz[8, :] == 0)


def _full_lattice_half_table(grid, symbol):
    """(m(xi) + conj(m(-xi)))/2 on the rfftn half lattice, from the table on
    full meshgrids and its mirror gathered with np.ix_."""
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.asarray(symbol.evaluator(grid.frequencies()), dtype=complex)
    N = grid.points_per_axis
    rev = (-np.arange(N)) % N
    neg = table[np.ix_(*([rev] * (grid.dim - 1)), rev[: N // 2 + 1])]
    with np.errstate(invalid="ignore"):
        return table, 0.5 * (table[..., : N // 2 + 1] + np.conjugate(neg))


def _table_symbols(dim):
    syms = [identity_symbol(dim)] + [abs_power_symbol(dim, s) for s in (0.5, -0.5, 1.5)]
    bases = [identity_symbol(dim)] + [riesz_symbol(dim, j) for j in range(dim)]
    syms += bases[1:]
    for alpha in multipliers._multi_indices_upto(dim, 2):
        if sum(alpha):
            syms += [derived_symbol(base, alpha, 1.5) for base in bases]
    return syms


@pytest.mark.parametrize("dim,n_pts", [(1, 8), (1, 64), (2, 8), (2, 16), (3, 8)])
def test_half_lattice_table_matches_full_lattice_reference(dim, n_pts):
    # per-axis evaluation does the same arithmetic per entry as full
    # meshgrids, so half tables and full tables agree bit for bit
    g = Grid(dim, n_pts, 3.0)
    for sym in _table_symbols(dim):
        full, half = _full_lattice_half_table(g, sym)
        got = multipliers._conjugate_symmetrize(g, sym)
        assert got.shape == half.shape and got.tobytes() == half.tobytes(), sym.name
        lattice = sym.on_lattice(g)
        assert lattice.shape == full.shape and np.ascontiguousarray(lattice).tobytes() == full.tobytes()


def test_real_flagged_symbol_singular_off_zero_rejected_on_real_path(g1):
    def pole(xs):
        xi = np.asarray(xs[0], dtype=float)
        with np.errstate(divide="ignore"):
            return (1.0 / (xi * xi - 100.0)).astype(complex)

    sym = FrequencySymbol("even-pole", 1, pole, reality_flag=True)
    f = band_limited_field(g1, 0)
    assert f.is_real
    with pytest.raises(SymbolError, match="NaN/Inf"):
        apply_symbol(f, sym)


def test_symbol_invariant_violations():
    bad = lambda xs: np.asarray(xs[0], dtype=complex) ** 2  # homogeneity 2, not 0
    with pytest.raises(SymbolError, match="homogeneity"):
        FrequencySymbol("bad", 1, bad, homogeneity_degree=0.0)
    # reality violation: m(-xi) != conj(m(xi))
    skew = lambda xs: 1j * np.ones_like(np.asarray(xs[0], dtype=float))
    with pytest.raises(SymbolError, match="conj"):
        FrequencySymbol("skew", 1, skew, reality_flag=True)


# -- derived symbols ----------------------------------------------------------

def test_derived_symbol_closed_form_matches_hand_derivation():
    # d_1 |xi|^s = s xi_1 |xi|^(s-2), so m_{e1,s} = (2 pi i)^-1 s xi_1/|xi|
    s = 0.7
    ds = derived_symbol(identity_symbol(1), (1,), s)
    xi = np.array([0.5, 1.0, 3.0, -2.0, -0.25])
    hand = s * np.sign(xi) / (2j * np.pi)
    got = np.asarray(ds.evaluator([xi]))
    assert np.max(np.abs(got - hand)) < 1e-12


def test_derived_symbol_alpha_zero_unchanged():
    m = riesz_symbol(2, 1)
    assert derived_symbol(m, (0, 0), 0.5) is m


def test_derived_symbol_composition_identity():
    # (M_{alpha,s})_{beta,s-|alpha|} = M_{alpha+beta,s} for alpha = beta = e1
    s = 0.7
    first = derived_symbol(identity_symbol(1), (1,), s)
    comp = derived_symbol(first, (1,), s - 1.0)
    direct = derived_symbol(identity_symbol(1), (2,), s)
    xi = np.array([0.25, 1.0, 7.0, -3.5, 40.0])
    a = np.asarray(comp.evaluator([xi]))
    b = np.asarray(direct.evaluator([xi]))
    assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(b))


def test_derived_symbol_homogeneity_and_reality_metadata():
    ds = derived_symbol(riesz_symbol(2, 0), (1, 1), 1.5)
    assert ds.homogeneity_degree == 0.0
    assert ds.reality_flag
    with pytest.raises(SymbolError, match="<= 2"):
        derived_symbol(identity_symbol(1), (3,), 3.5)


def test_parse_symbol_ids():
    assert parse_symbol_id("identity", 2).name == "identity"
    assert parse_symbol_id("abs_pow:0.5", 1).homogeneity_degree == 0.5
    assert parse_symbol_id("riesz:1", 2).name == "riesz:1"
    d = parse_symbol_id("derived:identity:1,0:1.5", 2)
    assert d.homogeneity_degree == 0.0
    with pytest.raises(SymbolError):
        parse_symbol_id("nonsense:1", 1)


# -- product rule -------------------------------------------------------------

def test_product_rule_trivial_Q():
    g = Grid(1, 256, 1.0)
    phi = smooth_bump(g, radius=1 / 6)
    win = ball_mask(g, g.center, 1 / 8)
    out = product_rule_residual(phi, (0,), 1.0, win)
    assert out["residual"] <= 1e-12 * out["reference"]


def test_product_rule_linear_monomial_floor():
    g = Grid(2, 512, 1.0)
    phi = moment_free_bump(g, radius=1 / 6, order=2)
    win = ball_mask(g, g.center, 1 / 8)
    out = product_rule_residual(phi, (1, 0), 1.0, win)
    assert out["residual"] <= 1e-6 * out["reference"]


def test_product_rule_quadratic_refinement():
    rel = []
    for n_pts in (128, 256, 512):
        g = Grid(1, n_pts, 1.0)
        phi = moment_free_bump(g, radius=1 / 8, order=2)
        win = ball_mask(g, g.center, 1 / 8)
        out = product_rule_residual(phi, (2,), 2.0, win)
        rel.append(out["residual"] / out["reference"])
    assert rel[0] / rel[1] >= 4.0
    assert rel[1] / rel[2] >= 4.0


def test_product_rule_order_guard():
    g = Grid(1, 128, 1.0)
    phi = smooth_bump(g, radius=1 / 6)
    win = ball_mask(g, g.center, 1 / 8)
    with pytest.raises(SymbolError, match="exceeds"):
        product_rule_residual(phi, (2,), 1.0, win)


# -- polynomial annihilation ---------------------------------------------------

def test_annihilation_eigenfunction_orthogonality():
    # eta_R identically 1 on the whole box and a mean-free wave: I(R) vanishes
    g = Grid(1, 512, 1.0)
    x = g.coords()[0]
    phi = GridFunction(g, np.cos(2 * np.pi * 5 * x))
    out = polynomial_annihilation((0,), 1.0, phi, [0.4, 0.45, 0.5])
    assert max(out["values"]) < 1e-10


def test_annihilation_slope_bound():
    g = Grid(1, 2048, 1.0)
    phi = smooth_bump(g, radius=1 / 24)
    out = polynomial_annihilation((0,), 0.75, phi, [1 / 32, 1 / 16, 1 / 8], p_prime=2.0)
    assert out["slope"] <= out["bound"]


def test_annihilation_needs_three_radii():
    g = Grid(1, 256, 1.0)
    phi = smooth_bump(g, radius=1 / 8)
    with pytest.raises(SymbolError, match="3 radii"):
        polynomial_annihilation((0,), 1.0, phi, [0.1, 0.2])
