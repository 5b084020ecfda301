import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclap.cutoffs import base_profile_values
from fraclap.fields import band_limited_field, moment_free_bump, smooth_bump
from fraclap import multipliers
from fraclap.grid import (
    Grid,
    GridFunction,
    ball_mask,
    l2_inner,
    lp_norm,
    per_axis,
)
from fraclap.multipliers import (
    SymbolError,
    FrequencySymbol,
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
    out = apply_symbol(f, identity_symbol(1))
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
    assert lp_norm(GridFunction(g1, ab.values - direct.values), 2) <= 1e-10 * lp_norm(direct, 2)


def test_inverse_unit_eigenvalue(g1):
    x = g1.coords()[0]
    f = GridFunction(g1, np.cos(2 * np.pi * x))
    out = inv_frac_laplacian(f, 1.0)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_inverse_rejects_mean(g1):
    f = GridFunction(g1, np.ones(g1.shape))
    with pytest.raises(SymbolError, match="mean"):
        inv_frac_laplacian(f, 0.5)
    out = inv_frac_laplacian(GridFunction(g1, f.values - np.mean(f.values)), 0.5)
    assert lp_norm(out, 2) < 1e-12


def test_inverse_then_forward_projects(g1):
    f = GridFunction(g1, 1.0 + band_limited_field(g1, 3).values)
    mean_zero = f.values - np.mean(f.values)
    out = frac_laplacian(inv_frac_laplacian(GridFunction(g1, mean_zero), 0.5), 0.5)
    assert np.max(np.abs(out.values - mean_zero)) <= 1e-10 * np.max(np.abs(mean_zero))


def _mean_zero_confined_field(grid, seed, radius):
    """A band-limited field times the smooth window of the given radius about
    the box center, minus the multiple of the window that makes its sum over
    the whole grid vanish, at unit L^2 norm; window and sums as in
    fields.confined_field."""
    f = band_limited_field(grid, seed)
    box, disp = grid.support_box(grid.center, radius)
    window = base_profile_values(2.0 * np.sqrt(sum(d * d for d in disp)) / radius)
    vals = np.zeros(grid.shape)
    vals[box] = window
    window_sum = np.sum(vals)  # over the whole grid, in its order
    vals[box] = f.values[box] * window
    vals[box] -= window * (np.sum(vals) / max(window_sum, 1e-300))
    vals[box] /= np.sqrt(np.sum(vals**2) * grid.cell_measure)
    return GridFunction(grid, vals)


def test_inverse_scaling_law():
    # ||Lap^-s f||_2 <= C r^s ||f||_2 for f supported in B_r, s < n/2;
    # the empirical constant is radius-stable (calibration oracle)
    g = Grid(1, 2048, 1.0)
    s = 0.25
    consts = []
    for r in (1 / 32, 1 / 16, 1 / 8):
        worst = 0.0
        for seed in range(6):
            f = _mean_zero_confined_field(g, seed, r)
            centered = GridFunction(g, f.values - np.mean(f.values))
            ratio = lp_norm(inv_frac_laplacian(centered, s), 2) / (r**s * lp_norm(f, 2))
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
    # m(-xi) = conj(m(xi)): conjugate symmetrization changes an odd or even
    # symbol only on the self-mirrored Nyquist entry, and the output is float
    f = band_limited_field(g1, 9)
    N = g1.points_per_axis
    for sym in (riesz_symbol(1, 0), abs_power_symbol(1, 0.5), multipliers.derivative_symbol(1, (3,))):
        half = multipliers._conjugate_symmetrize(g1, sym)
        table = sym.on_axes([g1.axis_frequencies()[: N // 2 + 1]])
        assert np.max(np.abs(half[1 : N // 2] - table[1 : N // 2])) <= 1e-12 * np.max(np.abs(table[1:]))
        assert apply_symbol(f, sym).values.dtype == np.float64


def test_symbol_singular_off_zero_rejected_at_application(g1):
    # finite terms whose table overflows at every |xi| >= 6 (i xi |xi|^400 is
    # NaN there, and at most 5^401 below): the complex path must refuse it
    sym = FrequencySymbol("overflow", 1, ((1j, (1,), 400.0),))
    f = band_limited_field(g1, 0)
    with pytest.raises(SymbolError, match="NaN/Inf"):
        apply_symbol(f, sym)


def test_real_flagged_symbol_singular_off_zero_rejected_on_real_path(g1):
    # an even real symbol passes the conjugate-symmetry check at construction;
    # its overflow off the zero mode must still be refused on the real-FFT
    # half lattice, where its float64 table is used as evaluated
    sym = FrequencySymbol("even-overflow", 1, ((1e308, (0,), 2.0),))
    assert multipliers._conjugate_symmetrize(g1, sym).dtype == np.float64
    f = band_limited_field(g1, 0)
    assert f.values.dtype == np.float64
    with pytest.raises(SymbolError, match="NaN/Inf"):
        apply_symbol(f, sym)


# -- real path against the full complex path ---------------------------------

def _unchecked_grid(dim, n_pts, box):
    """A Grid past its power-of-two check: apply_symbol passes N to its FFT
    steps, and an odd N shows that the last axis length is not inferred from
    the half lattice."""
    g = object.__new__(Grid)
    for name, value in (("dim", dim), ("points_per_axis", n_pts), ("box_length", box)):
        object.__setattr__(g, name, value)
    return g


def _meshgrid_frequencies(grid):
    return np.meshgrid(*([grid.axis_frequencies()] * grid.dim), indexing="ij")


def _full_lattice_table(grid, symbol):
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.asarray(symbol.evaluate(_meshgrid_frequencies(grid)), dtype=complex)
    return np.broadcast_to(table, grid.shape)


def _reference_apply(f, symbol):
    """Full-lattice complex path: conjugate-symmetrize the table, fftn, apply,
    annihilate the zero mode, ifftn, check the imaginary residue, take the
    real part."""
    grid = f.grid
    F = np.fft.fftn(f.values)
    table = _full_lattice_table(grid, symbol)
    rev = (-np.arange(grid.points_per_axis)) % grid.points_per_axis
    with np.errstate(invalid="ignore"):
        table = 0.5 * (table + np.conjugate(table[np.ix_(*([rev] * grid.dim))]))
    zero = (0,) * grid.dim
    bad = ~np.isfinite(table)
    bad[zero] = False
    assert not np.any(bad)
    with np.errstate(invalid="ignore"):
        out = table * F
    out[zero] = 0.0
    g = np.fft.ifftn(out)
    amp = max(1.0, float(np.max(np.abs(table[np.isfinite(table)]))))
    assert np.max(np.abs(g.imag)) <= 1e-12 * amp * lp_norm(f, 2)
    return g.real


def _meshgrid_derivative(f, alpha):
    """d^alpha f by the former full-lattice formula: fftn, the multiplier
    prod_a (2 pi i xi_a)^alpha_a on meshgrid frequencies, ifftn, real part."""
    F = np.fft.fftn(f.values)
    mult = np.ones(f.grid.shape, dtype=complex)
    for xi, k in zip(_meshgrid_frequencies(f.grid), alpha):
        if k:
            mult = mult * (2j * np.pi * xi) ** k
    return np.fft.ifftn(mult * F).real


def _multiindex_from_axes(dim, axes):
    alpha = [0] * dim
    for a in axes:
        alpha[a % dim] += 1
    return alpha


def _oracle_symbol(dim, kind, j, alpha_axes, s):
    if kind == "abs_pow":
        return abs_power_symbol(dim, s)
    if kind == "riesz":
        return riesz_symbol(dim, j % dim)
    alpha = _multiindex_from_axes(dim, alpha_axes[:2] or [0])
    base = identity_symbol(dim) if kind == "derived:identity" else riesz_symbol(dim, j % dim)
    return derived_symbol(base, alpha, 1.5)


@settings(max_examples=120, deadline=None)
@given(
    dim=st.integers(1, 3),
    n_pts=st.sampled_from([8, 16]),
    box=st.sampled_from([1.0, 3.0]),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["abs_pow", "riesz", "derived:identity", "derived:riesz", "derivative"]),
    s=st.sampled_from([0.5, 1.0, 1.5, -0.5]),
    j=st.integers(0, 2),
    alpha_axes=st.lists(st.integers(0, 2), min_size=0, max_size=3),
)
@example(dim=2, n_pts=8, box=1.0, seed=0, kind="riesz", s=1.0, j=1, alpha_axes=[0])
@example(dim=3, n_pts=8, box=1.0, seed=1, kind="riesz", s=1.0, j=2, alpha_axes=[0])
@example(dim=1, n_pts=16, box=1.0, seed=2, kind="abs_pow", s=-0.5, j=0, alpha_axes=[0])
@example(dim=1, n_pts=8, box=3.0, seed=3, kind="derivative", s=1.0, j=0, alpha_axes=[0, 0, 0])
@example(dim=2, n_pts=8, box=1.0, seed=4, kind="derivative", s=1.0, j=0, alpha_axes=[1, 1])
@example(dim=3, n_pts=8, box=3.0, seed=5, kind="derivative", s=1.0, j=0, alpha_axes=[0, 1, 2])
@example(dim=3, n_pts=16, box=1.0, seed=6, kind="derivative", s=1.0, j=0, alpha_axes=[2, 0, 2])
def test_real_path_matches_full_complex_reference(dim, n_pts, box, seed, kind, s, j, alpha_axes):
    # white noise carries content on every Nyquist plane
    g = Grid(dim, n_pts, box)
    values = np.random.default_rng(seed).standard_normal(g.shape)
    if kind == "abs_pow" and s < 0:
        values -= np.mean(values)
    f = GridFunction(g, values)
    if kind == "derivative":
        alpha = _multiindex_from_axes(dim, alpha_axes)
        ref = _meshgrid_derivative(f, alpha)
        got = multipliers.derivative(f, alpha)
    else:
        sym = _oracle_symbol(dim, kind, j, alpha_axes, s)
        ref = _reference_apply(f, sym)
        got = apply_symbol(f, sym)
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
    table = _full_lattice_table(grid, symbol)
    N = grid.points_per_axis
    rev = (-np.arange(N)) % N
    neg = table[np.ix_(*([rev] * (grid.dim - 1)), rev[: N // 2 + 1])]
    with np.errstate(invalid="ignore"):
        return 0.5 * (table[..., : N // 2 + 1] + np.conjugate(neg))


def _table_symbols(dim):
    syms = [identity_symbol(dim)] + [abs_power_symbol(dim, s) for s in (0.5, -0.5, 1.5)]
    bases = [identity_symbol(dim)] + [riesz_symbol(dim, j) for j in range(dim)]
    syms += bases[1:]
    for alpha in multipliers._multi_indices_upto(dim, 2):
        if sum(alpha):
            syms += [derived_symbol(base, alpha, 1.5) for base in bases]
    for alpha in multipliers._multi_indices_upto(dim, 3):
        syms.append(multipliers.derivative_symbol(dim, alpha))
    return syms


@pytest.mark.parametrize(
    "dim,n_pts", [(1, 8), (1, 9), (1, 15), (1, 64), (2, 8), (2, 9), (2, 15), (2, 16), (3, 8), (3, 9)]
)
def test_half_lattice_table_matches_full_lattice_reference(dim, n_pts):
    # per-axis evaluation does the same arithmetic per entry as full
    # meshgrids, so half tables and full tables agree bit for bit at every
    # finite entry; real symbols, used as evaluated, give float64 tables,
    # compared as their complex casts with the mirror average of the
    # reference.  An odd N has no Nyquist plane.  The only non-finite entry
    # is the zero mode of a negative order: inf here, inf+nan*j in the
    # complex reference, and apply_symbol annihilates it either way
    g = _unchecked_grid(dim, n_pts, 3.0)
    for sym in _table_symbols(dim):
        half = _full_lattice_half_table(g, sym)
        got = multipliers._conjugate_symmetrize(g, sym)
        finite = np.isfinite(half)
        assert got.shape == half.shape, sym.name
        assert np.array_equal(np.isfinite(got), finite), sym.name
        assert got.astype(complex)[finite].tobytes() == half[finite].tobytes(), sym.name


# -- memory-lean apply_symbol against the former irfftn path -----------------

def _irfftn_reference(f, symbol):
    """irfftn(complex_table * rfftn(f)), zero mode annihilated."""
    g = f.grid
    axes = tuple(range(g.dim))
    table = multipliers._conjugate_symmetrize(g, symbol).astype(complex)
    with np.errstate(invalid="ignore"):
        out = table * np.fft.rfftn(f.values, axes=axes)
    out[(0,) * g.dim] = 0.0
    return np.fft.irfftn(out, s=g.shape, axes=axes)


# the last four span several row blocks of the multiplier and of the irfft
@pytest.mark.parametrize(
    "dim,n_pts",
    [(1, 16), (1, 15), (2, 16), (2, 15), (3, 8), (3, 9), (1, 2**18 + 1), (2, 1024), (2, 513), (3, 64)],
)
def test_apply_symbol_equals_irfftn_of_complex_table_bitwise(dim, n_pts):
    g = _unchecked_grid(dim, n_pts, 3.0)
    f = GridFunction(g, np.random.default_rng(n_pts).standard_normal(g.shape))
    alpha = [1] + [0] * (dim - 1)
    syms = [abs_power_symbol(dim, s) for s in (0.5, -0.5, 1.5)] + [identity_symbol(dim)]
    syms += [riesz_symbol(dim, dim - 1), multipliers.derivative_symbol(dim, [2] * dim)]
    syms += [derived_symbol(riesz_symbol(dim, 0), alpha, 1.5), derived_symbol(identity_symbol(dim), alpha, 1.5)]
    for sym in syms:
        got = apply_symbol(f, sym)
        # the shrunk work buffer itself, adopted without a copy
        assert got.values.flags.owndata and got.values.flags.c_contiguous, sym.name
        assert got.values.tobytes() == _irfftn_reference(f, sym).tobytes(), sym.name


@pytest.mark.parametrize("dim,n_pts", [(1, 2**18), (2, 1024)])
def test_symbol_overflow_in_a_later_row_block_rejected(dim, n_pts):
    # xi_0^1200 overflows only where |xi_0| > 1.011: with L the number of rows
    # of the first block, |xi_0| < 1 there, so the first block is finite and
    # multiplies in without overflow, and later blocks are infinite
    rows = multipliers._row_blocks(n_pts // 2 + 1 if dim == 1 else n_pts, 1 if dim == 1 else n_pts // 2 + 1)
    assert len(rows) > 1
    g = Grid(dim, n_pts, float(rows[0].stop))
    sym = FrequencySymbol("late-overflow", dim, ((1.0, (1200,) + (0,) * (dim - 1), 0.0),))
    assert np.all(np.isfinite(multipliers._conjugate_symmetrize(g, sym, rows[0])))
    assert not np.all(np.isfinite(multipliers._conjugate_symmetrize(g, sym)))
    f = band_limited_field(g, 0)
    with pytest.raises(SymbolError, match="NaN/Inf"):
        apply_symbol(f, sym)


@pytest.mark.parametrize("dim,n_pts", [(1, 15), (1, 2**18), (2, 9), (2, 1024), (3, 64)])
def test_half_table_row_blocks_are_blocks_of_the_whole_table(dim, n_pts):
    g = _unchecked_grid(dim, n_pts, 3.0)
    nrows = n_pts // 2 + 1 if dim == 1 else n_pts
    for sym in (abs_power_symbol(dim, -0.5), riesz_symbol(dim, 0), derived_symbol(riesz_symbol(dim, 0), [1] + [0] * (dim - 1), 1.5)):
        whole = multipliers._conjugate_symmetrize(g, sym)
        for rows in (slice(0, 1), slice(1, nrows // 2 + 1), slice(nrows // 2, nrows), slice(nrows - 1, nrows)):
            assert multipliers._conjugate_symmetrize(g, sym, rows).tobytes() == whole[rows].tobytes(), (sym.name, rows)


def test_real_symbols_give_float_tables():
    g = Grid(2, 16, 1.0)
    for sym in (abs_power_symbol(2, 0.5), abs_power_symbol(2, -0.5), identity_symbol(2)):
        assert multipliers._conjugate_symmetrize(g, sym).dtype == np.float64, sym.name
    for sym in (riesz_symbol(2, 0), multipliers.derivative_symbol(2, (1, 0))):
        assert multipliers._conjugate_symmetrize(g, sym).dtype == np.complex128, sym.name


def test_half_table_peak_memory(traced_peak):
    # a real table is used as evaluated: 2.01 half tables measured for
    # |xi|^s (3.01 while the mirror was evaluated and averaged in) and 0.02
    # for the identity, a broadcast view of one column (1.08 as an average)
    g = Grid(2, 512, 1.0)
    half_table = g.points_per_axis * (g.points_per_axis // 2 + 1) * 8
    for sym, bound in ((abs_power_symbol(2, 0.5), 2.2), (identity_symbol(2), 0.1)):
        peak = traced_peak(multipliers._conjugate_symmetrize, g, sym)
        assert peak <= bound * half_table, sym.name


def test_apply_symbol_peak_memory(traced_peak):
    # one row block covers all of 256^2: the padded buffer, then the block's
    # table and its evaluation, or numpy's copy of the irfft block: 2.02x the
    # field's bytes measured (2.01x with a float64 half table, a complex
    # half-lattice buffer and a new irfft output; 5.2x with a complex table,
    # a product array and one irfftn call)
    f = band_limited_field(Grid(2, 256, 1.0), 0)
    peak = traced_peak(apply_symbol, f, abs_power_symbol(2, 0.5))
    assert peak <= 2.2 * f.values.nbytes


def test_apply_symbol_peak_memory_in_row_blocks(traced_peak):
    # at 512^2 the padded buffer is the only field-sized array: 1.51x the
    # field's bytes measured for |xi|^s and 2.82x for a complex symbol (2.01x
    # and 3.58x with a whole half table, a complex buffer and a new output)
    f = band_limited_field(Grid(2, 512, 1.0), 0)
    for sym, bound in ((abs_power_symbol(2, 0.5), 1.6), (riesz_symbol(2, 0), 2.9)):
        peak = traced_peak(apply_symbol, f, sym)
        assert peak <= bound * f.values.nbytes, sym.name


# -- abs_power_table against a meshgrid |xi| -----------------------------------

@pytest.mark.parametrize("dim,sizes", [(1, (8, 64, 4096)), (2, (8, 32, 128)), (3, (8, 16, 32))])
def test_abs_power_table_matches_meshgrid_bitwise(dim, sizes):
    for n in sizes:
        for L in (1.0, 0.7, 3.0):
            g = Grid(dim, n, L)
            freqs = np.meshgrid(*([g.axis_frequencies()] * dim), indexing="ij")
            mag = np.sqrt(sum(x * x for x in freqs))
            for s in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, -0.5, -1.0):
                with np.errstate(divide="ignore"):
                    ref = mag**s
                ref[(0,) * dim] = 1.0 if s == 0 else 0.0
                table = multipliers.abs_power_table(g, s)
                assert table.flags.writeable and table.flags.c_contiguous
                assert table.dtype == np.float64 and table.tobytes() == ref.tobytes(), (n, L, s)


# -- in-place apply_table against the one-line fftn form ----------------------

def _fftn_apply_table(values, table):
    """The former apply_table: ifftn(fftn(values) * table).real."""
    return np.fft.ifftn(np.fft.fftn(values) * table).real


@pytest.mark.parametrize("dim,sizes", [(1, (8, 16, 32, 64, 128, 256)), (2, (8, 16, 64, 256)), (3, (8, 16, 32))])
def test_apply_table_equals_fftn_form_bitwise(dim, sizes):
    rng = np.random.default_rng(dim)
    for n in sizes:
        g = Grid(dim, n, 1.0)
        values = rng.standard_normal(g.shape)
        before = values.tobytes()
        for s in (0.0, 0.5, 1.0, 2.0):
            table = multipliers.abs_power_table(g, s)
            got = multipliers.apply_table(values, table)
            assert got.tobytes() == _fftn_apply_table(values, table).tobytes(), (n, s)
        assert values.tobytes() == before


@pytest.mark.parametrize("dim,n", [(1, 16384), (2, 128)])
def test_apply_table_peak_memory(traced_peak, dim, n):
    # the complex work buffer and the FFT's scratch: 3.01x the field's bytes
    # measured (4.0 in 1D and 6.0 in 2D for the fftn form)
    g = Grid(dim, n, 1.0)
    values = np.random.default_rng(0).standard_normal(g.shape)
    table = multipliers.abs_power_table(g, 1.0)
    peak = traced_peak(multipliers.apply_table, values, table)
    assert peak <= 3.1 * values.nbytes


def test_symbol_invariant_violations():
    for terms, match in [
        (((1j, (0,), 0.0),), "conj"),  # an even term with an imaginary coefficient
        (((1.0, (1,), 0.0),), "conj"),  # an odd term with a real coefficient
        (((1.0, (0,), 0.0), (1j, (0,), 2.0)), "conj"),
        (((np.nan, (0,), 0.0),), "finite"),
        (((complex(np.inf, 0.0), (0,), 0.0),), "finite"),
        (((1.0, (0,), np.nan),), "finite"),
        (((1.0, (0,), -np.inf),), "finite"),
        (((1.0, (0, 0), 0.0),), "multiindex"),
        (((1.0, (-2,), 0.0),), "multiindex"),
        (((1.0, (2.0,), 0.0),), "multiindex"),
        ((), "no terms"),
    ]:
        with pytest.raises(SymbolError, match=match):
            FrequencySymbol("bad", 1, terms)


def _homogeneity_degree(symbol):
    """delta with m(lambda xi) = lambda^delta m(xi): the degree |gamma| + p
    common to every term (to 1e-12), or None when the degrees differ."""
    degrees = [sum(gamma) + p for _, gamma, p in symbol.terms]
    if max(degrees) - min(degrees) > 1e-12 * max(1.0, abs(degrees[0])):
        return None
    return float(degrees[0])


def test_homogeneity_degree_is_the_common_degree_of_the_terms():
    assert _homogeneity_degree(abs_power_symbol(2, -0.5)) == -0.5
    assert _homogeneity_degree(riesz_symbol(3, 1)) == 0.0
    assert _homogeneity_degree(multipliers.derivative_symbol(2, (2, 1))) == 3.0
    mixed = FrequencySymbol("mixed", 1, ((1.0, (0,), 0.0), (1.0, (0,), 2.0)))
    assert _homogeneity_degree(mixed) is None
    odd = FrequencySymbol("odd-mixed", 2, ((1j, (1, 0), -1.0), (1j, (0, 1), 0.0)))
    assert _homogeneity_degree(odd) is None


# -- symbol products -----------------------------------------------------------

def test_symbol_product_multiplies_term_lists():
    prod = riesz_symbol(2, 0) * abs_power_symbol(2, -0.5)
    assert prod.name == "riesz:0*abs_pow:-0.5"
    assert prod.terms == ((1j, (1, 0), -1.5),)
    # every term of the left factor times every term of the right, in order
    left = FrequencySymbol("two", 2, ((2.0, (0, 0), 1.0), (-1.0, (2, 0), 0.0)))
    right = FrequencySymbol("three", 2, ((1j, (0, 1), -1.0), (0.5, (1, 1), 0.5), (3.0, (0, 0), 0.0)))
    assert (left * right).terms == (
        (2j, (0, 1), 0.0), (1.0, (1, 1), 1.5), (6.0, (0, 0), 1.0),
        (-1j, (2, 1), -1.0), (-0.5, (3, 1), 0.5), (-3.0, (2, 0), 0.0),
    )
    xs = [np.array([0.5, -3.0, 2.0]), np.array([1.0, 0.25, -7.0])]
    want = np.asarray(left.evaluate(xs)) * np.asarray(right.evaluate(xs))
    assert np.max(np.abs(np.asarray((left * right).evaluate(xs)) - want)) <= 1e-14 * np.max(np.abs(want))
    assert _homogeneity_degree(left * right) is None


def test_identity_is_a_unit_of_the_symbol_product_bit_for_bit():
    # repr tells signed zeros apart: 1.0 * (2-0j) would be 2+0j
    first = derived_symbol(riesz_symbol(2, 1), (1, 0), 1.5)
    for m in (first, derived_symbol(first, (0, 1), 0.5), riesz_symbol(2, 0), abs_power_symbol(2, 0.5)):
        for prod in (identity_symbol(2) * m, m * identity_symbol(2)):
            assert repr(prod.terms) == repr(m.terms), m.name


def test_symbol_product_refuses_mismatched_dimensions():
    with pytest.raises(SymbolError, match="2-dimensional symbol by a 3-dimensional"):
        riesz_symbol(2, 0) * abs_power_symbol(3, 0.5)


def test_symbol_product_checks_conjugate_symmetry():
    # each factor is within the 1e-12 tolerance of m(-xi) = conj(m(xi)), the
    # product's imaginary part is twice as large and past it
    near = FrequencySymbol("near", 1, ((1 + 4e-13j, (0,), 0.0),))
    with pytest.raises(SymbolError, match="near\\*near violates"):
        near * near


def _former_derived_terms(m, alpha, s):
    """derived_symbol's term list as it was formed before the product: the
    power shifted by s in place, differentiated, then (2 pi i)^-|alpha| and
    the shift by |alpha| - s."""
    terms = [(c, gamma, p + s) for c, gamma, p in m.terms]
    for a in [a for a, k in enumerate(alpha) for _ in range(k)]:
        terms = multipliers._differentiate(terms, a)
    pref = (2j * np.pi) ** (-sum(alpha))
    return tuple((pref * c, gamma, p + sum(alpha) - s) for c, gamma, p in terms)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_derived_term_lists_equal_the_former_construction_bitwise(dim):
    bases = [identity_symbol(dim), abs_power_symbol(dim, 0.5)] + [riesz_symbol(dim, j) for j in range(dim)]
    alphas = list(multipliers._multi_indices_upto(dim, 2))[1:]
    bases += [derived_symbol(riesz_symbol(dim, 0), alpha, 1.5) for alpha in alphas]
    for base in bases:
        for alpha in alphas:
            for s in (0.5, 1.5, 2.0):
                got = derived_symbol(base, alpha, s).terms
                assert repr(got) == repr(_former_derived_terms(base, alpha, s)), (base.name, alpha, s)


def _white_noise(grid, seed):
    values = np.random.default_rng(seed).standard_normal(grid.shape)
    return GridFunction(grid, values - np.mean(values))


def _assert_close(got, ref, label):
    """max |got - ref| <= 1e-13 max |ref| (both vanish for a zero symbol)."""
    gap = np.max(np.abs(got.values - ref.values))
    assert gap <= 1e-13 * np.max(np.abs(ref.values)), (label, gap)


# even and odd N: the Nyquist planes of an even N carry content
@pytest.mark.parametrize("dim,n_pts", [(1, 64), (1, 63), (2, 16), (2, 15), (3, 8), (3, 9)])
def test_composed_chains_match_the_chained_applications(dim, n_pts):
    g = _unchecked_grid(dim, n_pts, 1.0)
    f = _white_noise(g, n_pts)
    e0 = (1,) + (0,) * (dim - 1)
    zero_order = [identity_symbol(dim), riesz_symbol(dim, dim - 1), derived_symbol(riesz_symbol(dim, 0), e0, 1.5)]
    # the lower-order product's factors: m |xi|^p against |xi|^p, then m
    for m in zero_order:
        for p in (-0.5, -0.25, 0.5 - dim / 2.0):
            chained = apply_symbol(apply_symbol(f, abs_power_symbol(dim, p)), m)
            _assert_close(apply_symbol(f, m * abs_power_symbol(dim, p)), chained, (m.name, p))
    # the product rule's M_{beta,s} Lap^(s-|beta|) against Lap^(s-|beta|), then m_{beta,s}
    for beta in list(multipliers._multi_indices_upto(dim, 2))[1:]:
        for s in (2.0, 2.5):
            ident = identity_symbol(dim)
            chained = apply_symbol(frac_laplacian(f, s - sum(beta)), derived_symbol(ident, beta, s))
            got = apply_symbol(f, multipliers._derived_operator(ident, beta, s))
            _assert_close(got, chained, (beta, s))


def test_product_of_two_odd_symbols_is_refused():
    # formed term by term, riesz:0 * riesz:j is not riesz:0 then riesz:j on
    # 16^2 white noise: each odd factor loses its self-mirrored Nyquist
    # entries to conjugate symmetrization, their even product keeps them
    g = Grid(2, 16, 1.0)
    f = _white_noise(g, 16)
    mixed = FrequencySymbol("mixed", 2, ((1.0, (0, 0), 0.0), (1j, (0, 1), -1.0)))
    for j, gap in ((0, 0.1), (1, 0.01)):
        chained = apply_symbol(apply_symbol(f, riesz_symbol(2, 0)), riesz_symbol(2, j))
        e = tuple(int(a == j) for a in range(2))
        unchecked = FrequencySymbol("unchecked", 2, ((-1 + 0j, (1 + e[0], e[1]), -2.0),))
        assert np.max(np.abs(apply_symbol(f, unchecked).values - chained.values)) >= gap * np.max(
            np.abs(chained.values))
        for left, right in ((riesz_symbol(2, 0), riesz_symbol(2, j)), (mixed, riesz_symbol(2, j))):
            with pytest.raises(SymbolError, match=f"cannot multiply {left.name} by riesz:{j}: both hold"):
                left * right
    # an even factor times an odd one, either way round, is still the chain
    odd = riesz_symbol(2, 0)
    for even in (abs_power_symbol(2, 0.5), abs_power_symbol(2, -0.5), identity_symbol(2)):
        for prod, first, second in ((even * odd, odd, even), (odd * even, even, odd)):
            chained = apply_symbol(apply_symbol(f, first), second)
            gap = np.max(np.abs(apply_symbol(f, prod).values - chained.values))
            assert gap <= 1e-15 * np.max(np.abs(chained.values)), prod.name


def test_derived_operator_of_order_zero_is_the_power_table_bitwise():
    # the product rule's beta = 0 term and its reference ||Lap^s phi|| keep their bits
    g = Grid(2, 32, 1.0)
    f = _white_noise(g, 0)
    for s in (0.5, 1.0, 2.0):
        op = multipliers._derived_operator(identity_symbol(2), (0, 0), s)
        assert apply_symbol(f, op).values.tobytes() == frac_laplacian(f, s).values.tobytes(), s


# -- term lists against the former evaluator closures ------------------------

def _former_abs_pow(s):
    def ev(xs):
        mag = np.sqrt(sum(np.asarray(x, dtype=float) ** 2 for x in xs))
        with np.errstate(divide="ignore", invalid="ignore"):
            return mag**s

    return ev


def _former_identity(xs):
    return np.ones_like(xs[0], dtype=float)


def _former_riesz(j):
    def ev(xs):
        mag = np.sqrt(sum(np.asarray(x, dtype=float) ** 2 for x in xs))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 1j * np.asarray(xs[j], dtype=float) / mag
        return np.where(mag == 0, 0.0, out)

    return ev


def _former_derivative(alpha):
    def ev(xs):
        out = np.ones((), dtype=complex)
        for x, k in zip(xs, alpha):
            if k:
                out = out * (2j * np.pi * np.asarray(x, dtype=float)) ** k
        return out

    return ev


def _former_derived(base_terms, alpha, s):
    """pref |xi|^(|alpha| - s) times the differentiated terms of |xi|^s m,
    each term c, then each xi_a, then |xi|^p, summed from 0."""
    order = sum(alpha)
    terms = [(c, gamma, p + s) for c, gamma, p in base_terms]
    for a in [a for a, k in enumerate(alpha) for _ in range(k)]:
        terms = multipliers._differentiate(terms, a)
    pref = (2j * np.pi) ** (-order)

    def ev(xs):
        xs = [np.asarray(x, dtype=float) for x in xs]
        mag = np.sqrt(sum(x * x for x in xs))
        total = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for c, gamma, p in terms:
                term = c
                for x in [x for x, k in zip(xs, gamma) for _ in range(k)]:
                    term = term * x
                total = total + term * mag**p
            return pref * mag ** (order - s) * np.asarray(total, dtype=complex)

    return ev


def _half_lattice_axes(dim, n_pts, box):
    f = Grid(dim, n_pts, box).axis_frequencies()
    return per_axis([f] * (dim - 1) + [f[: n_pts // 2 + 1]])


@pytest.mark.parametrize("dim,n_pts,box", [(1, 64, 1.0), (1, 16, 3.0), (2, 16, 0.7), (2, 32, 1.0), (3, 8, 3.0)])
def test_real_term_lists_equal_the_former_evaluators_bitwise(dim, n_pts, box):
    # |xi|^s first, the product skipped for c = 1 and for p = 0: the same
    # arithmetic per entry as the closures, zero mode (inf for s < 0) included
    axes = _half_lattice_axes(dim, n_pts, box)
    cases = [(abs_power_symbol(dim, s), _former_abs_pow(s)) for s in (0.5, -0.5, 0.25, 1.5)]
    cases.append((identity_symbol(dim), _former_identity))
    for sym, former in cases:
        got = sym.on_axes(axes)
        assert got.dtype == np.float64, sym.name
        assert got.tobytes() == np.broadcast_to(former(axes), got.shape).tobytes(), sym.name


@pytest.mark.parametrize("dim,n_pts,box", [(1, 64, 1.0), (2, 16, 0.7), (3, 8, 3.0)])
def test_complex_term_lists_match_the_former_evaluators(dim, n_pts, box):
    # off the zero mode, where the Riesz closure wrote 0 and the terms give NaN
    axes = _half_lattice_axes(dim, n_pts, box)
    off = np.ones(np.broadcast_shapes(*(x.shape for x in axes)), dtype=bool)
    off[(0,) * dim] = False
    bases = [identity_symbol(dim)] + [riesz_symbol(dim, j) for j in range(dim)]
    cases = [(sym, _former_riesz(j)) for j, sym in enumerate(bases[1:])]
    cases += [(multipliers.derivative_symbol(dim, alpha), _former_derivative(alpha))
              for alpha in multipliers._multi_indices_upto(dim, 3)]
    for alpha in list(multipliers._multi_indices_upto(dim, 2))[1:]:
        for base in bases:
            for s in (0.5, 1.5):
                cases.append((derived_symbol(base, alpha, s), _former_derived(base.terms, alpha, s)))
    for sym, former in cases:
        got = sym.on_axes(axes)
        ref = np.broadcast_to(former(axes), got.shape)
        assert got.dtype == np.complex128, sym.name
        err = np.max(np.abs(got[off] - ref[off]))
        assert err <= 1e-14 * np.max(np.abs(ref[off])), (sym.name, err)


# -- derived symbols ----------------------------------------------------------

def test_derived_symbol_closed_form_matches_hand_derivation():
    # d_1 |xi|^s = s xi_1 |xi|^(s-2), so m_{e1,s} = (2 pi i)^-1 s xi_1/|xi|
    s = 0.7
    ds = derived_symbol(identity_symbol(1), (1,), s)
    xi = np.array([0.5, 1.0, 3.0, -2.0, -0.25])
    hand = s * np.sign(xi) / (2j * np.pi)
    got = np.asarray(ds.evaluate([xi]))
    assert np.max(np.abs(got - hand)) < 1e-12


def test_derived_symbols_drop_zero_terms():
    # d_0 of |xi|^0 xi_0^2 leaves p c = 0 in front of xi_0^3 |xi|^-2; that term
    # is dropped, and off the zero mode the table keeps its values
    ds = derived_symbol(identity_symbol(1), (2,), 2.0)
    assert len(ds.terms) == 1 and ds.terms[0][0] != 0
    former = FrequencySymbol("former", 1, ds.terms + ((-0j, (2,), -2.0),))
    xi = [Grid(1, 64, 1.0).axis_frequencies()[1:]]
    assert np.array_equal(ds.on_axes(xi), former.on_axes(xi))
    # every term of the zero symbol vanishes: one is kept, and it applies as 0
    zero = derived_symbol(identity_symbol(2), (1, 0), 0.0)
    assert len(zero.terms) == 1 and zero.terms[0][0] == 0
    assert parse_symbol_id("derived:identity:1:0", 1).terms == ((0j, (1,), -1.0),)
    f = band_limited_field(Grid(2, 16, 1.0), 0)
    assert not np.any(apply_symbol(f, zero).values)


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
    a = np.asarray(comp.evaluate([xi]))
    b = np.asarray(direct.evaluate([xi]))
    assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(b))


def test_derived_symbol_homogeneity_and_reality_metadata():
    ds = derived_symbol(riesz_symbol(2, 0), (1, 1), 1.5)
    assert _homogeneity_degree(ds) == 0.0
    xs = [np.array([0.5, -3.0, 2.0]), np.array([1.0, 0.25, -7.0])]
    pos = np.asarray(ds.evaluate(xs))
    neg = np.asarray(ds.evaluate([-x for x in xs]))
    assert np.max(np.abs(neg - np.conjugate(pos))) <= 1e-12 * np.max(np.abs(pos))
    with pytest.raises(SymbolError, match="<= 2"):
        derived_symbol(identity_symbol(1), (3,), 3.5)


def _mp_norm(xi):
    import mpmath

    return mpmath.sqrt(mpmath.fsum(x * x for x in xi))


def _mp_derived(m, alpha, s):
    """m_{alpha,s} = (2 pi i)^-|alpha| |xi|^(|alpha|-s) d^alpha(|xi|^s m) by
    mpmath.diff of the mpmath base m."""
    import mpmath

    order = sum(alpha)

    def out(*xi):
        d = mpmath.diff(lambda *y: _mp_norm(y) ** s * m(*y), xi, alpha)
        return (2j * mpmath.pi) ** -order * _mp_norm(xi) ** (order - s) * d

    return out


def _derived_cases(dim):
    """(library base, its mpmath form) for every kind of base in dim."""
    import mpmath

    first = (1,) + (0,) * (dim - 1)
    cases = [
        (identity_symbol(dim), lambda *y: mpmath.mpf(1)),
        (abs_power_symbol(dim, 0.25), lambda *y: _mp_norm(y) ** 0.25),
        (multipliers.derivative_symbol(dim, first), lambda *y: 2j * mpmath.pi * y[0]),
        (derived_symbol(identity_symbol(dim), first, 0.7), _mp_derived(lambda *y: mpmath.mpf(1), first, 0.7)),
    ]
    cases += [(riesz_symbol(dim, l), lambda *y, l=l: 1j * y[l] / _mp_norm(y)) for l in range(dim)]
    return cases


@pytest.mark.parametrize("dim", [1, 2])
def test_derived_symbol_matches_mpmath_oracle(dim):
    mpmath = pytest.importorskip("mpmath")
    points = {1: [(0.5,), (-3.0,), (7.0,)], 2: [(0.5, 1.0), (-3.0, 0.25), (0.0, -2.0)]}[dim]
    xs = [np.array(axis) for axis in zip(*points)]
    with mpmath.workdps(40):
        for base, mp_base in _derived_cases(dim):
            for alpha in list(multipliers._multi_indices_upto(dim, 2))[1:]:
                for s in (0.5, 1.5):
                    got = np.asarray(derived_symbol(base, alpha, s).evaluate(xs))
                    oracle = _mp_derived(mp_base, alpha, s)
                    ref = np.array([complex(oracle(*map(mpmath.mpf, xi))) for xi in points])
                    err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                    assert err <= 1e-12, (base.name, alpha, s, err)


def test_parse_symbol_ids():
    assert parse_symbol_id("identity", 2).name == "identity"
    assert _homogeneity_degree(parse_symbol_id("abs_pow:0.5", 1)) == 0.5
    assert parse_symbol_id("riesz:1", 2).name == "riesz:1"
    d = parse_symbol_id("derived:identity:1,0:1.5", 2)
    assert _homogeneity_degree(d) == 0.0
    with pytest.raises(SymbolError):
        parse_symbol_id("nonsense:1", 1)


# -- product rule -------------------------------------------------------------

def _oracle_polynomial(points, coeffs, beta):
    """d^beta sum_alpha c_alpha x^alpha / alpha! point by point in plain
    Python, and the same sum over absolute values (its error scale)."""
    vals, scales = [], []
    for pt in points:
        terms = [
            c * math.prod(x ** (a - b) / math.factorial(a - b) for x, a, b in zip(pt, alpha, beta))
            for alpha, c in coeffs.items()
            if all(a >= b for a, b in zip(alpha, beta))
        ]
        vals.append(sum(terms))
        scales.append(sum(abs(t) for t in terms))
    return np.array(vals), np.array(scales)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_polynomial_values_matches_plain_python(dim, degree):
    g = Grid(dim, 8, 1.0)
    rng = np.random.default_rng(10 * dim + degree)
    coeffs = {alpha: float(rng.standard_normal())
              for alpha in multipliers._multi_indices_upto(dim, degree)}
    full = g.periodic_displacement(g.center + 0.013)
    sel = ball_mask(g, g.center, 0.3).values
    masked = [d[sel] for d in full]
    points_full = np.stack([np.asarray(d) for d in full], axis=-1).reshape(-1, dim)
    points_masked = np.stack(masked, axis=-1)
    for beta in multipliers._multi_indices_upto(dim, 3):
        for disp, points in ((full, points_full), (masked, points_masked)):
            got = multipliers.polynomial_values(disp, coeffs, beta).ravel()
            ref, scale = _oracle_polynomial(points.tolist(), coeffs, beta)
            assert got.shape == ref.shape
            if sum(beta) > degree:
                assert not np.any(got), beta
            assert np.all(np.abs(got - ref) <= 1e-14 * scale), beta


def _monomial_values(grid, alpha):
    """x^alpha about the box center, as the product rule used to form it."""
    disp = grid.periodic_displacement(grid.center)
    out = np.ones(grid.shape)
    for a, k in enumerate(alpha):
        if k:
            out = out * disp[a] ** k
    return out


def _monomial_derivative_values(grid, alpha, beta):
    """d^beta x^alpha, as the product rule used to form it."""
    if any(b > a for a, b in zip(alpha, beta)):
        return np.zeros(grid.shape)
    coeff = 1.0
    for a, b in zip(alpha, beta):
        coeff *= math.factorial(a) / math.factorial(a - b)
    return coeff * _monomial_values(grid, [a - b for a, b in zip(alpha, beta)])


@pytest.mark.parametrize("dim,n_pts,alpha", [(1, 128, (2,)), (1, 256, (2,)), (1, 512, (2,)),
                                             (2, 512, (1, 0))])
def test_monomials_match_the_former_loops_bit_for_bit(dim, n_pts, alpha):
    # the monomials of the product-rule experiment, x^alpha = {alpha: alpha!}
    g = Grid(dim, n_pts, 1.0)
    disp = g.periodic_displacement(g.center)
    monomial = {alpha: multipliers._factorial_multi(alpha)}
    for beta in multipliers._multi_indices_upto(dim, sum(alpha)):
        got = multipliers.polynomial_values(disp, monomial, beta)
        assert got.tobytes() == _monomial_derivative_values(g, alpha, beta).tobytes(), beta
    assert (multipliers.polynomial_values(disp, monomial, (0,) * dim).tobytes()
            == _monomial_values(g, alpha).tobytes())



def test_product_rule_trivial_Q():
    g = Grid(1, 256, 1.0)
    phi = smooth_bump(g, radius=1 / 6)
    win = ball_mask(g, g.center, 1 / 8)
    out = product_rule_residual(phi, (0,), 1.0, win)
    assert out["residual"] <= 1e-12 * out["reference"]


def test_product_rule_linear_monomial_floor():
    g = Grid(2, 512, 1.0)
    phi = moment_free_bump(g, radius=1 / 6)
    win = ball_mask(g, g.center, 1 / 8)
    out = product_rule_residual(phi, (1, 0), 1.0, win)
    assert out["residual"] <= 1e-6 * out["reference"]


def test_product_rule_quadratic_refinement():
    rel = []
    for n_pts in (128, 256, 512):
        g = Grid(1, n_pts, 1.0)
        phi = moment_free_bump(g, radius=1 / 8)
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


def test_product_rule_applies_one_symbol_per_term(monkeypatch):
    # Lap^s(Q phi), then M_{beta,s} Lap^(s-|beta|) phi once per beta <= alpha:
    # 4 transforms for alpha = (2,), where the chained form made 6
    calls = []
    original = multipliers.apply_symbol

    def counted(f, symbol):
        calls.append(symbol.name)
        return original(f, symbol)

    g = Grid(1, 256, 1.0)
    phi = moment_free_bump(g, radius=1 / 8)
    monkeypatch.setattr(multipliers, "apply_symbol", counted)
    product_rule_residual(phi, (2,), 2.5, ball_mask(g, g.center, 1 / 8))
    assert len(calls) == 4, calls


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
    out = polynomial_annihilation((0,), 0.75, phi, [1 / 32, 1 / 16, 1 / 8])
    assert out["slope"] <= out["bound"]


def test_annihilation_needs_three_radii():
    g = Grid(1, 256, 1.0)
    phi = smooth_bump(g, radius=1 / 8)
    with pytest.raises(SymbolError, match="3 radii"):
        polynomial_annihilation((0,), 1.0, phi, [0.1, 0.2])
