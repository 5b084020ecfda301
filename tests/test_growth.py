import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.cutoffs import base_profile_values, build_family
from fraclap.fields import band_limited_field
from fraclap.grid import Grid, GridFunction, ball_mask
from fraclap.growth import (
    AnnulusSequence,
    GrowthError,
    _center_balls,
    campanato_functionals,
    counterexample_driteration,
    driteration,
    generate_driteration_input,
    generate_iteration_input,
    holder_exponent_estimate,
    homogeneous_norm_localization,
    iteration_reduce,
    seminorm_comparison_terms,
)


# -- iteration lemmas ------------------------------------------------------------

# Per-N slice sums over row i, the reference for AnnulusSequence's array forms.

def head_sum(a, N, i=0):
    """sum_{k <= N} a_k."""
    if N < a.k_min:
        return 0.0
    hi = min(N, a.k_max)
    return float(np.sum(a.values[i, : hi - a.k_min + 1]))


def weighted_tail(a, N, gamma, shift=1, i=0):
    """sum_{k >= N+1} 2^(gamma (N + shift - k)) a_k."""
    lo = max(N + 1, a.k_min)
    if lo > a.k_max:
        return 0.0
    ks = np.arange(lo, a.k_max + 1)
    return float(np.sum(2.0 ** (gamma * (N + shift - ks)) * a.values[i, lo - a.k_min :]))


def weighted_head(a, N, gamma, i=0):
    """sum_{k <= N} 2^(gamma (k - N)) a_k."""
    hi = min(N, a.k_max)
    if hi < a.k_min:
        return 0.0
    ks = np.arange(a.k_min, hi + 1)
    return float(np.sum(2.0 ** (gamma * (ks - N)) * a.values[i, : hi - a.k_min + 1]))


def test_sequence_validation():
    with pytest.raises(GrowthError):
        AnnulusSequence(0, np.array([1.0, -2.0]))
    with pytest.raises(GrowthError):
        AnnulusSequence(0, np.array([np.inf]))
    with pytest.raises(GrowthError):
        AnnulusSequence(0, np.ones((2, 2, 2)))
    a = AnnulusSequence(-3, np.array([1.0, 2.0, 0.5, 0.25]))
    assert a.k_max == 0
    assert a.values.shape == (1, 4)  # a 1-d array is a batch of one
    assert head_sum(a, -2) == 3.0
    assert a.head_sums([5]).tolist() == [[3.75]]  # zero above the range


def test_zero_sequence_trivially_passes():
    a = AnnulusSequence(-8, np.zeros(10))
    rep = driteration(a, 1.0, 1.0, 1.0)
    assert 0 < rep.beta[0] < 1
    assert rep.constants["Lambda_2"].tolist() == [1.0]  # falls back to the hypothesis Lambda


def test_single_spike_passes():
    a = AnnulusSequence(0, np.array([1.0, 0.0]))
    rep = driteration(a, 1.0, 1.0, 2.0)
    assert np.all(rep.head_sums <= rep.bounds * (1 + 1e-12))


def test_geometric_sequence_example():
    # a_k = 2^k for k <= 0: both sides of the hypothesis verified directly for
    # every N <= -1, the N = 0 case genuinely fails (and is reported), and the
    # index-shifted sequence passes the full lemma
    ks = np.arange(-12, 1)
    a = AnnulusSequence(-12, 2.0 ** ks.astype(float))
    for N in range(-12, 0):
        lhs = head_sum(a, N)
        rhs = weighted_tail(a, N, 1.0, shift=1) + 2.0**N
        assert lhs <= rhs * (1 + 1e-12)
    with pytest.raises(GrowthError) as err:
        driteration(a, 1.0, 1.0, 1.0)
    assert (err.value.sequence, err.value.witness) == (0, 0)
    shifted = AnnulusSequence(-11, a.values)
    rep = driteration(shifted, 1.0, 1.0, 1.0)
    assert 0 < rep.beta[0] < 1


def _rel(x, y):
    return np.max(np.abs(x - y) / np.maximum(np.abs(y), 1e-300))


def _batches():
    """The 1000 sequences of `iteration-lemmas` at seed 0, as its two batches."""
    return (generate_driteration_input(range(500), 1.0, 1.0)[0],
            generate_iteration_input(range(7000, 7500), 1.0, 1.0, 1.0, 2))


def test_array_sums_match_the_scalar_sums():
    # rows with zeros summed in are not bitwise the per-N slices; measured worst
    # 5.9e-16 relative over these sequences
    worst = 0.0
    for a in _batches():
        Ns = np.arange(a.k_min - 2, a.k_max + 3)  # below, across and above the range
        sums = [(a.head_sums(Ns), head_sum, ())]
        sums += [(a.weighted_tails(Ns, gamma, shift), weighted_tail, (gamma, shift))
                 for gamma, shift in ((1.0, 1), (1.0, 0), (0.7, 0))]
        sums += [(a.weighted_heads(Ns, 0.7), weighted_head, (0.7,))]
        for rows, oracle, args in sums:
            assert rows.shape == (500, Ns.size)
            for i, row in enumerate(rows):
                worst = max(worst, _rel(row, np.array([oracle(a, N, *args, i=i) for N in Ns])))
    assert worst <= 1e-15


def _assert_row_is_alone(batch, alone, i):
    """Row i of a batch report is bit for bit the report of that sequence alone."""
    assert np.array_equal(batch.Ns, alone.Ns) and batch.threshold_index == alone.threshold_index
    assert batch.beta[i] == alone.beta[0]
    assert batch.constants.keys() == alone.constants.keys()
    for name, value in batch.constants.items():
        assert np.broadcast_to(value, batch.beta.shape)[i] == np.broadcast_to(alone.constants[name], (1,))[0], name
    assert np.array_equal(batch.head_sums[i], alone.head_sums[0])
    assert np.array_equal(batch.bounds[i], alone.bounds[0])


def test_each_row_of_a_batch_equals_that_sequence_alone():
    a, b = _batches()
    lam = generate_driteration_input(range(500), 1.0, 1.0)[1]
    rep = driteration(a, 1.0, 1.0, lam)
    for i in range(500):
        one, lam_one = generate_driteration_input([i], 1.0, 1.0)
        assert np.array_equal(one.values[0], a.values[i]) and lam_one[0] == lam[i]
        _assert_row_is_alone(rep, driteration(one, 1.0, 1.0, lam_one), i)
    rep = iteration_reduce(b, 1.0, 1.0, 1.0, 2)
    for i in range(500):
        one = generate_iteration_input([7000 + i], 1.0, 1.0, 1.0, 2)
        assert np.array_equal(one.values[0], b.values[i])
        _assert_row_is_alone(rep, iteration_reduce(one, 1.0, 1.0, 1.0, 2), i)


def _spike(values, k, at, height):
    """values with row k zero but for `height` at index `at` (k_min = -12)."""
    values = values.copy()
    values[k] = 0.0
    values[k, at + 12] = height
    return values


@pytest.mark.parametrize("k", [0, 17, 499])
def test_a_planted_failure_names_its_sequence_and_N(k):
    a, b = _batches()
    lam = generate_driteration_input(range(500), 1.0, 1.0)[1]
    # a lone spike at N = -3 exceeds Lam 2^N there; a later sequence fails
    # earlier in N, and the first failing sequence is the one named
    values = _spike(a.values, k, -3, 10.0 * lam[k] * 2.0**-3 + 1.0)
    if k + 1 < 500:
        values = _spike(values, k + 1, -9, 10.0 * lam[k + 1] + 1.0)
    with pytest.raises(GrowthError, match=f"in sequence {k} at N = -3") as err:
        driteration(AnnulusSequence(a.k_min, values), 1.0, 1.0, lam)
    assert (err.value.sequence, err.value.witness) == (k, -3)
    # a spike at N - L first escapes the four-term discounts at N (L = 2)
    with pytest.raises(GrowthError) as err:
        iteration_reduce(AnnulusSequence(b.k_min, _spike(b.values, k, -5, 1e9)), 1.0, 1.0, 1.0, 2)
    assert (err.value.sequence, err.value.witness) == (k, -3)


def test_counterexample_witness_is_named():
    for target in (-1, -3, -6):
        a = counterexample_driteration(target, 1.0, 1.0, 1.0)
        with pytest.raises(GrowthError) as err:
            driteration(a, 1.0, 1.0, 1.0)
        assert (err.value.sequence, err.value.witness) == (0, target)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=8), st.floats(0.3, 2.0), st.floats(0.3, 2.0))
def test_driteration_generator_sound(seeds, gamma, alpha):
    a, lam = generate_driteration_input(seeds, gamma, alpha)
    rep = driteration(a, gamma, alpha, lam)
    assert rep.head_sums.shape == (len(seeds), rep.Ns.size)
    assert np.all(rep.head_sums <= rep.bounds * (1 + 1e-12))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
def test_iteration_generator_sound(seeds):
    a = generate_iteration_input(seeds, 1.0, 1.0, 1.0, 2)
    rep = iteration_reduce(a, 1.0, 1.0, 1.0, 2)
    assert rep.threshold_index <= 0
    assert rep.constants["Lambda_3"] > 0
    assert rep.constants["Lambda_4"].shape == (len(seeds),)
    assert np.all(rep.constants["Lambda_4"] > 0)


def test_iteration_reduce_formula_for_unit_parameters():
    # (Lam1, Lam2, gamma, L) = (1, 1, 1, 2): K = 2 and the proof's closed form
    # gives Lambda_3 = 16 + 4 (2^4 + 4) + 8 = 104
    a = AnnulusSequence(-10, np.zeros(12))
    rep = iteration_reduce(a, 1.0, 1.0, 1.0, 2)
    assert rep.constants["K"] == 2.0
    assert abs(rep.constants["Lambda_3"] - 104.0) < 1e-12
    assert rep.threshold_index == -2


def test_iteration_violation_witness():
    # a spike at k = target - L first escapes the discounted terms at N =
    # target (the 1/2-absorption window still contains it below that)
    target = -3
    k_min = -11
    vals = np.zeros(13)
    vals[(target - 2) - k_min] = 1e9
    bad = AnnulusSequence(k_min, vals)
    with pytest.raises(GrowthError) as err:
        iteration_reduce(bad, 1.0, 1.0, 1.0, 2)
    assert err.value.witness == target


def test_iteration_parameter_guards():
    a = AnnulusSequence(-4, np.zeros((2, 6)))
    with pytest.raises(GrowthError):
        iteration_reduce(a, 1.0, 1.0, 1.0, 0)
    with pytest.raises(GrowthError):
        driteration(a, -1.0, 1.0, 1.0)
    with pytest.raises(GrowthError):
        driteration(a, 1.0, 1.0, [1.0, 0.0])  # one Lambda per sequence, each positive


# -- Campanato functionals ----------------------------------------------------------

def test_campanato_constant_field():
    g = Grid(1, 1024, 1.0)
    D = ball_mask(g, g.center, 0.1)
    c = GridFunction(g, np.full(g.shape, 3.0))
    out = campanato_functionals(c, D, 1.5, 1.0 / 32)
    assert out["M"] <= 1e-12
    # J = const^2 sup rho^-lam |D cap B_rho|: verify against a direct scan
    coords = g.axis_coords()[D.values]
    best = 0.0
    rho = 1.0 / 32
    while rho >= 4 * g.spacing:
        for x in coords:
            d = np.abs(coords - x)
            d = np.minimum(d, g.box_length - d)
            best = max(best, rho**-1.5 * 9.0 * np.count_nonzero(d < rho) * g.cell_measure)
        rho /= 2
    assert abs(out["J"] - best) <= 1e-10 * best


def test_campanato_zero_field():
    g = Grid(1, 512, 1.0)
    D = ball_mask(g, g.center, 0.1)
    z = GridFunction(g, np.zeros(g.shape))
    out = campanato_functionals(z, D, 2.0, 1.0 / 16)
    assert out["J"] == 0.0 and out["M"] == 0.0


def test_campanato_shift_invariance_of_M():
    g = Grid(1, 1024, 1.0)
    D = ball_mask(g, g.center, 0.1)
    v = band_limited_field(g, 3, cutoff=64)
    shifted = GridFunction(g, v.values + 5.0)
    a = campanato_functionals(v, D, 2.0, 1.0 / 32)
    b = campanato_functionals(shifted, D, 2.0, 1.0 / 32)
    assert abs(a["M"] - b["M"]) <= 1e-9 * a["M"]
    assert b["J"] > a["J"]  # J is not shift invariant (witness)


def test_campanato_refinement_stability():
    # M for the half-Hoelder profile at lambda = n + 2 alpha stays put under
    # grid doubling (integral characterization of Hoelder continuity)
    vals = []
    for n_pts in (2048, 4096):
        g = Grid(1, n_pts, 1.0)
        rho = g.periodic_distance(g.center)
        window = base_profile_values(4.0 * rho)
        v = GridFunction(g, window * rho**0.5)
        D = ball_mask(g, g.center, 0.1)
        vals.append(campanato_functionals(v, D, 2.0, 1.0 / 16)["M"])
    assert abs(vals[1] / vals[0] - 1.0) <= 0.1


def test_campanato_scale_guard():
    g = Grid(1, 512, 1.0)
    D = ball_mask(g, g.center, 0.1)
    v = band_limited_field(g, 0)
    with pytest.raises(GrowthError):
        campanato_functionals(v, D, 2.0, 4.0 * g.spacing)


# -- Hoelder exponent estimators -------------------------------------------------------

def test_holder_flat_sentinel():
    g = Grid(1, 2048, 1.0)
    c = GridFunction(g, np.full(g.shape, 1.0))
    (out,) = holder_exponent_estimate([c], ball_mask(g, g.center, 0.1), R=1.0 / 16)
    assert out["flat"] is True
    assert out["alpha_campanato"] is None


def test_holder_smooth_field_saturates():
    g = Grid(1, 4096, 1.0)
    v = band_limited_field(g, 7, cutoff=6, envelope=4)
    (out,) = holder_exponent_estimate([v], ball_mask(g, g.center, 0.12), R=1.0 / 32)
    assert out["alpha_modulus"] >= 0.95
    assert out["alpha_modulus"] <= 1.0


def test_holder_synthetic_ground_truth():
    g = Grid(1, 8192, 1.0)
    rho = g.periodic_distance(g.center)
    window = base_profile_values(4.0 * rho)
    E = ball_mask(g, g.center, 1.0 / 6)
    alphas = (0.25, 0.5)
    fields = [GridFunction(g, window * rho**alpha) for alpha in alphas]
    for alpha, out in zip(alphas, holder_exponent_estimate(fields, E, R=1.0 / 12)):
        assert abs(out["alpha_campanato"] - alpha) <= 0.06
        assert abs(out["alpha_modulus"] - alpha) <= 0.06
        assert abs(out["alpha_seminorm"] - alpha) <= 0.08  # tightest config lives in acceptance


def test_holder_scale_guards():
    g = Grid(1, 512, 1.0)
    v = band_limited_field(g, 0)
    E = ball_mask(g, g.center, 0.1)
    with pytest.raises(GrowthError):
        holder_exponent_estimate([v], E, R=8 * g.spacing)


# -- homogeneous norm localization ------------------------------------------------------

def test_homogloc_constant():
    g = Grid(1, 1024, 1.0)
    c = GridFunction(g, np.full(g.shape, 2.0))
    (out,) = homogeneous_norm_localization([c], 1.0 / 8, g.center, 0.5)
    assert out["lhs"] <= 1e-20
    assert out["ratio"] == 0.0


def test_homogloc_truncation_monotone():
    g = Grid(1, 2048, 1.0)
    v = band_limited_field(g, 9, cutoff=64, envelope=32)
    (full,) = homogeneous_norm_localization([v], 1.0 / 8, g.center, 0.5)
    # dropping the deepest annulus can only shrink the right-hand side
    partial_rhs = sum(full["terms"][:-1])
    assert partial_rhs <= full["rhs"]


def test_homogloc_regression():
    g = Grid(1, 2048, 1.0)

    def sup(seed0, count):
        fields = [band_limited_field(g, seed0 + k, cutoff=64, envelope=32) for k in range(count)]
        return max(out["ratio"] for out in homogeneous_norm_localization(fields, 1.0 / 8, g.center, 0.5))

    assert sup(500, 4) <= sup(0, 10) * 1.01


def test_homogloc_needs_annuli():
    g = Grid(1, 256, 1.0)
    v = band_limited_field(g, 0)
    with pytest.raises(GrowthError, match="annuli"):
        homogeneous_norm_localization([v], 8 * g.spacing, g.center, 0.5)


def test_studies_give_each_field_its_own_result_bitwise():
    # masks, cutoffs and box convolutions are shared by the fields of a call;
    # each field's result is the one it gets alone
    g = Grid(1, 2048, 1.0)
    fam = build_family(5)
    fields = [band_limited_field(g, seed, cutoff=64, envelope=32) for seed in range(3)]
    r, x = g.box_length / 64, g.center
    E = ball_mask(g, x, 1.0 / 6)
    for study, args in ((seminorm_comparison_terms, (r, x, fam)),
                        (homogeneous_norm_localization, (1.0 / 8, x, 0.5)),
                        (holder_exponent_estimate, (E, 1.0 / 12))):
        assert study(fields, *args) == [study([v], *args)[0] for v in fields]


@pytest.mark.parametrize("radius_cells", [1.5, 2.5, 100.0])  # E of 3, 5 and 200 points
def test_center_balls_about_the_distinct_evenly_spaced_points(radius_cells):
    g = Grid(1, 512, 1.0)
    E = ball_mask(g, g.center, radius_cells * g.spacing)
    (sel,) = np.nonzero(E.values)
    picks = np.unique(np.linspace(0, sel.size - 1, 9).astype(int))
    balls = _center_balls(E, 0.05)
    assert len(balls) == len(picks) == min(9, sel.size)
    for B, p in zip(balls, picks):
        assert np.array_equal(B.values, ball_mask(g, [g.axis_coords()[sel[p]]], 0.05).values)


def test_seminorm_comparison_terms_positive_bracket():
    g = Grid(1, 4096, 1.0)
    fam = build_family(5)
    v = band_limited_field(g, 3, cutoff=128, envelope=64)
    (out,) = seminorm_comparison_terms([v], g.box_length / 128, g.center, fam)
    assert out["bracket"] > 0
    assert out["lhs"] >= 0
