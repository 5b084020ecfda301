import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclap.cutoffs import (
    DyadicCutoffFamily,
    _check_base,
    _ramp,
    base_profile,
    base_profile_values,
    build_family,
    evaluate,
    norm_scaling_experiment,
)
from fraclap.grid import Grid, GridError, annulus_mask


@pytest.fixture(scope="module")
def family():
    return build_family(6)


def test_base_profile_shape():
    rho = np.linspace(0, 3, 1001)
    v = base_profile_values(rho)
    assert np.all(v[rho <= 1.5] == 1.0)
    assert np.all(v[rho >= 2.0] == 0.0)
    assert np.all((0.0 <= v) & (v <= 1.0))


def test_bad_base_profile_rejected():
    def too_narrow(rho):
        v, d1, d2 = base_profile(np.asarray(rho) * 2.0)  # == 1 only on B_{3/4}
        return v, 2.0 * d1, 4.0 * d2

    with pytest.raises(GridError, match="identically 1"):
        _check_base(too_narrow)


def test_first_ring_matches_recursion(family):
    # eta^1 = (1 - eta^0) eta^0(./2), supported in B_4 minus closure(B_1)
    rho = np.linspace(0, 5, 4001)
    eta0 = base_profile_values(rho)
    eta0_half = base_profile_values(rho / 2)
    expected = (1.0 - eta0) * eta0_half
    got = family.ring(1, rho)[0]
    assert np.max(np.abs(got - expected)) < 1e-15
    outside = (rho <= 1.0) | (rho >= 4.0)
    assert np.max(np.abs(got[outside])) == 0.0


def _recursion_partial(profile, k, rho):
    """(Psi_k, Psi_k', Psi_k'') by the defining recursion
    Psi_l = Psi_{l-1} + (1 - Psi_{l-1}) Psi_{l-1}(./2), run as a dynamic
    program over the halved radii rho / 2^j with the product and chain rules."""
    triples = [profile(rho / 2.0**j) for j in range(k + 1)]
    for level in range(1, k + 1):
        nxt = []
        for j in range(k + 1 - level):
            v1, a1, s1 = triples[j]
            v2, a2, s2 = triples[j + 1]
            v = v1 + (1.0 - v1) * v2
            d = a1 * (1.0 - v2) + (1.0 - v1) * a2 * 0.5
            dd = s1 * (1.0 - v2) - a1 * a2 + (1.0 - v1) * s2 * 0.25
            nxt.append((v, d, dd))
        triples = nxt
    return triples[0]


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(1, 10),
    seed=st.integers(0, 2**16),
    n_random=st.integers(0, 2000),
)
@example(depth=10, seed=0, n_random=2000)
def test_closed_form_matches_recursion(depth, seed, n_random):
    # Psi_k = eta0(2^-k .): values bit for bit, derivatives to 1e-12 of their
    # sup, for every k <= depth, at random radii and at every breakpoint
    # 1.5 * 2^j, 2^(j+1) of the blend zones with its neighbours (the zone
    # midpoints 1.75 * 2^j keep that sup away from subnormal roundoff)
    fam = DyadicCutoffFamily(depth)
    breaks = np.array([c * 2.0**j for j in range(depth + 2) for c in (1.5, 1.75, 2.0)])
    rho = np.concatenate([
        np.random.default_rng(seed).uniform(0.0, 2.0 ** (depth + 1) * 1.05, n_random),
        breaks, np.nextafter(breaks, 0.0), np.nextafter(breaks, np.inf), [0.0],
    ])
    for k in range(depth + 1):
        got = fam.partial(k, rho)
        ref = _recursion_partial(base_profile, k, rho)
        assert got[0].tobytes() == ref[0].tobytes()
        for order in (1, 2):
            scale = np.max(np.abs(ref[order]))
            assert np.max(np.abs(got[order] - ref[order])) <= 1e-12 * scale


def test_partition_at_origin_exact(family):
    for k in range(family.depth + 1):
        assert family.partial(k, np.array([0.0]))[0][0] == 1.0


def test_partition_identity_within_tolerance(family):
    rho = np.linspace(0, 2.0**family.depth, 200001)
    vals = family.partial(family.depth, rho)[0]
    assert np.max(np.abs(vals[rho <= 2.0**family.depth] - 1.0)) <= 1e-12


def test_derivative_decay_constants(family):
    # measured sup|d eta^k| 2^k stays within a factor 2 band across k
    sups = [family.measured_gradient_sup(k, 1) * 2.0**k for k in range(1, family.depth + 1)]
    assert max(sups) / min(sups) <= 2.0
    for k in range(1, family.depth + 1):
        for order in (1, 2):
            bound = family.derivative_constants[order] * 2.0 ** (-k * order)
            assert family.measured_gradient_sup(k, order) <= bound * (1 + 1e-9)


def test_values_only_paths_equal_first_entry_bitwise(family):
    # build_family's value checks read these; measured_gradient_sup the triples
    rho = np.linspace(0.0, 2.0 ** (family.depth + 1) * 1.05, 20001)
    for k in range(-1, family.depth + 1):
        for method in (family.partial, family.ring):
            values = method(k, rho, derivatives=False)
            assert values.tobytes() == method(k, rho)[0].tobytes(), (method.__name__, k)


def _former_ramp(t):
    """_ramp as first written, derivatives by generic powers of t and 1 - t."""
    t = np.asarray(t, dtype=float)
    v = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    v[t >= 1.0] = 1.0
    ti = t[inside]
    a = np.exp(-1.0 / ti)
    b = np.exp(-1.0 / (1.0 - ti))
    s = a + b
    v[inside] = a / s
    d1 = np.zeros_like(t)
    d2 = np.zeros_like(t)
    ap = a / ti**2
    bp = -b / (1.0 - ti) ** 2
    app = a * (1.0 / ti**4 - 2.0 / ti**3)
    bpp = b * (1.0 / (1.0 - ti) ** 4 - 2.0 / (1.0 - ti) ** 3)
    d1[inside] = (ap * b - a * bp) / s**2
    num = app * b - a * bpp
    d2[inside] = (num * s - 2.0 * (ap * b - a * bp) * (ap + bp)) / s**3
    return v, d1, d2


def _former_partial(k, rho):
    h = 2.0**-k
    v, d1, d2 = _former_ramp(2.0 * (2.0 - rho * h))
    return v, h * (-2.0 * d1), (h * h) * (4.0 * d2)


def _assert_former_derivatives(got, ref):
    assert got[0].tobytes() == ref[0].tobytes()
    for order in (1, 2):
        assert np.max(np.abs(got[order] - ref[order])) <= 1e-15 * np.max(np.abs(ref[order])), order


def test_ramp_matches_former_formulas():
    # values bit for bit; derivatives within 1e-15 of their sup on the radial
    # samples the checks read (measured 4.4e-16 and 9.0e-16; elementwise the
    # second derivative moves more where it crosses zero)
    rho = np.linspace(0.0, 2.2, 8001)  # the sample of derivative_constants
    _assert_former_derivatives(_ramp(2.0 * (2.0 - rho)), _former_ramp(2.0 * (2.0 - rho)))
    fam = DyadicCutoffFamily(13)
    for k in range(1, fam.depth + 1):
        rho = np.linspace(2.0 ** (k - 1), 2.0 ** (k + 1), 8192)  # measured_gradient_sup's sample
        here, inner = _former_partial(k, rho), _former_partial(k - 1, rho)
        _assert_former_derivatives(fam.ring(k, rho), [x - y for x, y in zip(here, inner)])


def test_evaluate_k0_is_base(family):
    g = Grid(1, 512, 1.0)
    eta = evaluate(family, 0, 1.0 / 16, g.center, g)
    rho = g.periodic_distance(g.center)
    assert np.max(np.abs(eta.values - base_profile_values(rho * 16))) < 1e-15


def test_evaluate_dilation_identity(family):
    g = Grid(1, 512, 1.0)
    r = 1.0 / 64
    a = evaluate(family, 1, 2 * r, g.center, g)
    rho = g.periodic_distance(g.center)
    direct = family.ring(1, rho / (2 * r))[0]
    assert np.max(np.abs(a.values - direct)) < 1e-15


@pytest.mark.parametrize("dim,n_pts,box", [(1, 256, 1.0), (2, 32, 1.0), (2, 32, 3.0), (3, 16, 1.0)])
def test_evaluate_matches_ring_bitwise(family, dim, n_pts, box):
    g = Grid(dim, n_pts, box)
    h = g.spacing
    centers = [
        np.full(dim, box - 0.3 * h),  # off the lattice, the ball wraps the edge
        np.linspace(0.2 * h, box - 0.7 * h, dim),
        np.full(dim, h),  # on the lattice, so axis distances are exact multiples of h
    ]
    for k in range(family.depth + 1):
        scale = 2.0 ** (k + 1)
        # support radius 2^(k+1) r: half the box, 3 lattice steps, and neither
        for r in (0.5 * box / scale, 3 * h / scale, 0.37 * box / scale):
            for x in centers:
                eta = evaluate(family, k, r, x, g)
                ring = family.ring(k, g.periodic_distance(x) / r)[0]
                assert eta.values.tobytes() == ring.tobytes(), (k, r, x)


@pytest.mark.parametrize("k,bound", [(1, 2.0), (4, 6.0)])
def test_evaluate_peak_memory(traced_peak, family, k, bound):
    # tracemalloc peak of one call in field sizes, 2D 256^2, r = 1/72: 1.16 at
    # k = 1 and 4.6 at k = 4, where the support box covers 79% of the grid
    # (11.0 when the ring and its derivatives were built on every grid point)
    g = Grid(2, 256, 1.0)
    peak = traced_peak(evaluate, family, k, 1.0 / 72, g.center, g)
    assert peak <= bound * g.npoints * 8


def test_masks_disjoint_at_distance_three(family):
    g = Grid(1, 1024, 1.0)
    r = 1.0 / 128
    # the support annuli of eta^1 and eta^4, three dyadic steps apart
    a = annulus_mask(g, g.center, r, 4 * r)
    b = annulus_mask(g, g.center, 8 * r, 32 * r)
    assert not np.any(a.values & b.values)
    assert not np.any(evaluate(family, 1, r, g.center, g).values[~a.values])
    assert not np.any(evaluate(family, 4, r, g.center, g).values[~b.values])


def test_annulus_mask_covers_declared_support(family):
    g = Grid(1, 1024, 1.0)
    r = 1.0 / 64
    k = 2
    eta = evaluate(family, k, r, g.center, g)
    declared = annulus_mask(g, g.center, 2.0 ** (k - 1) * r, 2.0 ** (k + 1) * r)
    live = np.abs(eta.values) > 1e-14
    assert np.all(declared.values[live])


def test_scaled_partition_on_grid(family):
    g = Grid(1, 1024, 1.0)
    r = 1.0 / 128
    k = 3
    total = np.zeros(g.shape)
    for l in range(k + 1):
        total += evaluate(family, l, r, g.center, g).values
    inside = g.periodic_distance(g.center) <= 2.0**k * r
    assert np.max(np.abs(total[inside] - 1.0)) <= 1e-12


def test_support_exceeding_box_errors(family):
    g = Grid(1, 256, 1.0)
    with pytest.raises(GridError, match="support"):
        evaluate(family, 6, 1.0 / 16, g.center, g)


def test_norm_scaling_requires_four_ks(family):
    g = Grid(1, 512, 1.0)
    with pytest.raises(GridError, match="4 values"):
        norm_scaling_experiment(family, g, 0.5, 2.0, [1, 2, 3], 1.0 / 64)


def test_norm_scaling_identity_operator_flat(family):
    # s = 0: the sup norm of eta^k is 1 for every k, slope ~ 0
    g = Grid(1, 2048, 1.0)
    out = norm_scaling_experiment(family, g, 0.0, math.inf, [1, 2, 3, 4], 1.0 / 80)
    assert abs(out["slope"]) <= 0.1
    assert all(abs(v - 1.0) <= 0.1 for v in out["norms"])


def test_norm_scaling_slopes():
    fam = build_family(6)
    g = Grid(1, 4096, 1.0)
    out = norm_scaling_experiment(fam, g, 0.5, math.inf, [1, 2, 3, 4], 1.0 / 160)
    assert abs(out["slope"] - (-0.5)) <= 0.1 * 0.5
    g2 = Grid(2, 512, 1.0)
    out2 = norm_scaling_experiment(fam, g2, 1.0, 2.0, [1, 2, 3, 4], 1.0 / 72)
    assert abs(out2["slope"] - 0.0) <= 0.1
