import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclap.cutoffs import (
    DyadicCutoffFamily,
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

    with pytest.raises(GridError):
        build_family(2, profile=too_narrow)


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


def test_evaluate_k0_is_base(family):
    g = Grid(1, 512, 1.0)
    eta = evaluate(family, 0, 1.0 / 16, g.center, g)
    rho = g.periodic_distance(g.center)
    assert np.max(np.abs(eta.values - base_profile_values(rho * 16))) < 1e-15


def test_evaluate_dilation_identity(family):
    g = Grid(1, 512, 1.0)
    r = 1.0 / 64
    a = evaluate(family, 1, 2 * r, g.center, g, attach_mask=False)
    rho = g.periodic_distance(g.center)
    direct = family.ring(1, rho / (2 * r))[0]
    assert np.max(np.abs(a.values - direct)) < 1e-15


def test_masks_disjoint_at_distance_three(family):
    g = Grid(1, 1024, 1.0)
    r = 1.0 / 128
    a = evaluate(family, 1, r, g.center, g)
    b = evaluate(family, 4, r, g.center, g)
    assert a.support.intersection(b.support).npoints == 0


def test_annulus_mask_covers_declared_support(family):
    g = Grid(1, 1024, 1.0)
    r = 1.0 / 64
    k = 2
    eta = evaluate(family, k, r, g.center, g, attach_mask=False)
    declared = annulus_mask(g, g.center, 2.0 ** (k - 1) * r, 2.0 ** (k + 1) * r)
    live = np.abs(eta.values) > 1e-14
    assert np.all(declared.values[live])


def test_scaled_partition_on_grid(family):
    g = Grid(1, 1024, 1.0)
    r = 1.0 / 128
    k = 3
    total = np.zeros(g.shape)
    for l in range(k + 1):
        total += evaluate(family, l, r, g.center, g, attach_mask=False).values
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
