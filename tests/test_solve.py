import math

import numpy as np
import pytest

from fraclap.grid import Grid, ball_mask
from fraclap.multipliers import abs_power_table, apply_table
from fraclap.solve import NumericalError, SolveError, restricted_cg


def _textbook_cg(sel, apply_op, b, tol, maxiter):
    """The former restricted_cg loop, allocating its products each step."""
    off = ~sel
    x = np.zeros_like(b)
    r = b.copy()
    r[off] = 0.0
    p = r.copy()
    rs = float(np.sum(r * r))
    b_norm = math.sqrt(float(np.sum(b[sel] ** 2)))
    if b_norm == 0:
        return x, 0, 0.0
    for it in range(1, maxiter + 1):
        Ap = apply_op(p)
        Ap[off] = 0.0
        denom = float(np.sum(p * Ap))
        if denom <= 0:
            raise SolveError("operator lost positive definiteness on the subspace")
        alpha = rs / denom
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(np.sum(r * r))
        if math.sqrt(rs_new) <= tol * b_norm:
            return x, it, math.sqrt(rs_new) / b_norm
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise SolveError(f"CG failed to reach relative residual {tol:g} within {maxiter} iterations")


def _fftn_apply_table(values, table):
    return np.fft.ifftn(np.fft.fftn(values) * table).real


def _supports(g, rng):
    """A centered ball, a ball across the box edge (it wraps) and a random
    scatter of about half the points."""
    L, h = g.box_length, g.spacing
    yield ball_mask(g, g.center, 0.3 * L).values
    yield ball_mask(g, np.full(g.dim, 0.5 * h), 0.2 * L).values
    yield rng.random(g.shape) < 0.5


def _cases():
    for dim, sizes in ((1, (8, 64, 256)), (2, (8, 32)), (3, (8, 16))):
        for n in sizes:
            for s in (0.5, 1.0, 2.0):
                yield dim, n, s


@pytest.mark.parametrize("dim,n,s", list(_cases()))
def test_restricted_cg_equals_textbook_loop_bitwise(dim, n, s):
    # both the operator and the loop in their former form, against the
    # in-place ones: iterates, iteration counts and residuals agree bit for bit
    g = Grid(dim, n, 1.0)
    rng = np.random.default_rng(n + dim)
    table = abs_power_table(g, s)
    for sel in _supports(g, rng):
        b = rng.standard_normal(g.shape)
        b[~sel] = 0.0
        got = restricted_cg(sel, lambda u: apply_table(u, table), b, 1e-10, 5000)
        ref = _textbook_cg(sel, lambda u: _fftn_apply_table(u, table), b, 1e-10, 5000)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1] == ref[1] and got[1] > 0
        assert np.float64(got[2]).tobytes() == np.float64(ref[2]).tobytes()


def test_restricted_cg_stops_at_maxiter_like_the_textbook_loop():
    g = Grid(1, 256, 1.0)
    sel = ball_mask(g, g.center, 0.3).values
    table = abs_power_table(g, 2.0)
    b = np.random.default_rng(1).standard_normal(g.shape)
    for cg, op in ((restricted_cg, apply_table), (_textbook_cg, _fftn_apply_table)):
        with pytest.raises(SolveError, match="within 3 iterations"):
            cg(sel, lambda u: op(u, table), b, 1e-10, 3)


def test_restricted_cg_refuses_an_indefinite_operator():
    g = Grid(1, 64, 1.0)
    sel = ball_mask(g, g.center, 0.3).values
    with pytest.raises(SolveError, match="positive definiteness") as err:
        restricted_cg(sel, lambda u: -u, np.ones(g.shape), 1e-10, 10)
    assert isinstance(err.value, NumericalError)


def test_restricted_cg_zero_rhs():
    g = Grid(1, 64, 1.0)
    sel = ball_mask(g, g.center, 0.3).values
    x, it, res = restricted_cg(sel, lambda u: u, np.zeros(g.shape), 1e-10, 10)
    assert it == 0 and res == 0.0 and not x.any()
