"""Restricted-support conjugate gradient shared by the variational modules,
and NumericalError, the base of the failures that `fraclap run` reports
with exit code 3."""

from __future__ import annotations

import math

import numpy as np


class NumericalError(RuntimeError):
    """A computation that was set up correctly but failed numerically (a
    solver that did not converge, an operator that lost definiteness);
    `fraclap run` exits 3 for it."""


class SolveError(NumericalError):
    pass


def restricted_cg(sel: np.ndarray, apply_op, b: np.ndarray, tol: float, maxiter: int):
    """CG for an SPD operator restricted to the support `sel`.

    Arrays live on the full grid; the operator output is masked each step so
    every iterate stays supported in sel.  Returns (x, iterations, relative
    residual); raises SolveError when the relative residual does not reach
    tol within maxiter iterations.

    Apart from apply_op, an iteration allocates nothing: x, r and p are
    updated in place, and one scratch vector takes every product, each dot
    product being np.add.reduce of it as np.sum would compute.  The iterates,
    the iteration count and the residual equal those of the textbook loop
    (np.sum(p * Ap), x += alpha * p, p = r + beta * p) bit for bit.
    """
    off = ~sel
    x = np.zeros_like(b)
    r = b.copy()
    r[off] = 0.0
    p = r.copy()
    tmp = np.empty_like(r)

    def dot(u, v):
        return float(np.add.reduce(np.multiply(u, v, out=tmp), axis=None))

    rs = dot(r, r)
    b_norm = math.sqrt(float(np.sum(b[sel] ** 2)))
    if b_norm == 0:
        return x, 0, 0.0
    for it in range(1, maxiter + 1):
        Ap = apply_op(p)
        np.copyto(Ap, 0.0, where=off)
        denom = dot(p, Ap)
        if denom <= 0:
            raise SolveError("operator lost positive definiteness on the subspace")
        alpha = rs / denom
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(Ap, alpha, out=tmp)
        rs_new = dot(r, r)
        if math.sqrt(rs_new) <= tol * b_norm:
            return x, it, math.sqrt(rs_new) / b_norm
        p *= rs_new / rs
        p += r
        rs = rs_new
    raise SolveError(f"CG failed to reach relative residual {tol:g} within {maxiter} iterations")
