"""Restricted-support conjugate gradient shared by the variational modules."""

from __future__ import annotations

import math

import numpy as np


class SolveError(RuntimeError):
    pass


def restricted_cg(sel: np.ndarray, apply_op, b: np.ndarray, tol: float, maxiter: int):
    """CG for an SPD operator restricted to the support `sel`.

    Arrays live on the full grid; the operator output is masked each step so
    every iterate stays supported in sel.  Returns (x, iterations, relative
    residual); raises SolveError when the relative residual does not reach
    tol within maxiter iterations.
    """
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
