"""Masked pair sums, ball and modulus scans and second differences on the
periodic lattice, evaluated as exact identities.

Masked points are passed as a (P, dim) integer index array, e.g.
``np.argwhere(mask)``, with their values in the same order.  Distances are
periodic: |m h| for the minimum-image lattice offset m.  Every pair weight
depends on the offset alone, so with w = 1_D, v scattered onto the grid
(zero off D) and * the periodic convolution on the grid:

* ``pair_sum_sq_diff``, K(m) = |m h|^-expo with K(0) = 0:

      sum_{i != j in D} |v_i - v_j|^2 K(x_i - x_j) = 2 <w v^2, w * K> - 2 <w v, (w v) * K>

  after the mean over D is removed from v (the left side ignores it);
* ``ball_scan``: (w v^2) * B, (w v) * B and w * B read at the points of D,
  with B(m) = 1{|m h| < rho};
* ``modulus_scan``: max |v(x) - v(x + m)| over x, x + m in D, for each
  lattice offset m with |m h| below the last bin edge;
* ``second_difference_sum``: 1/2 sum_z (2 f(x) - f(x+z) - f(x-z)) K(z)
  = f(x) sum K - (f * K_sym)(x), K_sym(z) = (K(z) + K(-z)) / 2.

The convolutions are real FFTs on the grid, exact up to roundoff; the
modulus scan takes maxima of the pairwise differences themselves.
"""

from __future__ import annotations

import numpy as np


def _offset_dist2(grid) -> np.ndarray:
    """|m h|^2 for every lattice offset m (minimum image), shaped like the grid."""
    N = grid.points_per_axis
    m = np.arange(N)
    d = np.minimum(m, N - m) * grid.spacing
    return sum(a * a for a in np.meshgrid(*([d] * grid.dim), indexing="ij", sparse=True))


def _masked_convolutions(points, fields, kernel):
    """fields[c] * kernel (periodic, over the trailing grid axes) at the points."""
    axes = tuple(range(1, kernel.ndim + 1))
    conv = np.fft.irfftn(
        np.fft.rfftn(fields, axes=axes) * np.fft.rfftn(kernel), s=kernel.shape, axes=axes
    )
    return conv[(slice(None), *points.T)]


def _scatter(points, columns, shape) -> np.ndarray:
    """(C, *shape) fields holding columns[:, c] at the points, zero elsewhere."""
    out = np.zeros((columns.shape[1], *shape))
    out[(slice(None), *points.T)] = columns.T
    return out


def pair_sum_sq_diff(points, comps, expo, grid) -> float:
    """sum_{i != j} |V_i - V_j|^2 / dist(i, j)^expo over the masked points."""
    points = np.asarray(points)
    v = np.asarray(comps, dtype=np.float64).reshape(points.shape[0], -1)
    v = v - v.mean(axis=0)
    with np.errstate(divide="ignore"):
        K = _offset_dist2(grid) ** (-0.5 * float(expo))
    K.flat[0] = 0.0
    fields = _scatter(points, np.column_stack([np.ones(len(v)), v]), grid.shape)
    conv = _masked_convolutions(points, fields, K)
    total = 2.0 * np.sum(v * v * conv[0][:, None]) - 2.0 * np.sum(v.T * conv[1:])
    return max(float(total), 0.0)  # nonnegative; clamp the roundoff of a zero sum


def ball_scan(points, vals, rho, grid):
    """Per masked point: sums of v^2, of v and the point count over the
    masked points within periodic distance < rho."""
    points = np.asarray(points)
    v = np.asarray(vals, dtype=np.float64)
    ball = (_offset_dist2(grid) < rho * rho).astype(np.float64)
    fields = _scatter(points, np.column_stack([v * v, v, np.ones_like(v)]), grid.shape)
    sum_sq, sums, cnt = _masked_convolutions(points, fields, ball)
    return sum_sq, sums, np.rint(cnt)


def modulus_scan(points, vals, edges, grid) -> np.ndarray:
    """Max |v_i - v_j| over masked pairs with edges[b] <= dist(i, j) < edges[b+1]."""
    points = np.asarray(points)
    v = np.asarray(vals, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    N = grid.points_per_axis
    d2 = _offset_dist2(grid)
    bins = np.searchsorted(edges, np.sqrt(d2), side="right") - 1
    # offsets m and -m give the same pairs: keep the one with the smaller flat index
    flat = np.arange(d2.size).reshape(d2.shape)
    mirror = np.ravel_multi_index(tuple(-np.indices(d2.shape) % N), d2.shape)
    keep = (d2 > 0) & (bins >= 0) & (bins < edges.size - 1) & (flat <= mirror)
    field = np.full(grid.shape, np.nan)  # NaN off the mask; fmax skips it
    field[tuple(points.T)] = v
    best = np.zeros(edges.size - 1)
    for m, b in zip(np.argwhere(keep), bins[keep]):
        partner = field[tuple(((points + m) % N).T)]
        best[b] = np.fmax.reduce(np.abs(v - partner), initial=best[b])
    return best


def second_difference_field(values, kernel) -> np.ndarray:
    """1/2 sum_z (2 f(x) - f(x+z) - f(x-z)) kernel(z) at every grid point."""
    values = np.asarray(values, dtype=np.float64)
    # constants drop out; shifting by one sample makes constant input exactly zero
    f = values - values.flat[0]
    axes = tuple(range(values.ndim))
    # the transform of the symmetrized real kernel is the real part of its transform
    conv = np.fft.irfftn(
        np.fft.rfftn(f) * np.fft.rfftn(kernel).real, s=values.shape, axes=axes
    )
    return f * np.sum(kernel) - conv


def second_difference_sum(values, points, kernel) -> np.ndarray:
    """The second-difference sum at the grid points given as one index array
    per axis."""
    return second_difference_field(values, kernel)[points]
