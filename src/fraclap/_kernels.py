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

The masked sums work on the points' padded box, not the whole grid.  Per
axis the point indices lie on a shortest periodic arc of E cells, so two of
them differ by an offset in -(E-1)..E-1.  The pair sum and the ball scan
convolve on M = min(N, smallest power of two >= 2E - 1) cells per axis, so
those offsets stay distinct mod M; local index k stands for the offset k
(k <= M/2) or k - M, weighted at its minimum-image torus distance.  The
ball weight vanishes past the largest one-axis offset R closer than rho, so
the ball scan needs only M >= E + R: an offset |d| <= R < M/2 stays itself,
and R < |d| < E lands more than R cells from 0.  The circular convolution
on the box thus equals the torus one at every masked point (at M = N it is
the torus one).  These are real FFTs, exact up to roundoff.  The kernel
depends on (grid, box shape, weight) alone and is one of few in a run, so
its rfftn comes from a small bounded memo and only the fields are
transformed per call; ``pair_sums_sq_diff`` puts the columns of several
samples on one point set into one such convolution.

The modulus scan is a dilation.  It gathers the field v (NaN off D) once on
the box widened by the largest offset, with indices mod N.  For each bin b
let S_b be the lattice offsets m with |m h| in the bin, a set closed under
m -> -m, and M_b(x) = max of v(x + m) over m in S_b, NaN skipped.  Then the
bin's value is the max over x in D of M_b(x) - v(x): rounding is monotone,
so max_m fl(v(x+m) - v(x)) = fl(M_b(x) - v(x)), and since S_b is symmetric
that max over x is the max of |v(x) - v(y)| over the bin's pairs, bit for
bit.  For each tuple of leading-axis offsets, the last-axis offsets of S_b
form runs of consecutive integers, and each run is one 1D sliding-window
maximum over the box's rows (van Herk, Pattern Recognit. Lett. 13, 1992;
Gil and Werman, IEEE TPAMI 15, 1993), so a bin costs O(rows x box) rather
than O(offsets x box).
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import per_axis


def _dist2(offsets, h):
    """|m h|^2 for minimum-image lattice offsets m (|m_a| <= N/2), one integer
    array per axis, broadcasting against each other."""
    return sum(a * a for a in (np.abs(m) * h for m in offsets))


def _arcs(points, N) -> tuple:
    """Per axis, the start and the extent E of the shortest periodic arc
    [start, start + E) that holds the points' indices."""
    starts, extents = [], []
    for col in points.T:
        u = np.sort(col)  # a repeated index leaves a zero gap, never the largest
        gaps = np.diff(u, append=u[0] + N)
        i = int(np.argmax(gaps))
        starts.append(int(u[(i + 1) % u.size]))
        extents.append(N - int(gaps[i]) + 1)
    return np.array(starts), extents


@functools.lru_cache(maxsize=32)  # a direct-sum study uses under 30 kernels
def _kernel_spectrum(grid, shape, weight) -> np.ndarray:
    """rfftn of the pair weight K on a box of the given shape, local index k
    standing for the offset k (k <= M/2) or k - M: K(m) = |m h|^-expo with
    K(0) = 0 for weight ("power", expo), 1{|m h| < rho} for ("ball", rho).
    Memoized per (grid, shape, weight) and returned read-only;
    ``_kernel_spectrum.cache_clear()`` drops the memo."""
    offsets = []
    for M in shape:
        k = np.arange(M)
        offsets.append(np.where(k <= M // 2, k, k - M))
    d2 = _dist2(per_axis(offsets), grid.spacing)
    kind, param = weight
    if kind == "ball":
        kernel = (d2 < param * param) * 1.0
    else:
        with np.errstate(divide="ignore"):
            kernel = np.where(d2 > 0, d2 ** (-0.5 * param), 0.0)
    spectrum = np.fft.rfftn(kernel)
    spectrum.flags.writeable = False
    return spectrum


def _box_convolutions(points, columns, weight, grid, reach):
    """columns[:, c] * K read at the points, K as in _kernel_spectrum, as
    circular convolutions on the points' padded box (module docstring);
    K vanishes wherever some |m_a| > reach."""
    N = grid.points_per_axis
    start, extents = _arcs(points, N)
    local = (points - start) % N
    shape = tuple(min(N, 1 << (E + min(E - 1, reach) - 1).bit_length()) for E in extents)
    fields = np.zeros((columns.shape[1], *shape))
    fields[(slice(None), *local.T)] = columns.T
    axes = tuple(range(1, len(shape) + 1))
    conv = np.fft.irfftn(
        np.fft.rfftn(fields, axes=axes) * _kernel_spectrum(grid, shape, weight), s=shape, axes=axes
    )
    return conv[(slice(None), *local.T)]


def pair_sums_sq_diff(points, samples, expo, grid) -> list:
    """pair_sum_sq_diff of each sample on one point set, from one box
    convolution that holds the columns of every sample: samples is a
    sequence of (P,) or (P, C) value arrays.  Each sample's mean and sums
    are taken as pair_sum_sq_diff takes them, so each total is its value
    bit for bit."""
    points = np.asarray(points)
    vs = [np.asarray(c, dtype=np.float64).reshape(points.shape[0], -1) for c in samples]
    vs = [v - v.mean(axis=0) for v in vs]
    columns = np.column_stack([np.ones(points.shape[0]), *vs])
    conv = _box_convolutions(points, columns, ("power", float(expo)), grid, grid.points_per_axis)
    totals, first = [], 1
    for v in vs:
        cross = conv[first : first + v.shape[1]]
        first += v.shape[1]
        total = 2.0 * np.sum(v * v * conv[0][:, None]) - 2.0 * np.sum(v.T * cross)
        totals.append(max(float(total), 0.0))  # nonnegative; clamp the roundoff of a zero sum
    return totals


def pair_sum_sq_diff(points, comps, expo, grid) -> float:
    """sum_{i != j} |V_i - V_j|^2 / dist(i, j)^expo over the masked points."""
    return pair_sums_sq_diff(points, [comps], expo, grid)[0]


def ball_scan(points, vals, rho, grid):
    """Per masked point: sums of v^2, of v and the point count over the
    masked points within periodic distance < rho."""
    points = np.asarray(points)
    v = np.asarray(vals, dtype=np.float64)
    columns = np.column_stack([v * v, v, np.ones_like(v)])
    axis_d2 = _dist2([np.arange(grid.points_per_axis // 2 + 1)], grid.spacing)
    reach = max(0, int(np.count_nonzero(axis_d2 < rho * rho)) - 1)  # the weight's own test
    sum_sq, sums, cnt = _box_convolutions(points, columns, ("ball", float(rho)), grid, reach)
    return sum_sq, sums, np.rint(cnt)


def _sliding_max(a, w) -> np.ndarray:
    """fmax over each window a[..., j : j + w] of the last axis, NaN where
    the whole window is NaN: the van Herk / Gil-Werman filter, which splits
    the axis into blocks of w and joins a suffix max within one block to a
    prefix max within the next, three passes whatever w is."""
    n = a.shape[-1]
    blocks = np.full((*a.shape[:-1], -(-n // w), w), np.nan)
    blocks.reshape(*a.shape[:-1], -1)[..., :n] = a
    prefix = np.fmax.accumulate(blocks, axis=-1).reshape(*a.shape[:-1], -1)
    suffix = np.fmax.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1].reshape(prefix.shape)
    return np.fmax(suffix[..., : n - w + 1], prefix[..., w - 1 : n])


def modulus_scan(points, vals, edges, grid) -> np.ndarray:
    """Max |v_i - v_j| over masked pairs with edges[b] <= dist(i, j) < edges[b+1]."""
    points = np.asarray(points)
    v = np.asarray(vals, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    N, h = grid.points_per_axis, grid.spacing
    start, extents = _arcs(points, N)
    # every pair's minimum-image offset has |m_a| <= min(E_a - 1, N/2) and, to
    # count, |m_a| h < edges[-1]; -N/2 is the residue of N/2, so it is left out
    reach = [max(0, int(min(E - 1, N // 2, edges[-1] / h + 1))) for E in extents]
    ranges = [np.arange(-min(r, (N - 1) // 2), r + 1) for r in reach]
    m = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, grid.dim)
    d2 = _dist2(m.T, h)
    bins = np.searchsorted(edges, np.sqrt(d2), side="right") - 1
    keep = (d2 > 0) & (bins >= 0) & (bins < edges.size - 1)
    order = np.argsort(bins[keep], kind="stable")  # by bin, then leading, then last offset
    m, bins = m[keep][order], bins[keep][order]
    # a run of last-axis offsets goes on while the bin and the leading offsets
    # stay and the last offset steps by one
    new = np.ones(len(m), dtype=bool)
    new[1:] = ((bins[1:] != bins[:-1]) | np.any(m[1:, :-1] != m[:-1, :-1], axis=1)
               | (m[1:, -1] != m[:-1, -1] + 1))
    firsts = np.flatnonzero(new)
    lasts = np.append(firsts[1:], len(m)) - 1
    field = np.full(grid.shape, np.nan)  # NaN off the mask; fmax skips it
    field[tuple(points.T)] = v
    window = field[np.ix_(*[(s - r + np.arange(E + 2 * r)) % N
                            for s, E, r in zip(start, extents, reach)])]
    box = window[tuple(slice(r, r + E) for r, E in zip(reach, extents))]
    r_last, E_last = reach[-1], extents[-1]
    run_bins = bins[firsts]
    best = np.zeros(edges.size - 1)
    for b in range(best.size):
        dilated = np.full(box.shape, np.nan)  # M_b on the box
        key = None
        runs = run_bins == b
        for i, j in zip(firsts[runs], lasts[runs]):
            lead, lo, width = tuple(m[i, :-1]), m[i, -1], m[j, -1] - m[i, -1] + 1
            if (lead, width) != key:  # consecutive runs often share both (m, -m in 1D)
                key = (lead, width)
                # the box's rows shifted by the leading offsets, whole along the last axis
                rows = window[tuple(slice(r + l, r + l + E) for r, l, E in zip(reach, lead, extents))]
                peak = _sliding_max(rows, width)  # peak[..., k] = max rows[..., k : k + width]
            np.fmax(dilated, peak[..., r_last + lo : r_last + lo + E_last], out=dilated)
        top = np.fmax.reduce(dilated - box, axis=None)
        if top > 0:  # NaN when the bin has no pair; a zero of either sign leaves +0.0
            best[b] = top
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
