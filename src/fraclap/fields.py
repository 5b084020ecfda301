"""Seeded test-field generators.

One documented family underlies every calibrated constant: band-limited
Gaussian fields (hard spectral cutoff at N/8 unless stated, unit L^2 norm),
optionally confined to the central third of the box by the smooth base bump.
Everything is deterministic given (grid, seed).
Spectra are cut and weighted on the rfftn half lattice, and windows and
bumps are evaluated only on the box their support can reach (support_box).
"""

from __future__ import annotations

import numpy as np

from .grid import DomainMask, Grid, GridFunction, per_axis
from .cutoffs import base_profile_values
from .multipliers import derivative


def band_limited_field(
    grid: Grid,
    seed: int,
    cutoff: float | None = None,
    envelope: float | None = None,
) -> GridFunction:
    """Real Gaussian field with spectral support |mode| <= cutoff, zero mean
    and unit L^2 norm.

    envelope, when given, multiplies coefficients by exp(-(|m|/envelope)^2)
    for a smoother family (used where quadrature floors must stay small).
    Drawn on the rfftn half lattice: the full complex lattice gives the
    same field to ~1e-15 of max|f|.
    """
    if cutoff is None:
        cutoff = grid.points_per_axis / 8
    N = grid.points_per_axis
    rng = np.random.default_rng(seed)
    W = np.fft.rfftn(rng.standard_normal(grid.shape))
    # integer modes per axis; the half lattice's last axis holds 0..N/2
    modes = [np.fft.fftfreq(N) * N for _ in range(grid.dim - 1)] + [np.arange(N // 2 + 1.0)]
    mag = np.sqrt(sum(x**2 for x in per_axis(modes)))
    keep = mag <= cutoff
    W[~keep] = 0.0
    if envelope is not None:  # only on kept modes: the rest are already 0
        W[keep] *= np.exp(-((mag[keep] / envelope) ** 2))
    del mag, keep
    W[(0,) * grid.dim] = 0.0
    vals = np.fft.irfftn(W, s=grid.shape, axes=tuple(range(grid.dim)))
    del W
    norm = np.sqrt(np.sum(vals**2) * grid.cell_measure)
    if norm == 0:
        raise ValueError("degenerate field (seed produced zero spectrum)")
    vals /= norm
    return GridFunction(grid, vals)


def smooth_bump(
    grid: Grid,
    center=None,
    radius: float | None = None,
    modulation_mode: int = 0,
    seed: int | None = None,
) -> GridFunction:
    """Compactly supported C-infinity bump of given support radius.

    modulation_mode > 0 multiplies by cos(2 pi k e.x/L + phase), giving a
    mean-free oscillatory bump whose moments are all spectrally small.

    The profile is evaluated only on the box of grid points with
    |x_a - center_a| < radius on every axis, and is exactly 0.0 elsewhere:
    there rho >= |x_a - center_a| >= radius, where the profile vanishes.
    Only the box is normalized (0/norm stays 0), so the pages of the zero
    array off the box are never written.
    """
    if center is None:
        center = grid.center
    if radius is None:
        radius = grid.box_length / 6.0
    box, disp = grid.support_box(center, radius)
    rho = np.sqrt(sum(d * d for d in disp))
    bump = base_profile_values(2.0 * rho / radius)  # == 1 inside 3r/4, 0 outside r
    if modulation_mode:
        phase = 0.0
        direction = np.zeros(grid.dim)
        direction[0] = 1.0
        if seed is not None:
            rng = np.random.default_rng(seed)
            phase = rng.uniform(0, 2 * np.pi)
            d = rng.standard_normal(grid.dim)
            direction = d / np.linalg.norm(d)
        carrier = sum(d * w for d, w in zip(disp, np.atleast_1d(direction)))
        bump = bump * np.cos(2 * np.pi * modulation_mode * carrier / grid.box_length + phase)
    vals = np.zeros(grid.shape)
    vals[box] = bump
    vals[box] /= np.sqrt(np.sum(vals**2) * grid.cell_measure)
    return GridFunction(grid, vals)


def confined_field(
    grid: Grid,
    seed: int,
    radius: float,
    cutoff: float | None = None,
    envelope: float | None = None,
) -> GridFunction:
    """Band-limited field times the smooth bump window about the box center:
    compact support with rapidly decaying spectrum.  Normalized to unit L^2.

    The window and the support mask (the ball of the given radius) are
    evaluated on the support box alone, where the window can be nonzero, and
    only the box is normalized; the norm sum still runs over the whole grid,
    in its order.
    """
    f = band_limited_field(grid, seed, cutoff=cutoff, envelope=envelope)
    box, disp = grid.support_box(grid.center, radius)
    rho = np.sqrt(sum(d * d for d in disp))
    window = base_profile_values(2.0 * rho / radius)
    vals = np.zeros(grid.shape)
    vals[box] = f.values[box] * window
    del f
    norm = np.sqrt(np.sum(vals**2) * grid.cell_measure)
    if norm == 0:
        raise ValueError("degenerate confined field")
    vals[box] /= norm
    support = np.zeros(grid.shape, dtype=bool)
    support[box] = rho < radius
    return GridFunction(grid, vals, DomainMask(grid, support))


def moment_free_bump(grid: Grid, radius: float) -> GridFunction:
    """Second axis-derivative of the smooth bump about the box center: moments
    of order 0 and 1 vanish, so tails of nonlocal operators applied to it
    decay fast enough for interior product-rule and decay studies.  Unit L^2
    norm."""
    b = smooth_bump(grid, radius=radius)
    alpha = [0] * grid.dim
    alpha[0] = 2
    d = derivative(b, alpha)
    norm = np.sqrt(np.sum(d.values**2) * grid.cell_measure)
    return GridFunction(grid, d.values / norm)


def sphere_valued_map(grid: Grid, m: int, seed: int, cutoff: float | None = None) -> list:
    """Smooth map into the unit sphere S^(m-1): normalized smooth fields with
    a constant offset keeping the norm bounded away from zero."""
    if m < 1:
        raise ValueError("target dimension must be >= 1")
    comps = []
    for i in range(m):
        f = band_limited_field(grid, seed + 1000 * i, cutoff=cutoff, envelope=cutoff)
        comps.append(f.values)
    offset = 3.0 * max(np.max(np.abs(c)) for c in comps)
    comps[0] = comps[0] + offset
    norm = np.sqrt(sum(c**2 for c in comps))
    return [GridFunction(grid, c / norm) for c in comps]
