"""Seeded test-field generators.

One documented family underlies every calibrated constant: band-limited
Gaussian fields (hard spectral cutoff at N/8 unless stated, unit L^2 norm),
optionally confined to the central third of the box by the smooth base bump.
Everything is deterministic given (grid, seed).
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, GridFunction, ball_mask, per_axis
from .cutoffs import base_profile_values


def band_limited_field(
    grid: Grid,
    seed: int,
    cutoff: float | None = None,
    envelope: float | None = None,
    mean_zero: bool = True,
) -> GridFunction:
    """Real Gaussian field with spectral support |mode| <= cutoff, unit L^2 norm.

    envelope, when given, multiplies coefficients by exp(-(|m|/envelope)^2)
    for a smoother family (used where quadrature floors must stay small).
    """
    if cutoff is None:
        cutoff = grid.points_per_axis / 8
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(grid.shape)
    W = np.fft.fftn(white)
    m = np.fft.fftfreq(grid.points_per_axis) * grid.points_per_axis  # integer modes
    mag = np.sqrt(sum(x**2 for x in per_axis([m] * grid.dim)))
    W = np.where(mag <= cutoff, W, 0.0)
    if envelope is not None:
        W = W * np.exp(-((mag / envelope) ** 2))
    if mean_zero:
        W[(0,) * grid.dim] = 0.0
    vals = np.fft.ifftn(W).real
    norm = np.sqrt(np.sum(vals**2) * grid.cell_measure)
    if norm == 0:
        raise ValueError("degenerate field (seed produced zero spectrum)")
    return GridFunction(grid, vals / norm)


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
    """
    if center is None:
        center = grid.center
    if radius is None:
        radius = grid.box_length / 6.0
    rho = grid.periodic_distance(center)
    vals = base_profile_values(2.0 * rho / radius)  # == 1 inside 3r/4, 0 outside r
    if modulation_mode:
        phase = 0.0
        direction = np.zeros(grid.dim)
        direction[0] = 1.0
        if seed is not None:
            rng = np.random.default_rng(seed)
            phase = rng.uniform(0, 2 * np.pi)
            d = rng.standard_normal(grid.dim)
            direction = d / np.linalg.norm(d)
        disp = grid.periodic_displacement(center)
        carrier = sum(d * w for d, w in zip(disp, np.atleast_1d(direction)))
        vals = vals * np.cos(2 * np.pi * modulation_mode * carrier / grid.box_length + phase)
    norm = np.sqrt(np.sum(vals**2) * grid.cell_measure)
    return GridFunction(grid, vals / norm)


def confined_field(
    grid: Grid,
    seed: int,
    center=None,
    radius: float | None = None,
    cutoff: float | None = None,
    envelope: float | None = None,
    mean_zero: bool = False,
) -> GridFunction:
    """Band-limited field times the smooth bump window: compact support with
    rapidly decaying spectrum.  Normalized to unit L^2."""
    if center is None:
        center = grid.center
    if radius is None:
        radius = grid.box_length / 6.0
    f = band_limited_field(grid, seed, cutoff=cutoff, envelope=envelope)
    rho = grid.periodic_distance(center)
    window = base_profile_values(2.0 * rho / radius)
    vals = f.values * window
    if mean_zero:
        vals = vals - window * (np.sum(vals) / max(np.sum(window), 1e-300))
    norm = np.sqrt(np.sum(vals**2) * grid.cell_measure)
    if norm == 0:
        raise ValueError("degenerate confined field")
    return GridFunction(grid, vals / norm, ball_mask(grid, center, radius))


def moment_free_bump(
    grid: Grid,
    center=None,
    radius: float | None = None,
    order: int = 2,
) -> GridFunction:
    """Axis-derivative of the smooth bump: moments below `order` vanish, so
    tails of nonlocal operators applied to it decay fast enough for interior
    product-rule and decay studies.  Unit L^2 norm."""
    from .multipliers import derivative

    b = smooth_bump(grid, center=center, radius=radius)
    alpha = [0] * grid.dim
    alpha[0] = order
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
