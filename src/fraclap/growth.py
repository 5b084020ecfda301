"""Discrete iteration lemmas, Morrey-Campanato functionals, homogeneous-norm
localization, and Hoelder-exponent estimation.

The iteration lemmas are verified EXACTLY (double precision, 1e-12 relative
slack) for every hypothesis-satisfying sequence: no sampling, the hypothesis
and the conclusion are both finite closed-form sums once sequences carry an
explicit zero extension outside their index range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .grid import DomainMask, GridFunction, annulus_mask, ball_mask, lp_norm
from .multipliers import frac_laplacian
from .singular import gagliardo_seminorm

SLACK = 1e-12


class GrowthError(ValueError):
    def __init__(self, message: str, witness: Optional[int] = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class AnnulusSequence:
    """Nonnegative summable sequence a_k on [k_min, k_max], zero outside."""

    k_min: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise GrowthError("sequence must be a nonempty 1-d array")
        if np.any(~np.isfinite(v)) or np.any(v < 0):
            raise GrowthError("sequence values must be finite and nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def k_max(self) -> int:
        return self.k_min + self.values.size - 1

    def at(self, k: int) -> float:
        if self.k_min <= k <= self.k_max:
            return float(self.values[k - self.k_min])
        return 0.0

    def head_sum(self, N: int) -> float:
        """sum_{k <= N} a_k."""
        if N < self.k_min:
            return 0.0
        hi = min(N, self.k_max)
        return float(np.sum(self.values[: hi - self.k_min + 1]))

    def weighted_tail(self, N: int, gamma: float, shift: int = 1) -> float:
        """sum_{k >= N+1} 2^(gamma (N + shift - k)) a_k."""
        lo = max(N + 1, self.k_min)
        if lo > self.k_max:
            return 0.0
        ks = np.arange(lo, self.k_max + 1)
        return float(np.sum(2.0 ** (gamma * (N + shift - ks)) * self.values[lo - self.k_min :]))

    def weighted_head(self, N: int, gamma: float) -> float:
        """sum_{k <= N} 2^(gamma (k - N)) a_k."""
        hi = min(N, self.k_max)
        if hi < self.k_min:
            return 0.0
        ks = np.arange(self.k_min, hi + 1)
        return float(np.sum(2.0 ** (gamma * (ks - N)) * self.values[: hi - self.k_min + 1]))


def sequence_to_csv(a: AnnulusSequence, path) -> None:
    """Write (k, a_k) rows."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "a_k"])
        for i, v in enumerate(a.values):
            w.writerow([a.k_min + i, repr(float(v))])


def sequence_from_csv(path) -> AnnulusSequence:
    """Read a (k, a_k) table; indices must be consecutive."""
    import csv

    ks, vals = [], []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            ks.append(int(row["k"]))
            vals.append(float(row["a_k"]))
    if not ks:
        raise GrowthError("empty sequence file")
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise GrowthError("sequence indices must be consecutive")
    return AnnulusSequence(ks[0], np.asarray(vals))


@dataclass
class GrowthReport:
    beta: float
    constants: dict
    threshold_index: int
    table: list = field(default_factory=list)

    def __post_init__(self):
        if not (0 < self.beta < 1):
            raise GrowthError(f"growth exponent must lie in (0,1), got {self.beta}")
        for name, value in self.constants.items():
            if not (np.isfinite(value) and value > 0):
                raise GrowthError(f"constant {name} must be finite positive")


def _check_hypothesis_dr(a: AnnulusSequence, gamma: float, alpha: float, lam: float) -> None:
    """Hypothesis: sum_{k<=N} a_k <= Lam (sum_{k>N} 2^(gamma(N+1-k)) a_k + 2^(alpha N))
    for every N <= 0 (automatic below the range)."""
    for N in range(a.k_min, 1):
        lhs = a.head_sum(N)
        rhs = lam * (a.weighted_tail(N, gamma, shift=1) + 2.0 ** (alpha * N))
        if lhs > rhs * (1.0 + SLACK):
            raise GrowthError(f"iteration hypothesis fails at N = {N}", witness=N)


def driteration(a: AnnulusSequence, gamma: float, alpha: float, lam: float) -> GrowthReport:
    """Exact verification of the dyadic-recursion iteration lemma.

    Checks the hypothesis for every N <= 0, builds tau = Lam(1-2^-gamma)/(1+Lam)
    and the tau_k sequence from the proof, extracts the decay exponent as the
    largest theta with tau_k <= 2^(-theta k) on the realized range (halved for
    the safety margin, both recorded), and verifies sum_{k<=N} a_k <= L2 2^(beta N)
    for every N <= 0 in range.
    """
    if gamma <= 0 or alpha <= 0 or lam <= 0:
        raise GrowthError("gamma, alpha, Lambda must be positive")
    _check_hypothesis_dr(a, gamma, alpha, lam)
    tau = lam / (1.0 + lam) * (1.0 - 2.0**-gamma)
    q = tau + 2.0**-gamma
    k_range = max(64, a.values.size + 8)
    taus = [1.0] + [tau * q ** (k - 1) for k in range(1, k_range + 1)]
    theta_star = min(-math.log2(taus[k]) / k for k in range(1, k_range + 1))
    beta_raw = min(theta_star, alpha) / 2.0
    beta = min(max(beta_raw / 2.0, 1e-9), 0.999)
    ratios = [a.head_sum(N) / 2.0 ** (beta * N) for N in range(a.k_min, 1)]
    lam2 = max(ratios) if ratios and max(ratios) > 0 else lam
    table = []
    for N in range(a.k_min, 1):
        lhs = a.head_sum(N)
        bound = lam2 * 2.0 ** (beta * N)
        if lhs > bound * (1.0 + SLACK):
            raise GrowthError(f"conclusion verification failed at N = {N}", witness=N)
        table.append({"N": N, "head_sum": lhs, "bound": bound})
    return GrowthReport(
        beta=beta,
        constants={"Lambda": lam, "Lambda_2": lam2, "tau": tau, "theta_star": theta_star,
                   "beta_raw": beta_raw},
        threshold_index=0,
        table=table,
    )


def iteration_reduce(
    a: AnnulusSequence, lam1: float, lam2: float, gamma: float, L: int
) -> GrowthReport:
    """The absorption form: verifies the four-term inequality for all N <= 0,
    computes K with 2^(-gamma K) <= 1/(4 Lam1), assembles Lam3 from the proof
    and delegates the shifted sequence to driteration for beta and Lam4."""
    if L < 1 or int(L) != L:
        raise GrowthError("L must be a positive integer")
    if lam1 <= 0 or lam2 <= 0 or gamma <= 0:
        raise GrowthError("Lambda_1, Lambda_2, gamma must be positive")
    for N in range(a.k_min, 1):
        lhs = a.head_sum(N)
        rhs = (
            0.5 * a.head_sum(N + L)
            + lam1 * a.weighted_head(N, gamma)
            + lam2 * a.weighted_tail(N, gamma, shift=0)
            + lam2 * 2.0 ** (gamma * N)
        )
        if lhs > rhs * (1.0 + SLACK):
            raise GrowthError(f"iteration hypothesis fails at N = {N}", witness=N)
    K = max(1, math.ceil(math.log2(4.0 * lam1) / gamma))
    lam3 = 4.0 * lam1 * 2.0 ** (gamma * K) + 2.0 ** (gamma * K) * (
        2.0 ** (gamma * L + 2) + 4.0 * lam2
    ) + 2.0 * lam2 * 2.0 ** (gamma * K)
    # reduced inequality for every N <= -K, then shift indices so driteration
    # sees a hypothesis valid on all N <= 0
    for N in range(a.k_min, -K + 1):
        lhs = a.head_sum(N)
        rhs = lam3 * (a.weighted_tail(N, gamma, shift=0) + 2.0 ** (gamma * N))
        if lhs > rhs * (1.0 + SLACK):
            raise GrowthError(f"reduced inequality fails at N = {N}", witness=N)
    shifted = AnnulusSequence(a.k_min + K, a.values)
    inner = driteration(shifted, gamma, gamma, lam3)
    beta = inner.beta
    lam4 = inner.constants["Lambda_2"] * 2.0 ** (beta * K)
    table = []
    for N in range(a.k_min, -K + 1):
        lhs = a.head_sum(N)
        bound = lam4 * 2.0 ** (beta * N)
        if lhs > bound * (1.0 + SLACK):
            raise GrowthError(f"conclusion verification failed at N = {N}", witness=N)
        table.append({"N": N, "head_sum": lhs, "bound": bound})
    return GrowthReport(
        beta=beta,
        constants={"Lambda_1": lam1, "Lambda_2_input": lam2, "Lambda_3": lam3, "Lambda_4": lam4,
                   "K": float(K)},
        threshold_index=-K,
        table=table,
    )


# -- generators ---------------------------------------------------------------

def generate_driteration_input(
    seed: int, gamma: float, alpha: float, k_min: int = -12, k_max: int = 4
) -> tuple:
    """Arbitrary nonnegative tail, then Lambda inflated to the minimal value
    making the hypothesis hold (recorded); constructive, no rejection."""
    rng = np.random.default_rng(seed)
    ks = np.arange(k_min, k_max + 1)
    theta = rng.uniform(0.2, 1.5)
    vals = np.abs(rng.standard_normal(ks.size)) * 2.0 ** (theta * np.minimum(ks, 0))
    vals[rng.random(ks.size) < 0.15] = 0.0
    a = AnnulusSequence(k_min, vals)
    lam_min = 0.0
    for N in range(k_min, 1):
        denom = a.weighted_tail(N, gamma, shift=1) + 2.0 ** (alpha * N)
        lam_min = max(lam_min, a.head_sum(N) / denom)
    lam = max(lam_min * (1.0 + 1e-9), 1e-6)
    return a, lam


def generate_iteration_input(
    seed: int, lam1: float, lam2: float, gamma: float, L: int, k_min: int = -12, k_max: int = 4
) -> AnnulusSequence:
    """Nonnegative tail rescaled to satisfy the four-term hypothesis: the
    inequality is affine in the scale (the absolute 2^(gamma N) term is not),
    so the minimal feasible downscale is explicit."""
    rng = np.random.default_rng(seed)
    ks = np.arange(k_min, k_max + 1)
    theta = rng.uniform(0.2, 1.2)
    vals = np.abs(rng.standard_normal(ks.size)) * 2.0 ** (theta * np.minimum(ks, 0))
    a = AnnulusSequence(k_min, vals)
    c_max = math.inf
    for N in range(k_min, 1):
        linear = (
            0.5 * a.head_sum(N + L)
            + lam1 * a.weighted_head(N, gamma)
            + lam2 * a.weighted_tail(N, gamma, shift=0)
        )
        deficit = a.head_sum(N) - linear
        if deficit > 0:
            c_max = min(c_max, lam2 * 2.0 ** (gamma * N) / deficit)
    scale = 1.0 if math.isinf(c_max) else 0.9 * c_max
    return AnnulusSequence(k_min, vals * min(1.0, scale))


def counterexample_driteration(witness: int, gamma: float, alpha: float, lam: float) -> AnnulusSequence:
    """A sequence whose hypothesis first fails exactly at N = witness: a single
    spike there, zeros elsewhere (head sums vanish below the spike)."""
    if witness > 0:
        raise GrowthError("witness must be <= 0")
    k_min = witness - 3
    vals = np.zeros(1 - k_min + 1)
    vals[witness - k_min] = lam * 2.0 ** (alpha * witness) * 10.0 + 1.0
    return AnnulusSequence(k_min, vals)


# -- Morrey-Campanato ---------------------------------------------------------

def campanato_functionals(v: GridFunction, D: DomainMask, lam: float, R: float) -> dict:
    """sup over centers x in D and dyadic rho in {R, R/2, ... >= 4h} of
    rho^-lam * int_{D cap B_rho(x)} |v|^2 (J) and the mean-shifted variant (M),
    with the attaining (x, rho)."""
    grid = v.grid
    h = grid.spacing
    if R < 8 * h:
        raise GrowthError("R must be at least 8 grid spacings")
    if lam <= 0:
        raise GrowthError("lambda must be positive")
    points = np.argwhere(D.values)
    vals = np.asarray(v.values, dtype=float)[D.values]
    weight = grid.cell_measure
    rhos = []
    rho = R
    while rho >= 4 * h:
        rhos.append(rho)
        rho /= 2.0
    best_J, best_M = 0.0, 0.0
    at_J = at_M = (None, None)
    for rho in rhos:
        sum_sq, sums, cnt = _kernels.ball_scan(points, vals, rho, grid)
        mass = sum_sq * weight
        centered = (sum_sq - np.where(cnt > 0, sums**2 / np.maximum(cnt, 1), 0.0)) * weight
        jv = float(np.max(mass)) * rho**-lam
        mv = float(np.max(centered)) * rho**-lam
        if jv > best_J:
            best_J, at_J = jv, (int(np.argmax(mass)), rho)
        if mv > best_M:
            best_M, at_M = mv, (int(np.argmax(centered)), rho)
    return {"J": best_J, "M": best_M, "at_J": at_J, "at_M": at_M, "scales": rhos}


def _ball_seminorm_sup(v: GridFunction, E: DomainMask, r: float, s: float, n_centers: int = 9) -> float:
    """sup over sampled centers in E of the Gagliardo seminorm on B_r."""
    grid = v.grid
    sel = np.nonzero(E.values)
    count = sel[0].size
    picks = np.unique(np.linspace(0, count - 1, n_centers).astype(int))
    best = 0.0
    for p in picks:
        center = [grid.axis_coords()[sel[a][p]] for a in range(grid.dim)]
        best = max(best, gagliardo_seminorm(v, ball_mask(grid, center, r), s))
    return best


def holder_exponent_estimate(
    v: GridFunction,
    E: DomainMask,
    R: float,
    scales: int = 4,
    n_centers: int = 9,
) -> dict:
    """Three routes to the Hoelder exponent of v on E.

    (a) log-log slope of sup_x [v]_{B_r(x), n/2} against r;
    (b) growth fit of the Campanato mass sup_x int_{B_rho} |v - mean|^2,
        whose slope is n + 2 alpha;
    (c) slope of the modulus of continuity sup_{|x-y|<=delta} |v(x)-v(y)|,
        capped at 1 (grid-scale Lipschitz saturation).
    Returns the three estimates and the scales used; degenerate (flat) input
    yields the sentinel alpha = None entries.
    """
    grid = v.grid
    h = grid.spacing
    if R < 16 * h:
        raise GrowthError("R must resolve at least 4 dyadic scales (R >= 16h)")
    radii = [R / 2.0**j for j in range(scales)]
    if radii[-1] < 4 * h:
        raise GrowthError("smallest scale under-resolved; reduce scales or refine")
    sel = E.values
    spread = float(np.max(v.values[sel]) - np.min(v.values[sel]))
    if spread <= 1e-14 * (np.max(np.abs(v.values)) + 1e-300):
        return {"alpha_seminorm": None, "alpha_campanato": None, "alpha_modulus": None,
                "flat": True}

    sems = [_ball_seminorm_sup(v, E, r, grid.dim / 2.0, n_centers) for r in radii]
    alpha_a = float(np.polyfit(np.log(radii), np.log(np.maximum(sems, 1e-300)), 1)[0])

    points = np.argwhere(sel)
    vals = np.asarray(v.values, dtype=float)[sel]
    masses = []
    for rho in radii:
        sum_sq, sums, cnt = _kernels.ball_scan(points, vals, rho, grid)
        centered = (sum_sq - np.where(cnt > 0, sums**2 / np.maximum(cnt, 1), 0.0))
        masses.append(float(np.max(centered)) * grid.cell_measure)
    slope_b = float(np.polyfit(np.log(radii), np.log(np.maximum(masses, 1e-300)), 1)[0])
    alpha_b = (slope_b - grid.dim) / 2.0

    edges = np.array([0.0] + [r for r in sorted(radii)])
    best = _kernels.modulus_scan(points, vals, edges, grid)
    mods = np.maximum.accumulate(best)  # W(delta) is nondecreasing
    good = mods > 0
    alpha_c = float(np.polyfit(np.log(edges[1:][good]), np.log(mods[good]), 1)[0])
    alpha_c = min(alpha_c, 1.0)
    return {
        "alpha_seminorm": alpha_a,
        "alpha_campanato": alpha_b,
        "alpha_modulus": alpha_c,
        "flat": False,
        "scales": radii,
    }


def seminorm_comparison_terms(
    v: GridFunction,
    r: float,
    x,
    family,
    eps: float = 0.5,
    gamma_decay: float = 0.5,
    k_terms: int = 4,
) -> dict:
    """Terms of the ball-seminorm comparison: [v]_{B_r, n/2} against
    eps [v]_{B_8r, n/2} plus the bracket

        ||Lap^{n/2} v||_{L2(B_16r)} + sum_k 2^(-n k) ||eta^k_{8r} Lap^{n/2} v||_2
        + sum_j 2^(-gamma |j|) [v]_{A~_j, n/2},

    returning the constant the bracket needs to absorb the remainder."""
    from .cutoffs import evaluate as _eval_cutoff

    grid = v.grid
    n = grid.dim
    s = n / 2.0
    lhs = gagliardo_seminorm(v, ball_mask(grid, x, r), s)
    first = eps * gagliardo_seminorm(v, ball_mask(grid, x, 8.0 * r), s)
    lap = frac_laplacian(v, s)
    bracket = lp_norm(lap, 2, ball_mask(grid, x, 16.0 * r))
    for k in range(1, k_terms + 1):
        if 2.0 ** (k + 1) * 8.0 * r > 0.5 * grid.box_length:
            break
        eta = _eval_cutoff(family, k, 8.0 * r, x, grid, attach_mask=False)
        bracket += 2.0 ** (-n * k) * lp_norm(GridFunction(grid, eta.values * lap.values), 2)
    h = grid.spacing
    j = 0
    while 2.0 ** (j - 1) * r >= 4 * h and j >= -40:
        j -= 1
    j_min = j + 1
    j_max = 0
    while 2.0 ** (j_max + 2) * r <= 0.45 * grid.box_length:
        j_max += 1
    ann_sum = 0.0
    for j in range(j_min, j_max + 1):
        A = annulus_mask(grid, x, 2.0 ** (j - 1) * r, 2.0 ** (j + 1) * r)
        ann_sum += 2.0 ** (-gamma_decay * abs(j)) * gagliardo_seminorm(v, A, s)
    bracket += ann_sum
    needed = (lhs - first) / bracket if bracket > 0 else 0.0
    return {"lhs": lhs, "eps_term": first, "bracket": bracket, "needed_constant": needed}


def homogeneous_norm_localization(
    v: GridFunction, r: float, x, s: float, min_radius_cells: int = 8
) -> dict:
    """[v]^2_{B_r, s} against C sum_{k <= -1} [v]^2_{A_k, s} with the dyadic
    annuli A_k = B_{2^{k+1} r} minus closure(B_{2^{k-1} r}) resolved down to
    min_radius_cells grid spacings."""
    grid = v.grid
    h = grid.spacing
    ks = []
    k = -1
    while 2.0 ** (k + 1) * r >= min_radius_cells * h:
        ks.append(k)
        k -= 1
    if len(ks) < 2:
        raise GrowthError("too few resolvable annuli")
    lhs = gagliardo_seminorm(v, ball_mask(grid, x, r), s) ** 2
    terms = []
    for k in ks:
        A = annulus_mask(grid, x, 2.0 ** (k - 1) * r, 2.0 ** (k + 1) * r)
        terms.append(gagliardo_seminorm(v, A, s) ** 2)
    rhs = float(np.sum(terms))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf),
        "k_list": ks,
        "terms": terms,
    }
