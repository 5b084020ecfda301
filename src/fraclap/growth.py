"""Discrete iteration lemmas, Morrey-Campanato functionals, homogeneous-norm
localization, and Hoelder-exponent estimation.

The iteration lemmas are verified EXACTLY (double precision, 1e-12 relative
slack) for every hypothesis-satisfying sequence: no sampling, the hypothesis
and the conclusion are both finite closed-form sums once sequences carry an
explicit zero extension outside their index range.  They check a batch at
once: an AnnulusSequence holds one row per sequence (a 1-d array is a batch
of one), each sum is one masked (sequences, len(Ns), n) array program, and a
failure names the first failing sequence and its first failing N.  Each
hypothesis is stated once, shared by its generator and its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .cutoffs import evaluate
from .grid import DomainMask, GridFunction, annulus_mask, ball_mask, lp_norm, sorted_distinct
from .multipliers import frac_laplacian
from .singular import gagliardo_seminorm, gagliardo_seminorms

SLACK = 1e-12


class GrowthError(ValueError):
    def __init__(self, message: str, witness: Optional[int] = None, sequence: Optional[int] = None):
        super().__init__(message)
        self.witness = witness
        self.sequence = sequence


@dataclass(frozen=True)
class AnnulusSequence:
    """Nonnegative summable sequences a_k on [k_min, k_max], zero outside: one
    row per sequence, a 1-d array being a batch of one."""

    k_min: int
    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.ndim != 2 or v.size == 0:
            raise GrowthError("sequences must be a nonempty 1-d or 2-d array")
        if np.any(~np.isfinite(v)) or np.any(v < 0):
            raise GrowthError("sequence values must be finite and nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def k_max(self) -> int:
        return self.k_min + self.values.shape[1] - 1

    # The three sums of the iteration lemmas, one row per sequence and one
    # column per N in Ns.  Terms outside a sum get the weight 2^-inf = 0, and
    # each row is summed with its zeros, so an entry may differ from a per-N
    # slice sum in the last bits.

    def _rows(self, Ns) -> tuple:
        """(N, k) as a column and a row that broadcast to (len(Ns), n), and the
        sequences as (sequences, 1, n)."""
        return np.asarray(Ns)[:, None], np.arange(self.k_min, self.k_max + 1), self.values[:, None, :]

    def head_sums(self, Ns) -> np.ndarray:
        """sum_{k <= N} a_k for each N in Ns."""
        N, k, a = self._rows(Ns)
        return np.sum(np.where(k <= N, a, 0.0), axis=2)

    def weighted_tails(self, Ns, gamma: float, shift: int) -> np.ndarray:
        """sum_{k >= N+1} 2^(gamma (N + shift - k)) a_k for each N in Ns."""
        N, k, a = self._rows(Ns)
        weight = 2.0 ** np.where(k > N, gamma * (N + shift - k), -np.inf)
        return np.sum(weight * a, axis=2)

    def weighted_heads(self, Ns, gamma: float) -> np.ndarray:
        """sum_{k <= N} 2^(gamma (k - N)) a_k for each N in Ns."""
        N, k, a = self._rows(Ns)
        weight = 2.0 ** np.where(k <= N, gamma * (k - N), -np.inf)
        return np.sum(weight * a, axis=2)


def _check(Ns: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, message: str) -> None:
    """Raise at the first sequence with lhs > rhs beyond SLACK at some N in Ns,
    naming it and its first such N, the witness."""
    fails = lhs > rhs * (1.0 + SLACK)
    if np.any(fails):
        seq = int(np.argmax(np.any(fails, axis=1)))
        N = int(Ns[np.argmax(fails[seq])])
        raise GrowthError(f"{message} in sequence {seq} at N = {N}", witness=N, sequence=seq)


@dataclass
class GrowthReport:
    """A verified conclusion, one row per sequence: the exponent beta, the
    constants (each one value or one per sequence), and at each N in Ns the
    head sum sum_{k<=N} a_k below its bound Lam 2^(beta N)."""

    beta: np.ndarray
    constants: dict
    threshold_index: int
    Ns: np.ndarray
    head_sums: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        _check(self.Ns, self.head_sums, self.bounds, "conclusion verification failed")
        if not np.all((0 < self.beta) & (self.beta < 1)):
            raise GrowthError(f"growth exponent must lie in (0,1), got {self.beta}")
        for name, value in self.constants.items():
            value = np.asarray(value)
            if not np.all(np.isfinite(value) & (value > 0)):
                raise GrowthError(f"constant {name} must be finite positive")


# -- the two hypotheses, each shared by its generator and its check -------------

def _dr_sides(a: AnnulusSequence, Ns: np.ndarray, gamma: float, alpha: float) -> tuple:
    """Both sides of the dyadic-recursion hypothesis at each N in Ns, the right
    one over Lam:  sum_{k<=N} a_k <= Lam (sum_{k>N} 2^(gamma(N+1-k)) a_k + 2^(alpha N))."""
    return a.head_sums(Ns), a.weighted_tails(Ns, gamma, shift=1) + 2.0 ** (alpha * Ns)


def _four_term_sides(a: AnnulusSequence, Ns: np.ndarray, lam1: float, lam2: float, gamma: float,
                     L: int) -> tuple:
    """The left side of the four-term hypothesis at each N in Ns and the part of
    its right side that scales with a; the whole right side adds Lam2 2^(gamma N):
    sum_{k<=N} a_k <= 1/2 sum_{k<=N+L} a_k + Lam1 sum_{k<=N} 2^(gamma(k-N)) a_k
                      + Lam2 sum_{k>N} 2^(gamma(N-k)) a_k + Lam2 2^(gamma N)."""
    absorbed = 0.5 * a.head_sums(Ns + L) + lam1 * a.weighted_heads(Ns, gamma)
    return a.head_sums(Ns), absorbed + lam2 * a.weighted_tails(Ns, gamma, shift=0)


def driteration(a: AnnulusSequence, gamma: float, alpha: float, lam) -> GrowthReport:
    """Exact verification of the dyadic-recursion iteration lemma for each
    sequence, with lam one Lambda for all or one per sequence.

    Checks the hypothesis for every N <= 0, builds tau = Lam(1-2^-gamma)/(1+Lam)
    and the tau_k sequence from the proof, extracts the decay exponent as the
    largest theta with tau_k <= 2^(-theta k) on the realized range (halved for
    the safety margin, both recorded), and verifies sum_{k<=N} a_k <= L2 2^(beta N)
    for every N <= 0 in range.
    """
    lam = np.broadcast_to(np.asarray(lam, dtype=float), a.values.shape[:1])
    if gamma <= 0 or alpha <= 0 or np.any(lam <= 0):
        raise GrowthError("gamma, alpha, Lambda must be positive")
    Ns = np.arange(a.k_min, 1)
    heads, denom = _dr_sides(a, Ns, gamma, alpha)
    _check(Ns, heads, lam[:, None] * denom, "iteration hypothesis fails")
    tau = lam / (1.0 + lam) * (1.0 - 2.0**-gamma)
    q = tau + 2.0**-gamma
    k = np.arange(1, max(64, a.values.shape[1] + 8) + 1)
    theta_star = np.min(-np.log2(tau[:, None] * q[:, None] ** (k - 1)) / k, axis=1)
    beta_raw = np.minimum(theta_star, alpha) / 2.0
    beta = np.minimum(np.maximum(beta_raw / 2.0, 1e-9), 0.999)
    growth = 2.0 ** (beta[:, None] * Ns)
    peak = np.max(heads / growth, axis=1, initial=0.0)
    lam2 = np.where(peak > 0, peak, lam)
    constants = {"Lambda": lam, "Lambda_2": lam2, "tau": tau, "theta_star": theta_star, "beta_raw": beta_raw}
    return GrowthReport(beta, constants, 0, Ns, heads, lam2[:, None] * growth)


def iteration_reduce(
    a: AnnulusSequence, lam1: float, lam2: float, gamma: float, L: int
) -> GrowthReport:
    """The absorption form: verifies the four-term inequality for all N <= 0,
    computes K with 2^(-gamma K) <= 1/(4 Lam1), assembles Lam3 from the proof
    and delegates the shifted sequences to driteration for beta and Lam4."""
    if L < 1 or int(L) != L:
        raise GrowthError("L must be a positive integer")
    if lam1 <= 0 or lam2 <= 0 or gamma <= 0:
        raise GrowthError("Lambda_1, Lambda_2, gamma must be positive")
    Ns = np.arange(a.k_min, 1)
    heads, linear = _four_term_sides(a, Ns, lam1, lam2, gamma, L)
    _check(Ns, heads, linear + lam2 * 2.0 ** (gamma * Ns), "iteration hypothesis fails")
    K = max(1, math.ceil(math.log2(4.0 * lam1) / gamma))
    lam3 = 4.0 * lam1 * 2.0 ** (gamma * K) + 2.0 ** (gamma * K) * (
        2.0 ** (gamma * L + 2) + 4.0 * lam2
    ) + 2.0 * lam2 * 2.0 ** (gamma * K)
    # reduced inequality for every N <= -K, then shift indices so driteration
    # sees a hypothesis valid on all N <= 0
    Ns = np.arange(a.k_min, -K + 1)
    heads = heads[:, : Ns.size]
    rhs = lam3 * (a.weighted_tails(Ns, gamma, shift=0) + 2.0 ** (gamma * Ns))
    _check(Ns, heads, rhs, "reduced inequality fails")
    inner = driteration(AnnulusSequence(a.k_min + K, a.values), gamma, gamma, lam3)
    beta = inner.beta
    lam4 = inner.constants["Lambda_2"] * 2.0 ** (beta * K)
    constants = {"Lambda_1": lam1, "Lambda_2_input": lam2, "Lambda_3": lam3, "Lambda_4": lam4, "K": float(K)}
    return GrowthReport(beta, constants, -K, Ns, heads, lam4[:, None] * 2.0 ** (beta[:, None] * Ns))


# -- generators ---------------------------------------------------------------

# index range [K_MIN, K_MAX] of the generated sequences
K_MIN, K_MAX = -12, 4


def _draw(seeds, theta_max: float, zero_share: float) -> AnnulusSequence:
    """One row per seed on [K_MIN, K_MAX], each from its own default_rng(seed):
    theta ~ U(0.2, theta_max), then |N(0,1)| 2^(theta min(k, 0)) with each entry
    zeroed with probability zero_share (no draw when it is 0)."""
    ks = np.arange(K_MIN, K_MAX + 1)
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.2, theta_max)
        vals = np.abs(rng.standard_normal(ks.size)) * 2.0 ** (theta * np.minimum(ks, 0))
        if zero_share:
            vals[rng.random(ks.size) < zero_share] = 0.0
        rows.append(vals)
    return AnnulusSequence(K_MIN, np.array(rows))


def generate_driteration_input(seeds, gamma: float, alpha: float) -> tuple:
    """One arbitrary nonnegative tail per seed, then each Lambda inflated to the
    minimal value making its hypothesis hold (recorded); constructive, no
    rejection."""
    a = _draw(seeds, 1.5, 0.15)
    heads, denom = _dr_sides(a, np.arange(K_MIN, 1), gamma, alpha)
    return a, np.maximum(np.max(heads / denom, axis=1) * (1.0 + 1e-9), 1e-6)


def generate_iteration_input(seeds, lam1: float, lam2: float, gamma: float, L: int) -> AnnulusSequence:
    """One nonnegative tail per seed, rescaled to satisfy the four-term
    hypothesis: the inequality is affine in the scale (the absolute
    2^(gamma N) term is not), so the minimal feasible downscale is explicit."""
    a = _draw(seeds, 1.2, 0.0)
    Ns = np.arange(K_MIN, 1)
    heads, linear = _four_term_sides(a, Ns, lam1, lam2, gamma, L)
    deficit = heads - linear
    short = deficit > 0
    room = lam2 * 2.0 ** (gamma * Ns) / np.where(short, deficit, 1.0)
    scale = np.minimum(1.0, 0.9 * np.min(np.where(short, room, np.inf), axis=1))
    return AnnulusSequence(K_MIN, a.values * scale[:, None])


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

def _ball_masses(points, vals, rho, grid) -> tuple:
    """Per masked point x: sum of v^2 and of (v - mean)^2 over the masked
    points in B_rho(x), the mean taken over those points."""
    sum_sq, sums, cnt = _kernels.ball_scan(points, vals, rho, grid)
    return sum_sq, sum_sq - np.where(cnt > 0, sums**2 / np.maximum(cnt, 1), 0.0)


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
        mass, centered = (m * weight for m in _ball_masses(points, vals, rho, grid))
        jv = float(np.max(mass)) * rho**-lam
        mv = float(np.max(centered)) * rho**-lam
        if jv > best_J:
            best_J, at_J = jv, (int(np.argmax(mass)), rho)
        if mv > best_M:
            best_M, at_M = mv, (int(np.argmax(centered)), rho)
    return {"J": best_J, "M": best_M, "at_J": at_J, "at_M": at_M, "scales": rhos}


def _center_balls(E: DomainMask, r: float) -> list:
    """Balls of radius r about 9 evenly spaced points of E (fewer when E has
    fewer points)."""
    grid = E.grid
    sel = np.nonzero(E.values)
    picks = sorted_distinct(np.linspace(0, sel[0].size - 1, 9).astype(int))
    coords = grid.axis_coords()
    return [ball_mask(grid, [coords[sel[a][p]] for a in range(grid.dim)], r) for p in picks]


def holder_exponent_estimate(fields, E: DomainMask, R: float) -> list:
    """Three routes to the Hoelder exponent of each field v on E, over the
    four dyadic scales R, R/2, R/4, R/8.

    (a) log-log slope of sup_x [v]_{B_r(x), n/2} against r, the sup over 9
        evenly spaced centers in E;
    (b) growth fit of the Campanato mass sup_x int_{B_rho} |v - mean|^2,
        whose slope is n + 2 alpha;
    (c) slope of the modulus of continuity sup_{|x-y|<=delta} |v(x)-v(y)|,
        capped at 1 (grid-scale Lipschitz saturation).
    Returns, per field, the three estimates and the scales used; degenerate
    (flat) input yields the sentinel alpha = None entries.  The balls of (a)
    are built once for all fields.
    """
    grid = E.grid
    h = grid.spacing
    if R < 16 * h:
        raise GrowthError("R must resolve at least 4 dyadic scales (R >= 16h)")
    radii = [R / 2.0**j for j in range(4)]
    if radii[-1] < 4 * h:
        raise GrowthError("smallest scale under-resolved; raise R or refine")
    sel = E.values
    points = np.argwhere(sel)
    balls = [_center_balls(E, r) for r in radii]
    return [_holder_exponents(v, sel, points, radii, balls) for v in fields]


def _holder_exponents(v: GridFunction, sel, points, radii, balls) -> dict:
    grid = v.grid
    spread = float(np.max(v.values[sel]) - np.min(v.values[sel]))
    if spread <= 1e-14 * (np.max(np.abs(v.values)) + 1e-300):
        return {"alpha_seminorm": None, "alpha_campanato": None, "alpha_modulus": None,
                "flat": True}

    sems = []
    for at_r in balls:
        best = 0.0
        for B in at_r:
            best = max(best, gagliardo_seminorm(v, B, grid.dim / 2.0))
        sems.append(best)
    alpha_a = float(np.polyfit(np.log(radii), np.log(np.maximum(sems, 1e-300)), 1)[0])

    vals = np.asarray(v.values, dtype=float)[sel]
    masses = []
    for rho in radii:
        masses.append(float(np.max(_ball_masses(points, vals, rho, grid)[1])) * grid.cell_measure)
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


def seminorm_comparison_terms(fields, r: float, x, family) -> list:
    """Terms of the ball-seminorm comparison for each field v: [v]_{B_r, n/2}
    against eps [v]_{B_8r, n/2} plus the bracket

        ||Lap^{n/2} v||_{L2(B_16r)} + sum_{k=1..4} 2^(-n k) ||eta^k_{8r} Lap^{n/2} v||_2
        + sum_j 2^(-gamma |j|) [v]_{A~_j, n/2},

    with eps = gamma = 1/2, with the constant the bracket needs to absorb the
    remainder.  Masks and cutoffs are built once for all fields, and each
    mask's seminorms share one box convolution."""
    grid = fields[0].grid
    n = grid.dim
    s = n / 2.0
    lhs = gagliardo_seminorms(fields, ball_mask(grid, x, r), s)
    first = [0.5 * sem for sem in gagliardo_seminorms(fields, ball_mask(grid, x, 8.0 * r), s)]
    laps = [frac_laplacian(v, s) for v in fields]
    outer = ball_mask(grid, x, 16.0 * r)
    bracket = [lp_norm(lap, 2, outer) for lap in laps]
    for k in range(1, 5):
        if 2.0 ** (k + 1) * 8.0 * r > 0.5 * grid.box_length:
            break
        eta = evaluate(family, k, 8.0 * r, x, grid).values
        for i, lap in enumerate(laps):
            bracket[i] += 2.0 ** (-n * k) * lp_norm(GridFunction(grid, eta * lap.values), 2)
    h = grid.spacing
    j = 0
    while 2.0 ** (j - 1) * r >= 4 * h and j >= -40:
        j -= 1
    j_min = j + 1
    j_max = 0
    while 2.0 ** (j_max + 2) * r <= 0.45 * grid.box_length:
        j_max += 1
    ann_sum = [0.0] * len(fields)
    for j in range(j_min, j_max + 1):
        A = annulus_mask(grid, x, 2.0 ** (j - 1) * r, 2.0 ** (j + 1) * r)
        for i, sem in enumerate(gagliardo_seminorms(fields, A, s)):
            ann_sum[i] += 2.0 ** (-0.5 * abs(j)) * sem
    out = []
    for lhs_i, first_i, bracket_i, ann_i in zip(lhs, first, bracket, ann_sum):
        bracket_i += ann_i
        needed = (lhs_i - first_i) / bracket_i if bracket_i > 0 else 0.0
        out.append({"lhs": lhs_i, "eps_term": first_i, "bracket": bracket_i, "needed_constant": needed})
    return out


def homogeneous_norm_localization(fields, r: float, x, s: float) -> list:
    """[v]^2_{B_r, s} against C sum_{k <= -1} [v]^2_{A_k, s} for each field v,
    with the dyadic annuli A_k = B_{2^{k+1} r} minus closure(B_{2^{k-1} r})
    resolved down to 8 grid spacings.  Masks are built once for all fields,
    and each mask's seminorms share one box convolution."""
    grid = fields[0].grid
    h = grid.spacing
    ks = []
    k = -1
    while 2.0 ** (k + 1) * r >= 8 * h:
        ks.append(k)
        k -= 1
    if len(ks) < 2:
        raise GrowthError("too few resolvable annuli")
    lhs = [sem**2 for sem in gagliardo_seminorms(fields, ball_mask(grid, x, r), s)]
    terms = [[] for _ in fields]
    for k in ks:
        A = annulus_mask(grid, x, 2.0 ** (k - 1) * r, 2.0 ** (k + 1) * r)
        for t, sem in zip(terms, gagliardo_seminorms(fields, A, s)):
            t.append(sem**2)
    out = []
    for lhs_i, terms_i in zip(lhs, terms):
        rhs = float(np.sum(terms_i))
        out.append({
            "lhs": lhs_i,
            "rhs": rhs,
            "ratio": lhs_i / rhs if rhs > 0 else (0.0 if lhs_i == 0 else math.inf),
            "k_list": ks,
            "terms": terms_i,
        })
    return out
