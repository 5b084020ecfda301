"""Experiment runner: every estimate-level experiment is an id, runs seeded and
deterministic, and emits a JSON report plus CSV tables.

    fraclap list
    fraclap run <experiment> [--grid N --box L --s S --seed K --scales a b c
                              --out DIR --constants FILE --m1 ID --m2 ID]
    fraclap calibrate <suite> --out constants.json [--seed K]

Each experiment is a body that fills in the report the registry hands it,
registered with the dimension it pins and the defaults of the run options it
reads:

    @experiment("hodge", dim=1, grid=1024, box=1.0, s=0.5)
    def run_hodge(cfg, rep): ...

`fraclap run` refuses the other options, since a report echoes its config;
--seed and --out apply to all.

Exit codes: 0 when every verdict in the report passed, 1 when a verdict
failed, 2 for a config error (including an option the experiment does not
read) or an unknown experiment, 3 for a numerical failure (a solver that did
not converge); no report is written for 2 or 3.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from .compensation import (
    DEFECT_ROUNDOFF, DEFECT_SUP, SphereValuedMap, defect_scan, fourier_domination_check, h_norm_ratio,
    structure_identity_residual,
)
from .cutoffs import base_profile_values, build_family, evaluate, norm_scaling_experiment
from .fields import band_limited_field, confined_field, moment_free_bump, smooth_bump, sphere_valued_map
from .grid import Grid, GridFunction, ball_mask, l2_inner, lp_norm
from .growth import (
    GrowthError, campanato_functionals, counterexample_driteration, driteration, generate_driteration_input,
    generate_iteration_input, holder_exponent_estimate, homogeneous_norm_localization, iteration_reduce,
    seminorm_comparison_terms,
)
from .hodge import (
    disjoint_pairing_decay, harmonic_decay_check, hodge_decompose, local_norm_recovery,
    localization_representative, lower_order_product_norm,
)
from .lorentz import (
    decreasing_rearrangement, lorentz_norm, lorentz_norm_profile, product_rearrangement_gaps,
    weak_norm_bound_margin, weighted_power_profile,
)
from .meanvalue import annulus_mv_poincare_ratio, mv_poincare_ratio, poincare_constant, polynomial_gap_scan
from .multipliers import frac_laplacian, parse_symbol_id, polynomial_annihilation, product_rule_residual
from .reporting import (
    CALIBRATION_GRID,
    SLACK,
    Report,
    ReportError,
    load_constants,
    regression_bound,
    write_constants,
)
from .singular import calibrate_cns, equivalence_ratio, frac_lap_pointwise
from .solve import NumericalError

REGISTRY: dict = {}


# run options an experiment may read; --seed and --out apply to every run
RUN_OPTIONS = ("grid", "box", "s", "scales", "constants", "m1", "m2")


def experiment(name: str, dim=None, **defaults):
    """Register the body `fn(cfg, rep)` of experiment `name`: the registered
    run hands it a Report named `name`, configured as `cfg` plus the `dim`
    the experiment pins (if any), and returns that report.  `defaults` maps
    each RUN_OPTIONS key the body reads to the value that runs when the
    option is not given, and `main` refuses any other option given."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(cfg) -> Report:
            rep = Report(name, dict(cfg) if dim is None else {**cfg, "dim": dim})
            fn(cfg, rep)
            return rep

        run.defaults = defaults
        REGISTRY[name] = run
        return run

    return wrap


def _grid(cfg, dim, n) -> Grid:
    return Grid(dim, n, cfg["box"])


def _check_order(s, upper=math.inf) -> None:
    """Refuse an order outside (0, upper), the library's range, as a config
    error before any work."""
    if not 0 < s < upper:
        raise ValueError(f"--s must lie in (0, {upper:g}), got {s:g}")


def _sup(stats) -> dict:
    """Sup over a sequence of samples of each named statistic they hold."""
    sup: dict = {}
    for sample in stats:
        for key, value in sample.items():
            sup[key] = max(sup[key], value) if key in sup else value
    return sup


def per_seed(sample):
    """The `samples` form of a statistic drawn one seed at a time."""
    return lambda seeds: [sample(seed) for seed in seeds]


def split_seed_regression(rep, samples, cal_seeds, fresh_seeds, verdicts, floor=0.0, constants=None):
    """Calibrate-then-regress: `verdicts` maps a verdict name to a statistic of
    each sample, whose sup over `fresh_seeds` must stay within
    max(0, its sup over `cal_seeds`) * SLACK + floor.  `samples(seeds)`
    returns the statistics of each seed in turn; it is called once, with the
    calibration seeds and then the fresh ones, so a study can evaluate all
    its samples together.  With a constants payload the bound is the file's
    `<experiment>/<statistic>` value times SLACK instead, recorded in
    `rep.constants_used`, and only the fresh seeds are sampled.  Returns
    (calibration sups or None, fresh sups).
    """
    cal_seeds, fresh_seeds = list(cal_seeds), list(fresh_seeds)
    if constants is None:
        stats = samples(cal_seeds + fresh_seeds)
        cal = _sup(stats[: len(cal_seeds)])
        bounds = {verdict: max(0.0, cal[stat]) * SLACK + floor for verdict, stat in verdicts.items()}
    else:
        stats = samples(fresh_seeds)
        cal, bounds = None, {}
        for verdict, stat in verdicts.items():
            name = f"{rep.experiment}/{stat}"
            bounds[verdict] = regression_bound(constants, name)
            rep.constants_used.append({"name": name, "bound": bounds[verdict]})
    fresh = _sup(stats[len(stats) - len(fresh_seeds) :])
    for verdict, stat in verdicts.items():
        rep.add_verdict(verdict, fresh[stat] <= bounds[verdict], fresh[stat], bounds[verdict])
    return cal, fresh


# -- acceptance experiments ---------------------------------------------------

@experiment("partition-of-unity", scales=(10,))
def run_partition(cfg, rep):
    depth, *rest = cfg["scales"]
    if rest or not float(depth).is_integer() or depth < 1:
        raise ValueError(f"--scales takes one integer depth >= 1, got {list(cfg['scales'])}")
    depth = int(depth)
    rep.config["depth"] = depth
    fam = build_family(depth)  # build_family already asserts the invariants
    rho = np.linspace(0.0, 2.0**depth, 200001)
    dev = float(np.max(np.abs(fam.partial(depth, rho, derivatives=False) - 1.0)))
    rep.add_verdict("partition_identity_on_ball", dev <= 1e-12, dev, 1e-12)
    worst = 0.0
    for k in range(1, depth + 1):
        grid_rho = np.linspace(0.0, 2.0 ** (depth + 1), 100001)
        vals = fam.ring(k, grid_rho, derivatives=False)
        outside = (grid_rho <= 2.0 ** (k - 1)) | (grid_rho >= 2.0 ** (k + 1))
        worst = max(worst, float(np.max(np.abs(vals[outside]))))
    rep.add_verdict("support_annuli_exact", worst <= 1e-14, worst, 1e-14)
    rep.add_table("deviation", [{"depth": depth, "partition_dev": dev, "support_leak": worst}])


@experiment("cutoff-norm-scaling", box=1.0)
def run_cutoff_scaling(cfg, rep):
    fam = build_family(6)
    cases = [
        {"dim": 1, "grid": 8192, "s": 0.5, "p_prime": math.inf, "r": 1.0 / 160, "k": [1, 2, 3, 4]},
        {"dim": 2, "grid": 1024, "s": 1.0, "p_prime": 2.0, "r": 1.0 / 72, "k": [1, 2, 3, 4]},
    ]
    rows = []
    for case in cases:
        g = _grid(cfg, dim=case["dim"], n=case["grid"])
        out = norm_scaling_experiment(fam, g, case["s"], case["p_prime"], case["k"], case["r"])
        target = out["target"]
        tol = 0.1 * abs(target) if target != 0 else 0.1
        ok = abs(out["slope"] - target) <= tol
        rep.add_verdict(
            f"slope_n{case['dim']}_s{case['s']:g}_p{case['p_prime']:g}", ok, out["slope"], target
        )
        rows.append({"dim": case["dim"], "s": case["s"], "slope": out["slope"], "target": target})
    rep.add_table("slopes", rows)


@experiment("definition-equivalence", dim=1, grid=4096, box=1.0, s=0.5)
def run_definition_equivalence(cfg, rep):
    t0 = time.time()
    g = _grid(cfg, dim=1, n=cfg["grid"])
    s = cfg["s"]
    const = calibrate_cns(g, s)
    bump = confined_field(g, cfg["seed"] + 11, radius=g.box_length / 6, cutoff=40, envelope=20)
    spectral = frac_laplacian(bump, s)
    inner = np.nonzero(ball_mask(g, g.center, g.box_length / 5).values)[0]
    vals = frac_lap_pointwise(bump, s, (inner,), const)
    err = float(np.max(np.abs(vals - spectral.values[inner])) / np.max(np.abs(spectral.values)))
    elapsed = time.time() - t0
    rep.add_verdict("interior_linf_relative", err <= 1e-3, err, 1e-3)
    rep.add_verdict("runtime_seconds", elapsed <= 10.0, elapsed, 10.0)
    rep.constants_used.append({"name": const.name, "value": const.value, "provenance": const.provenance})
    rep.add_table("error", [{"points": len(inner), "linf_rel": err, "c_ns": const.value}])


@experiment("equivalence-ratio", dim=1, grid=2048, box=1.0, s=0.25)
def run_equivalence_ratio(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    s = cfg["s"]
    ratios = []
    for k in range(10):
        f = confined_field(g, cfg["seed"] + k, radius=g.box_length / 6, cutoff=48, envelope=24)
        ratios.append(equivalence_ratio(f, s))
    spread = max(ratios) / min(ratios)
    rep.add_verdict("max_over_min", spread <= 1.02, spread, 1.02)
    rep.add_table("ratios", [{"seed": cfg["seed"] + k, "ratio": r} for k, r in enumerate(ratios)])


@experiment("hodge", dim=1, grid=1024, box=1.0, s=0.5)
def run_hodge(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    s = cfg["s"]
    _check_order(s)
    D = ball_mask(g, g.center, g.box_length / 6)
    rows = []
    worst = {"residual": 0.0, "orthogonality": 0.0, "factor": 0.0, "iterations": 0}
    for k in range(20):
        f = band_limited_field(g, cfg["seed"] + k, cutoff=g.points_per_axis / 8)
        dec = hodge_decompose(f, D, s)
        res = dec.residual_norm() / lp_norm(f, 2)
        orth = dec.orthogonality_margin()
        fac = dec.factor_bound()
        worst["residual"] = max(worst["residual"], res)
        worst["orthogonality"] = max(worst["orthogonality"], orth)
        worst["factor"] = max(worst["factor"], fac)
        worst["iterations"] = max(worst["iterations"], dec.iterations)
        rows.append({"seed": cfg["seed"] + k, "residual": res, "orthogonality": orth,
                     "factor": fac, "iterations": dec.iterations})
    rep.add_verdict("residual", worst["residual"] <= 1e-10, worst["residual"], 1e-10)
    rep.add_verdict("orthogonality", worst["orthogonality"] <= 1e-8, worst["orthogonality"], 1e-8)
    rep.add_verdict("factor_five", worst["factor"] <= 5.0, worst["factor"], 5.0)
    rep.add_verdict("cg_iterations", worst["iterations"] <= 500, worst["iterations"], 500)
    rep.add_table("cases", rows)


@experiment("harmonic-decay", dim=1, grid=4096, box=1.0, s=0.5)
def run_harmonic_decay(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    s = cfg["s"]
    _check_order(s)
    f = band_limited_field(g, cfg["seed"] + 42, cutoff=g.points_per_axis / 16)
    out = harmonic_decay_check(f, g.box_length / 128, g.center, [8, 16, 32], s)
    rep.add_verdict("quarter_power_decay", out["decay_ratio"] <= out["bound"],
                    out["decay_ratio"], out["bound"])
    mono = all(out["rho"][i + 1] <= out["rho"][i] * 1.05 for i in range(len(out["rho"]) - 1))
    rep.add_verdict("monotone_5pct", mono, out["rho"], None)
    rep.add_table("rho", [{"Lambda": l, "rho": r, "orthogonality": m}
                          for l, r, m in zip(out["lambdas"], out["rho"], out["orthogonality"])])


@experiment("disjoint-support-decay", box=1.0)
def run_disjoint_decay(cfg, rep):
    cases = [
        {"dim": 1, "grid": 8192, "s": 0.25, "t": 0.25, "r": 1.0 / 320, "gamma_cells": 12},
        {"dim": 2, "grid": 2048, "s": 0.5, "t": 0.5, "r": 1.0 / 128, "gamma_cells": 8},
    ]
    rows = []
    for case in cases:
        g = _grid(cfg, dim=case["dim"], n=case["grid"])
        gamma = case["gamma_cells"] * g.spacing
        d_list = [m * case["r"] * g.box_length for m in (4, 8, 16, 32)]
        out = disjoint_pairing_decay(g, case["s"], case["t"], gamma, d_list)
        target = out["target"]
        ok = abs(out["slope"] - target) <= 0.15 * abs(target)
        rep.add_verdict(f"slope_n{case['dim']}", ok, out["slope"], target)
        rows.append({"dim": case["dim"], "slope": out["slope"], "target": target})
    rep.add_table("slopes", rows)


@experiment("poincare-scaling", dim=1, grid=1024, box=1.0)
def run_poincare_scaling(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    radii = [g.box_length / 64, g.box_length / 32, g.box_length / 16]
    rows = []
    for s in (0.5, 1.0):
        consts = [poincare_constant(ball_mask(g, g.center, r), s)["constant"] for r in radii]
        slope = float(np.polyfit(np.log(radii), np.log(consts), 1)[0])
        ok = abs(slope - s) <= 0.05 * s
        rep.add_verdict(f"exponent_s{s:g}", ok, slope, s)
        rows.append({"s": s, "slope": slope, "constants": consts})
    rep.add_table("fits", rows)


@experiment("lorentz-algebra", dim=1, grid=512, box=1.0)
def run_lorentz_algebra(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    f = band_limited_field(g, cfg["seed"], cutoff=32)
    h = band_limited_field(g, cfg["seed"] + 1, cutoff=32)
    gaps = product_rearrangement_gaps(f, h)
    worst_gap = float(np.max(gaps))
    rep.add_verdict("product_rearrangement", worst_gap <= 1e-14, worst_gap, 0.0)

    # scaling law: analytic trig field sampled on the box and its half-dilation
    # on the doubled box; ||f(lambda .)||_{p,q} = lambda^(-n/p) ||f||_{p,q}
    g2 = Grid(1, 2 * g.points_per_axis, 2.0 * g.box_length)
    rng = np.random.default_rng(cfg["seed"] + 2)
    modes = rng.integers(1, 12, size=6)
    amps = rng.standard_normal(6)
    phases = rng.uniform(0, 2 * np.pi, size=6)

    def sample(grid_obj, lam):
        x = grid_obj.coords()[0]
        out = np.zeros(grid_obj.shape)
        for m, a, ph in zip(modes, amps, phases):
            out += a * np.cos(2 * np.pi * m * lam * x / g.box_length + ph)
        return GridFunction(grid_obj, out)

    p, q = 2.0, 1.0
    base = lorentz_norm(sample(g, 1.0), p, q)
    dil = lorentz_norm(sample(g2, 0.5), p, q)
    scale_err = abs(dil / (2.0 ** (1.0 / p) * base) - 1.0)
    rep.add_verdict("scaling_law_1pct", scale_err <= 0.01, scale_err, 0.01)

    margins = []
    for k in range(5):
        w = band_limited_field(g, cfg["seed"] + 10 + k, cutoff=48)
        prof = decreasing_rearrangement(w)
        for pp, qq in ((2.0, 1.0), (3.0, 2.0), (1.5, 1.0)):
            out = weak_norm_bound_margin(prof, pp, qq)
            margins.append(out["margin"] / max(out["bound"], 1e-300))
    worst = min(margins)
    rep.add_verdict("weak_norm_constant", worst >= -1e-12, worst, 0.0)
    rep.add_table("summary", [{"product_gap": worst_gap, "scaling_err": scale_err,
                               "weak_margin": worst}])


def _h_ratio_sample(g, seed) -> dict:
    """The H(u, v) L2 ratio, maxed over an independent pair (u, v) and the
    diagonal pair (u, u); u, v are band-limited at N/8 from `seed`, `seed + 1`."""
    cut = g.points_per_axis / 8
    u = band_limited_field(g, seed, cutoff=cut)
    v = band_limited_field(g, seed + 1, cutoff=cut)
    return {"h_l2": max(h_norm_ratio(u, v), h_norm_ratio(u, u))}


@experiment("compensation", dim=1, grid=512, box=1.0, constants=None)
def run_compensation(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    fam = build_family(4)
    eta = evaluate(fam, 0, g.box_length / 8, g.center, g)
    worst_resid = 0.0
    for k in range(10):
        umap = SphereValuedMap(tuple(sphere_valued_map(g, 2, cfg["seed"] + k, cutoff=24)))
        out = structure_identity_residual(umap, eta)
        worst_resid = max(worst_resid, out["relative"])
    rep.add_verdict("structure_identity", worst_resid <= 1e-10, worst_resid, 1e-10)

    # the H ratio regresses on a calibrated constant: a constants file if
    # given, else the split-seed protocol (the family mixes independent and
    # diagonal pairs; the diagonal u = v cases are the extremal ones)
    payload = load_constants(cfg["constants"], expect_grid=g) if cfg["constants"] else None
    seed = cfg["seed"]
    _, h = split_seed_regression(rep, per_seed(lambda k: _h_ratio_sample(g, k)), range(seed, seed + 50, 2),
                                 range(seed + 1000, seed + 1020, 2), {"h_norm_regression": "h_l2"},
                                 constants=payload)
    # the p = 1/2 defect has the exact sup DEFECT_SUP, so fresh samples need no calibration
    defect = defect_scan(1, 0.5, samples=200000, seed=seed + 1000)["sup"]
    bound = DEFECT_SUP + DEFECT_ROUNDOFF
    rep.add_verdict("defect_regression", defect <= bound, defect, bound)
    rep.add_table("ratios", [{"structure_worst": worst_resid, "h_l2_fresh": h["h_l2"],
                              "defect_fresh": defect}])


@experiment("iteration-lemmas")
def run_iteration(cfg, rep):
    seed = cfg["seed"]
    a, lam = generate_driteration_input(range(seed, seed + 500), 1.0, 1.0)
    n_ok = driteration(a, 1.0, 1.0, lam).beta.size
    a = generate_iteration_input(range(seed + 7000, seed + 7500), 1.0, 1.0, 1.0, 2)
    n_ok += iteration_reduce(a, 1.0, 1.0, 1.0, 2).beta.size
    rep.add_verdict("thousand_sequences", n_ok == 1000, n_ok, 1000)
    witnesses_ok = True
    for target in (-3, -1, -6):
        a = counterexample_driteration(target, 1.0, 1.0, 1.0)
        try:
            driteration(a, 1.0, 1.0, 1.0)
            witnesses_ok = False
        except GrowthError as exc:
            witnesses_ok = witnesses_ok and (exc.witness == target)
    rep.add_verdict("counterexample_witness", witnesses_ok, witnesses_ok, True)


@experiment("dirichlet-growth", dim=1, grid=16384, box=1.0)
def run_dirichlet_growth(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    rho = g.periodic_distance(g.center)
    window = base_profile_values(4.0 * rho / g.box_length)
    E = ball_mask(g, g.center, g.box_length / 6)
    rows = []
    alphas = (0.25, 0.5)
    fields = [GridFunction(g, window * rho**alpha) for alpha in alphas]
    for alpha, out in zip(alphas, holder_exponent_estimate(fields, E, R=g.box_length / 12)):
        names = ("alpha_seminorm", "alpha_campanato", "alpha_modulus")
        for nm in names:
            ok = abs(out[nm] - alpha) <= 0.05
            rep.add_verdict(f"{nm}_alpha{alpha:g}", ok, out[nm], alpha)
        rows.append({"alpha": alpha, **{nm: out[nm] for nm in names}})
    rep.add_table("estimates", rows)


# -- module-level extras -------------------------------------------------------

@experiment("product-rule", box=1.0)
def run_product_rule(cfg, rep):
    g2 = _grid(cfg, dim=2, n=512)
    phi = moment_free_bump(g2, radius=g2.box_length / 6)
    win = ball_mask(g2, g2.center, g2.box_length / 8)
    out = product_rule_residual(phi, (1, 0), 1.0, win)
    rel = out["residual"] / out["reference"]
    rep.add_verdict("x1_s1_floor", rel <= 1e-6, rel, 1e-6)
    ratios = []
    prev = None
    for n in (128, 256, 512):
        gg = _grid(cfg, dim=1, n=n)
        ph = moment_free_bump(gg, radius=gg.box_length / 8)
        w = ball_mask(gg, gg.center, gg.box_length / 8)
        r = product_rule_residual(ph, (2,), 2.0, w)
        val = r["residual"] / r["reference"]
        if prev is not None:
            ratios.append(prev / val)
        prev = val
    rep.add_verdict("x1sq_s2_refinement", all(q >= 4.0 for q in ratios), ratios, 4.0)


@experiment("polynomial-annihilation", dim=1, grid=2048, box=1.0)
def run_poly_annihilation(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    phi = smooth_bump(g, radius=g.box_length / 24)
    out = polynomial_annihilation((0,), 0.75, phi, [g.box_length / 32, g.box_length / 16, g.box_length / 8])
    rep.add_verdict("slope_below_bound", out["slope"] <= out["bound"], out["slope"], out["bound"])
    rep.add_table("decay", [{"R": R, "I": I} for R, I in zip(out["radii"], out["values"])])


@experiment("mv-poincare", dim=1, grid=2048, box=1.0, s=0.5)
def run_mv_poincare(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    fam = build_family(4)
    s, t = cfg["s"], 0.0
    r = g.box_length / 32

    def samples(seeds):
        fields = [band_limited_field(g, seed, cutoff=64, envelope=32) for seed in seeds]
        return [{"ratio": out["ratio"]} for out in mv_poincare_ratio(fields, r, g.center, s, t, fam)]

    seed = cfg["seed"]
    cal, fresh = split_seed_regression(rep, samples, range(seed, seed + 10),
                                       range(seed + 500, seed + 510), {"regression": "ratio"})
    rep.add_table("ratios", [{"calibration_max": cal["ratio"], "fresh_max": fresh["ratio"]}])


@experiment("homogeneous-norm-localization", dim=1, grid=2048, box=1.0, s=0.5)
def run_homogloc(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    s = cfg["s"]

    def samples(seeds):
        fields = [band_limited_field(g, seed, cutoff=64, envelope=32) for seed in seeds]
        return [{"ratio": out["ratio"]}
                for out in homogeneous_norm_localization(fields, g.box_length / 8, g.center, s)]

    seed = cfg["seed"]
    split_seed_regression(rep, samples, range(seed, seed + 10), range(seed + 500, seed + 510),
                          {"regression": "ratio"})


@experiment("local-norm-recovery", dim=1, grid=1024, box=1.0)
def run_local_norm(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    r = g.box_length / 64
    ratios = {}  # seed -> Lambda = 8 ratio, kept for the stability check

    def sample(seed):
        ratios[seed] = local_norm_recovery(confined_field(g, seed, radius=r), r, g.center, 8.0)["ratio"]
        return {"ratio": ratios[seed]}

    seed = cfg["seed"]
    split_seed_regression(rep, per_seed(sample), range(seed, seed + 5), range(seed + 500, seed + 505),
                          {"regression": "ratio"})
    stab = local_norm_recovery(confined_field(g, seed, radius=r), r, g.center, 16.0)["ratio"]
    rep.add_verdict("lambda_stability", stab <= ratios[seed] * 1.10 + 1e-12, stab, ratios[seed] * 1.10)


@experiment("weighted-power-profile", dim=1, box=1.0)
def run_weighted_power(cfg, rep):
    lam = 0.5  # = n/2
    # cap and grid refine together (cap = h^-lam): the capped center cell then
    # carries bounded weak-norm weight and the n/lam norm stabilizes, while
    # any p on the divergent side grows with every refinement step
    grids = [512, 8192, 131072]
    weak, div = [], []
    for n_pts in grids:
        g = Grid(1, n_pts, cfg["box"])
        cap = g.spacing ** (-lam)
        prof = weighted_power_profile(g, lam, cap)
        weak.append(lorentz_norm_profile(prof, g.dim / lam, math.inf))
        div.append(lorentz_norm_profile(prof, 4.0, math.inf))
    stable = abs(weak[-1] / weak[-2] - 1.0) <= 0.05
    rep.add_verdict("weak_norm_stable", stable, weak, 0.05)
    growing = all(div[i + 1] >= 2.0 * div[i] for i in range(len(div) - 1))
    rep.add_verdict("divergent_side_grows", growing, div, 2.0)
    rep.add_table("norms", [{"grid": n, "weak": w, "p4": d} for n, w, d in zip(grids, weak, div)])


@experiment("annulus-mv-poincare", dim=1, grid=2048, box=1.0, s=0.5)
def run_annulus_mv(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    fam = build_family(5)
    s, t = cfg["s"], 0.0
    r = g.box_length / 64
    fields = [band_limited_field(g, cfg["seed"] + j, cutoff=64, envelope=32) for j in range(8)]
    per_k = {}
    for k in (1, 2, 3, 4):
        per_k[k] = max(out["ratio"] for out in annulus_mv_poincare_ratio(fields, r, g.center, k, s, t, fam))
    spread = max(per_k.values()) / min(per_k.values())
    rep.add_verdict("k_uniformity_factor_2", spread <= 2.0, spread, 2.0)
    rep.add_table("per_k", [{"k": k, "max_ratio": v} for k, v in per_k.items()])


@experiment("polynomial-gap", dim=1, grid=2048, box=1.0)
def run_polynomial_gap(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    fam = build_family(5)
    r = g.box_length / 64

    def samples(seeds):
        fields = [band_limited_field(g, seed, cutoff=64, envelope=32) for seed in seeds]
        outs = polynomial_gap_scan(fields, r, g.center, 4, fam)
        return [{"g": max(out["g"]), "e": max(out["e"])} for out in outs]

    seed = cfg["seed"]
    split_seed_regression(rep, samples, range(seed, seed + 10), range(seed + 500, seed + 510),
                          {"gap_regression": "g", "error_regression": "e"})


@experiment("fourier-domination", dim=1, grid=512, box=1.0)
def run_fourier_domination(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    cut = g.points_per_axis / 8

    def sample(seed):
        u = band_limited_field(g, seed, cutoff=cut)
        v = band_limited_field(g, seed + 1, cutoff=cut)
        return {"ratio": max(fourier_domination_check(u, v)["max_ratio"],
                             fourier_domination_check(u, u)["max_ratio"])}

    seed = cfg["seed"]
    split_seed_regression(rep, per_seed(sample), range(seed, seed + 50, 2), range(seed + 700, seed + 720, 2),
                          {"regression": "ratio"})


@experiment("localization", dim=1, grid=1024, box=1.0)
def run_localization(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    gamma = g.box_length / 32
    norms = []
    rng = np.random.default_rng(cfg["seed"])
    for d_mult in (2.0, 4.0, 8.0):
        d = d_mult * gamma
        c_b = g.center.copy()
        c_b[0] += gamma + d + 2 * gamma
        b = smooth_bump(g, c_b, 2 * gamma, modulation_mode=1, seed=cfg["seed"])
        a = localization_representative(b, gamma, d)
        # representation identity against independently evaluated pairings
        worst = 0.0
        n = g.dim
        lap_b = frac_laplacian(b, n / 2.0)
        norm_a = lp_norm(a, 2)
        sel = a.support.values
        for _ in range(5):
            psi_vals = np.zeros(g.shape)
            psi_vals[sel] = rng.standard_normal(int(sel.sum()))
            psi = GridFunction(g, psi_vals)
            lhs = l2_inner(lap_b, frac_laplacian(psi, n / 2.0))
            rhs = l2_inner(a, psi)
            scale = norm_a * lp_norm(psi, 2) + 1e-300
            worst = max(worst, abs(lhs - rhs) / scale)
        rep.add_verdict(f"representation_residual_d{d_mult:g}", worst <= 1e-10, worst, 1e-10)
        norms.append(norm_a / lp_norm(b, 2))
    decaying = all(norms[i + 1] <= norms[i] * 1.10 for i in range(len(norms) - 1))
    rep.add_verdict("norm_decay_with_gap", decaying, norms, None)
    rep.add_table("norms", [{"d_over_gamma": m, "ratio": v} for m, v in zip((2, 4, 8), norms)])


@experiment("lower-order-product", dim=2, grid=256, box=1.0, s=0.5, m1="riesz:0", m2="identity")
def run_lower_order(cfg, rep):
    g = _grid(cfg, dim=2, n=cfg["grid"])
    s = cfg["s"]
    _check_order(s, upper=g.dim / 2.0)
    # zero-multiplier factors are nameable by symbol id ("identity", "riesz:j")
    m1 = parse_symbol_id(cfg["m1"], 2)
    m2 = parse_symbol_id(cfg["m2"], 2)

    def sample(seed):
        u = band_limited_field(g, seed, cutoff=16)
        v = band_limited_field(g, seed + 1, cutoff=16)
        return {"ratio": lower_order_product_norm(u, v, s, m1, m2)["ratio"]}

    seed = cfg["seed"]
    split_seed_regression(rep, per_seed(sample), range(seed, seed + 20, 2), range(seed + 900, seed + 920, 2),
                          {"regression": "ratio"})


@experiment("campanato", dim=1, grid=2048, box=1.0)
def run_campanato(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    D = ball_mask(g, g.center, g.box_length / 8)
    v = band_limited_field(g, cfg["seed"], cutoff=64, envelope=32)
    out = campanato_functionals(v, D, 2.0, g.box_length / 32)
    shifted = GridFunction(g, v.values + 3.0)
    out_shift = campanato_functionals(shifted, D, 2.0, g.box_length / 32)
    m_invariant = abs(out["M"] - out_shift["M"]) <= 1e-10 * max(out["M"], 1e-300)
    rep.add_verdict("M_shift_invariant", m_invariant, out_shift["M"], out["M"])
    rep.add_verdict("J_not_invariant", out_shift["J"] > out["J"] * 1.5, out_shift["J"], out["J"])


@experiment("seminorm-comparison", dim=1, grid=4096, box=1.0)
def run_seminorm_comparison(cfg, rep):
    g = _grid(cfg, dim=1, n=cfg["grid"])
    fam = build_family(5)
    r = g.box_length / 128

    def samples(seeds):
        fields = [band_limited_field(g, seed, cutoff=128, envelope=64) for seed in seeds]
        outs = seminorm_comparison_terms(fields, r, g.center, fam)
        return [{"needed": out["needed_constant"]} for out in outs]

    # the absorbing constant is nonnegative (the helper clamps the calibration
    # sup at 0): seeds where the eps-term alone dominates contribute 0
    seed = cfg["seed"]
    cal, fresh = split_seed_regression(rep, samples, range(seed, seed + 8), range(seed + 500, seed + 508),
                                       {"regression": "needed"}, floor=1e-12)
    rep.add_table("needed", [{"calibration_max": cal["needed"], "fresh_max": fresh["needed"]}])


EXPERIMENTS_HELP = ", ".join(sorted(REGISTRY))


# -- calibration suites --------------------------------------------------------

CALIBRATION_SUITES = ("compensation",)


def calibrate_suite(suite: str, seed: int, out_path: str) -> dict:
    """Write the constants `run compensation --constants` reads: the
    calibration half of its split-seed protocol, on CALIBRATION_GRID."""
    if suite not in CALIBRATION_SUITES:
        raise ReportError(f"unknown calibration suite {suite!r}")
    g = Grid(**CALIBRATION_GRID)
    h_l2 = _sup([_h_ratio_sample(g, k) for k in range(seed, seed + 50, 2)])["h_l2"]
    constants = {"compensation/h_l2": {
        "value": h_l2, "provenance": "50 seeded pairs (25 independent + 25 diagonal), cutoff N/8",
    }}
    write_constants(out_path, seed, g, constants)
    return constants


# -- main -----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fraclap", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    runp = sub.add_parser("run", help=f"run one experiment ({EXPERIMENTS_HELP})")
    runp.add_argument("experiment")
    # run options default to None here; each experiment declares its defaults
    runp.add_argument("--grid", type=int, default=None, help="points per axis (power of two)")
    runp.add_argument("--box", type=float, default=None, help="box length")
    runp.add_argument("--s", type=float, default=None, help="operator order")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--scales", type=float, nargs="+", default=None)
    runp.add_argument("--out", default="reports")
    runp.add_argument("--constants", default=None)
    runp.add_argument("--m1", default=None, help="zero-multiplier id (identity, riesz:j, ...)")
    runp.add_argument("--m2", default=None, help="zero-multiplier id for the second factor")
    calp = sub.add_parser("calibrate", help="write a constants file for a suite")
    calp.add_argument("suite", choices=CALIBRATION_SUITES)
    calp.add_argument("--seed", type=int, default=0)
    calp.add_argument("--out", default="constants.json")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(REGISTRY):
            print(name)
        return 0
    if args.command == "calibrate":
        constants = calibrate_suite(args.suite, args.seed, args.out)
        print(f"wrote {len(constants)} constants to {args.out}")
        return 0
    if args.experiment not in REGISTRY:
        print(f"unknown experiment {args.experiment!r}; ids: {EXPERIMENTS_HELP}", file=sys.stderr)
        return 2
    run = REGISTRY[args.experiment]
    defaults = getattr(run, "defaults", {})  # a function put in REGISTRY directly reads no option
    given = {opt: getattr(args, opt) for opt in RUN_OPTIONS if getattr(args, opt) is not None}
    # a report echoes its config, so an option the experiment ignores is refused
    ignored = [f"--{opt}" for opt in given if opt not in defaults]
    if ignored:
        print(f"config error: {args.experiment} does not read {', '.join(ignored)}", file=sys.stderr)
        return 2
    # the config echoes every run option: the value that ran, None where the
    # experiment reads none (box 1.0)
    cfg = {**dict.fromkeys(RUN_OPTIONS), "box": 1.0, **defaults, **given, "seed": args.seed}
    try:
        t0 = time.time()
        report = run(cfg)
        report.wall_clock_s = time.time() - t0
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    path = report.write(args.out)
    for v in report.verdicts:
        status = "PASS" if v["passed"] else "FAIL"
        print(f"[{status}] {report.experiment}: {v['name']} value={v['value']} bound={v['bound']}")
    print(f"report: {path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
