"""Experiment runner: every estimate-level experiment is an id, runs seeded and
deterministic, and emits a JSON report plus CSV tables.

    fraclap list
    fraclap run <experiment> [--grid N --box L --s S --seed K --scales a b c
                              --out DIR --constants FILE --m1 ID --m2 ID]
    fraclap calibrate <suite> --out constants.json [--seed K]

Each experiment reads only some of the run options (`fraclap run` refuses
the others, since a report echoes its config); --seed and --out apply to all.

Exit codes: 0 when every verdict in the report passed, 1 when a verdict
failed, 2 for a config error (including an option the experiment does not
read) or an unknown experiment.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .grid import Grid, GridError, GridFunction, ball_mask, lp_norm
from .reporting import (
    CALIBRATION_GRID,
    SLACK,
    Report,
    ReportError,
    load_constants,
    regression_bound,
    write_constants,
)

REGISTRY: dict = {}


# run options an experiment may read; --seed and --out apply to every run
RUN_OPTIONS = ("grid", "box", "s", "scales", "constants", "m1", "m2")


def experiment(name: str, reads=()):
    """Register an experiment under `name`; `reads` lists the RUN_OPTIONS it
    reads, and `main` refuses any other option given on the command line."""

    def wrap(fn):
        fn.reads = frozenset(reads)
        REGISTRY[name] = fn
        return fn

    return wrap


def _grid(cfg, dim, n) -> Grid:
    return Grid(dim, n, cfg["box"])


def _sup(sample, seeds) -> dict:
    """Sup over `seeds` of each named statistic that `sample(seed)` returns."""
    sup: dict = {}
    for seed in seeds:
        for key, value in sample(seed).items():
            sup[key] = max(sup[key], value) if key in sup else value
    return sup


def split_seed_regression(rep, sample, cal_seeds, fresh_seeds, verdicts, floor=0.0, constants=None):
    """Calibrate-then-regress: `verdicts` maps a verdict name to a statistic of
    `sample(seed)`, whose sup over `fresh_seeds` must stay within
    max(0, its sup over `cal_seeds`) * SLACK + floor.  With a constants
    payload the bound is the file's `<experiment>/<statistic>` value times
    SLACK instead, recorded in `rep.constants_used`, and the calibration seeds
    are not sampled.  Returns (calibration sups or None, fresh sups).
    """
    if constants is None:
        cal = _sup(sample, cal_seeds)
        bounds = {verdict: max(0.0, cal[stat]) * SLACK + floor for verdict, stat in verdicts.items()}
    else:
        cal, bounds = None, {}
        for verdict, stat in verdicts.items():
            name = f"{rep.experiment}/{stat}"
            bounds[verdict] = regression_bound(constants, name)
            rep.constants_used.append({"name": name, "bound": bounds[verdict]})
    fresh = _sup(sample, fresh_seeds)
    for verdict, stat in verdicts.items():
        rep.add_verdict(verdict, fresh[stat] <= bounds[verdict], fresh[stat], bounds[verdict])
    return cal, fresh


# -- acceptance experiments ---------------------------------------------------

@experiment("partition-of-unity", reads=("scales",))
def run_partition(cfg) -> Report:
    from .cutoffs import build_family

    depth = int(cfg["scales"][0]) if cfg.get("scales") else 10
    rep = Report("partition-of-unity", {**cfg, "depth": depth})
    fam = build_family(depth)  # build_family already asserts the invariants
    rho = np.linspace(0.0, 2.0**depth, 200001)
    dev = float(np.max(np.abs(fam.partial(depth, rho)[0] - 1.0)))
    rep.add_verdict("partition_identity_on_ball", dev <= 1e-12, dev, 1e-12)
    worst = 0.0
    for k in range(1, depth + 1):
        grid_rho = np.linspace(0.0, 2.0 ** (depth + 1), 100001)
        vals = fam.ring(k, grid_rho)[0]
        outside = (grid_rho <= 2.0 ** (k - 1)) | (grid_rho >= 2.0 ** (k + 1))
        worst = max(worst, float(np.max(np.abs(vals[outside]))))
    rep.add_verdict("support_annuli_exact", worst <= 1e-14, worst, 1e-14)
    rep.add_table("deviation", [{"depth": depth, "partition_dev": dev, "support_leak": worst}])
    return rep


@experiment("cutoff-norm-scaling", reads=("box",))
def run_cutoff_scaling(cfg) -> Report:
    from .cutoffs import build_family, norm_scaling_experiment

    rep = Report("cutoff-norm-scaling", cfg)
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
    return rep


@experiment("definition-equivalence", reads=("grid", "box", "s"))
def run_definition_equivalence(cfg) -> Report:
    from .fields import confined_field
    from .multipliers import frac_laplacian
    from .singular import SingularQuadratureScheme, calibrate_cns, frac_lap_pointwise, periodized_kernel

    t0 = time.time()
    g = _grid(cfg, dim=1, n=cfg.get("grid") or 4096)
    s = cfg.get("s") or 0.5
    rep = Report("definition-equivalence", {**cfg, "dim": 1, "grid": g.points_per_axis, "s": s})
    scheme = SingularQuadratureScheme()
    const = calibrate_cns(g, s, scheme)
    kernel = periodized_kernel(g, s, scheme)
    bump = confined_field(g, cfg["seed"] + 11, radius=g.box_length / 6, cutoff=40, envelope=20)
    spectral = frac_laplacian(bump, s)
    inner = np.nonzero(ball_mask(g, g.center, g.box_length / 5).values)[0]
    vals = frac_lap_pointwise(bump, s, (inner,), scheme, const, kernel)
    err = float(np.max(np.abs(vals - spectral.values[inner])) / np.max(np.abs(spectral.values)))
    elapsed = time.time() - t0
    rep.add_verdict("interior_linf_relative", err <= 1e-3, err, 1e-3)
    rep.add_verdict("runtime_seconds", elapsed <= 10.0, elapsed, 10.0)
    rep.constants_used.append({"name": const.name, "value": const.value, "provenance": const.provenance})
    rep.add_table("error", [{"points": len(inner), "linf_rel": err, "c_ns": const.value}])
    return rep


@experiment("equivalence-ratio", reads=("grid", "box", "s"))
def run_equivalence_ratio(cfg) -> Report:
    from .fields import confined_field
    from .singular import equivalence_ratio

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 2048)
    s = cfg.get("s") or 0.25
    rep = Report("equivalence-ratio", {**cfg, "dim": 1, "grid": g.points_per_axis, "s": s})
    ratios = []
    for k in range(10):
        f = confined_field(g, cfg["seed"] + k, radius=g.box_length / 6, cutoff=48, envelope=24)
        ratios.append(equivalence_ratio(f, s))
    spread = max(ratios) / min(ratios)
    rep.add_verdict("max_over_min", spread <= 1.02, spread, 1.02)
    rep.add_table("ratios", [{"seed": cfg["seed"] + k, "ratio": r} for k, r in enumerate(ratios)])
    return rep


@experiment("hodge", reads=("grid", "box", "s"))
def run_hodge(cfg) -> Report:
    from .fields import band_limited_field
    from .hodge import hodge_decompose

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 1024)
    s = cfg.get("s") or 0.5
    rep = Report("hodge", {**cfg, "dim": 1, "grid": g.points_per_axis, "s": s})
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
    return rep


@experiment("harmonic-decay", reads=("grid", "box", "s"))
def run_harmonic_decay(cfg) -> Report:
    from .fields import band_limited_field
    from .hodge import harmonic_decay_check

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 4096)
    s = cfg.get("s") or 0.5
    rep = Report("harmonic-decay", {**cfg, "dim": 1, "grid": g.points_per_axis, "s": s})
    f = band_limited_field(g, cfg["seed"] + 42, cutoff=g.points_per_axis / 16)
    out = harmonic_decay_check(f, g.box_length / 128, g.center, [8, 16, 32], s)
    rep.add_verdict("quarter_power_decay", out["decay_ratio"] <= out["bound"],
                    out["decay_ratio"], out["bound"])
    mono = all(out["rho"][i + 1] <= out["rho"][i] * 1.05 for i in range(len(out["rho"]) - 1))
    rep.add_verdict("monotone_5pct", mono, out["rho"], None)
    rep.add_table("rho", [{"Lambda": l, "rho": r, "orthogonality": m}
                          for l, r, m in zip(out["lambdas"], out["rho"], out["orthogonality"])])
    return rep


@experiment("disjoint-support-decay", reads=("box",))
def run_disjoint_decay(cfg) -> Report:
    from .hodge import disjoint_pairing_decay

    rep = Report("disjoint-support-decay", cfg)
    cases = [
        {"dim": 1, "grid": 8192, "s": 0.25, "t": 0.25, "r": 1.0 / 320, "gamma_cells": 12},
        {"dim": 2, "grid": 2048, "s": 0.5, "t": 0.5, "r": 1.0 / 128, "gamma_cells": 8},
    ]
    rows = []
    for case in cases:
        g = _grid(cfg, dim=case["dim"], n=case["grid"])
        gamma = case["gamma_cells"] * g.spacing
        d_list = [m * case["r"] * g.box_length for m in (4, 8, 16, 32)]
        out = disjoint_pairing_decay(g, case["s"], case["t"], gamma, d_list,
                                     b_width=gamma, modulation=0)
        target = out["target"]
        ok = abs(out["slope"] - target) <= 0.15 * abs(target)
        rep.add_verdict(f"slope_n{case['dim']}", ok, out["slope"], target)
        rows.append({"dim": case["dim"], "slope": out["slope"], "target": target})
    rep.add_table("slopes", rows)
    return rep


@experiment("poincare-scaling", reads=("grid", "box"))
def run_poincare_scaling(cfg) -> Report:
    from .meanvalue import poincare_constant

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 1024)
    rep = Report("poincare-scaling", {**cfg, "dim": 1, "grid": g.points_per_axis})
    radii = [g.box_length / 64, g.box_length / 32, g.box_length / 16]
    rows = []
    for s in (0.5, 1.0):
        consts = [poincare_constant(ball_mask(g, g.center, r), s)["constant"] for r in radii]
        slope = float(np.polyfit(np.log(radii), np.log(consts), 1)[0])
        ok = abs(slope - s) <= 0.05 * s
        rep.add_verdict(f"exponent_s{s:g}", ok, slope, s)
        rows.append({"s": s, "slope": slope, "constants": consts})
    rep.add_table("fits", rows)
    return rep


@experiment("lorentz-algebra", reads=("grid", "box"))
def run_lorentz_algebra(cfg) -> Report:
    from .fields import band_limited_field
    from .lorentz import (
        decreasing_rearrangement,
        lorentz_norm,
        product_rearrangement_gaps,
        weak_norm_bound_margin,
    )

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 512)
    rep = Report("lorentz-algebra", {**cfg, "dim": 1, "grid": g.points_per_axis})
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
    return rep


def _h_ratio_sample(g, seed) -> dict:
    """H(u, v) norm ratios, maxed over an independent pair (u, v) and the
    diagonal pair (u, u); u, v are band-limited at N/8 from `seed`, `seed + 1`."""
    from .compensation import h_norm_ratio
    from .fields import band_limited_field

    cut = g.points_per_axis / 8
    u = band_limited_field(g, seed, cutoff=cut)
    v = band_limited_field(g, seed + 1, cutoff=cut)
    a, b = h_norm_ratio(u, v), h_norm_ratio(u, u)
    return {f"h_{key}": max(a[key], b[key]) for key in ("l2", "lorentz21", "weak_factor")}


def _defect_sample(seed) -> dict:
    from .compensation import defect_scan

    return {"defect_p0.5": defect_scan(1, 0.5, samples=200000, seed=seed)["sup"]}


@experiment("compensation", reads=("grid", "box", "constants"))
def run_compensation(cfg) -> Report:
    from .compensation import SphereValuedMap, structure_identity_residual
    from .cutoffs import build_family, evaluate
    from .fields import sphere_valued_map

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 512)
    rep = Report("compensation", {**cfg, "dim": 1, "grid": g.points_per_axis})
    fam = build_family(4)
    eta = evaluate(fam, 0, g.box_length / 8, g.center, g, attach_mask=False)
    worst_resid = 0.0
    for k in range(10):
        umap = SphereValuedMap(tuple(sphere_valued_map(g, 2, cfg["seed"] + k, cutoff=24)))
        out = structure_identity_residual(umap, eta)
        worst_resid = max(worst_resid, out["relative"])
    rep.add_verdict("structure_identity", worst_resid <= 1e-10, worst_resid, 1e-10)

    # calibrated regressions: constants file if given, else split-seed protocol
    # (the family mixes independent and diagonal pairs; the diagonal u = v
    # cases are the extremal ones)
    payload = load_constants(cfg["constants"], expect_grid=g) if cfg.get("constants") else None
    seed = cfg["seed"]
    _, h = split_seed_regression(rep, lambda k: _h_ratio_sample(g, k), range(seed, seed + 50, 2),
                                 range(seed + 1000, seed + 1020, 2), {"h_norm_regression": "h_l2"},
                                 constants=payload)
    _, defect = split_seed_regression(rep, _defect_sample, [seed], [seed + 1000],
                                      {"defect_regression": "defect_p0.5"}, constants=payload)
    rep.add_table("ratios", [{"structure_worst": worst_resid, "h_l2_fresh": h["h_l2"],
                              "defect_fresh": defect["defect_p0.5"]}])
    return rep


@experiment("iteration-lemmas")
def run_iteration(cfg) -> Report:
    from .growth import (
        GrowthError,
        counterexample_driteration,
        driteration,
        generate_driteration_input,
        generate_iteration_input,
        iteration_reduce,
    )

    rep = Report("iteration-lemmas", cfg)
    n_ok = 0
    for k in range(500):
        a, lam = generate_driteration_input(cfg["seed"] + k, 1.0, 1.0)
        driteration(a, 1.0, 1.0, lam)
        n_ok += 1
    for k in range(500):
        a = generate_iteration_input(cfg["seed"] + 7000 + k, 1.0, 1.0, 1.0, 2)
        iteration_reduce(a, 1.0, 1.0, 1.0, 2)
        n_ok += 1
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
    return rep


@experiment("dirichlet-growth", reads=("grid", "box"))
def run_dirichlet_growth(cfg) -> Report:
    from .cutoffs import base_profile_values
    from .growth import holder_exponent_estimate

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 16384)
    rep = Report("dirichlet-growth", {**cfg, "dim": 1, "grid": g.points_per_axis})
    rho = g.periodic_distance(g.center)
    window = base_profile_values(4.0 * rho / g.box_length)
    E = ball_mask(g, g.center, g.box_length / 6)
    rows = []
    for alpha in (0.25, 0.5):
        v = GridFunction(g, window * rho**alpha)
        out = holder_exponent_estimate(v, E, R=g.box_length / 12, scales=4)
        names = ("alpha_seminorm", "alpha_campanato", "alpha_modulus")
        for nm in names:
            ok = abs(out[nm] - alpha) <= 0.05
            rep.add_verdict(f"{nm}_alpha{alpha:g}", ok, out[nm], alpha)
        rows.append({"alpha": alpha, **{nm: out[nm] for nm in names}})
    rep.add_table("estimates", rows)
    return rep


# -- module-level extras -------------------------------------------------------

@experiment("product-rule", reads=("box",))
def run_product_rule(cfg) -> Report:
    from .fields import moment_free_bump
    from .multipliers import product_rule_residual

    rep = Report("product-rule", cfg)
    g2 = _grid(cfg, dim=2, n=512)
    phi = moment_free_bump(g2, radius=g2.box_length / 6, order=2)
    win = ball_mask(g2, g2.center, g2.box_length / 8)
    out = product_rule_residual(phi, (1, 0), 1.0, win)
    rel = out["residual"] / out["reference"]
    rep.add_verdict("x1_s1_floor", rel <= 1e-6, rel, 1e-6)
    ratios = []
    prev = None
    for n in (128, 256, 512):
        gg = _grid(cfg, dim=1, n=n)
        ph = moment_free_bump(gg, radius=gg.box_length / 8, order=2)
        w = ball_mask(gg, gg.center, gg.box_length / 8)
        r = product_rule_residual(ph, (2,), 2.0, w)
        val = r["residual"] / r["reference"]
        if prev is not None:
            ratios.append(prev / val)
        prev = val
    rep.add_verdict("x1sq_s2_refinement", all(q >= 4.0 for q in ratios), ratios, 4.0)
    return rep


@experiment("polynomial-annihilation", reads=("grid", "box"))
def run_poly_annihilation(cfg) -> Report:
    from .fields import smooth_bump
    from .multipliers import polynomial_annihilation

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 2048)
    rep = Report("polynomial-annihilation", {**cfg, "dim": 1})
    phi = smooth_bump(g, radius=g.box_length / 24)
    out = polynomial_annihilation((0,), 0.75, phi,
                                  [g.box_length / 32, g.box_length / 16, g.box_length / 8],
                                  p_prime=2.0)
    rep.add_verdict("slope_below_bound", out["slope"] <= out["bound"], out["slope"], out["bound"])
    rep.add_table("decay", [{"R": R, "I": I} for R, I in zip(out["radii"], out["values"])])
    return rep


@experiment("mv-poincare", reads=("grid", "box", "s"))
def run_mv_poincare(cfg) -> Report:
    from .cutoffs import build_family
    from .fields import band_limited_field
    from .meanvalue import mv_poincare_ratio

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 2048)
    rep = Report("mv-poincare", {**cfg, "dim": 1})
    fam = build_family(4)
    s, t = cfg.get("s") or 0.5, 0.0
    r = g.box_length / 32

    def sample(seed):
        v = band_limited_field(g, seed, cutoff=64, envelope=32)
        return {"ratio": mv_poincare_ratio(v, r, g.center, s, t, fam)["ratio"]}

    seed = cfg["seed"]
    cal, fresh = split_seed_regression(rep, sample, range(seed, seed + 10),
                                       range(seed + 500, seed + 510), {"regression": "ratio"})
    rep.add_table("ratios", [{"calibration_max": cal["ratio"], "fresh_max": fresh["ratio"]}])
    return rep


@experiment("homogeneous-norm-localization", reads=("grid", "box", "s"))
def run_homogloc(cfg) -> Report:
    from .fields import band_limited_field
    from .growth import homogeneous_norm_localization

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 2048)
    rep = Report("homogeneous-norm-localization", {**cfg, "dim": 1})
    s = cfg.get("s") or 0.5

    def sample(seed):
        v = band_limited_field(g, seed, cutoff=64, envelope=32)
        return {"ratio": homogeneous_norm_localization(v, g.box_length / 8, g.center, s)["ratio"]}

    seed = cfg["seed"]
    split_seed_regression(rep, sample, range(seed, seed + 10), range(seed + 500, seed + 510),
                          {"regression": "ratio"})
    return rep


@experiment("local-norm-recovery", reads=("grid", "box"))
def run_local_norm(cfg) -> Report:
    from .fields import confined_field
    from .hodge import local_norm_recovery

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 1024)
    rep = Report("local-norm-recovery", {**cfg, "dim": 1})
    r = g.box_length / 64
    ratios = {}  # seed -> Lambda = 8 ratio, kept for the stability check

    def sample(seed):
        ratios[seed] = local_norm_recovery(confined_field(g, seed, radius=r), r, g.center, 8.0)["ratio"]
        return {"ratio": ratios[seed]}

    seed = cfg["seed"]
    split_seed_regression(rep, sample, range(seed, seed + 5), range(seed + 500, seed + 505),
                          {"regression": "ratio"})
    stab = local_norm_recovery(confined_field(g, seed, radius=r), r, g.center, 16.0)["ratio"]
    rep.add_verdict("lambda_stability", stab <= ratios[seed] * 1.10 + 1e-12, stab, ratios[seed] * 1.10)
    return rep


@experiment("weighted-power-profile", reads=("box",))
def run_weighted_power(cfg) -> Report:
    from .lorentz import lorentz_norm_profile, weighted_power_profile

    rep = Report("weighted-power-profile", {**cfg, "dim": 1})
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
    return rep


@experiment("annulus-mv-poincare", reads=("grid", "box", "s"))
def run_annulus_mv(cfg) -> Report:
    from .cutoffs import build_family
    from .fields import band_limited_field
    from .meanvalue import annulus_mv_poincare_ratio

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 2048)
    rep = Report("annulus-mv-poincare", {**cfg, "dim": 1})
    fam = build_family(5)
    s, t = cfg.get("s") or 0.5, 0.0
    r = g.box_length / 64
    per_k = {}
    for k in (1, 2, 3, 4):
        vals = []
        for j in range(8):
            v = band_limited_field(g, cfg["seed"] + j, cutoff=64, envelope=32)
            vals.append(annulus_mv_poincare_ratio(v, r, g.center, k, s, t, fam)["ratio"])
        per_k[k] = max(vals)
    spread = max(per_k.values()) / min(per_k.values())
    rep.add_verdict("k_uniformity_factor_2", spread <= 2.0, spread, 2.0)
    rep.add_table("per_k", [{"k": k, "max_ratio": v} for k, v in per_k.items()])
    return rep


@experiment("polynomial-gap", reads=("grid", "box"))
def run_polynomial_gap(cfg) -> Report:
    from .cutoffs import build_family
    from .fields import band_limited_field
    from .meanvalue import polynomial_gap_scan

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 2048)
    rep = Report("polynomial-gap", {**cfg, "dim": 1})
    fam = build_family(5)
    r = g.box_length / 64

    def sample(seed):
        v = band_limited_field(g, seed, cutoff=64, envelope=32)
        out = polynomial_gap_scan(v, r, g.center, 4, fam)
        return {"g": max(out["g"]), "e": max(out["e"])}

    seed = cfg["seed"]
    split_seed_regression(rep, sample, range(seed, seed + 10), range(seed + 500, seed + 510),
                          {"gap_regression": "g", "error_regression": "e"})
    return rep


@experiment("fourier-domination", reads=("grid", "box"))
def run_fourier_domination(cfg) -> Report:
    from .compensation import fourier_domination_check
    from .fields import band_limited_field

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 512)
    rep = Report("fourier-domination", {**cfg, "dim": 1})
    cut = g.points_per_axis / 8

    def sample(seed):
        u = band_limited_field(g, seed, cutoff=cut)
        v = band_limited_field(g, seed + 1, cutoff=cut)
        return {"ratio": max(fourier_domination_check(u, v)["max_ratio"],
                             fourier_domination_check(u, u)["max_ratio"])}

    seed = cfg["seed"]
    split_seed_regression(rep, sample, range(seed, seed + 50, 2), range(seed + 700, seed + 720, 2),
                          {"regression": "ratio"})
    return rep


@experiment("localization", reads=("grid", "box"))
def run_localization(cfg) -> Report:
    from .fields import smooth_bump
    from .grid import l2_inner
    from .hodge import localization_representative
    from .multipliers import frac_laplacian

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 1024)
    rep = Report("localization", {**cfg, "dim": 1})
    gamma = g.box_length / 32
    norms = []
    rng = np.random.default_rng(cfg["seed"])
    for d_mult in (2.0, 4.0, 8.0):
        d = d_mult * gamma
        c_b = g.center.copy()
        c_b[0] += gamma + d + 2 * gamma
        b = smooth_bump(g, c_b, 2 * gamma, modulation_mode=1, seed=cfg["seed"])
        a = localization_representative(b, gamma, d, g.center)
        # representation identity against independently evaluated pairings
        worst = 0.0
        n = g.dim
        lap_b = frac_laplacian(b, n / 2.0)
        for _ in range(5):
            psi_vals = np.zeros(g.shape)
            sel = a.support.values
            psi_vals[sel] = rng.standard_normal(int(sel.sum()))
            psi = GridFunction(g, psi_vals)
            lhs = l2_inner(lap_b, frac_laplacian(psi, n / 2.0))
            rhs = l2_inner(a, psi)
            scale = lp_norm(a, 2) * lp_norm(psi, 2) + 1e-300
            worst = max(worst, abs(lhs - rhs) / scale)
        rep.add_verdict(f"representation_residual_d{d_mult:g}", worst <= 1e-10, worst, 1e-10)
        norms.append(lp_norm(a, 2) / lp_norm(b, 2))
    decaying = all(norms[i + 1] <= norms[i] * 1.10 for i in range(len(norms) - 1))
    rep.add_verdict("norm_decay_with_gap", decaying, norms, None)
    rep.add_table("norms", [{"d_over_gamma": m, "ratio": v} for m, v in zip((2, 4, 8), norms)])
    return rep


@experiment("lower-order-product", reads=("grid", "box", "s", "m1", "m2"))
def run_lower_order(cfg) -> Report:
    from .fields import band_limited_field
    from .hodge import lower_order_product_norm
    from .multipliers import parse_symbol_id

    g = _grid(cfg, dim=2, n=cfg.get("grid") or 256)
    rep = Report("lower-order-product", {**cfg, "dim": 2})
    s = cfg.get("s") or 0.5
    # zero-multiplier factors are nameable by symbol id ("identity", "riesz:j")
    m1 = parse_symbol_id(cfg.get("m1") or "riesz:0", 2)
    m2 = parse_symbol_id(cfg.get("m2") or "identity", 2)

    def sample(seed):
        u = band_limited_field(g, seed, cutoff=16)
        v = band_limited_field(g, seed + 1, cutoff=16)
        return {"ratio": lower_order_product_norm(u, v, s, m1, m2)["ratio"]}

    seed = cfg["seed"]
    split_seed_regression(rep, sample, range(seed, seed + 20, 2), range(seed + 900, seed + 920, 2),
                          {"regression": "ratio"})
    return rep


@experiment("campanato", reads=("grid", "box"))
def run_campanato(cfg) -> Report:
    from .fields import band_limited_field
    from .growth import campanato_functionals

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 2048)
    rep = Report("campanato", {**cfg, "dim": 1})
    D = ball_mask(g, g.center, g.box_length / 8)
    v = band_limited_field(g, cfg["seed"], cutoff=64, envelope=32)
    out = campanato_functionals(v, D, 2.0, g.box_length / 32)
    shifted = GridFunction(g, v.values + 3.0)
    out_shift = campanato_functionals(shifted, D, 2.0, g.box_length / 32)
    m_invariant = abs(out["M"] - out_shift["M"]) <= 1e-10 * max(out["M"], 1e-300)
    rep.add_verdict("M_shift_invariant", m_invariant, out_shift["M"], out["M"])
    rep.add_verdict("J_not_invariant", out_shift["J"] > out["J"] * 1.5, out_shift["J"], out["J"])
    return rep


@experiment("seminorm-comparison", reads=("grid", "box"))
def run_seminorm_comparison(cfg) -> Report:
    from .cutoffs import build_family
    from .fields import band_limited_field
    from .growth import seminorm_comparison_terms

    g = _grid(cfg, dim=1, n=cfg.get("grid") or 4096)
    rep = Report("seminorm-comparison", {**cfg, "dim": 1})
    fam = build_family(5)
    r = g.box_length / 128

    def sample(seed):
        v = band_limited_field(g, seed, cutoff=128, envelope=64)
        return {"needed": seminorm_comparison_terms(v, r, g.center, fam)["needed_constant"]}

    # the absorbing constant is nonnegative (the helper clamps the calibration
    # sup at 0): seeds where the eps-term alone dominates contribute 0
    seed = cfg["seed"]
    cal, fresh = split_seed_regression(rep, sample, range(seed, seed + 8), range(seed + 500, seed + 508),
                                       {"regression": "needed"}, floor=1e-12)
    rep.add_table("needed", [{"calibration_max": cal["needed"], "fresh_max": fresh["needed"]}])
    return rep


EXPERIMENTS_HELP = ", ".join(sorted(REGISTRY))


# -- calibration suites --------------------------------------------------------

def calibrate_suite(suite: str, seed: int, out_path: str) -> dict:
    from .compensation import triangle_defect_scan
    from .fields import band_limited_field

    g = Grid(**CALIBRATION_GRID)
    constants: dict = {}
    if suite in ("compensation", "all"):
        # the calibration half of run_compensation's split-seed protocol
        prov = "50 seeded pairs (25 independent + 25 diagonal), cutoff N/8"
        for key, value in _sup(lambda k: _h_ratio_sample(g, k), range(seed, seed + 50, 2)).items():
            constants[f"compensation/{key}"] = {"value": value, "provenance": prov}
        constants["compensation/defect_p0.5"] = {
            "value": _sup(_defect_sample, [seed])["defect_p0.5"],
            "provenance": "200k samples, |xi| = 1, theta = 1/2",
        }
        constants["compensation/triangle_p0.5"] = {
            "value": triangle_defect_scan(1, 0.5, samples=200000, seed=seed)["sup"],
            "provenance": "200k samples",
        }
    if suite in ("lorentz", "all"):
        from .lorentz import compact_support_ratio, holder_product_ratio, oneil_convolution_ratio
        from .fields import confined_field

        def sample(k):
            f = band_limited_field(g, k + 100, cutoff=32)
            h = band_limited_field(g, k + 200, cutoff=32)
            w = confined_field(g, k + 300, radius=g.box_length / 6)
            return {"holder_4_2_4_2": holder_product_ratio(f, h, 4.0, 2.0, 4.0, 2.0),
                    "oneil_1.5_2": oneil_convolution_ratio(f, h, 1.5, 2.0, 1.5, 2.0),
                    "compact_support_2_2_4": compact_support_ratio(w, w.support.measure, 2.0, 2.0, 4.0)}

        for key, value in _sup(sample, range(seed, seed + 20)).items():
            prov = "20 confined fields" if key.startswith("compact") else "20 seeded pairs"
            constants[f"lorentz/{key}"] = {"value": value, "provenance": prov}
    if not constants:
        raise ReportError(f"unknown calibration suite {suite!r}")
    write_constants(out_path, seed, g, constants)
    return constants


# -- main -----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fraclap", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    runp = sub.add_parser("run", help=f"run one experiment ({EXPERIMENTS_HELP})")
    runp.add_argument("experiment")
    runp.add_argument("--grid", type=int, default=None, help="points per axis (power of two)")
    runp.add_argument("--box", type=float, default=None, help="box length (default 1)")
    runp.add_argument("--s", type=float, default=None, help="operator order")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--scales", type=float, nargs="*", default=None)
    runp.add_argument("--out", default="reports")
    runp.add_argument("--constants", default=None)
    runp.add_argument("--m1", default=None, help="zero-multiplier id (identity, riesz:j, ...)")
    runp.add_argument("--m2", default=None, help="zero-multiplier id for the second factor")
    calp = sub.add_parser("calibrate", help="write a constants file for a suite")
    calp.add_argument("suite", choices=["compensation", "lorentz", "all"])
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
    # a report echoes its config, so an option the experiment ignores is refused
    ignored = [f"--{opt}" for opt in RUN_OPTIONS if getattr(args, opt) is not None and opt not in run.reads]
    if ignored:
        print(f"config error: {args.experiment} does not read {', '.join(ignored)}", file=sys.stderr)
        return 2
    cfg = {
        "grid": args.grid,
        "box": 1.0 if args.box is None else args.box,
        "s": args.s,
        "seed": args.seed,
        "scales": args.scales,
        "constants": args.constants,
        "m1": args.m1,
        "m2": args.m2,
    }
    try:
        t0 = time.time()
        report = run(cfg)
        report.wall_clock_s = time.time() - t0
    except (GridError, ReportError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    path = report.write(args.out)
    for v in report.verdicts:
        status = "PASS" if v["passed"] else "FAIL"
        print(f"[{status}] {report.experiment}: {v['name']} value={v['value']} bound={v['bound']}")
    print(f"report: {path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
