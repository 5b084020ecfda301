"""Acceptance gate: the twelve headline criteria at their stated tolerances.

Each test drives the corresponding registered experiment (the experiment
bodies pin the grids, seeds and tolerances) and prints one PASS/FAIL line per
verdict so a bare `pytest -s tests/test_acceptance.py` doubles as the
acceptance report.
"""

import pytest

from fraclap.cli import REGISTRY


def _run(name, **overrides):
    # the options an experiment reads at their declared defaults, as `main` runs them
    cfg = {**REGISTRY[name].defaults, "seed": 0, **overrides}
    report = REGISTRY[name](cfg)
    for v in report.verdicts:
        status = "PASS" if v["passed"] else "FAIL"
        print(f"[{status}] {name}: {v['name']} value={v['value']} bound={v['bound']}")
    return report


def test_criterion_01_definition_equivalence():
    # singular-integral operator, calibrated on one eigenfunction, matches the
    # spectral operator on an independent bump: interior rel Linf <= 1e-3,
    # runtime <= 10 s (n=1, s=0.5, N=4096)
    report = _run("definition-equivalence")
    assert report.passed


def test_criterion_02_equivalence_ratio():
    # spectral/Gagliardo ratio across 10 seeded fields: max/min <= 1.02
    report = _run("equivalence-ratio")
    assert report.passed


def test_criterion_03_partition_of_unity():
    # sum_{k<=10} eta^k == 1 on B_2^10 within 1e-12; supports exact
    report = _run("partition-of-unity", scales=[10])
    assert report.passed


def test_criterion_04_cutoff_norm_scaling():
    # fitted slopes of log2 ||Lap^s eta^k_r||_p' within tolerance of -s + n/p'
    report = _run("cutoff-norm-scaling")
    assert report.passed


def test_criterion_05_hodge():
    # 20 seeds: residual <= 1e-10, orthogonality <= 1e-8, factor-5 bound,
    # CG <= 500 iterations
    report = _run("hodge")
    assert report.passed


def test_criterion_06_disjoint_support_decay():
    # log-log slopes within 15% of -(n+s+t) over d in {4,8,16,32} r
    report = _run("disjoint-support-decay")
    assert report.passed


def test_criterion_07_poincare_scaling():
    # fitted exponent of C_{B_r,s} within 5% of s for s in {0.5, 1}
    report = _run("poincare-scaling")
    assert report.passed


def test_criterion_08_harmonic_decay():
    # rho(32)/rho(8) <= 4^(-1/4) * 1.1 on decomposition remainders
    report = _run("harmonic-decay")
    assert report.passed


def test_criterion_09_lorentz_algebra():
    # product rearrangement exact at breakpoints; dilation law within 1%;
    # weak-norm bound with the (q/p)^(1/q) constant exact on profiles
    report = _run("lorentz-algebra")
    assert report.passed


def test_criterion_10_compensation():
    # structure-equation residual <= 1e-10 for 10 sphere maps; the h-ratio
    # regression within its calibrated constant x 1.01 on fresh seeds; 200k
    # fresh defect samples within the exact sup 2 plus 4 ulp
    report = _run("compensation")
    assert report.passed


def test_criterion_11_iteration_lemmas():
    # 1000 generated hypothesis-satisfying sequences verify both lemmas
    # exactly; constructed counterexamples rejected with the right witness
    report = _run("iteration-lemmas")
    assert report.passed


def test_criterion_12_dirichlet_growth():
    # all three Hoelder estimators within 0.05 of alpha for alpha in {1/4, 1/2}
    report = _run("dirichlet-growth")
    assert report.passed
