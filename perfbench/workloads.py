"""The benchmark's workloads and how one case runs and is checked.

Each workload is a fixed list of cases run one at a time in one process (a
closed loop); every case receives the workload seed. A CLI case runs
`fraclap.cli.main(["run", <id>, "--seed", S, "--out", DIR, *extra])` in
process; the dim-2 equivalence-ratio protocol calls the library directly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

# Verdicts whose value is a wall-clock reading; reports are deterministic
# for a given (config, seed) apart from these and `wall_clock_s`.
WALL_CLOCK_VERDICTS = {"runtime_seconds"}


@dataclass(frozen=True)
class Case:
    experiment: str
    extra: tuple = ()
    protocol: object = None  # callable(seed) -> (passed, fingerprint) for library cases

    @property
    def name(self) -> str:
        if "--grid" in self.extra:
            return f"{self.experiment}-g{self.extra[self.extra.index('--grid') + 1]}"
        return self.experiment


def equivalence_ratio_dim2(seed: int):
    """equivalence-ratio protocol at dim 2 on 256^2: s = 0.25, four confined
    fields (radius L/6, cutoff N/8, envelope N/16, seeds S..S+3), spread
    max/min <= 1.02 as in the 1D experiment."""
    from fraclap.fields import confined_field
    from fraclap.grid import Grid
    from fraclap.singular import equivalence_ratio

    g = Grid(2, 256, 1.0)
    N = g.points_per_axis
    ratios = [
        equivalence_ratio(confined_field(g, seed + k, radius=g.box_length / 6,
                                         cutoff=N / 8, envelope=N / 16), 0.25)
        for k in range(4)
    ]
    spread = max(ratios) / min(ratios)
    return spread <= 1.02, {"ratios": ratios, "max_over_min": spread}


# Few large one-shot transforms (grids up to 2048^2, 16x L2) and cutoff rings;
# no pair sums and no CG.
SPECTRAL = [Case(x) for x in (
    "disjoint-support-decay", "cutoff-norm-scaling", "partition-of-unity", "compensation",
    "fourier-domination", "lower-order-product", "product-rule", "localization",
    "lorentz-algebra", "weighted-power-profile", "polynomial-annihilation")]
# Thousands of small apply_table calls inside restricted CG on 1D grids that
# fit in L2, plus the interpreter-bound iteration lemmas.
ITERATIVE = [
    Case("hodge"), Case("harmonic-decay"), Case("poincare-scaling"), Case("local-norm-recovery"),
    Case("hodge", ("--grid", "4096")), Case("harmonic-decay", ("--grid", "16384")),
    Case("poincare-scaling", ("--grid", "4096")), Case("local-norm-recovery", ("--grid", "4096")),
    Case("iteration-lemmas"),
]
# Masked O(P^2) pair sums and ball/modulus scans in _kernels.
PAIRSUM = [Case(x) for x in (
    "dirichlet-growth", "seminorm-comparison", "annulus-mv-poincare", "mv-poincare",
    "homogeneous-norm-localization", "polynomial-gap", "campanato")]
# Singular kernel builds and second-difference sums; the dim-2 protocol is the
# only case where a kernel build is expensive.
SINGULAR = [
    Case("definition-equivalence", ("--grid", "16384")),
    Case("equivalence-ratio", ("--grid", "65536")),
    Case("equivalence-ratio-dim2", protocol=equivalence_ratio_dim2),
]

WORKLOADS = {
    # the FFT multiplier layer both ways: large one-shot transforms and small
    # transforms inside CG
    "spectral": SPECTRAL + ITERATIVE,
    # direct-space sums: masked pair sums and scans, singular kernel builds
    "direct": PAIRSUM + SINGULAR,
}


@dataclass
class CaseResult:
    name: str
    wall_s: float
    reason: str = ""  # why it failed: the FAIL verdicts, the exit code or the exception
    problems: list = field(default_factory=list)  # output checks that did not hold
    fingerprint: str = ""  # report content that must repeat across runs
    cpu_s: float = 0.0  # process CPU time of the case, all threads

    @property
    def failed(self) -> bool:
        """The case raised, exited non-zero or had a FAIL verdict."""
        return bool(self.reason)


def _fingerprint(report: dict) -> str:
    report = dict(report)
    report.pop("wall_clock_s", None)
    report["verdicts"] = [
        {k: v for k, v in verdict.items() if k not in ("value", "passed")}
        if verdict["name"] in WALL_CLOCK_VERDICTS else verdict
        for verdict in report["verdicts"]
    ]
    return json.dumps(report, sort_keys=True)


def _check_cli_report(case: Case, code: int, out_dir: str) -> tuple:
    """(reason it failed or "", problems, fingerprint) for a finished CLI case."""
    if code == 2:  # config error or numerical failure: no report is written
        return "exit code 2", [], ""
    path = os.path.join(out_dir, f"{case.experiment}.json")
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"exit code {code}", [f"report unreadable: {exc}"], ""
    problems = []
    passed = all(v["passed"] for v in report["verdicts"])
    if report["passed"] != passed:
        problems.append("report 'passed' disagrees with its verdicts")
    if code != (0 if passed else 1):
        problems.append(f"exit code {code} disagrees with verdicts (passed={passed})")
    if not report["verdicts"]:
        problems.append("report has no verdicts")
    reason = " ".join(v["name"] for v in report["verdicts"] if not v["passed"])
    if not reason and code != 0:
        reason = f"exit code {code}"
    return reason, problems, _fingerprint(report)


def run_case(case: Case, seed: int, out_dir: str) -> CaseResult:
    """Run one case; a failure is recorded, never retried or re-seeded."""
    start, cpu_start = time.perf_counter(), time.process_time()
    result = _run_case(case, seed, out_dir)
    result.wall_s = time.perf_counter() - start
    result.cpu_s = time.process_time() - cpu_start
    return result


def _run_case(case: Case, seed: int, out_dir: str) -> CaseResult:
    try:
        if case.protocol is not None:
            passed, detail = case.protocol(seed)
            finite = all(math.isfinite(r) for r in detail["ratios"])
            return CaseResult(case.name, 0.0, "" if passed else "max_over_min",
                              [] if finite else ["non-finite ratio"], json.dumps(detail, sort_keys=True))
        from fraclap import cli

        argv = ["run", case.experiment, "--seed", str(seed), "--out", out_dir, *case.extra]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:
        print(f"case {case.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return CaseResult(case.name, 0.0, f"raised {type(exc).__name__}")
    reason, problems, fingerprint = _check_cli_report(case, code, out_dir)
    return CaseResult(case.name, 0.0, reason, problems, fingerprint)
