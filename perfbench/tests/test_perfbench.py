"""Self-tests of the benchmark: traced call coverage, failure accounting,
output checks and the BENCHMARK.json contract.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import WORKLOADS, Case, CaseResult, run_case  # noqa: E402

from fraclap import cli, hodge, meanvalue, multipliers, solve  # noqa: E402
from fraclap.reporting import Report  # noqa: E402

# Call counts cProfile gives for these experiments at seed 0; a wrapper that
# misses a by-name import undercounts.
COVERAGE = {
    "hodge": {"solve.restricted_cg": 20, "multipliers.apply_table": 2372},
    "poincare-scaling": {"solve.restricted_cg": 59, "multipliers.apply_table": 3441},
    "dirichlet-growth": {"singular.gagliardo_seminorm": 72, "kernels.pair_sum_sq_diff": 72,
                         "kernels.ball_scan": 8, "kernels.modulus_scan": 2},
    "disjoint-support-decay": {"multipliers.apply_symbol": 10},
    "partition-of-unity": {"cutoffs.DyadicCutoffFamily.partial": 93},
}


@pytest.mark.parametrize("experiment", sorted(COVERAGE))
def test_traced_call_counts_match_cprofile(tmp_path, experiment):
    tracer = Tracer()
    tracer.install()
    try:
        result = run_case(Case(experiment), 0, str(tmp_path))
    finally:
        tracer.uninstall()
    assert not result.failed and not result.problems
    metrics = tracer.layer_metrics()
    assert {name: metrics[f"{name}.calls"] for name in COVERAGE[experiment]} == COVERAGE[experiment]


def test_uninstall_restores_by_name_imports():
    originals = (hodge.apply_table, meanvalue.restricted_cg, multipliers.apply_table, Report.write)
    tracer = Tracer()
    tracer.install()
    try:
        assert hodge.apply_table is not originals[0]
        assert meanvalue.restricted_cg is not originals[1]
    finally:
        tracer.uninstall()
    assert (hodge.apply_table, meanvalue.restricted_cg, multipliers.apply_table,
            Report.write) == originals
    assert solve.restricted_cg is meanvalue.restricted_cg


@pytest.fixture
def broken_experiments(monkeypatch):
    def fails(cfg):
        rep = Report("always-fails", cfg)
        rep.add_verdict("impossible", False, 1.0, 0.0)
        return rep

    def raises(cfg):
        raise RuntimeError("numerical failure outside the config-error path")

    def config_error(cfg):
        raise ValueError("rejected mid-run")

    for name, fn in (("always-fails", fails), ("raises", raises), ("config-error", config_error)):
        monkeypatch.setitem(cli.REGISTRY, name, fn)


def test_failures_count_without_aborting_the_pass(tmp_path, broken_experiments):
    cases = [Case("always-fails"), Case("raises"), Case("config-error"), Case("lorentz-algebra")]
    p = bench.run_pass(cases, 0, str(tmp_path))
    assert [r.reason for r in p["cases"]] == ["impossible", "raised RuntimeError", "exit code 2", ""]
    # a FAIL verdict is the program's honest output, not an inconsistent one
    assert bench.check_outputs(p["cases"]) == []
    assert bench.count_failures(cases, p["cases"] * 3) == (4, 3)


def test_run_until_repeats_whole_cases_within_the_deadline(tmp_path, broken_experiments):
    import time

    cases = [Case("always-fails"), Case("lorentz-algebra")]
    deadline = time.perf_counter() + 0.5
    results = bench.run_until(cases, 0, str(tmp_path), deadline)
    assert time.perf_counter() < deadline + 0.5
    assert [r.name for r in results[:2]] == ["always-fails", "lorentz-algebra"]
    runs = bench.by_case(results)
    assert len(runs["always-fails"]) >= 2 and len(runs["lorentz-algebra"]) >= 2
    assert bench.count_failures(cases, results) == (2, 1)


def test_pass_time_is_the_sum_of_case_medians():
    results = [CaseResult("x", 1.0, cpu_s=0.5), CaseResult("y", 10.0, cpu_s=9.0),
               CaseResult("x", 3.0, cpu_s=2.5), CaseResult("x", 2.0, cpu_s=1.5)]
    metrics = bench.end_to_end_metrics(results, 0.25)
    assert metrics["wall_s"]["value"] == 12.0 and metrics["cpu_s"]["value"] == 10.5
    assert metrics["setup_s"]["value"] == 0.25


def test_output_checks_catch_nondeterminism_and_inconsistency():
    a = CaseResult("x", 1.0, "", [], "report-a")
    b = CaseResult("x", 1.0, "", [], "report-b")
    bad = CaseResult("y", 1.0, "impossible",
                     ["exit code 0 disagrees with verdicts (passed=False)"], "")
    problems = bench.check_outputs([a, bad, b])
    assert problems == ["y: exit code 0 disagrees with verdicts (passed=False)",
                        "x: report differs between runs of the same seed"]


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    fake = {"wall_s": 1.0, "cpu_s": 1.0, "cases": []}
    e2e = bench.end_to_end_metrics([CaseResult("x", 1.0)], 0.5)
    layer = bench.per_layer_metrics([fake], [fake], [Tracer()])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in layer.items()}
    assert len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_result_line_contract():
    proc = _run_bench(ROOT, "--workload", "direct", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 10
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "direct", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
