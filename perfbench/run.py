"""Outside-in benchmark for fraclap.

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout. An untraced run (`--trace 0`)
imports the modules the workload uses, then makes one whole pass over the
workload's cases and keeps running the cases in turn while the next one is
expected to end within `--seconds`; between cases it times fresh
interpreters importing those modules (`setup_s`), spread over the run. It
reports the end-to-end metrics of BENCHMARK.json: a pass's time is the sum
over cases of each case's median time, and `setup_s` the median set-up
time. A traced run (`--trace 1`) alternates untraced and traced passes while
the next pair is expected to end within `--seconds` (at least one pair) and
reports the per-layer metrics. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the line before
it records the run environment. See perfbench/README.md for the workloads
and notes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
NPROC = len(os.sched_getaffinity(0))
# Set-up is timed this many times per untraced run, spread over the run like
# the case runs, so that a slow minute of a shared machine moves it no more
# than it moves wall_s.
SETUP_SAMPLES = 11

SETUP_MODULES = {
    "spectral": ["fraclap.hodge", "fraclap.cutoffs", "fraclap.compensation", "fraclap.lorentz",
                 "fraclap.meanvalue", "fraclap.solve", "fraclap.growth", "fraclap.fields"],
    "direct": ["fraclap.growth", "fraclap.meanvalue", "fraclap.singular", "fraclap.cutoffs",
               "fraclap.multipliers", "fraclap.fields"],
}


def _cap_threads() -> None:
    """Run BLAS on one thread, so that a pass uses one core and a neighbour on
    the other core slows it less; numpy reads these variables when it is
    first imported. A change that adds threads shows in `cpu_s`."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_fraclap() -> None:
    """Import the package from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "fraclap", "__init__.py")):
        sys.exit(f"perfbench: no fraclap sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import fraclap.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(fraclap.cli.__file__))) != SRC:
        sys.exit(f"perfbench: fraclap was imported from {fraclap.cli.__file__}, not from {SRC}")


def time_setup(workload: str) -> float:
    """Time from starting a fresh interpreter to having imported fraclap.cli
    and the workload's modules."""
    modules = ", ".join(["fraclap.cli", *SETUP_MODULES[workload]])
    code = f"import sys; sys.path.insert(0, {SRC!r}); import {modules}; print('ready', flush=True)"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up interpreter failed with exit code {proc.returncode}")
    return elapsed


def _command_output(argv) -> str:
    try:
        return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return ""


def _blas_threads():
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        cdll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(cdll, symbol):
                return int(getattr(cdll, symbol)())
    return None


def environment() -> dict:
    import importlib.metadata
    import importlib.util
    import platform

    import numpy as np

    caches = {}
    for line in _command_output(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip().split()[0]] = value.strip()
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    # a checkout without .git has no rev; do not let git search parent directories
    has_git = os.path.exists(os.path.join(ROOT, ".git"))
    return {
        "git_rev": (has_git and _command_output(["git", "rev-parse", "HEAD"]).strip()) or "unknown",
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": _blas_threads(),
        "cache": caches,
    }


def run_until(cases, seed: int, out_dir: str, deadline: float, before_case=lambda: None) -> list:
    """Every case once, then the cases again in turn for as long as the next
    one, taking as long as its last run, ends before `deadline`. Calls
    `before_case()` before each case. Returns the CaseResults in the order
    they ran."""
    from workloads import run_case

    results = []
    for case in cases:
        before_case()
        results.append(run_case(case, seed, out_dir))
    last = {r.name: r.wall_s for r in results}
    while True:
        for case in cases:
            before_case()
            if time.perf_counter() + last[case.name] > deadline:
                return results
            results.append(run_case(case, seed, out_dir))
            last[case.name] = results[-1].wall_s


def by_case(results: list) -> dict:
    runs = {}
    for r in results:
        runs.setdefault(r.name, []).append(r)
    return runs


def run_pass(cases, seed: int, out_dir: str) -> dict:
    from workloads import run_case

    wall0, cpu0 = time.perf_counter(), time.process_time()
    results = [run_case(case, seed, out_dir) for case in cases]
    return {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0,
            "cases": results}


def traced_pass(cases, seed: int, out_dir: str):
    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return run_pass(cases, seed, out_dir), tracer
    finally:
        tracer.uninstall()


def all_case_names() -> list:
    from workloads import WORKLOADS

    return [case.name for cases in WORKLOADS.values() for case in cases]


def per_layer_metrics(untraced: list, traced: list, tracers: list) -> dict:
    """Per-pass layer metrics; counts repeat exactly, so averaging over traced
    passes changes only the self times."""
    from layers import unit_of

    layer = {}
    for tracer in tracers:
        for name, value in tracer.layer_metrics().items():
            layer[name] = layer.get(name, 0.0) + value / len(tracers)
    case_wall = {}
    for p in untraced:
        for r in p["cases"]:
            case_wall.setdefault(r.name, []).append(r.wall_s)
    for name in all_case_names():
        layer[f"cli.{name}.wall_s"] = statistics.median(case_wall[name]) if name in case_wall else 0.0
    layer["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                    / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    return {name: {"value": value, "unit": unit_of(name)} for name, value in layer.items()}


def end_to_end_metrics(results: list, setup_s: float) -> dict:
    """Wall and CPU time of one pass as the sum over cases of the median of
    each case's runs."""
    import resource

    timed = by_case(results).values()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": sum(statistics.median(r.wall_s for r in runs) for runs in timed), "unit": "s"},
        "cpu_s": {"value": sum(statistics.median(r.cpu_s for r in runs) for runs in timed), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    }


def check_outputs(results: list) -> list:
    """Output problems of every case run, plus any report that differs
    between runs of the same (case, seed)."""
    problems, first = [], {}
    for r in results:
        problems += [f"{r.name}: {msg}" for msg in r.problems]
        if r.fingerprint:
            if first.setdefault(r.name, r.fingerprint) != r.fingerprint:
                problems.append(f"{r.name}: report differs between runs of the same seed")
    return problems


def count_failures(cases, results: list) -> tuple:
    """(attempted, failed): every case of the workload is one operation at
    the run's seed, and it failed if any of its runs failed. Repeated runs
    time the same operation, and check_outputs requires them to agree."""
    return len(cases), len({r.name for r in results if r.failed})


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _cap_threads()
    _import_fraclap()
    env = environment()
    for module in SETUP_MODULES[args.workload]:  # so that the first pass does not import them
        importlib.import_module(module)
    cases = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="reports-", dir=OUT)
    untraced, traced, tracers, setup_times = [], [], [], []
    try:
        start = time.perf_counter()
        deadline = start + args.seconds
        if args.trace:
            pair_s = 0.0
            while not untraced or time.perf_counter() + pair_s < deadline:
                pair_start = time.perf_counter()
                untraced.append(run_pass(cases, args.seed, out_dir))
                p, tracer = traced_pass(cases, args.seed, out_dir)
                traced.append(p)
                tracers.append(tracer)
                pair_s = time.perf_counter() - pair_start
            results = [r for p in untraced + traced for r in p["cases"]]
        else:
            def sample_setup():
                due = start + len(setup_times) * args.seconds / SETUP_SAMPLES
                if len(setup_times) < SETUP_SAMPLES and time.perf_counter() >= due:
                    setup_times.append(time_setup(args.workload))

            results = run_until(cases, args.seed, out_dir, deadline, sample_setup)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    problems = check_outputs(results)
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    runs = by_case(results)
    for name, rs in runs.items():
        times = " ".join(f"{r.wall_s:.3f}" for r in rs)
        reasons = sorted({r.reason for r in rs if r.failed})
        print(f"perfbench: {name} {times} s {'FAIL ' + '; '.join(reasons) if reasons else 'ok'}",
              file=sys.stderr)
    attempted, failed = count_failures(cases, results)

    if args.trace:
        metrics = per_layer_metrics(untraced, traced, tracers)
        largest = max(t.largest_array_bytes for t in tracers)
        env["largest_boundary_array_mib"] = largest / 2**20
        tracers[0].dump_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv"))
    else:
        metrics = end_to_end_metrics(results, statistics.median(setup_times))
    env.update(workload=args.workload, seed=args.seed, traced_passes=len(traced),
               setup_samples=len(setup_times), runs_per_case={name: len(rs) for name, rs in runs.items()})
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
