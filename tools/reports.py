"""Digests of every `fraclap` report, and the verdicts that moved between two sets.

    python3 tools/reports.py [--out REPORTS_<rev>.json]
    python3 tools/reports.py --diff REPORTS_A.json REPORTS_B.json

Run from a source checkout. The first form runs, in one process through
`fraclap.cli.main` with this checkout's `src/`, every registered experiment
and the GRID_CASES at each of SEEDS, plus `fraclap calibrate compensation` at
each seed, each into a directory of its own. It writes a manifest: for every
case its exit code, the sha256 of every file it wrote and the value, bound
and outcome of every verdict, with the run environment of
`perfbench.run.environment()`. The wall-clock readings are dropped first (a
report's `wall_clock_s`, the value of each WALL_CLOCK_VERDICTS verdict, a
constants file's `created` stamp), so two runs of one tree in one
environment write equal manifests.

`--diff A B` prints every verdict whose value or bound moved from A to B,
with the largest relative change |b - a| / |a| (elementwise for a list),
every outcome flip, changed exit code and changed file hash, then a summary;
it exits 0 when no case moved and 1 otherwise. FFT bits depend on the numpy
build and the CPU, so environment fields that differ are printed as a note
and take no part in the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEEDS = (0, 7)
# the fine-grid cases of the CG solves and the singular integrals
GRID_CASES = (("hodge", 4096), ("harmonic-decay", 16384), ("poincare-scaling", 4096),
              ("local-norm-recovery", 4096), ("definition-equivalence", 16384), ("equivalence-ratio", 65536))
WALL_CLOCK_VERDICTS = {"runtime_seconds"}


def default_cases(registry) -> dict:
    """Case name -> `fraclap` arguments before --seed and --out: every
    experiment, the GRID_CASES and the calibration suite."""
    cases = {name: ["run", name] for name in sorted(registry)}
    cases.update({f"{name}-g{n}": ["run", name, "--grid", str(n)] for name, n in GRID_CASES})
    cases["calibrate-compensation"] = ["calibrate", "compensation"]
    return cases


def _digest(case_dir: pathlib.Path) -> dict:
    """sha256 of each file in case_dir with its wall-clock readings dropped,
    and name -> {value, bound, passed} of the verdicts its report holds."""
    files, verdicts = {}, {}
    for path in sorted(case_dir.iterdir()) if case_dir.is_dir() else []:
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(data)
            payload.pop("wall_clock_s", None)  # a report
            payload.pop("created", None)  # a constants file
            for verdict in payload.get("verdicts", []):
                if verdict["name"] in WALL_CLOCK_VERDICTS:
                    verdict["value"] = None
                verdicts[verdict["name"]] = {key: verdict[key] for key in ("value", "bound", "passed")}
            data = json.dumps(payload, sort_keys=True, indent=1).encode()
        files[path.name] = hashlib.sha256(data).hexdigest()
    return {"files": files, "verdicts": verdicts}


def run_cases(cases: dict, seeds, workdir) -> dict:
    """`seed<k>/<case>` -> {argv, exit, files, verdicts} for every case at
    every seed, run through `fraclap.cli.main` with its output silenced."""
    from fraclap import cli

    manifest = {}
    for seed in seeds:
        for name, argv in cases.items():
            case_dir = pathlib.Path(workdir, f"seed{seed}", name)
            out = case_dir / "constants.json" if argv[0] == "calibrate" else case_dir
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*argv, "--seed", str(seed), "--out", str(out)])
            manifest[f"seed{seed}/{name}"] = {"argv": argv, "exit": code, **_digest(case_dir)}
    return manifest


def _relative_change(a, b) -> float:
    """|b - a| / |a|, the largest over the entries of equal-length lists; 0
    for equal values, inf for any other change (from 0, of type or of length)."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_relative_change(x, y) for x, y in zip(a, b)), default=0.0)
    if type(a) is type(b) and a == b:
        return 0.0
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)) and a != 0:
        return abs(b - a) / abs(a)
    return math.inf


def diff(old: dict, new: dict) -> tuple:
    """(lines to print, whether any case moved) from manifest old to new."""
    lines, moved, count = [], 0, 0
    for key in sorted((set(old["environment"]) | set(new["environment"])) - {"git_rev"}):
        a, b = old["environment"].get(key), new["environment"].get(key)
        if a != b:
            lines.append(f"note: environment {key} {a} -> {b}; bits may differ for that reason alone")
    for case in sorted(set(old["cases"]) | set(new["cases"])):
        a, b = old["cases"].get(case), new["cases"].get(case)
        if a is None or b is None:
            lines.append(f"{case}: only in {'B' if a is None else 'A'}")
            moved += 1
            continue
        if a["exit"] != b["exit"]:
            lines.append(f"{case}: exit {a['exit']} -> {b['exit']}")
            moved += 1
        for name in sorted(set(a["files"]) | set(b["files"])):
            if a["files"].get(name) != b["files"].get(name):
                lines.append(f"{case}: {name} sha256 changed")
                moved += 1
        for name in sorted(set(a["verdicts"]) | set(b["verdicts"])):
            count += 1
            va, vb = a["verdicts"].get(name), b["verdicts"].get(name)
            if va is None or vb is None:
                lines.append(f"{case} {name}: only in {'B' if va is None else 'A'}")
                moved += 1
                continue
            value, bound = (_relative_change(va[k], vb[k]) for k in ("value", "bound"))
            flip = va["passed"] != vb["passed"]
            if value or bound or flip:
                outcome = f", outcome {'FAIL -> PASS' if vb['passed'] else 'PASS -> FAIL'}" if flip else ""
                lines.append(f"{case} {name}: value {value:.3g} relative, bound {bound:.3g} relative{outcome}")
                moved += 1
    lines.append(f"{moved} changes over {len(new['cases'])} cases and {count} verdicts")
    return lines, moved > 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="tools/reports.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two manifests")
    p.add_argument("--out", default=None, help="manifest path (default REPORTS_<rev>.json)")
    args = p.parse_args(argv)
    if args.diff:
        old, new = (json.loads(pathlib.Path(path).read_text()) for path in args.diff)
        lines, moved = diff(old, new)
        print("\n".join(lines))
        return int(moved)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from fraclap import cli
    from perfbench.run import environment

    with tempfile.TemporaryDirectory() as workdir:
        cases = run_cases(default_cases(cli.REGISTRY), SEEDS, workdir)
    env = environment()
    out = args.out or f"REPORTS_{env['git_rev'][:7]}.json"
    pathlib.Path(out).write_text(json.dumps({"environment": env, "seeds": list(SEEDS), "cases": cases},
                                            sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
