import copy
import importlib.util
import json
import pathlib

import numpy as np

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "reports.py"
_spec = importlib.util.spec_from_file_location("reports_tool", TOOL)
reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reports)

# two experiments, one with a CSV table, and the suite whose file is stamped
SUBSET = {
    "lorentz-algebra": ["run", "lorentz-algebra"],
    "partition-of-unity": ["run", "partition-of-unity", "--scales", "4"],
    "calibrate-compensation": ["calibrate", "compensation"],
}
ENVIRONMENT = {"git_rev": "0" * 40, "numpy": "2.4.6"}


def _manifest(workdir):
    return {"environment": ENVIRONMENT, "cases": reports.run_cases(SUBSET, (0,), workdir)}


def test_default_cases_are_every_experiment_the_grid_cases_and_calibration():
    cases = reports.default_cases({"hodge": None, "campanato": None})
    assert cases == {
        "campanato": ["run", "campanato"], "hodge": ["run", "hodge"],
        **{f"{name}-g{n}": ["run", name, "--grid", str(n)] for name, n in reports.GRID_CASES},
        "calibrate-compensation": ["calibrate", "compensation"],
    }
    assert len(reports.GRID_CASES) == 6


def test_two_runs_give_equal_manifests(tmp_path, monkeypatch):
    first = _manifest(tmp_path / "a")
    # the wall clock moves between runs; the manifest does not
    monkeypatch.setattr("time.strftime", lambda *args: "2000-01-01T00:00:00")
    monkeypatch.setattr("time.time", lambda: 1e9)
    assert _manifest(tmp_path / "b") == first
    case = first["cases"]["seed0/partition-of-unity"]
    assert case["exit"] == 0
    assert sorted(case["files"]) == ["partition-of-unity.json", "partition-of-unity__deviation.csv"]
    assert case["verdicts"]["partition_identity_on_ball"]["passed"] is True
    assert list(first["cases"]["seed0/calibrate-compensation"]["files"]) == ["constants.json"]


def test_diff_shows_a_planted_one_ulp_change(tmp_path, capsys):
    old = _manifest(tmp_path)
    new = copy.deepcopy(old)
    lines, moved = reports.diff(old, new)
    assert not moved and lines == [f"0 changes over 3 cases and {_verdict_count(old)} verdicts"]

    verdict = new["cases"]["seed0/lorentz-algebra"]["verdicts"]["scaling_law_1pct"]
    verdict["value"] = float(np.nextafter(verdict["value"], np.inf))
    new["environment"] = {**ENVIRONMENT, "numpy": "9.9"}
    paths = [tmp_path / "A.json", tmp_path / "B.json"]
    for path, manifest in zip(paths, (old, new)):
        path.write_text(json.dumps(manifest))
    assert reports.main(["--diff", *map(str, paths)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("note: environment numpy 2.4.6 -> 9.9")
    (line,) = [x for x in out if x.startswith("seed0/lorentz-algebra scaling_law_1pct:")]
    relative = float(line.split("value ")[1].split(" relative")[0])
    assert 0 < relative < 1e-12 and "outcome" not in line
    assert out[-1].startswith("1 changes over 3 cases")

    verdict["passed"] = not verdict["passed"]
    lines, _ = reports.diff(old, new)
    assert any(x.endswith("outcome PASS -> FAIL") for x in lines)


def _verdict_count(manifest):
    return sum(len(case["verdicts"]) for case in manifest["cases"].values())
