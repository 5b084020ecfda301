import inspect
import json
import re

import numpy as np
import pytest

from fraclap.cli import REGISTRY, RUN_OPTIONS, calibrate_suite, main, split_seed_regression
from fraclap.grid import Grid
from fraclap.reporting import SLACK, Report, ReportError, load_constants, regression_bound, write_constants


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("hodge", "partition-of-unity", "dirichlet-growth"):
        assert name in out


def test_unknown_experiment(capsys):
    assert main(["run", "no-such-thing"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_bad_grid_names_field(capsys, tmp_path):
    rc = main(["run", "equivalence-ratio", "--grid", "12", "--out", str(tmp_path)])
    assert rc == 2
    assert "points_per_axis" in capsys.readouterr().err


def test_run_writes_report_and_csv(tmp_path):
    rc = main(["run", "partition-of-unity", "--scales", "4", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "partition-of-unity.json").read_text())
    assert payload["passed"] is True
    assert payload["verdicts"]
    assert (tmp_path / "partition-of-unity__deviation.csv").exists()


def test_determinism_modulo_wall_clock(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "lorentz-algebra", "--seed", "3", "--out", str(out)]) == 0

    def strip(path):
        payload = json.loads((path / "lorentz-algebra.json").read_text())
        payload.pop("wall_clock_s")
        return json.dumps(payload, sort_keys=True)

    assert strip(out1) == strip(out2)


def test_run_has_no_dim_option(capsys):
    # every experiment pins its own dimension; a --dim flag would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["run", "hodge", "--dim", "2"])
    assert exc.value.code == 2
    assert "--dim" in capsys.readouterr().err


@pytest.mark.parametrize("argv,ignored", [
    (["product-rule", "--grid", "64", "--s", "3"], ["--grid", "--s"]),
    (["partition-of-unity", "--grid", "64"], ["--grid"]),
    (["iteration-lemmas", "--box", "2"], ["--box"]),
    (["hodge", "--constants", "c.json", "--scales", "4"], ["--scales", "--constants"]),
])
def test_run_refuses_options_the_experiment_ignores(capsys, tmp_path, argv, ignored):
    # a report echoes its config; an option that never ran must not appear there
    assert main(["run", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"does not read {', '.join(ignored)}" in err
    assert not list(tmp_path.iterdir())


def test_declared_options_are_the_options_read():
    # every cfg key an experiment reads, besides the seed, is declared, and
    # nothing else is; _grid(cfg, ...) reads the box
    for name, fn in REGISTRY.items():
        src = inspect.getsource(fn)
        read = set(re.findall(r'cfg(?:\.get\(|\[)"(\w+)"', src)) - {"seed"}
        if "_grid(cfg" in src:
            read.add("box")
        assert read <= set(RUN_OPTIONS), name
        assert fn.reads == read, name


def _regression_bounds(out_dir):
    report = json.loads((out_dir / "compensation.json").read_text())
    return {v["name"]: v["bound"] for v in report["verdicts"] if v["name"].endswith("_regression")}


def test_calibrate_then_regress_same_seed(tmp_path):
    path = tmp_path / "constants.json"
    constants = calibrate_suite("compensation", 0, str(path))
    assert "compensation/h_l2" in constants
    payload = load_constants(str(path), expect_grid=Grid(1, 512, 1.0))
    bound = regression_bound(payload, "compensation/h_l2")
    assert bound >= constants["compensation/h_l2"]["value"]
    rc = main([
        "run", "compensation", "--grid", "512", "--constants", str(path),
        "--out", str(tmp_path / "reports"),
    ])
    assert rc == 0
    # the in-run calibration at the same seed sets the same bounds, bit for bit
    assert main(["run", "compensation", "--out", str(tmp_path / "in-run")]) == 0
    from_file = _regression_bounds(tmp_path / "reports")
    assert set(from_file) == {"h_norm_regression", "defect_regression"}
    assert _regression_bounds(tmp_path / "in-run") == from_file


def test_constants_mode_records_every_bound_it_reads(tmp_path):
    path = tmp_path / "constants.json"
    calibrate_suite("compensation", 0, str(path))
    payload = load_constants(str(path))
    out = tmp_path / "reports"
    assert main(["run", "compensation", "--constants", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "compensation.json").read_text())
    names = ("compensation/h_l2", "compensation/defect_p0.5")
    assert report["constants_used"] == [{"name": n, "bound": regression_bound(payload, n)} for n in names]


def _synthetic_sample(calls):
    """Seeded statistics: "pos" in [0.5, 1), "neg" in [-2, -1)."""
    def sample(seed):
        calls.append(seed)
        rng = np.random.default_rng(seed)
        return {"pos": float(rng.uniform(0.5, 1.0)), "neg": float(rng.uniform(-2.0, -1.0))}

    return sample


def _expected_sup(seeds):
    samples = [_synthetic_sample([])(seed) for seed in seeds]
    return {key: max(s[key] for s in samples) for key in ("pos", "neg")}


def test_split_seed_bound_is_calibration_sup_times_slack():
    rep, calls = Report("synthetic", {}), []
    cal, fresh = split_seed_regression(rep, _synthetic_sample(calls), range(6), range(100, 104),
                                       {"pos_regression": "pos"})
    assert calls == [*range(6), *range(100, 104)]
    assert cal == _expected_sup(range(6))
    assert fresh == _expected_sup(range(100, 104))
    (verdict,) = rep.verdicts
    assert verdict["name"] == "pos_regression"
    assert verdict["bound"] == cal["pos"] * SLACK
    assert verdict["value"] == fresh["pos"]
    assert verdict["passed"] == (fresh["pos"] <= cal["pos"] * SLACK)
    assert rep.constants_used == []


def test_split_seed_negative_calibration_sup_gives_floor():
    rep = Report("synthetic", {})
    cal, fresh = split_seed_regression(rep, _synthetic_sample([]), range(6), range(100, 104),
                                       {"neg_regression": "neg", "pos_regression": "pos"}, floor=1e-12)
    assert cal["neg"] < 0.0
    neg, pos = rep.verdicts
    assert neg["bound"] == 1e-12
    assert neg["value"] == fresh["neg"] and neg["passed"]
    assert pos["bound"] == cal["pos"] * SLACK + 1e-12


def test_split_seed_constants_payload_skips_calibration(tmp_path):
    path = tmp_path / "c.json"
    write_constants(str(path), 0, Grid(1, 64, 1.0), {"synthetic/pos": {"value": 0.75, "provenance": "x"}})
    rep, calls = Report("synthetic", {}), []
    cal, fresh = split_seed_regression(rep, _synthetic_sample(calls), range(6), range(100, 104),
                                       {"pos_regression": "pos"}, floor=1.0,
                                       constants=load_constants(str(path)))
    assert calls == list(range(100, 104))
    assert cal is None
    assert fresh == _expected_sup(range(100, 104))
    (verdict,) = rep.verdicts
    assert verdict["bound"] == 0.75 * SLACK
    assert rep.constants_used == [{"name": "synthetic/pos", "bound": 0.75 * SLACK}]


def test_regress_with_mismatched_grid_refuses(capsys, tmp_path):
    path = tmp_path / "constants.json"
    calibrate_suite("compensation", 0, str(path))
    # the message names the one grid `fraclap calibrate` can write
    with pytest.raises(ReportError, match=r"grid spec .* only for Grid\(1, 512, 1.0\)"):
        load_constants(str(path), expect_grid=Grid(1, 1024, 1.0))
    rc = main([
        "run", "compensation", "--grid", "1024", "--constants", str(path),
        "--out", str(tmp_path / "reports"),
    ])
    assert rc == 2
    assert "Grid(1, 512, 1.0)" in capsys.readouterr().err


def test_every_acceptance_criterion_has_an_experiment():
    needed = {
        "definition-equivalence", "equivalence-ratio", "partition-of-unity",
        "cutoff-norm-scaling", "hodge", "disjoint-support-decay",
        "poincare-scaling", "harmonic-decay", "lorentz-algebra",
        "compensation", "iteration-lemmas", "dirichlet-growth",
    }
    assert needed <= set(REGISTRY)


def test_constants_file_rejects_missing_name(tmp_path):
    path = tmp_path / "c.json"
    write_constants(str(path), 0, Grid(1, 64, 1.0), {"a/b": {"value": 1.0, "provenance": "x"}})
    payload = load_constants(str(path))
    with pytest.raises(ReportError, match="missing"):
        regression_bound(payload, "a/zzz")
