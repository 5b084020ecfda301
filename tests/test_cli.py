import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fraclap import cli
from fraclap.cli import (
    REGISTRY, RUN_OPTIONS, calibrate_suite, experiment, main, per_seed, split_seed_regression,
)
from fraclap.compensation import DEFECT_ROUNDOFF, DEFECT_SUP
from fraclap.grid import Grid
from fraclap.reporting import SLACK, Report, ReportError, load_constants, regression_bound, write_constants
from fraclap.solve import SolveError


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


def test_registration_builds_the_report_named_by_its_key(monkeypatch):
    monkeypatch.delitem(REGISTRY, "probe", raising=False)  # restores REGISTRY afterwards
    monkeypatch.delitem(REGISTRY, "probe-any-dim", raising=False)

    @experiment("probe", dim=2, grid=64)
    def run_probe(cfg, rep):
        rep.add_verdict("grid_read", cfg["grid"] == 64, cfg["grid"], 64)

    cfg = {"grid": 64, "box": 1.0, "seed": 3}
    rep = REGISTRY["probe"](cfg)
    assert rep.experiment == "probe"
    assert rep.config == {**cfg, "dim": 2}
    assert cfg == {"grid": 64, "box": 1.0, "seed": 3}
    assert rep.passed and [v["name"] for v in rep.verdicts] == ["grid_read"]
    assert REGISTRY["probe"].defaults == {"grid": 64}
    assert 'rep.add_verdict("grid_read"' in inspect.getsource(REGISTRY["probe"])

    experiment("probe-any-dim")(lambda cfg, rep: None)
    rep = REGISTRY["probe-any-dim"](cfg)
    assert rep.experiment == "probe-any-dim" and rep.config == cfg
    rep.config["depth"] = 1  # a body writes to its own copy, never to the run config
    assert "depth" not in cfg


def test_declared_options_are_the_options_read():
    # every cfg key an experiment reads, besides the seed, is declared, and
    # nothing else is; _grid(cfg, ...) reads the box
    for name, fn in REGISTRY.items():
        src = inspect.getsource(fn)
        read = set(re.findall(r'cfg(?:\.get\(|\[)"(\w+)"', src)) - {"seed"}
        if "_grid(cfg" in src:
            read.add("box")
        assert read <= set(RUN_OPTIONS), name
        assert set(fn.defaults) == read, name


@pytest.mark.parametrize("argv", [
    ["equivalence-ratio", "--s", "0"],
    ["campanato", "--grid", "0"],
])
def test_given_zero_is_not_the_default(capsys, tmp_path, argv):
    # a given 0 runs as 0 (and is refused), not as the declared default
    assert main(["run", *argv, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["hodge", "--s", "0"],
    ["harmonic-decay", "--s", "0"],
    ["lower-order-product", "--s", "0"],
    ["lower-order-product", "--s", "1"],
])
def test_order_outside_the_library_range_is_a_config_error(capsys, tmp_path, argv):
    # checked before any work, so no library error is left to read as a verdict
    assert main(["run", *argv, "--out", str(tmp_path)]) == 2
    assert "config error: --s must lie in (0," in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,message", [
    (["--m1", "abs_pow"], "wrong number of fields"),
    (["--m1", "riesz"], "wrong number of fields"),
    (["--m1", "riesz:1:2"], "wrong number of fields"),
    (["--m2", "identity:3"], "wrong number of fields"),
    (["--m2", "derived:identity:1"], "wrong number of fields"),
    (["--m1", "abs_pow:nan"], "must be finite"),
    (["--m1", "abs_pow:inf"], "must be finite"),
])
def test_malformed_symbol_id_is_a_config_error(capsys, tmp_path, argv, message):
    # a missing or extra field is refused, not run as another id or read as a verdict
    assert main(["run", "lower-order-product", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not list(tmp_path.iterdir())


def test_numerical_failure_exits_3(capsys, tmp_path, monkeypatch):
    def diverges(cfg):
        raise SolveError("CG failed to reach relative residual 1e-10 within 2 iterations")

    monkeypatch.setitem(REGISTRY, "diverges", diverges)
    assert main(["run", "diverges", "--out", str(tmp_path)]) == 3
    assert "numerical failure: CG failed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_plain_runtime_error_propagates(tmp_path, monkeypatch):
    def crashes(cfg):
        raise RuntimeError("not a numerical failure")

    monkeypatch.setitem(REGISTRY, "crashes", crashes)
    with pytest.raises(RuntimeError, match="not a numerical"):
        main(["run", "crashes", "--out", str(tmp_path)])


def test_report_echoes_the_defaults_that_ran(tmp_path):
    assert main(["run", "mv-poincare", "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "mv-poincare.json").read_text())["config"]
    assert (config["grid"], config["s"], config["box"]) == (2048, 0.5, 1.0)
    assert REGISTRY["mv-poincare"].defaults == {"grid": 2048, "box": 1.0, "s": 0.5}


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
    name = "compensation/h_l2"
    assert report["constants_used"] == [{"name": name, "bound": regression_bound(payload, name)}]


def test_calibrate_writes_exactly_what_compensation_reads(tmp_path):
    path = tmp_path / "constants.json"
    assert main(["calibrate", "compensation", "--out", str(path)]) == 0
    written = json.loads(path.read_text())["constants"]
    assert main(["run", "compensation", "--constants", str(path), "--out", str(tmp_path / "reports")]) == 0
    report = json.loads((tmp_path / "reports" / "compensation.json").read_text())
    assert sorted(written) == sorted(used["name"] for used in report["constants_used"]) == ["compensation/h_l2"]
    # the defect bound is the exact sup, the same with or without a constants file
    bounds = _regression_bounds(tmp_path / "reports")
    assert bounds["defect_regression"] == DEFECT_SUP + DEFECT_ROUNDOFF


@pytest.mark.parametrize("suite", ["lorentz", "all"])
def test_calibrate_refuses_other_suites(tmp_path, suite):
    path = tmp_path / "constants.json"
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", suite, "--out", str(path)])
    assert exc.value.code == 2
    assert not path.exists()
    with pytest.raises(ReportError, match="unknown calibration suite"):
        calibrate_suite(suite, 0, str(path))


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
    cal, fresh = split_seed_regression(rep, per_seed(_synthetic_sample(calls)), range(6), range(100, 104),
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


def test_split_seed_samples_all_seeds_in_one_call():
    rep, calls = Report("synthetic", {}), []

    def samples(seeds):
        calls.append(list(seeds))
        return per_seed(_synthetic_sample([]))(seeds)

    cal, fresh = split_seed_regression(rep, samples, range(6), range(100, 104), {"pos_regression": "pos"})
    assert calls == [[*range(6), *range(100, 104)]]
    assert (cal, fresh) == (_expected_sup(range(6)), _expected_sup(range(100, 104)))


def test_annulus_mv_poincare_draws_each_field_once(tmp_path, monkeypatch):
    drawn = []

    def counted(grid, seed, **kwargs):
        drawn.append(seed)
        return band_limited_field(grid, seed, **kwargs)

    band_limited_field = cli.band_limited_field
    monkeypatch.setattr(cli, "band_limited_field", counted)
    assert main(["run", "annulus-mv-poincare", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert drawn == list(range(3, 11))


def test_runs_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (1.26 MB of RSS in numpy 2.4); the runs that
    # took distinct values with it no longer load it
    code = ("import sys; from fraclap.cli import main; "
            f"codes = [main(['run', x, '--out', {str(tmp_path)!r}]) "
            "for x in ('dirichlet-growth', 'lorentz-algebra')]; "
            "sys.exit(10 * any(codes) + ('numpy.ma' in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True).returncode == 0


def test_split_seed_negative_calibration_sup_gives_floor():
    rep = Report("synthetic", {})
    cal, fresh = split_seed_regression(rep, per_seed(_synthetic_sample([])), range(6), range(100, 104),
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
    cal, fresh = split_seed_regression(rep, per_seed(_synthetic_sample(calls)), range(6), range(100, 104),
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


def test_missing_constants_file_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(ReportError, match="absent.json"):
        load_constants(str(path))
    assert main(["run", "compensation", "--constants", str(path), "--out", str(tmp_path / "reports")]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("scales", [["4.5"], ["4", "7"], ["0"], ["inf"]])
def test_partition_refuses_scales_other_than_one_depth(capsys, tmp_path, scales):
    # the report echoes --scales, so the one value given must be the depth that runs
    assert main(["run", "partition-of-unity", "--scales", *scales, "--out", str(tmp_path)]) == 2
    assert "one integer depth" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
