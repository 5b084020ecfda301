"""Report and constants-file plumbing for the experiment runner.

Reports serialize to JSON (sorted keys, full-precision floats) plus CSV
tables; two runs with the same config and seed are byte-identical except for
the wall-clock field.  Calibrated constants live in a versioned JSON file
that records the grid spec and seed they were produced with; regression runs
refuse to proceed when the grid spec differs.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field


class ReportError(ValueError):
    pass


@dataclass
class Report:
    experiment: str
    config: dict
    verdicts: list = field(default_factory=list)  # {name, passed, value, bound}
    tables: dict = field(default_factory=dict)  # name -> list of row dicts
    constants_used: list = field(default_factory=list)
    wall_clock_s: float = 0.0

    def add_verdict(self, name: str, passed: bool, value=None, bound=None) -> None:
        self.verdicts.append(
            {"name": name, "passed": bool(passed), "value": value, "bound": bound}
        )

    def add_table(self, name: str, rows: list) -> None:
        self.tables[name] = rows

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def to_dict(self) -> dict:
        _reject_nan(self.tables)
        _reject_nan(self.verdicts)
        return {
            "experiment": self.experiment,
            "config": self.config,
            "verdicts": self.verdicts,
            "tables": self.tables,
            "constants_used": self.constants_used,
            "passed": self.passed,
            "wall_clock_s": self.wall_clock_s,
        }

    def write(self, out_dir: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{self.experiment}.json")
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1, default=_json_default)
        for name, rows in self.tables.items():
            if not rows:
                continue
            cpath = os.path.join(out_dir, f"{self.experiment}__{name}.csv")
            with open(cpath, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=sorted(rows[0].keys()))
                writer.writeheader()
                for row in rows:
                    writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
        return path


def _json_default(obj):
    try:
        import numpy as np

        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
    except ImportError:  # pragma: no cover
        pass
    raise TypeError(f"unserializable {type(obj)}")


def _reject_nan(obj) -> None:
    if isinstance(obj, dict):
        for v in obj.values():
            _reject_nan(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _reject_nan(v)
    elif isinstance(obj, float) and obj != obj:
        raise ReportError("NaN in report tables")


# -- constants file -----------------------------------------------------------

CONSTANTS_SCHEMA = 1
# the grid spec of every file `fraclap calibrate` writes; it has no grid options
CALIBRATION_GRID = {"dim": 1, "points_per_axis": 512, "box_length": 1.0}


def grid_spec(grid) -> dict:
    return {
        "dim": grid.dim,
        "points_per_axis": grid.points_per_axis,
        "box_length": grid.box_length,
    }


def write_constants(path: str, seed: int, grid, constants: dict) -> None:
    """constants: name -> {value, provenance}."""
    payload = {
        "schema": CONSTANTS_SCHEMA,
        "seed": seed,
        "grid": grid_spec(grid),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "constants": constants,
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def load_constants(path: str, expect_grid=None) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") != CONSTANTS_SCHEMA:
        raise ReportError(f"unsupported constants schema in {path}")
    if expect_grid is not None:
        want = grid_spec(expect_grid)
        have = payload.get("grid")
        if have != want:
            cal = "Grid({dim}, {points_per_axis}, {box_length})".format(**CALIBRATION_GRID)
            raise ReportError(
                f"constants file grid spec {have} does not match run grid {want}; "
                f"fraclap calibrate writes constants only for {cal}, so regress on that grid"
            )
    return payload


SLACK = 1.01  # fresh samples must stay within a calibrated constant times SLACK


def regression_bound(payload: dict, name: str) -> float:
    try:
        return float(payload["constants"][name]["value"]) * SLACK
    except KeyError as exc:
        raise ReportError(f"constant {name} missing from constants file") from exc
