"""Per-layer tracing for the benchmark, applied from outside the package.

`Tracer.install()` replaces the public functions listed in `LAYERS` with
wrappers that record a span (name, start, end, parent) and, for some
functions, work counters computed from argument and result sizes. A function
is rebound in the module that defines it and in every `fraclap.*` namespace
that imported it by name, so intra-package calls are traced too; methods are
patched on their class. `uninstall()` restores every original.

Counters are exact for a given (case, seed): they are derived from array
sizes, not from hardware events, and ignore cache behaviour.
"""

from __future__ import annotations

import functools
import glob
import importlib
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _npoints(a) -> int:
    return int(np.asarray(a).size)


# -- counter hooks: (tracer, args, kwargs, result) -> None ----------------------

def _count_apply_symbol(t, args, kwargs, result):
    f, symbol = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "symbol")
    key = (f.grid, symbol.name)
    t.counters["multipliers.apply_symbol.points"] += f.grid.npoints
    t.counters["multipliers.apply_symbol.repeats"] += key in t.seen_symbols
    t.seen_symbols.add(key)
    # one complex128 forward and one inverse FFT, each reading and writing every point
    t.counters["multipliers.fft_bytes_computed"] += 2 * 2 * 16 * f.grid.npoints


def _count_apply_table(t, args, kwargs, result):
    n = _npoints(_arg(args, kwargs, 0, "values"))
    t.counters["multipliers.apply_table.points"] += n
    t.counters["multipliers.fft_bytes_computed"] += 2 * 2 * 16 * n


def _count_periodized_kernel(t, args, kwargs, result):
    t.counters["singular.periodized_kernel.points"] += _arg(args, kwargs, 0, "grid").npoints


def _count_gagliardo(t, args, kwargs, result):
    from fraclap.singular import PAIR_SUM_CAPS

    f, D, s = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "D"), _arg(args, kwargs, 2, "s")
    P = f.grid.npoints if D is None else int(np.count_nonzero(D.values))
    kept = P
    if s != math.floor(s):  # fractional order: the pair sum keeps every stride-th point
        stride = max(1, math.ceil(P / PAIR_SUM_CAPS[f.grid.dim]))
        kept = math.ceil(P / stride)
    t.counters["singular.gagliardo_seminorm.mask_points"] += P
    t.counters["singular.gagliardo_seminorm.kept_points"] += kept


def _count_raw_second_difference(t, args, kwargs, result):
    t.counters["singular.raw_second_difference.points"] += _npoints(result)


def _count_pairs(name):
    def hook(t, args, kwargs, result):
        P = np.asarray(args[0]).shape[0]
        t.counters[f"kernels.{name}.pairs"] += P * P

    return hook


def _count_second_difference_sum(t, args, kwargs, result):
    t.counters["kernels.second_difference_sum.terms"] += _npoints(result) * _npoints(args[2])


def _count_restricted_cg(t, args, kwargs, result):
    _, iterations, residual = result
    c = t.counters
    c["solve.restricted_cg.iterations"] += iterations
    c["solve.restricted_cg.max_residual"] = max(c["solve.restricted_cg.max_residual"], residual)


def _count_poincare(t, args, kwargs, result):
    t.counters["meanvalue.poincare_constant.power_iterations"] += result["iterations"]


def _count_partial(t, args, kwargs, result):
    t.counters["cutoffs.DyadicCutoffFamily.partial.points"] += _npoints(_arg(args, kwargs, 2, "rho"))


def _count_evaluate(t, args, kwargs, result):
    t.counters["cutoffs.evaluate.support_points"] += int(np.count_nonzero(result.values))
    t.counters["cutoffs.evaluate.points"] += result.values.size


def _count_report_write(t, args, kwargs, result):
    experiment = args[0].experiment
    files = [result] + glob.glob(os.path.join(os.path.dirname(result), f"{experiment}__*.csv"))
    t.counters["reporting.Report.write.bytes"] += sum(os.path.getsize(p) for p in files)


# layer -> (defining module, [(qualified name, metric label, counter hook)])
LAYERS = {
    "multipliers": ("fraclap.multipliers", [
        ("apply_symbol", None, _count_apply_symbol),
        ("apply_table", None, _count_apply_table),
    ]),
    "grid": ("fraclap.grid", [
        ("transform_forward", None, None),
        ("transform_inverse", None, None),
        ("Grid.periodic_displacement", "periodic_displacement", None),
        ("ball_mask", None, None),
        ("annulus_mask", None, None),
        ("lp_norm", None, None),
    ]),
    "singular": ("fraclap.singular", [
        ("periodized_kernel", None, _count_periodized_kernel),
        ("gagliardo_seminorm", None, _count_gagliardo),
        ("raw_operator_field", None, None),
        ("raw_second_difference", None, _count_raw_second_difference),
    ]),
    # metric names must start with a letter, so `_kernels` reports as `kernels`
    "kernels": ("fraclap._kernels", [
        ("pair_sum_sq_diff", None, _count_pairs("pair_sum_sq_diff")),
        ("ball_scan", None, _count_pairs("ball_scan")),
        ("modulus_scan", None, _count_pairs("modulus_scan")),
        ("second_difference_sum", None, _count_second_difference_sum),
    ]),
    "solve": ("fraclap.solve", [("restricted_cg", None, _count_restricted_cg)]),
    "hodge": ("fraclap.hodge", [
        ("hodge_decompose", None, None),
        ("disjoint_pairing_decay", None, None),
    ]),
    "meanvalue": ("fraclap.meanvalue", [
        ("poincare_constant", None, _count_poincare),
        ("meanvalue_polynomial", None, None),
    ]),
    "cutoffs": ("fraclap.cutoffs", [
        ("build_family", None, None),
        ("DyadicCutoffFamily.partial", None, _count_partial),
        ("evaluate", None, _count_evaluate),
    ]),
    "compensation": ("fraclap.compensation", [
        ("commutator_H", None, None),
        ("defect_scan", None, None),
    ]),
    "lorentz": ("fraclap.lorentz", [("decreasing_rearrangement", None, None)]),
    "growth": ("fraclap.growth", [
        ("campanato_functionals", None, None),
        ("holder_exponent_estimate", None, None),
        ("driteration", None, None),
        ("iteration_reduce", None, None),
    ]),
    "fields": ("fraclap.fields", [
        ("band_limited_field", None, None),
        ("smooth_bump", None, None),
        ("confined_field", None, None),
    ]),
    "reporting": ("fraclap.reporting", [("Report.write", None, _count_report_write)]),
}

# counters reported as they are; ratios are derived from the raw counts in `layer_metrics`
COUNTERS = [
    "multipliers.apply_symbol.points",
    "multipliers.apply_table.points",
    "multipliers.fft_bytes_computed",
    "singular.periodized_kernel.points",
    "singular.gagliardo_seminorm.mask_points",
    "singular.raw_second_difference.points",
    "kernels.pair_sum_sq_diff.pairs",
    "kernels.ball_scan.pairs",
    "kernels.modulus_scan.pairs",
    "kernels.second_difference_sum.terms",
    "solve.restricted_cg.iterations",
    "solve.restricted_cg.max_residual",
    "meanvalue.poincare_constant.power_iterations",
    "cutoffs.DyadicCutoffFamily.partial.points",
    "reporting.Report.write.bytes",
]
RATIOS = {
    # name: (numerator counter, denominator counter)
    "multipliers.apply_symbol.repeat_frac": ("multipliers.apply_symbol.repeats", "multipliers.apply_symbol.calls"),
    "singular.gagliardo_seminorm.kept_frac": ("singular.gagliardo_seminorm.kept_points",
                                               "singular.gagliardo_seminorm.mask_points"),
    "cutoffs.evaluate.support_frac": ("cutoffs.evaluate.support_points", "cutoffs.evaluate.points"),
}
UNITS = {"bytes": "B", "fft_bytes_computed": "B", "max_residual": "ratio", "self_s": "s", "wall_s": "s"}


def span_names() -> list:
    return [f"{layer}.{label or qual}" for layer, (_, fns) in LAYERS.items() for qual, label, _ in fns]


def _largest_array(values) -> int:
    best = 0
    for v in values:
        v = getattr(v, "values", v)
        if isinstance(v, np.ndarray):
            best = max(best, v.nbytes)
    return best


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: defaultdict = defaultdict(float)
        self.seen_symbols: set = set()  # (grid, symbol name) pairs applied so far
        self.largest_array_bytes = 0
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counters[f"{name}.raised"] += 1
                raise
            finally:
                tracer.spans[index] = (name, start, time.perf_counter(), parent)
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            tracer.largest_array_bytes = max(tracer.largest_array_bytes,
                                             _largest_array((result, *args)))
            return result

        return traced

    def install(self) -> None:
        for layer, (modname, fns) in LAYERS.items():
            module = importlib.import_module(modname)
            for qual, label, hook in fns:
                name = f"{layer}.{label or qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._restore.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original, hook))
                    continue
                original = getattr(module, qual)
                wrapper = self._wrap(name, original, hook)
                for mod in [m for k, m in sys.modules.items() if k == "fraclap" or k.startswith("fraclap.")]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self) -> dict:
        """calls and self time per traced function, counters and ratios."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: defaultdict = defaultdict(int)
        self_s: defaultdict = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        raw = dict(self.counters)
        raw["multipliers.apply_symbol.calls"] = calls["multipliers.apply_symbol"]
        out["solve.restricted_cg.failed"] = raw.get("solve.restricted_cg.raised", 0.0)
        for name in COUNTERS:
            out[name] = raw.get(name, 0.0)
        for name, (num, den) in RATIOS.items():
            out[name] = raw.get(num, 0.0) / raw[den] if raw.get(den) else 0.0
        return out

    def dump_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    return "ratio" if last.endswith("_frac") else "count"
