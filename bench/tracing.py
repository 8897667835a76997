"""Spans around the public functions of each lemnisub layer, from outside.

``Tracer.install`` replaces every binding of a target function that the
package holds: the defining module's attribute, each module that
imported the name (``verify`` calls its own ``margin_on_circle``, ``cli``
its own ``numeric_threshold``), class attributes and their aliases
(``__rmul__``, ``__call__``) and module-level dicts of functions
(``ADMISSIBILITY_EVALUATORS``).  Each call records one span: name,
start, end, parent span, the operation it belongs to and a work count.
Spans stay in memory until ``save`` writes them out at the end of the
run; ``metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


def _points(args, kwargs, result):
    return int(np.size(kwargs.get("t", args[2] if len(args) > 2 else ())))


def _order(args, kwargs, result):
    return int(result.order)


def _series_coeffs(args, kwargs, result):
    return int(result.order) + 1


def _eval_terms(args, kwargs, result):
    series, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
    return int(np.size(z)) * len(series)


# (module, attribute path, span name, work count)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("report", "build_document", "report.build_document", None),
    ("report", "write_json", "report.write", None),
    ("verify", "numeric_threshold", "verify.numeric_threshold", None),
    ("verify", "boundary_margin_profile", "verify.boundary_margin_profile", None),
    ("verify", "admissibility_min", "verify.admissibility_min", None),
    ("verify", "check_superordination", "verify.check_superordination", None),
    ("verify", "implication_trial", "verify.implication_trial", None),
    ("verify", "subordination_check", "verify.subordination_check", None),
    ("catalog", "margin_on_circle", "catalog.margin_on_circle", _points),
    ("catalog", "zqprime_over_q_circle", "catalog.admissibility", None),
    ("catalog", "zhprime_over_q_circle", "catalog.admissibility", None),
    ("catalog", "phi_of_q_circle", "catalog.admissibility", None),
    ("generate", "random_schwarz", "generate.random_schwarz", None),
    ("generate", "solve_premise", "generate.solve_premise", _order),
    ("generate", "solve_premise_ode", "generate.solve_premise_ode", _order),
    ("series", "PowerSeries.power", "series.power", _series_coeffs),
    ("series", "PowerSeries.sqrt", "series.sqrt", _series_coeffs),
    ("series", "_divide", "series.divide", _series_coeffs),
    ("series", "PowerSeries.__mul__", "series.mul", _series_coeffs),
    ("series", "PowerSeries.eval", "series.eval", _eval_terms),
    ("regions", "membership_margins", "regions.membership_margins", None),
)

# per-layer metrics: (metric, span name, field, unit)
METRICS = (
    ("verify.numeric_threshold.self_s", "verify.numeric_threshold", "self", "s"),
    ("verify.boundary_margin_profile.calls", "verify.boundary_margin_profile", "calls", "count"),
    ("verify.boundary_margin_profile.self_s", "verify.boundary_margin_profile", "self", "s"),
    ("catalog.margin_on_circle.points", "catalog.margin_on_circle", "count", "count"),
    ("catalog.margin_on_circle.busy_s", "catalog.margin_on_circle", "busy", "s"),
    ("verify.admissibility_min.self_s", "verify.admissibility_min", "self", "s"),
    ("catalog.admissibility.busy_s", "catalog.admissibility", "busy", "s"),
    ("verify.check_superordination.self_s", "verify.check_superordination", "self", "s"),
    ("report.build_document.busy_s", "report.build_document", "busy", "s"),
    ("report.write.busy_s", "report.write", "busy", "s"),
    ("cli.main.self_s", "cli.main", "self", "s"),
    ("generate.solve_premise.self_s", "generate.solve_premise", "self", "s"),
    ("generate.solve_premise_ode.calls", "generate.solve_premise_ode", "calls", "count"),
    ("generate.solve_premise_ode.coeffs", "generate.solve_premise_ode", "count", "count"),
    ("generate.solve_premise_ode.self_s", "generate.solve_premise_ode", "self", "s"),
    ("series.power.busy_s", "series.power", "busy", "s"),
    ("series.sqrt.busy_s", "series.sqrt", "busy", "s"),
    ("series.divide.busy_s", "series.divide", "busy", "s"),
    ("series.mul.busy_s", "series.mul", "busy", "s"),
    ("series.eval.busy_s", "series.eval", "busy", "s"),
    ("series.eval.terms", "series.eval", "count", "count"),
    ("verify.subordination_check.self_s", "verify.subordination_check", "self", "s"),
    ("regions.membership_margins.busy_s", "regions.membership_margins", "busy", "s"),
    ("generate.random_schwarz.busy_s", "generate.random_schwarz", "busy", "s"),
)
SERIES_OPS = ("series.power", "series.sqrt", "series.divide", "series.mul")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("q")
        self.current_op = -1
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, fn, name: str, counter):
        ident = self._ids.setdefault(name, len(self._ids))
        if ident == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(ident)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.count.append(0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if counter is not None:
                self.count[i] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "lemnisub" or key.startswith("lemnisub.")]
        for module, path, name, counter in TARGETS:
            owner = sys.modules[f"lemnisub.{module}"]
            head, _, attr = path.rpartition(".")
            if head:
                owner = getattr(owner, head)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name, counter)
            for holder in modules + [owner]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append((value, k, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "count": np.frombuffer(self.count, dtype=np.int64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict:
        a = self.arrays()
        n = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        fields = {
            "calls": np.bincount(a["name"], minlength=n),
            "busy": np.bincount(a["name"], weights=dur, minlength=n),
            "self": np.bincount(a["name"], weights=dur - child, minlength=n),
            "count": np.bincount(a["name"], weights=a["count"], minlength=n),
        }

        def get(name: str, field: str) -> float:
            return float(fields[field][self._ids[name]]) if name in self._ids else 0.0

        out = {}
        for metric, name, field, unit in METRICS:
            value = get(name, field)
            out[metric] = {"value": int(value) if unit == "count" else value,
                           "unit": unit}
        out["series.coeffs"] = {
            "value": int(sum(get(name, "count") for name in SERIES_OPS)),
            "unit": "count"}
        solved = get("generate.solve_premise_ode", "count")
        out["generate.useful_coeff_ratio"] = {
            "value": get("generate.solve_premise", "count") / solved if solved else 0.0,
            "unit": "ratio"}
        return out
