"""Checks of each operation's output against ``reference.py``.

Every check returns a list of problems; an empty list means the output
is right.  The checks run after the timed part of a run.  Tolerances sit
well above the rounding seen between the program and the reference and
well below the faults that ``selftest.py`` plants (a threshold off by a
factor 1 + 1e-3, a margin off by 1e-6, a flipped verdict).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as ref

CSV_COLUMNS = ["lemma", "A", "B", "D", "E", "k", "beta_star_closed",
               "beta_numeric", "gap", "status"]
THRESHOLD_STATUSES = {"Feasible", "Infeasible", "NonMonotoneMargin",
                      "NoThresholdInBracket"}
VERDICTS = {"Verified", "CriterionFails", "HypothesisFails"}

BISECT_TOL = 1e-6          # numeric_threshold's absolute bisection tolerance
SCAN_FLOOR = 1e-6          # lower end of its beta scan
SCAN_POINTS = 64
MARGIN_RTOL = 2e-8         # program vs reference minimum margin
ADM_RTOL = 1e-7
SUB_GRID = 2048            # subordination_check's angular grid
TAIL_RADIUS, TAIL_TOL = 0.999, 1e-9
PREMISE_RTOL = 1e-8
CONCLUSION_ATOL = 1e-9


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


# --- threshold ----------------------------------------------------------------

def check_threshold(op, code, text: str) -> list:
    if code != 0:
        return [f"exit {code}"]
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 or rows[0] != CSV_COLUMNS:
        return [f"CSV has {len(rows)} lines or a wrong header"]
    row = dict(zip(CSV_COLUMNS, rows[1]))
    bad = []
    if row["lemma"] != op.rule:
        bad.append(f"lemma {row['lemma']}")
    for name, value in op.params.items():
        if not _close(float(row[name]), value, 1e-5):
            bad.append(f"{name} echoed as {row[name]}")
    status = row["status"]
    if status not in THRESHOLD_STATUSES:
        return bad + [f"status {status!r}"]
    star = ref.beta_star(op.rule, op.params)
    if star is None:
        if status != "Infeasible" or row["beta_star_closed"] or row["beta_numeric"]:
            bad.append(f"hypothesis has no solution but status {status}")
        return bad
    if status == "Infeasible":
        return bad + [f"status Infeasible but beta* = {star!r}"]
    closed = float(row["beta_star_closed"])
    if not _close(closed, star, 1e-8) or not closed > 0.0:
        bad.append(f"beta_star_closed {closed!r}, reference {star!r}")
    if op.anchor is not None and not _close(closed, op.anchor, 1e-8):
        bad.append(f"anchor beta_star_closed {closed!r}, exact {op.anchor!r}")
    if status == "Feasible":
        bad += _check_crossing(op, row, closed, star)
    elif status == "NoThresholdInBracket":
        top, _ = ref.min_margin(op.rule, dict(op.params, beta=10.0 * star))
        if top >= 1.0 + 1e-9:
            bad.append(f"NoThresholdInBracket but margin {top!r} at 10 beta*")
    else:   # NonMonotoneMargin: the scan must see the margin fall back below 1
        scan = [ref.min_margin(op.rule, dict(op.params, beta=float(b)))[0]
                for b in np.linspace(SCAN_FLOOR, 10.0 * star, SCAN_POINTS)]
        reached = np.maximum.accumulate(np.asarray(scan) >= 1.0 - 1e-9)
        if not np.any(reached[:-1] & (np.asarray(scan[1:]) < 1.0 + 1e-9)):
            bad.append("NonMonotoneMargin but the reference margin never drops")
    return bad


def _check_crossing(op, row, closed: float, star: float) -> list:
    """beta_numeric is where the reference margin crosses 1 from below."""
    if not row["beta_numeric"] or not row["gap"]:
        return ["Feasible row without beta_numeric"]
    num = float(row["beta_numeric"])
    bad = []
    if abs(float(row["gap"]) - (closed - num)) > 1e-8 * max(1.0, closed, num):
        bad.append(f"gap {row['gap']} != {closed!r} - {num!r}")
    if op.anchor is not None and abs(num - op.anchor) > 2.0 * BISECT_TOL * max(1.0, op.anchor):
        bad.append(f"anchor beta_numeric {num!r}, exact {op.anchor!r}")
    # the bisection leaves beta_numeric at most BISECT_TOL * min(1, beta*)
    # above the crossing; step ten times that, and at least 1e-5 relative
    delta = max(1e-5, 10.0 * BISECT_TOL * min(1.0, star) / num)
    above, _ = ref.min_margin(op.rule, dict(op.params, beta=num * (1.0 + delta)))
    if above < 1.0 - ref.MARGIN_TOL:
        bad.append(f"margin {above!r} < 1 just above beta_numeric {num!r}")
    if num * (1.0 - delta) > SCAN_FLOOR:
        below, _ = ref.min_margin(op.rule, dict(op.params, beta=num * (1.0 - delta)))
        if below >= 1.0:
            bad.append(f"margin {below!r} >= 1 just below beta_numeric {num!r}")
    return bad


# --- verify -------------------------------------------------------------------

def data_section(text: str) -> bytes:
    """The report without its timestamp, the one field allowed to differ."""
    doc = json.loads(text)
    doc.get("metadata", {}).pop("timestamp", None)
    return json.dumps(doc, sort_keys=True).encode()


def check_verify(op, code, text: str) -> list:
    if code not in (0, 1):
        return [f"exit {code}"]
    doc = json.loads(text)
    verdict = doc.get("verdict")
    res = doc.get("results", {})
    bad = []
    if doc.get("command") != "verify" or verdict not in VERDICTS:
        return [f"command {doc.get('command')!r}, verdict {verdict!r}"]
    if (code == 0) != (verdict == "Verified"):
        bad.append(f"exit {code} with verdict {verdict}")
    if res.get("lemma") != op.rule:
        bad.append(f"lemma {res.get('lemma')!r}")

    gaps = ref.hypothesis_gaps(op.rule, op.params)
    feasible = min(gaps) >= 0.0
    if res.get("feasible") is not feasible and min(abs(g) for g in gaps) > 1e-9:
        bad.append(f"feasible {res.get('feasible')!r}, reference {feasible}")

    adm = res.get("admissibility", {})
    if set(adm) != ref.admissibility_keys(op.rule):
        return bad + [f"admissibility keys {sorted(adm)}"]
    for key, value in adm.items():
        want = ref.admissibility_min(op.rule, op.params, key)
        if not _close(value, want, ADM_RTOL):
            bad.append(f"{key} {value!r}, reference {want!r}")
    if op.rule in ("L5", "L6", "L7"):
        exact = {"L5": 0.75, "L6": 0.5, "L7": 0.25}[op.rule]
        if abs(adm["ReZQprimeOverQ"] - exact) > 1e-6:
            bad.append(f"ReZQprimeOverQ {adm['ReZQprimeOverQ']!r}, exact {exact}")
    criterion = [v > 0.0 for v in adm.values()]
    unsure = any(abs(v) <= 1e-9 for v in adm.values())

    if op.rule in ref.MARGIN_RULES:
        margin = res.get("margin") or {}
        got = margin.get("min_margin")
        if not isinstance(got, float) or margin.get("grid_size") != 4096:
            return bad + ["margin section missing or malformed"]
        want, _ = ref.min_margin(op.rule, op.params)
        if not _close(got, want, MARGIN_RTOL):
            bad.append(f"min_margin {got!r}, reference {want!r}")
        at_argmin = float(ref.boundary_margin(op.rule, op.params, margin["argmin_t"]))
        if not _close(got, at_argmin, MARGIN_RTOL):
            bad.append(f"margin at argmin_t is {at_argmin!r}, reported {got!r}")
        level = 1.0 - ref.MARGIN_TOL
        criterion.append(want >= level)
        unsure = unsure or abs(want - level) <= MARGIN_RTOL * max(1.0, want)
    elif "margin" in res:
        bad.append(f"{op.rule} has no margin criterion but reports one")

    if all(criterion):
        expect = "Verified" if res.get("feasible") else "HypothesisFails"
    else:
        expect = "CriterionFails"
    if verdict != expect and not unsure:
        bad.append(f"verdict {verdict}, expected {expect}")
    return bad


def check_repeat(text: str, first_text: str) -> list:
    if data_section(text) != data_section(first_text):
        return ["data section differs between two runs of the same point"]
    return []


# --- falsify ------------------------------------------------------------------

def _arg(op, name: str):
    for piece in op.argv:
        if piece.startswith(f"--{name}="):
            return int(piece.split("=", 1)[1])
    return None


def check_falsify(op, code, text: str) -> list:
    """Fields, summary and draw families of one falsify report."""
    if code != 0:
        return [f"exit {code}"]
    doc = json.loads(text)
    res = doc.get("results", {})
    trials = res.get("trials", [])
    order = _arg(op, "order")
    bad = []
    if doc.get("command") != "falsify" or res.get("lemma") != op.rule:
        bad.append("command or lemma echo")
    if res.get("beta") != op.params["beta"]:
        bad.append(f"beta echoed as {res.get('beta')!r}")
    if len(trials) != _arg(op, "trials"):
        return bad + [f"{len(trials)} trials reported"]
    draws = ref.schwarz_draws(_arg(op, "seed"), len(trials))
    allowed = {order} if order is not None else {64, 128, 256, 512}
    for i, (trial, draw) in enumerate(zip(trials, draws)):
        if trial["order"] not in allowed:
            bad.append(f"trial {i}: order {trial['order']}")
        if not 0.0 <= trial["premise_residual"] <= 1e-9:
            bad.append(f"trial {i}: residual {trial['premise_residual']!r}")
        kind = trial["schwarz"]
        if draw["family"] == "monomial":
            ok = kind == f"monomial({draw['m']})"
        elif draw["family"] == "blaschke":
            ok = kind.startswith("blaschke(")
        else:
            ok = kind == "poly(deg=8)"
        if not ok:
            bad.append(f"trial {i}: draw {kind!r}, reference family {draw['family']}")
    margins = [t["conclusion_margin"] for t in trials]
    summary = res.get("summary", {})
    if (summary.get("min_conclusion_margin") != min(margins)
            or summary.get("max_premise_residual")
            != max(t["premise_residual"] for t in trials)
            or summary.get("negative_margins") != sum(m < 0 for m in margins)):
        bad.append("summary disagrees with the trials")
    return bad


def rebuild_falsify(op, text: str) -> list:
    """Rebuild each trial's p through the public API and check it apart.

    ``random_schwarz`` and ``solve_premise`` are the calls the command
    makes.  The rebuilt p must reproduce the reported order; it must
    satisfy the premise equation at interior points against F(w(z))
    from the draw's closed form; and the conclusion margin recomputed
    from its coefficients must match the reported one.
    """
    from lemnisub import LemmaId, LemmaParams, random_schwarz, solve_premise

    doc = json.loads(text)
    trials = doc["results"]["trials"]
    radii = [float(r) for r in str(doc["metadata"]["config"]["radii"]).split(",")]
    order = _arg(op, "order")
    rng = np.random.default_rng(_arg(op, "seed"))
    draws = ref.schwarz_draws(_arg(op, "seed"), len(trials))
    lemma, params = LemmaId(op.rule), LemmaParams(**op.params)
    bad = []
    for i, (trial, draw) in enumerate(zip(trials, draws)):
        w = random_schwarz(rng, order or 64)
        sol = solve_premise(lemma, params, w, order)
        if sol.order != trial["order"]:
            bad.append(f"trial {i}: rebuilt order {sol.order}, reported {trial['order']}")
            continue
        coeffs = np.asarray(sol.p.coeffs)
        scale = 1.0
        if draw["family"] == "poly":
            scale, problem = _poly_scale(draw["c"], np.asarray(w.series.coeffs))
            if problem:
                bad.append(f"trial {i}: {problem}")
                continue
        bad += [f"trial {i}: {m}" for m in _premise_equation(op, coeffs, draw, scale)]
        got = trial["conclusion_margin"]
        want = conclusion_margin(op.rule, op.params, coeffs, radii)
        if abs(got - want) > CONCLUSION_ATOL * max(1.0, abs(want)):
            bad.append(f"trial {i}: conclusion margin {got!r}, recomputed {want!r}")
        tail = abs(coeffs[-1]) * TAIL_RADIUS ** (coeffs.size - 1) / (1.0 - TAIL_RADIUS)
        if trial["tail_certified"] is not bool(tail < TAIL_TOL):
            bad.append(f"trial {i}: tail_certified {trial['tail_certified']}, tail {tail!r}")
    return bad


def _poly_scale(raw: np.ndarray, series: np.ndarray):
    """The divisor s with series = raw / s, and whether w is then a self-map."""
    head = series[1:raw.size]
    s = complex(np.vdot(head, raw[1:]) / np.vdot(head, head))
    if abs(s.imag) > 1e-12 * abs(s) or not s.real > 0.0:
        return 1.0, f"polynomial draw scaled by {s!r}"
    s = s.real
    if np.max(np.abs(raw / s - series[:raw.size])) > 1e-12 * np.max(np.abs(raw / s)):
        return s, "polynomial draw is not the seeded polynomial"
    t = np.linspace(-math.pi, math.pi, 16384, endpoint=False)
    sup = float(np.max(np.abs(ref.horner(raw, np.exp(1j * t))))) / s
    if not 0.999 <= sup <= 1.0 + 1e-4:
        return s, f"polynomial draw has boundary maximum {sup!r}"
    return s, None


def _premise_equation(op, coeffs, draw, scale) -> list:
    z = 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False))
    lhs = ref.premise_functional(op.rule, op.params, coeffs, z)
    kind, XY = ref.premise_target(op.rule, op.params)
    rhs = ref.target_value(kind, XY, ref.schwarz_value(draw, z, scale))
    dev = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))
    if not dev <= PREMISE_RTOL:
        return [f"premise equation misses F(w(z)) by {dev:.3e} at |z| = 0.5"]
    return []


def conclusion_margin(rule: str, p: dict, coeffs, radii) -> float:
    """min over the sampled exhaustion of 1 - |conclusion inverse(p)|."""
    kind, XY = ref.conclusion_target(rule, p)
    t = np.linspace(-math.pi, math.pi, SUB_GRID, endpoint=False)
    z = np.concatenate([r * np.exp(1j * t) for r in radii])
    return float(np.min(1.0 - ref.inverse_modulus(kind, XY, ref.horner(coeffs, z))))
