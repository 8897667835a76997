"""The radial threshold of every margin rule against its references.

Every margin rule has h - 1 = a + beta b, and each angle's criterion is
met from beta_t = top / g(t) on: on a Mobius premise (L1 for every k,
L9-L11) a = 0, top = X - Y and g = |b| G(u), the one positive root; on
the lemniscate premise's affine rules (L2-L4) a = 0, top = 1 and
g = |b| / rho(u), rho the largest root of s^4 + 4 u s^3 + 4 s^2 - 1
(``verify._radial_size``); on L8 top = 1 and g = |b| / s_t, s_t the
largest root of the Cassini quartic |s - p|^2 |s - r|^2 = 1
(``verify._cassini_sizes``).  ``numeric_threshold`` returns
top / min_t g.  Three references:

* ``oracles.fifty_digit_threshold``: max_t beta_t in mpmath, on every
  golden row of these rules (``tests/data/threshold_golden.json``), for
  the threshold and for the gap the CSV prints.
* ``oracles.scan_threshold``: the scan solve these rules took before
  (polynomials in beta on the exact path or the grid), on seeded draws
  and on planted points: |Y| = 1, A - B or D - E near the underflow, and
  the lemniscate premise's punctured and tiny-scale points.
* The flat L9 anchor, where g is constant and refinement is skipped.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lemnisub import LemmaId, LemmaParams, closed_form_threshold, numeric_threshold, verify
from lemnisub.errors import LemnisubError

import oracles
from conftest import draw_valid_params, feasible_draws
from test_grid_tables import _extreme

MOBIUS = [LemmaId.L1, LemmaId.L9, LemmaId.L10, LemmaId.L11]
LEMNISCATE = [LemmaId.L2, LemmaId.L3, LemmaId.L4]
GOLDEN = Path(__file__).parent / "data" / "threshold_golden.json"

# numeric_threshold against the fifty-digit max_t beta_t, in units in the
# last place of the reference: rounding of b, |b| and G, and the refined
# minimum read lowest among several evaluations near it
REFERENCE_ULPS = 4
# numeric_threshold against the scan solve it replaced: the scan's
# quadratics in beta lose up to eps/(1 - Y^2) in their beta^2 row, which
# the radial form does not (up to 57 ulps on threshold-sweep seeds 1-10)
ORACLE_ULPS = 64
# on the lemniscate premise the scan solve's per-angle crossings and the
# radial quotient round differently (up to 5 ulps on threshold-sweep seeds
# 1-10, each within 7 ulps of the fifty-digit value before and 3 after, and
# up to 7 on 1,800 uniform draws of L2-L4)
LEMNISCATE_ORACLE_ULPS = 8
# L8 against the frozen exact path: up to 7 ulps (7.8e-16 relative) on the
# 258 feasible L8 draws of threshold-sweep seeds 1-30, where the Cassini
# root rounds differently from the exact path's per-angle quartic in beta
CASSINI_ORACLE_ULPS = 8


def _ulps(value, reference):
    return abs(value - reference) / math.ulp(reference)


def _outcome(solve, lemma, params, grid_size=2048):
    try:
        return "Feasible", solve(lemma, params, grid_size=grid_size)
    except LemnisubError as exc:
        return type(exc).__name__, None


def _assert_matches_oracle(lemma, params, grid_size=2048, values=True):
    status, value = _outcome(numeric_threshold, lemma, params, grid_size)
    oracle_status, oracle = _outcome(oracles.scan_threshold, lemma, params, grid_size)
    assert status == oracle_status, params
    if values and value is not None:
        ulps = (CASSINI_ORACLE_ULPS if lemma is LemmaId.L8 else
                LEMNISCATE_ORACLE_ULPS if lemma in LEMNISCATE else ORACLE_ULPS)
        assert _ulps(value, oracle) <= ulps, (params, value.hex(), oracle.hex())
    return status


# --- the golden rows against fifty digits -----------------------------------------

def _golden_rows(lemmas):
    rows = []
    for case in json.loads(GOLDEN.read_text()):
        argv = case["argv"]
        lemma = LemmaId(argv[argv.index("--lemma") + 1])
        if lemma not in lemmas:
            continue
        opts = dict(a[2:].split("=", 1) for a in argv if "=" in a)
        grid = int(opts.pop("grid", 2048))
        params = LemmaParams(**{name: float(v) for name, v in opts.items()})
        rows.append((lemma, params, grid, case["csv"]))
    return rows


GOLDEN_ROWS = _golden_rows(MOBIUS) + _golden_rows(LEMNISCATE)


@pytest.mark.parametrize("lemma,params,grid,csv", GOLDEN_ROWS,
                         ids=[f"{l.value}-{i}" for i, (l, *_) in enumerate(GOLDEN_ROWS)])
def test_golden_rows_against_fifty_digits(lemma, params, grid, csv):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        reference = oracles.fifty_digit_threshold(lemma, params, mp)
        ref = float(reference)
        value = numeric_threshold(lemma, params, grid_size=grid)
        assert _ulps(value, ref) <= REFERENCE_ULPS, (value.hex(), mp.nstr(reference, 20))
        # the printed gap is beta* - beta_numeric to 9 digits: within the
        # same ulps of beta* - reference, plus its rounding to 9 digits
        row = dict(zip(*(line.split(",") for line in csv.splitlines())))
        star = closed_form_threshold(lemma, params).beta_star
        assert float(row["beta_star_closed"]) == pytest.approx(star, rel=1e-8)
        gap = float(row["gap"])
        want = float(mp.mpf(star) - reference)
        assert abs(gap - want) <= REFERENCE_ULPS * math.ulp(ref) + 5e-9 * abs(gap), \
            (row["gap"], want)


def test_golden_rows_cover_the_mobius_rules_and_b_near_minus_one():
    # and the lemniscate premise's affine rules, after the Mobius rows
    assert {lemma for lemma, *_ in GOLDEN_ROWS} == set(MOBIUS + LEMNISCATE)
    assert sum(lemma in LEMNISCATE for lemma, *_ in GOLDEN_ROWS) == 13
    assert sum(p.B == -0.999999 for _, p, *_ in GOLDEN_ROWS) == 9


# --- the scan solve it replaced -------------------------------------------------

def _draws(lemma):
    draws = feasible_draws(lemma, 31_100 + list(LemmaId).index(lemma), 8)
    if lemma is LemmaId.L1:      # integer and non-integer k, both old paths
        rng = np.random.default_rng(31_131)
        draws += [LemmaParams(A=p.A, B=p.B, k=k) for p in draws[:4] for k in (1.0, 3.0)]
        draws += [draw_valid_params(lemma, rng) for _ in range(4)]
    return draws


@pytest.mark.parametrize("grid_size", [512, 999, 2048])
@pytest.mark.parametrize("lemma", MOBIUS)
def test_radial_route_matches_the_scan_solve(lemma, grid_size):
    statuses = {_assert_matches_oracle(lemma, p, grid_size) for p in _draws(lemma)}
    assert "Feasible" in statuses


@pytest.mark.parametrize("grid_size", [512, 999, 2048])
@pytest.mark.parametrize("lemma", LEMNISCATE)
def test_lemniscate_route_matches_the_scan_solve(lemma, grid_size):
    statuses = {_assert_matches_oracle(lemma, p, grid_size) for p in _draws(lemma)}
    assert "Feasible" in statuses


@pytest.mark.parametrize("grid_size", [512, 999, 2048])
def test_cassini_route_matches_the_exact_path(grid_size):
    statuses = {_assert_matches_oracle(LemmaId.L8, p, grid_size) for p in _draws(LemmaId.L8)}
    assert "Feasible" in statuses


# L8 at its domain's edges: B = -1 (punctured at t = 0), A - B = 0.003,
# A - B near the underflow (10 beta* overflows at A = 1e-308), and A = 1
# (punctured at t = pi), where every angle's roots lie left of xm and none
# is positive, so no beta > 0 misses the margin: the threshold is 0,
# where the scan solve returns the lower end of its bracket, 1e-12
L8_EDGES = [LemmaParams(A=0.0, B=-1.0), LemmaParams(A=0.1, B=-1.0),
            LemmaParams(A=0.3, B=0.297), LemmaParams(A=1e-300, B=0.0),
            LemmaParams(A=0.0, B=-1e-280), LemmaParams(A=1e-308, B=0.0),
            LemmaParams(A=1.0, B=0.3)]


@pytest.mark.parametrize("params", L8_EDGES)
def test_l8_edge_points_match_the_exact_path(params):
    if not math.isfinite(10.0 * closed_form_threshold(LemmaId.L8, params).beta_star):
        assert _outcome(numeric_threshold, LemmaId.L8, params)[0] == "NoThresholdInBracket"
    elif params.A == 1.0:
        assert numeric_threshold(LemmaId.L8, params) == 0.0
        assert oracles.scan_threshold(LemmaId.L8, params) == 1e-12
        for beta in (1e-9, 1e-3, 1.0):
            assert verify.boundary_margin_profile(LemmaId.L8, params.with_beta(beta)).min_margin >= 1.0
    else:
        assert _assert_matches_oracle(LemmaId.L8, params) == "Feasible"


L8_GOLDEN_ROWS = _golden_rows([LemmaId.L8])


@pytest.mark.parametrize("params,grid", [(p, g) for _, p, g, _ in L8_GOLDEN_ROWS])
def test_l8_golden_rows_against_fifty_digits(params, grid):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        reference = float(oracles.fifty_digit_threshold(LemmaId.L8, params, mp))
    value = numeric_threshold(LemmaId.L8, params, grid_size=grid)
    assert _ulps(value, reference) <= REFERENCE_ULPS, (value.hex(), reference.hex())


# B = -1 puts a pole of h on the circle (punctured at t = 0); A - B near
# the underflow.  Where 10 beta* overflows the scan bracket is not finite
# and no threshold is claimed, as before (the scan oracle, which does not
# check the bracket, returns NaN there).
LEMNISCATE_EDGES = [
    (LemmaId.L3, LemmaParams(A=0.5, B=-1.0)),
    (LemmaId.L4, LemmaParams(A=-0.999, B=-1.0)),
    (LemmaId.L2, LemmaParams(A=0.4, B=-1.0)),
    (LemmaId.L3, LemmaParams(A=1.0, B=-1.0)),
    (LemmaId.L2, LemmaParams(A=1e-280, B=0.0)),
    (LemmaId.L3, LemmaParams(A=1.0, B=1e-310)),
    (LemmaId.L2, LemmaParams(A=1e-320, B=0.0)),
    (LemmaId.L4, LemmaParams(A=1e-320, B=0.0)),
]


@pytest.mark.parametrize("lemma,params", LEMNISCATE_EDGES)
def test_lemniscate_edge_points_match_the_scan_solve(lemma, params):
    if math.isfinite(10.0 * closed_form_threshold(lemma, params).beta_star):
        assert _assert_matches_oracle(lemma, params) == "Feasible"
    else:
        assert _outcome(numeric_threshold, lemma, params)[0] == "NoThresholdInBracket"


# On an odd grid t = 0 lies halfway between two grid points, and for real
# parameters g is even in t, so the two samples around a minimum at t = 0
# often read the same bits; the refinement must still find it
@pytest.mark.parametrize("grid_size", [65, 999])
@pytest.mark.parametrize("lemma", MOBIUS)
def test_odd_grids_against_fifty_digits(lemma, grid_size):
    mp = pytest.importorskip("mpmath")
    checked = 0
    for params in _draws(lemma)[:6]:
        status, value = _outcome(numeric_threshold, lemma, params, grid_size)
        if value is None:
            continue
        with mp.workdps(50):
            reference = float(oracles.fifty_digit_threshold(lemma, params, mp))
        assert _ulps(value, reference) <= REFERENCE_ULPS, (params, value.hex(), reference.hex())
        checked += 1
    assert checked


# |Y| = 1: L1 needs B > -1, so B = -1 is rejected on both routes, and B
# just above it leaves 1 - Y^2 ~ 4e-9.  At E = -1, G(u) = 0 wherever
# u >= 0, so the threshold is finite only where b points left at every
# angle; the closed form admits E = -1 only at B = -1 (L9, and L10 with
# A <= 0), where b < 0 on the whole circle, and is infeasible elsewhere.
UNIT_Y = [
    (LemmaId.L1, LemmaParams(A=0.5, B=-1.0, k=1.5)),
    (LemmaId.L1, LemmaParams(A=0.5, B=-1.0 + 2e-9, k=1.5)),
    (LemmaId.L1, LemmaParams(A=0.5, B=-1.0 + 2e-9, k=1.0)),
    *[(lemma, LemmaParams(A=A, B=B, D=D, E=-1.0))
      for lemma in (LemmaId.L9, LemmaId.L10, LemmaId.L11)
      for A, B, D in ((0.5, -0.3, 0.3), (0.9, -1.0, 0.2), (0.3, -1.0, 1.0),
                      (1.0, 0.5, -0.5), (-0.5, -1.0, 0.3), (0.0, -1.0, 1.0))],
]


@pytest.mark.parametrize("lemma,params", UNIT_Y)
def test_unit_y_status_matches_the_scan_solve(lemma, params):
    # the scan solve's value is off by about eps/(1 - Y^2) relative near
    # |Y| = 1, so values are held to the fifty-digit reference instead
    if _assert_matches_oracle(lemma, params, values=False) == "Feasible":
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            reference = float(oracles.fifty_digit_threshold(lemma, params, mp))
        value = numeric_threshold(lemma, params)
        assert _ulps(value, reference) <= REFERENCE_ULPS, (value.hex(), reference.hex())


def test_unit_y_points_reach_every_status():
    statuses = {(l, _outcome(numeric_threshold, l, p)[0]) for l, p in UNIT_Y}
    assert {(LemmaId.L1, "InvalidParameters"), (LemmaId.L1, "Feasible"),
            (LemmaId.L9, "Feasible"), (LemmaId.L10, "Feasible"),
            (LemmaId.L11, "InfeasibleParameters")} <= statuses


@pytest.mark.parametrize("lemma", MOBIUS)
def test_extreme_differences_match_the_scan_solve(lemma):
    points = [p.with_beta(None) for p in _extreme(lemma)]
    points += {
        LemmaId.L1: [LemmaParams(A=0.0, B=-1e-280, k=1.0), LemmaParams(A=1e-280, B=0.0, k=2.5)],
        LemmaId.L10: [LemmaParams(A=1e-280, B=0.0, D=0.4, E=0.1),
                      LemmaParams(A=0.5, B=-0.4, D=1e-280, E=0.0)],
    }.get(lemma, [])
    for params in points:
        assert _assert_matches_oracle(lemma, params) == "Feasible"


# --- the flat anchor -------------------------------------------------------------

@pytest.mark.parametrize("grid_size", [64, 999, 2048])
def test_flat_anchor_skips_refinement(monkeypatch, grid_size):
    # A = 1, B = 0, D = 1, E = 0: Y = 0 and |b| = |e^{it}|, so g is 1 to
    # rounding; |e^{it}| reads 1 - 2^-52 at some grid angles, where the
    # least g would give 1 + 2^-52 (as the scan solve did), so the flat
    # branch takes g's median reading and returns the exact threshold 1
    refined = []
    refine = verify._refine_minima
    monkeypatch.setattr(verify, "_refine_minima",
                        lambda *args: refined.append(1) or refine(*args))
    params = LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0)
    value = numeric_threshold(LemmaId.L9, params, grid_size=grid_size)
    assert not refined
    assert np.min(np.abs(verify._grid_points(grid_size, ()))) < 1.0
    assert value == 1.0
