"""The threshold solve against the scan-plus-bisection oracle, on both routes.

``bisection_threshold`` is the solver ``numeric_threshold`` replaced: a
64-point beta scan of full refined margin profiles brackets the last
upcrossing of the level 1, and bisection resolves it to an absolute
tolerance of 1e-6 * min(1, beta*), always from above.  It is kept here as
the reference the exact solve must agree with.
"""

import math

import numpy as np
import pytest

from lemnisub import (CATALOG, DEFAULTS, LemmaId, LemmaParams, boundary_margin_profile,
                      catalog, closed_form_threshold, numeric_threshold, verify)
from lemnisub.errors import LemnisubError

import oracles
from conftest import feasible_draws
from oracles import analyze_scan

BISECT_TOL = 1e-6
MARGIN_LEMMAS = [l for l in LemmaId if CATALOG[l].margin_criterion]


def min_margin(lemma, params, grid_size):
    return boundary_margin_profile(lemma, params, grid_size).min_margin


def bisection_threshold(lemma, params, scan_points=64, grid_size=2048):
    base = closed_form_threshold(lemma, params)
    betas = np.linspace(1e-6, 10.0 * base.beta_star, scan_points)
    margins = np.array([min_margin(lemma, params.with_beta(float(b)), grid_size)
                        for b in betas])
    i0 = analyze_scan(margins)
    if i0 < 0:
        lo, hi = 1e-12, float(betas[0])
    else:
        lo, hi = float(betas[i0]), float(betas[i0 + 1])
    tol = BISECT_TOL * min(1.0, base.beta_star)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if min_margin(lemma, params.with_beta(mid), grid_size) >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def _outcome(solver, lemma, params, grid_size):
    try:
        return "Feasible", solver(lemma, params, grid_size=grid_size)
    except LemnisubError as exc:
        return type(exc).__name__, None


@pytest.mark.parametrize("lemma", MARGIN_LEMMAS)
def test_exact_solve_agrees_with_bisection_oracle(lemma):
    for params in feasible_draws(lemma, 91_000 + list(LemmaId).index(lemma), 6):
        status, exact = _outcome(numeric_threshold, lemma, params, 512)
        oracle_status, oracle = _outcome(bisection_threshold, lemma, params, 512)
        assert status == oracle_status, params
        if exact is None:
            continue
        star = closed_form_threshold(lemma, params).beta_star
        # the oracle stops within its tolerance above the crossing; the
        # slack below zero is rounding of the two margin evaluations
        assert -1e-12 * exact <= oracle - exact <= BISECT_TOL * min(1.0, star), params


@pytest.mark.parametrize("lemma,params,exact", [
    *[(LemmaId.L1, LemmaParams(A=1.0, B=0.0, k=k), 2.0 ** ((k + 3.0) / 2.0))
      for k in (0.0, 1.0, 2.0, 3.0)],
    (LemmaId.L2, LemmaParams(A=1.0, B=0.0), 1.0 + math.sqrt(2.0)),
    (LemmaId.L9, LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0), 1.0),
])
def test_exact_solve_hits_anchors(lemma, params, exact):
    assert numeric_threshold(lemma, params) == pytest.approx(exact, rel=1e-12)


# Synthetic curves h - 1 = beta*b(t), put in place of a rule's curve for
# both solvers, reach the scan outcomes that no catalog rule reached on
# seeded draws.
#
# At L9's anchor A = 1, B = 0, D = 1, E = 0 (a Mobius premise with
# X - Y = 1 and Y = 0, beta* = 1, scan bracket up to 10) the margin is
# beta|b| and the threshold 1/min|b| (the radial route).
#
# At L2's anchor A = 1, B = 0 (a lemniscate premise, beta* = 1 + sqrt 2,
# scan bracket up to 24.1, no singular angles) the margin at an angle
# where b points along the negative axis is s|2 - s| with s = beta|b|: it
# touches 1 at s = 1, dips to 0 at s = 2 and stays >= 1 from
# s = 1 + sqrt 2.  No angle's margin can fall back on a Mobius premise,
# so the lost margin is planted here: a curve of constant modulus 0.3
# whose direction comes within 0.2 rad of the negative axis and never
# reaches it, b = 0.3 z^2 (1 + r z^2)/(r + z^2) = 0.3 e^{2i arg(1 + r z^2)},
# r = cos 0.1, since arg(1 + r e^{i theta}) <= arcsin r.  Its margin has
# passed 1 at every angle by s ~ 0.85, falls back below 1 around s = 1.3
# where b points 0.2 rad off the negative axis, and recovers by s ~ 2.2.
# Through L2 it takes the radial route with P_c's roots; through L8 at
# A = 0.5, B = 0 (beta* = 2.74, scan bracket up to 27.4), where h - 1 =
# beta b as well once the curve is put in place, the Cassini form with
# the foci 0 and -2 conj(u).
_L9 = (LemmaId.L9, LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0))
_L2 = (LemmaId.L2, LemmaParams(A=1.0, B=0.0))
_L8 = (LemmaId.L8, LemmaParams(A=0.5, B=0.0))
_ROOT = 1.0 + math.sqrt(2.0)
_R = math.cos(0.1)


def _near_negative_axis(m, r):
    """b = m z^2 (1 + r z^2)/(r + z^2) and its rational form (N0, N1, D)."""
    def b(t):
        return m * np.exp(2j * t) * (1.0 + r * np.exp(2j * t)) / (r + np.exp(2j * t))

    return b, (np.zeros(5), m * np.array([0.0, 0.0, 1.0, 0.0, r]),
               np.array([r, 0.0, 1.0, 0.0, 0.0]))


_SYNTHETIC = {
    # the threshold is 100, above the scan bracket
    "never reaches 1": (_L9, lambda t: 0.01 * np.exp(1j * t), None, None),
    "reached, then lost": (_L2, *_near_negative_axis(0.3, _R), None),
    # |b| is least at t = pi/64, halfway between points of the 64-grid,
    # whose two samples around it read the same: the grid alone reads the
    # threshold 3.995; refinement from the tied pair's midpoint finds 4
    "dip between grid points": (
        _L9, lambda t: 0.25 * (2.0 - np.cos(t - math.pi / 64)) * np.exp(1j * t), None, 4.0),
    # the margin is already >= 1 at the first scan beta, 1e-6
    "reached at the scan start": (_L9, lambda t: 1e7 * np.exp(1j * t), None, 1e-7),
    "reached, then lost through L8": (_L8, *_near_negative_axis(0.3, _R), None),
}


def _use_curve(monkeypatch, b, form):
    """Put h - 1 = beta*b(t) in place of the rule's curve, with ``form`` as
    its rational form for the scan oracle (None: no rational form).  The
    curve takes the grid's points z as the catalog's does, and reads t."""
    def curve(lemma, params, t, z=None):
        return params.beta * b(np.asarray(t, dtype=float))

    monkeypatch.setattr(catalog, "h_minus_one_on_circle", curve)
    monkeypatch.setattr(verify, "h_minus_one_on_circle", curve)
    monkeypatch.setattr(oracles, "h_minus_one_on_circle", curve)
    monkeypatch.setattr(oracles, "rational_h_minus_one", lambda lemma, params: form)


@pytest.mark.parametrize("grid_size", [64, 512])
@pytest.mark.parametrize("name", list(_SYNTHETIC))
def test_scan_outcomes_agree_with_oracle_on_synthetic_curves(monkeypatch, name,
                                                             grid_size):
    point, b, form, exact = _SYNTHETIC[name]
    _use_curve(monkeypatch, b, form)
    status = _assert_outcomes_agree(*point, grid_size, exact)
    if name.startswith("reached, then lost"):
        assert status == "NonMonotoneMargin"


# Two of the outcomes again through L2, whose exact path read the curve's
# rational form: h - 1 = beta*c*z has N0 = 0, N1 = c z, D = 1.  The radial
# route reads the curve alone; the scan oracle, like the exact path, the
# form.
_RATIONAL = {
    "never reaches 1": (0.01, "NoThresholdInBracket", None),
    "reached at the scan start": (1e7, "Feasible", _ROOT / 1e7),
}


@pytest.mark.parametrize("grid_size", [64, 512])
@pytest.mark.parametrize("name", list(_RATIONAL))
def test_scan_outcomes_agree_with_oracle_on_rational_curves(monkeypatch, name,
                                                            grid_size):
    c, status, exact = _RATIONAL[name]
    _use_curve(monkeypatch, lambda t: c * np.exp(1j * t),
               (np.zeros(2), np.array([0.0, c]), np.array([1.0, 0.0])))
    assert _assert_outcomes_agree(*_L2, grid_size, exact) == status


def _assert_outcomes_agree(lemma, params, grid_size, exact):
    status, value = _outcome(numeric_threshold, lemma, params, grid_size)
    oracle_status, oracle = _outcome(bisection_threshold, lemma, params, grid_size)
    assert status == oracle_status
    if exact is None:
        assert status != "Feasible"
        return status
    assert status == "Feasible"
    assert value == pytest.approx(exact, rel=1e-12)
    star = closed_form_threshold(lemma, params).beta_star
    assert -1e-12 * value <= oracle - value <= BISECT_TOL * min(1.0, star)
    return status


# A window (r2, r3) of the lemniscate margin that falls between two scan
# betas above the first reach: the curve above with b pointing at most
# 1e-4 in cos arg b past c* = -5 sqrt(3)/9, where three roots appear, and
# a modulus that puts the window r2/m < beta < r3/m between the 21st and
# 22nd scan betas.  The scan does not see it.  The radial route returns
# its upper end, from which the margin stays >= 1; the scan solve it
# replaced returned the upcrossing inside its scan bracket, r1/m.  L8,
# whose a = 0 with this curve, reads it on the Cassini form the same way.
def _assert_window_reads_its_upper_end(monkeypatch, point):
    mp = pytest.importorskip("mpmath")
    c_min = verify._C_STAR - 1e-4
    r = math.sqrt((1.0 - c_min) / 2.0)       # cos arg b >= 1 - 2 r^2 = c_min
    with mp.workdps(50):
        r1, r2, r3 = (float(x) for x in oracles.fifty_digit_lemniscate_roots(
            1 - 2 * mp.mpf(r) ** 2, mp))
    star = closed_form_threshold(*point).beta_star
    betas = np.linspace(1e-6, 10.0 * star, DEFAULTS.scan_points)
    m = (r2 + r3) / (betas[20] + betas[21])
    assert betas[20] < r2 / m < r3 / m < betas[21]
    assert r1 / m < betas[19]
    _use_curve(monkeypatch, *_near_negative_axis(m, r))
    assert numeric_threshold(*point) == pytest.approx(r3 / m, rel=1e-12)
    assert oracles.scan_threshold(*point) == pytest.approx(r1 / m, rel=1e-9)


def test_window_between_scan_betas_reads_its_upper_end(monkeypatch):
    _assert_window_reads_its_upper_end(monkeypatch, _L2)


def test_window_between_scan_betas_reads_its_upper_end_on_l8(monkeypatch):
    _assert_window_reads_its_upper_end(monkeypatch, _L8)


def test_scan_reader_reads_the_whole_grid_past_the_binding_angle():
    # two grid angles with a = 0: the binding one points along
    # cos arg b = -0.99, where the margin is >= 1 on [r1, r2] =
    # [0.88, 1.18] and from r3 = 2.31 on (g = 1/2.31); the other along the
    # positive axis with |b| = 0.3 (g = 0.72), which misses the margin
    # below beta = 0.414/0.3 = 1.38.  At beta = 1 the binding angle passes
    # and the other does not; at 1.5 the binding angle's window misses
    b = np.array([np.exp(1j * math.acos(-0.99)), 0.3])
    threshold = 1.0 / float(np.min(verify._radial_size(catalog.SqrtLemniscate())(b)))
    assert threshold == pytest.approx(2.3086636569880663)
    reached = verify._scan_reached(0.0, b, np.array([1.0, 1.5, 2.5]), threshold, 0)
    assert reached.tolist() == [False, False, True]
    # with a != 0, below the threshold every beta reads the whole grid
    t = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    a, b = 0.4 * np.exp(1j * t), (0.8 + 0.3 * np.cos(t)) * np.exp(0.5j * np.sin(t))
    betas = np.linspace(0.05, 3.0, 40)
    want = [bool(np.all(np.abs(a + beta * b) * np.abs(2.0 + a + beta * b) >= 1.0))
            for beta in betas]
    for at in (0, 17):
        reached = verify._scan_reached(a, b, betas, 2.0, at)
        assert reached.tolist() == [w or beta >= 2.0 for w, beta in zip(want, betas)]
    assert any(want) and not all(want)
