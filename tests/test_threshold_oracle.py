"""The threshold solve against the scan-plus-bisection oracle, on both paths.

``bisection_threshold`` is the solver ``numeric_threshold`` replaced: a
64-point beta scan of full refined margin profiles brackets the last
upcrossing of the level 1, and bisection resolves it to an absolute
tolerance of 1e-6 * min(1, beta*), always from above.  It is kept here as
the reference the exact solve must agree with.
"""

import math

import numpy as np
import pytest

from lemnisub import (CATALOG, LemmaId, LemmaParams, boundary_margin_profile,
                      catalog, closed_form_threshold, numeric_threshold, verify)
from lemnisub.errors import LemnisubError

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


# Synthetic curves h - 1 = beta*b(t), put in place of L2's curve for both
# solvers at A = 1, B = 0 (beta* = 1 + sqrt 2, scan bracket up to 24.1, no
# singular angles), reach the scan outcomes that no catalog rule reached
# on seeded draws.  On the lemniscate premise the margin at an angle where
# b points along the negative axis is s|2 - s| with s = beta|b|: it
# touches 1 at s = 1, dips to 0 at s = 2 and stays >= 1 from s = 1 + sqrt 2.
_ROOT = 1.0 + math.sqrt(2.0)
_SYNTHETIC = {
    # the margin stays below 1 on the whole scan bracket
    "never reaches 1": (lambda t: 0.01 * np.exp(1j * t), None),
    # b points 0.14-0.34 rad off the negative axis: the margin passes 1
    # at s ~ 0.9, falls back below 1 around s = 2 and recovers
    "reached, then lost": (
        lambda t: 0.3 * np.exp(1j * (math.pi - 0.14 - 0.1 * (1.0 + np.cos(t)))),
        None),
    # b points along the negative axis only at t = pi/64 and pi + pi/64,
    # halfway between points of the 64-grid: the grid alone sees the
    # margin reached at s ~ 1 and lost at s ~ 2; refinement finds the dip
    "dip between grid points": (
        lambda t: 0.25 * np.exp(1j * (math.pi + 5.0 * np.sin(t - math.pi / 64))),
        _ROOT / 0.25),
    # the margin is already >= 1 at the first scan beta, 1e-6
    "reached at the scan start": (lambda t: 1e7 * np.exp(1j * t), _ROOT / 1e7),
}


def _use_curve(monkeypatch, b, form):
    """Put h - 1 = beta*b(t) in place of L2's curve, with ``form`` as its
    rational form (None: no rational form, so the grid path runs).  The
    curve takes the grid's points z as the catalog's does, and reads t."""
    def curve(lemma, params, t, z=None):
        return params.beta * b(np.asarray(t, dtype=float))

    monkeypatch.setattr(catalog, "h_minus_one_on_circle", curve)
    monkeypatch.setattr(verify, "h_minus_one_on_circle", curve)
    monkeypatch.setattr(verify, "rational_h_minus_one", lambda lemma, params: form)


@pytest.mark.parametrize("grid_size", [64, 512])
@pytest.mark.parametrize("name", list(_SYNTHETIC))
def test_scan_outcomes_agree_with_oracle_on_synthetic_curves(monkeypatch, name,
                                                             grid_size):
    b, exact = _SYNTHETIC[name]
    _use_curve(monkeypatch, b, None)
    _assert_outcomes_agree(grid_size, exact)


# Two of the outcomes again through the exact path: h - 1 = beta*c*z has
# the rational form N0 = 0, N1 = c z, D = 1.
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
    assert _assert_outcomes_agree(grid_size, exact) == status


def _assert_outcomes_agree(grid_size, exact):
    lemma, params = LemmaId.L2, LemmaParams(A=1.0, B=0.0)
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
