"""The margin layer in x = cos t against the grid path, both ways round.

``numeric_threshold`` takes every margin rule's threshold as top / min g
over the refined grid.  Its oracle is the grid path of the scan solve
(``oracles.scan_threshold`` with ``exact=False``), which L1 at every k
but 1 and 3 took before the radial route: the scan minima and the
binding angle refined from the grid's local minima by parabolic steps,
here to angular resolution 1e-13 instead of 1e-8.

``boundary_margin_profile`` takes the grid path for every rule, and
polishes the V-shaped zeros of the margin, where h passes through 1 (or
-1, lemniscate premise) and 1e-8 in t leaves up to about 1e-9.  Its
oracle is the exact profile it replaced: the least margin over the
punctured grid and the stationary points of margin^2 = P/R
(``oracles.stationary_minima``), with h - 1 in the rational form that
``oracles.rational_h_minus_one`` keeps.
"""

import dataclasses
import math
import zlib

import numpy as np
import pytest

from lemnisub import (DEFAULTS, LemmaId, LemmaParams, boundary_margin_profile,
                      closed_form_threshold, numeric_threshold, verify)
from lemnisub.catalog import (h_minus_one_on_circle, margin_on_circle, premise_region,
                              singular_angles)
from lemnisub.errors import LemnisubError
from lemnisub.regions import Janowski

import oracles
from conftest import draw_valid_params
from oracles import rational_h_minus_one, stationary_minima
from test_verifier import NEAR_POLE_L9

ORACLE_XTOL = 1e-13      # the threshold oracle's angular resolution
AGREE_RTOL = 1e-12       # exact and grid values agree to this, relative
# the exact minimum may sit above the grid one by rounding only: the grid
# path keeps the least of several evaluations around a minimum, each with
# a few ulps of rounding in margin_on_circle (at t = +-pi, |2 + w|
# cancels), and the exact oracle evaluates it once
ABOVE_RTOL = 4e-15
DRAWS = 5

RULES = ([(LemmaId.L1, k) for k in (1.0, 3.0)]
         + [(lemma, None) for lemma in (LemmaId.L2, LemmaId.L3, LemmaId.L4,
                                        LemmaId.L8, LemmaId.L9, LemmaId.L10,
                                        LemmaId.L11)])


def _edges(lemma, params):
    """The draw with one parameter moved to an end of its domain: A = 1,
    B = -1, D = 1 or E = -1, where the rule allows it."""
    out = [dataclasses.replace(params, A=1.0)]
    if lemma is not LemmaId.L1:
        out.append(dataclasses.replace(params, B=-1.0))
    if params.E is not None:
        out += [dataclasses.replace(params, D=1.0), dataclasses.replace(params, E=-1.0)]
    return out


def _points():
    points = []
    for lemma, k in RULES:
        rng = np.random.default_rng(zlib.crc32(f"{lemma.value}-{k}-exact-margin".encode()))
        for i in range(DRAWS):
            params = draw_valid_params(lemma, rng)
            if k is not None:
                params = dataclasses.replace(params, k=k)
            points.append((lemma, params))
            if i < 2:
                points += [(lemma, edge) for edge in _edges(lemma, params)]
    return points + [(LemmaId.L9, NEAR_POLE_L9.with_beta(None))]


POINTS = _points()


def _point_id(point):
    lemma, params = point
    return f"{lemma.value}-{zlib.crc32(repr(params).encode()):08x}"


def _threshold(lemma, params):
    try:
        return "Feasible", numeric_threshold(lemma, params)
    except LemnisubError as exc:
        return type(exc).__name__, None


def _grid_path_threshold(monkeypatch, lemma, params):
    with monkeypatch.context() as m:
        m.setattr(verify, "DEFAULTS", dataclasses.replace(DEFAULTS,
                                                          angle_xtol=ORACLE_XTOL))
        try:
            return "Feasible", oracles.scan_threshold(lemma, params, exact=False)
        except LemnisubError as exc:
            return type(exc).__name__, None


def _exact_minimum(lemma, params):
    """The least margin over the punctured grid and the stationary points
    of margin^2 = P/R, each set evaluated as the exact profile did."""
    sing = singular_angles(lemma, params)
    t = verify._punctured_grid(DEFAULTS.margin_grid, sing)
    x = stationary_minima(*oracles.margin_ratio(lemma, params), params.beta,
                          verify._end_angles(sing), t)
    return min(float(np.min(margin_on_circle(lemma, params, t))),
               float(np.min(margin_on_circle(lemma, params, x), initial=np.inf)))


def _betas(lemma, params):
    star = closed_form_threshold(lemma, params).beta_star or 1.0
    rng = np.random.default_rng(zlib.crc32(repr(params).encode()))
    return [star, star * math.exp(rng.uniform(-0.7, 0.7))]


@pytest.mark.parametrize("lemma,params", POINTS, ids=map(_point_id, POINTS))
def test_exact_margin_layer_matches_grid_path(monkeypatch, lemma, params):
    assert rational_h_minus_one(lemma, params) is not None
    status, value = _threshold(lemma, params)
    grid_status, grid_value = _grid_path_threshold(monkeypatch, lemma, params)
    assert status == grid_status
    if value == 0.0:
        # no angle's margin is below 1 at any beta > 0 (L8 at A = 1): the
        # scan solve returns the lower end of its bracket, 1e-6 times its
        # first beta (1e-6 here), and the radial route returns 0
        assert grid_value == 1e-12
    elif value is not None:
        assert abs(value - grid_value) <= AGREE_RTOL * grid_value, (value, grid_value)
    for beta in _betas(lemma, params):
        at = params.with_beta(beta)
        exact = _exact_minimum(lemma, at)
        grid = boundary_margin_profile(lemma, at)
        scale = max(1.0, abs(grid.min_margin))
        where = f"beta {beta!r}: {exact!r} vs {grid.min_margin!r}"
        assert abs(exact - grid.min_margin) <= AGREE_RTOL * scale, where
        assert exact - grid.min_margin <= ABOVE_RTOL * scale, where
        assert -math.pi <= grid.argmin_t < math.pi


def test_points_cover_the_rules_and_the_domain_ends():
    lemmas = {lemma for lemma, _ in POINTS}
    assert lemmas == {lemma for lemma, _ in RULES}
    assert {p.k for lemma, p in POINTS if lemma is LemmaId.L1} == {1.0, 3.0}
    assert any(p.A == 1.0 for _, p in POINTS)
    assert any(p.B == -1.0 for _, p in POINTS)
    assert any(p.E == -1.0 for _, p in POINTS)
    assert any(singular_angles(lemma, p) for lemma, p in POINTS)


def test_non_integer_exponent_has_no_rational_form():
    assert rational_h_minus_one(LemmaId.L1, LemmaParams(A=0.5, B=0.0, k=2.0)) is None
    assert rational_h_minus_one(LemmaId.L5, LemmaParams(beta=1.0)) is None


@pytest.mark.parametrize("lemma,params", POINTS[::3], ids=map(_point_id, POINTS[::3]))
def test_rational_form_reproduces_h_on_the_circle(lemma, params):
    N0, N1, D = rational_h_minus_one(lemma, params)
    params = params.with_beta(1.7)
    t = np.linspace(-3.0, 3.0, 60)   # clear of the poles at t = 0 and pi
    z = np.exp(1j * t)
    value = lambda c: np.polyval(c[::-1], z)
    got = (value(N0) + params.beta * value(N1)) / value(D)
    want = h_minus_one_on_circle(lemma, params, t)
    assert np.allclose(got, want, rtol=1e-11, atol=1e-12)


def test_criterion_polynomial_is_the_margin_test():
    # margin^2 = P/R, and margin >= 1 exactly where F(x; beta) >= 0; in
    # powers of x each holds to rounding of the size of the coefficients,
    # which near a pole of h is far above the values themselves
    t = np.linspace(0.05, math.pi - 0.05, 101)
    x = np.cos(t)
    lemniscate = 0
    for lemma, params in POINTS:
        P, R = oracles.margin_ratio(lemma, params)
        F = oracles.criterion_polynomial(P, R)
        lemniscate += not isinstance(premise_region(lemma, params), Janowski)
        star = closed_form_threshold(lemma, params).beta_star or 1.0
        for beta in (0.3 * star, star, 2.0 * star):
            m2 = verify.margin_on_circle(lemma, params.with_beta(beta), t) ** 2
            p, r, f = (verify._poly_value(C, beta)[0] for C in (P, R, F))
            value = lambda c: verify._poly_value(c, x)[0]
            size = lambda c: np.sum(np.abs(c))
            assert np.all(np.abs(value(p) - m2 * value(r))
                          <= 1e-12 * (size(p) + m2 * size(r))), (lemma, params, beta)
            clear = np.abs(value(f)) > 1e-12 * size(f)
            assert np.array_equal((value(f) >= 0.0)[clear], (m2 >= 1.0)[clear])
    assert lemniscate


# --- the L8 draw where per-angle precision matters ------------------------------

L8_DRAW = LemmaParams(A=0.8578128621568317, B=0.28557589005986284)
L8_THRESHOLD = 0.28637735459981756


def test_l8_draw_threshold_is_pinned():
    # the threshold binds at t = pi, where F is about 1e-5 against
    # coefficients of order 10 in x, so each angle's root must come from
    # its own quartic, not from F
    assert numeric_threshold(LemmaId.L8, L8_DRAW) == pytest.approx(L8_THRESHOLD,
                                                                  rel=1e-13)


def test_l8_draw_threshold_against_fifty_digits():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        A, B = mp.mpf(L8_DRAW.A), mp.mpf(L8_DRAW.B)

        def margin_at_pi(beta):
            # h = q + Q at z = -1, real there; the margin is |h^2 - 1|
            z = mp.mpf(-1)
            h = (1 + A * z) / (1 + B * z) + beta * (A - B) * z / ((1 + A * z) * (1 + B * z))
            return abs(h * h - 1)

        assert margin_at_pi(mp.mpf(L8_THRESHOLD)) >= 1 - mp.mpf(1e-15)
        assert margin_at_pi(mp.mpf(L8_THRESHOLD) - mp.mpf(1e-11)) < 1 - mp.mpf(1e-12)
    profile = boundary_margin_profile(LemmaId.L8, L8_DRAW.with_beta(L8_THRESHOLD))
    assert abs(profile.argmin_t) == math.pi
