"""``verify._last_crossing`` against every crossing of the full recursion.

The fast path decides most columns from the signs of their Bernstein
coefficients on the bracket and takes one Newton solve where the signs
change once; ``oracles.last_crossing`` runs ``verify._crossings`` on
every column and keeps the largest crossing.  The two must agree within
a few units in the last place: both end in Newton steps on the same
polynomial, from different starting points.

``numeric_threshold`` hands ``_last_crossing`` the convective L8's
columns.  The affine rules' columns, quartics on the lemniscate premise
(L2-L4) and quadratics on the Mobius premise (L1, L9-L11), come from the
scan solve they took before the radial route, ``oracles.scan_threshold``,
which still runs the same kernel; the quadratics add the degree drop at
|Y| = 1 and L1's grid-path columns.
"""

import math

import numpy as np
import pytest

from lemnisub import CATALOG, LemmaId, LemmaParams, closed_form_threshold, verify
from lemnisub.errors import LemnisubError

import oracles
from conftest import feasible_draws

ULPS = 4
MARGIN_LEMMAS = [l for l in LemmaId if CATALOG[l].margin_criterion]


def assert_same_crossings(F, lo, hi):
    fast = verify._last_crossing(F, lo, hi)
    slow = oracles.last_crossing(F, lo, hi)
    assert fast.shape == slow.shape == (F.shape[1],)
    finite = np.isfinite(slow)
    np.testing.assert_array_equal(fast[~finite], slow[~finite])
    gap = np.abs(fast[finite] - slow[finite])
    assert np.all(gap <= ULPS * np.spacing(np.abs(slow[finite]))), (lo, hi)
    return fast


def _solve_calls(monkeypatch, lemma, params):
    """Every (F, lo, hi) that the threshold solve hands ``_last_crossing``:
    ``numeric_threshold``'s on L8, the scan oracle's on an affine rule."""
    calls = []
    fast = verify._last_crossing

    def spy(F, lo, hi):
        calls.append((F.copy(), lo, hi))
        return fast(F, lo, hi)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_last_crossing", spy)
        try:
            solve = oracles.scan_threshold if CATALOG[lemma].ode_style == "affine" \
                else verify.numeric_threshold
            solve(lemma, params, grid_size=512)
        except LemnisubError:
            pass
    return calls


def _grid_columns(lemma, params):
    """The criterion's per-angle polynomials in beta / sigma at 256 grid
    angles, and sigma."""
    scales = oracles.beta_scales(lemma, params)
    polynomial = oracles.margin_polynomials(lemma, params, scales)
    t = verify._punctured_grid(256, verify.singular_angles(lemma, params))
    return oracles.criterion_polynomial(*polynomial(t)), scales[0] / scales[1]


def _wide_bracket_columns(lemma, params):
    """The grid columns with the whole scan range as bracket, where more
    columns cross more than once."""
    F, sigma = _grid_columns(lemma, params)
    star = closed_form_threshold(lemma, params).beta_star
    return F, 1e-6 / sigma, 10.0 * star / sigma


@pytest.mark.parametrize("lemma", MARGIN_LEMMAS)
def test_last_crossing_matches_the_recursion_on_seeded_columns(monkeypatch, lemma):
    draws = feasible_draws(lemma, 26_000 + list(LemmaId).index(lemma), 4)
    if lemma is LemmaId.L1:      # the grid path; draws have non-integer k too
        draws.append(LemmaParams(A=0.5, B=-0.3, k=1.7))
    decided = crossed = 0
    for params in draws:
        calls = _solve_calls(monkeypatch, lemma, params)
        assert calls, params
        for F, lo, hi in calls + [_wide_bracket_columns(lemma, params)]:
            last = assert_same_crossings(F, lo, hi)
            decided += last.size
            crossed += np.count_nonzero(np.isfinite(last))
    # both outcomes occur on every rule's traffic
    assert 0 < crossed < decided


@pytest.mark.parametrize("lemma", [LemmaId.L9, LemmaId.L10, LemmaId.L11])
def test_degree_drop_columns_match(lemma):
    # a Mobius premise with |Y| = |E| = 1, where the beta^2 terms of num
    # and den cancel (the closed form calls these points infeasible)
    F, _ = _grid_columns(lemma, LemmaParams(A=0.5, B=-0.3, D=0.3, E=-1.0, beta=1.0))
    assert F.shape[0] == 3 and not np.any(F[2])
    crossed = 0
    for lo, hi in [(1e-6, 10.0), (0.1, 2.0), (0.5, 0.6)]:
        crossed += np.count_nonzero(np.isfinite(assert_same_crossings(F, lo, hi)))
    assert crossed


def _columns(*polys):
    """Ascending coefficient lists as the columns of one array."""
    deg = max(len(p) for p in polys)
    return np.array([list(p) + [0.0] * (deg - len(p)) for p in polys]).T


@pytest.mark.parametrize("polys, expected", [
    # a dip: two crossings inside, the larger one wins
    ([[2.04, -2.9, 1.0]], [1.7]),
    ([[2.04, -2.9, 1.0, 0.0, 0.0], [-0.5, 0.0, 0.0, 0.0, 0.0]], [1.7, -np.inf]),
    # (b - 1.1)(b - 1.3)(b - 1.6)(b - 1.9): four crossings
    ([np.polynomial.polynomial.polyfromroots([1.1, 1.3, 1.6, 1.9])], [1.9]),
    # roots at the ends: F = 0 counts as >= 0
    ([[-1.0, 1.0, 0.0]], [-np.inf]),           # b - 1: 0 at lo, then positive
    ([[1.0, -1.0, 0.0]], [1.0]),               # 1 - b: leaves >= 0 at lo
    ([[-2.0, 1.0, 0.0]], [2.0]),               # b - 2: reaches 0 at hi
    ([[2.0, -1.0, 0.0]], [-np.inf]),           # 2 - b: >= 0 up to hi
    ([[1.5, -2.5, 1.0]], [1.5]),               # (b - 1)(b - 1.5): F(lo) = 0
    # a degree drop: a linear F stored as a quadratic
    ([[-1.5, 1.0, 0.0], [3.0, -2.0, 0.0]], [1.5, 1.5]),
    # one simple crossing of a quartic
    ([[-3.0, 0.0, 0.0, 0.0, 1.0]], [3.0 ** 0.25]),
    # constant columns
    ([[3.0], [-3.0], [0.0]], [-np.inf] * 3),
    ([[3.0, 0.0, 0.0], [-3.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [-np.inf] * 3),
])
def test_planted_columns(polys, expected):
    F = _columns(*polys)
    last = assert_same_crossings(F, 1.0, 2.0)
    finite = np.isfinite(expected)
    np.testing.assert_array_equal(last[~finite], np.asarray(expected)[~finite])
    np.testing.assert_allclose(last[finite], np.asarray(expected)[finite], rtol=1e-13)


@pytest.mark.parametrize("polys", [
    [[math.nan, 1.0, 1.0], [-1.5, 1.0, 0.0]],
    [[1.0, math.inf, 0.0], [-math.inf, 0.0, 0.0], [-1.5, 1.0, 0.0]],
    [[math.inf, -math.inf, 1.0], [-1.5, 1.0, 0.0]],
])
def test_non_finite_columns_fall_back(polys):
    F = _columns(*polys)
    with np.errstate(invalid="ignore"):     # inf - inf in the recursion's Horner steps
        last = assert_same_crossings(F, 1.0, 2.0)
    assert last[-1] == 1.5


def test_bernstein_weights_reproduce_the_polynomial():
    # b_i are the Bernstein coefficients: sum_i b_i C(4, i) u^i (1-u)^(4-i) = F
    rng = np.random.default_rng(5)
    c = rng.normal(size=5)
    lo, hi = 0.7, 1.9
    w = verify._bernstein_weights(4, lo, hi - lo)
    b = [sum(wik * ck for wik, ck in zip(row, c)) for row in w]
    for u in (0.0, 0.3, 0.5, 0.9, 1.0):
        bern = sum(bi * math.comb(4, i) * u ** i * (1.0 - u) ** (4 - i)
                   for i, bi in enumerate(b))
        assert bern == pytest.approx(verify._poly_at(c, lo + (hi - lo) * u), rel=1e-13)


def test_newton_settles_on_a_two_step_cycle(monkeypatch):
    # at this L8 point one column's bracket closes to some 60 ulps near
    # x = -0.998, where the Newton step from each end lands exactly on the
    # other end; stepping back to where it stood two steps before settles
    # the column, which used to hold its call to all _NEWTON_STEPS steps
    steps, calls = [], [0]
    value, solve = verify._poly_value, verify._newton_in_bracket

    def counted(*args):
        calls[0] += 1
        return value(*args)

    def spy(*args):
        before = calls[0]
        roots = solve(*args)
        steps.append(calls[0] - before)
        return roots

    monkeypatch.setattr(verify, "_poly_value", counted)
    monkeypatch.setattr(verify, "_newton_in_bracket", spy)
    params = LemmaParams(A=0.8984957164773808, B=-0.501564715659746)
    threshold = verify.numeric_threshold(LemmaId.L8, params)
    assert threshold.hex() == "0x1.4a5f8cfd6885ep-3"    # as with 100 steps
    assert max(steps) < verify._NEWTON_STEPS
    assert calls[0] == 61                                # 147 with 100 steps
