"""L8's per-angle root on the Cassini form against mpmath, and its two forms.

On L8 h - 1 = a + beta b with a != 0.  With u = b/|b| and s = beta |b|
the margin is >= 1 exactly where Q(s) = |s - p|^2 |s - r|^2 >= 1, with
the foci p = -a conj(u) and r = -(2 + a) conj(u); each angle's threshold
is beta_t = s_t / |b| = 1 / g, s_t the largest root of Q = 1.

* ``verify._cassini_size`` (Python floats, the refinement's form) against
  ``oracles.fifty_digit_cassini_root`` (``mpmath.polyroots`` at 50
  digits, a and b taken exactly) at seeded grid angles of seeded draws,
  of A - B = 0.003, of the punctured B = -1 and of A = 1e-300, B = 0.
  The bound: ``ULPS`` units in the last place of s_t plus the shift that
  a rounding of a few eps in Q gives it, 4 eps / |Q'(s_t)|.
* Columns whose Q(xm) >= 1, xm = max(Re p, Re r, 0), have every root at
  or below xm (``verify._left_root``): a planted one against mpmath, and
  a planted curve made of such columns alone, through ``numeric_threshold``.
* ``verify._cassini_sizes`` (the grid's array loop) against the Python
  float form, bit for bit on every grid column whose root lies right of
  xm; on the others the array reads inf and bounds g from below.
"""

import math

import numpy as np
import pytest

from lemnisub import LemmaId, LemmaParams, catalog, numeric_threshold, verify

import oracles
from conftest import feasible_draws

ULPS = 4
EPS = np.finfo(float).eps
# planted points: A - B = 0.003 (where a focus formed as 1 - q drifted
# 3.8e-14), B = -1 (a pole at t = 0, punctured) and A - B = 1e-300
PLANTED = [LemmaParams(A=0.3, B=0.297), LemmaParams(A=0.0, B=-1.0),
           LemmaParams(A=1e-300, B=0.0)]
POINTS = feasible_draws(LemmaId.L8, 36_000, 6) + PLANTED


def _grid_terms(params, grid_size=2048):
    """a and b on the punctured grid of an L8 point."""
    sing = verify.singular_angles(LemmaId.L8, params)
    t = verify._punctured_grid(grid_size, sing)
    return verify._convective_curve(LemmaId.L8, params)(t, verify._grid_points(grid_size, sing))


def _is_left(a, b):
    size = float(np.abs(b))
    terms = verify._cassini_terms(a, b, size)
    xm = max(max(terms[0], terms[2]), 0.0)
    return verify._cassini_value(xm, *terms)[0] >= 0.0, xm


def _assert_root(a, b, mp):
    """``_cassini_size`` at one angle within the bound of the 50-digit root."""
    size = float(np.abs(b))
    g = verify._cassini_size(a, b, size)
    with mp.workdps(50):
        s = oracles.fifty_digit_cassini_root(a, b, mp)
    if not s:
        assert g == math.inf, (a, b, g)
        return
    s = float(s)
    q, dq = verify._cassini_value(s, *verify._cassini_terms(a, b, size))
    bound = ULPS * (math.ulp(s) + 4.0 * EPS / abs(dq))
    assert abs(size / g - s) <= bound, (a, b, size / g, s)


def test_roots_against_fifty_digits():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(36_001)
    left = 0
    for params in POINTS:
        a, b = _grid_terms(params)
        cols = rng.choice(a.size, 24, replace=False)
        if verify.singular_angles(LemmaId.L8, params):
            cols = np.append(cols, [0, a.size - 1])      # next to the puncture
        for ai, bi in zip(a[cols].tolist(), b[cols].tolist()):
            _assert_root(ai, bi, mp)
            left += _is_left(ai, bi)[0]
    assert left       # the seeded angles include columns left of xm


def test_points_cover_the_planted_edges():
    assert verify.singular_angles(LemmaId.L8, PLANTED[1]) == (0.0,)
    assert PLANTED[0].A - PLANTED[0].B == pytest.approx(0.003)
    assert numeric_threshold(LemmaId.L8, PLANTED[2]) == pytest.approx(
        oracles.scan_threshold(LemmaId.L8, PLANTED[2]), rel=1e-14)


# h0 = 1 + a = 1.3 inside the lemniscate's right lobe, and a line 0.3 rad
# off the negative axis: it leaves the right lobe near s = 1.2 and passes
# the left lobe above it, so its one root lies below the foot of the
# focus h = -1 on the line, xm = 2.3 cos 0.3
LEFT_A, LEFT_DIRECTION = 0.3, np.exp(1j * (math.pi - 0.3))


@pytest.mark.parametrize("a,b", [
    (complex(LEFT_A), complex(LEFT_DIRECTION)),
    # |a| = 6.2: the quartic's expanded coefficients reach some 1e3, and
    # its last crossing is 1e-13 off before the polish on the factored Q
    (4.95625918861973 - 3.7372841408275868j, -1.678621488232417 + 1.436611218555165j),
])
def test_left_of_xm_planted_column(a, b):
    mp = pytest.importorskip("mpmath")
    left, xm = _is_left(a, b)
    assert left
    _assert_root(a, b, mp)
    size = float(np.abs(b))
    s = size / verify._cassini_size(a, b, size)
    assert 0.0 < s < xm
    g, bound = verify._cassini_sizes(np.array([a]), np.array([b]))
    assert g[0] == math.inf and bound[0] == size / xm < size / s


def test_first_planted_left_column_leaves_the_right_lobe():
    a, b = complex(LEFT_A), complex(LEFT_DIRECTION)
    assert _is_left(a, b)[1] == pytest.approx(2.3 * math.cos(0.3))
    assert 1.0 < abs(b) / verify._cassini_size(a, b, float(np.abs(b))) < 1.3


@pytest.mark.parametrize("wobble", [0.0, 0.1])
def test_curve_of_left_columns_alone(monkeypatch, wobble):
    # every grid column lies left of xm, so the grid reads g = inf and each
    # bound |b| / xm lies below the least g: the columns take their own
    # roots.  With b = (1 + wobble cos t) e^{i(pi - 0.3)} every angle has
    # the same root s_L, and g = |b| / s_L is least at t = pi (refined on
    # Python floats), or constant (the flat median)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        s = float(oracles.fifty_digit_cassini_root(complex(LEFT_A), complex(LEFT_DIRECTION), mp))

    def curve(lemma, params, t, z=None):
        t = np.asarray(t, dtype=float)
        return LEFT_A + params.beta * (1.0 + wobble * np.cos(t)) * LEFT_DIRECTION

    monkeypatch.setattr(catalog, "h_minus_one_on_circle", curve)
    monkeypatch.setattr(verify, "h_minus_one_on_circle", curve)
    value = numeric_threshold(LemmaId.L8, LemmaParams(A=0.5, B=0.0), grid_size=64)
    assert value == pytest.approx(s / (1.0 - wobble), rel=1e-13)


def test_array_and_float_forms_agree():
    rng = np.random.default_rng(36_002)
    points = POINTS + [LemmaParams(A=1.0, B=0.3)]     # pole at t = pi, every root left
    left = right = 0
    for params in points:
        a, b = _grid_terms(params)
        g, bound = verify._cassini_sizes(a, b)
        mono = np.isfinite(g)
        cols = np.flatnonzero(mono)
        floats = [verify._cassini_size(ai, bi, size) for ai, bi, size in
                  zip(a[cols].tolist(), b[cols].tolist(), np.abs(b[cols]).tolist())]
        assert [v.hex() for v in floats] == [v.hex() for v in g[cols].tolist()], params
        # every column whose root lies left of xm, or a sample of them
        cols = np.flatnonzero(~mono)
        cols = cols if cols.size <= 64 else rng.choice(cols, 64, replace=False)
        for ai, bi, low in zip(a[cols].tolist(), b[cols].tolist(), bound[cols].tolist()):
            assert low <= verify._cassini_size(ai, bi, float(np.abs(bi))), (params, ai, bi)
        right += int(mono.sum())
        left += int((~mono).sum())
    assert left and right
