"""The lemniscate premise's ray roots against mpmath.

On the ray h - 1 = s e^{i theta}, c = cos theta, the lemniscate margin is
>= 1 exactly where P_c(s) = s^4 + 4 c s^3 + 4 s^2 - 1 >= 0.
``verify._lemniscate_root`` gives its largest positive root rho(c), from
a table above c* = -5 sqrt(3)/9 and as a simple root in w = (s -
sqrt 3)/sqrt(c* - c) below it, and ``verify._window_roots`` the two
smaller ones r1 <= r2 that exist below c* (r3 = rho there).  References:

* ``mpmath.polyroots`` at 50 digits, at the named points (c = -1, c*,
  c* +- 1e-12, -sqrt(8/9), 0, 1) and at 300 seeded values of c;
* at 10,000 seeded values, the companion eigenvalues polished by Newton
  steps in extended precision (``np.longdouble``); ``mpmath.polyroots``
  takes about 5 ms a call here, a minute for all of them.

The bound: P_c evaluated in doubles is off by about eps times the sum of
its terms, E, which moves a root by E over the slope of P_c there, and
near the double roots at c = -1 and c* by sqrt(2 E / |P_c''|).  Each root
is held to ``ULPS`` units in the last place plus that sensitivity.
"""

import math

import numpy as np
import pytest

from lemnisub import verify

import oracles

ULPS = 4
EPS = np.finfo(float).eps
C_STAR = -5.0 * math.sqrt(3.0) / 9.0
NAMED = [-1.0, verify._C_STAR, verify._C_STAR - 1e-12, verify._C_STAR + 1e-12,
         -math.sqrt(8.0 / 9.0), 0.0, 1.0]


def _bound(c, r):
    """``ULPS`` ulps of r plus the root's sensitivity to rounding in P_c."""
    c, r = np.asarray(c, dtype=float), np.asarray(r, dtype=float)
    E = 8.0 * EPS * (r ** 4 + 4.0 * np.abs(c) * r ** 3 + 4.0 * r * r + 1.0)
    slope = np.abs(4.0 * r * (r * (r + 3.0 * c) + 2.0))
    curvature = np.abs(12.0 * r * r + 24.0 * c * r + 8.0)
    with np.errstate(divide="ignore"):
        sensitivity = np.minimum(E / slope, np.sqrt(2.0 * E / curvature))
    return ULPS * np.spacing(r) + sensitivity


def _kernel(c):
    """(r1, r2, rho) from verify, r1 and r2 NaN where c >= c*."""
    c = np.asarray(c, dtype=float)
    rho = verify._lemniscate_root(c)
    r1, r2 = np.full(c.shape, np.nan), np.full(c.shape, np.nan)
    window = c < verify._C_STAR
    r1[window], r2[window] = verify._window_roots(c[window], rho[window])
    return r1, r2, rho


def _assert_roots(c, roots):
    """``roots``: each c's positive roots, ascending (three below c*)."""
    r1, r2, rho = _kernel(c)
    for k, ref in enumerate(roots):
        assert abs(rho[k] - ref[-1]) <= _bound(c[k], ref[-1]), (c[k], rho[k], ref)
        if len(ref) == 3:
            assert abs(r1[k] - ref[0]) <= _bound(c[k], ref[0]), (c[k], r1[k], ref)
            assert abs(r2[k] - ref[1]) <= _bound(c[k], ref[1]), (c[k], r2[k], ref)
            assert r1[k] <= r2[k] <= rho[k], c[k]
        else:
            assert len(ref) == 1 and np.isnan(r1[k]), (c[k], ref)


def test_c_star_is_the_least_double_above_the_double_root():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        exact = -5 * mp.sqrt(3) / 9
        assert mp.mpf(verify._C_STAR) > exact
        assert mp.mpf(math.nextafter(verify._C_STAR, -1.0)) < exact
        # the low part makes c* - c exact to rounding near c*
        assert abs(mp.mpf(verify._C_STAR) + mp.mpf(verify._C_STAR_LOW) - exact) <= 1e-32


def _fifty_digit_roots(cs):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        return [[float(r) for r in oracles.fifty_digit_lemniscate_roots(c, mp)] for c in cs]


def test_named_points_against_fifty_digits():
    c = np.array(NAMED)
    roots = _fifty_digit_roots(c)
    assert [len(r) for r in roots] == [3, 1, 3, 1, 1, 1, 1]
    _assert_roots(c, roots)


def test_ends_read_one_plus_and_minus_root_two():
    # rho(-1) = 1 + sqrt 2 (r1 = r2 = 1 is double) and rho(1) = sqrt 2 - 1,
    # to the nearest double or one ulp off it
    mp = pytest.importorskip("mpmath")
    r1, r2, rho = _kernel(np.array([-1.0, 1.0]))
    with mp.workdps(50):
        for value, exact in ((rho[0], 1 + mp.sqrt(2)), (rho[1], mp.sqrt(2) - 1)):
            assert abs(mp.mpf(value) - exact) <= math.ulp(float(exact)), value
    assert r1[0] == 1.0 and abs(r2[0] - 1.0) <= 4 * EPS


def test_seeded_values_against_fifty_digits():
    rng = np.random.default_rng(34_001)
    c = np.concatenate([rng.uniform(-1.0, 1.0, 200), rng.uniform(-1.0, C_STAR, 100)])
    _assert_roots(c, _fifty_digit_roots(c))


def _extended_roots(c):
    """Each c's positive roots, ascending: companion eigenvalues, then
    Newton steps in np.longdouble, each kept only where it lowers |P_c|
    (near a double root a step can run off)."""
    eig = oracles.lemniscate_eigenvalues(c)
    s = np.where(np.abs(eig.imag) <= 1e-6, eig.real, np.nan).astype(np.longdouble)
    cl = c.astype(np.longdouble)[:, None]

    def quartic(s):
        return s * s * (s * (s + 4 * cl) + 4) - 1

    for _ in range(8):
        d = 4 * s * (s * (s + 3 * cl) + 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = s - quartic(s) / d
            s = np.where(np.abs(quartic(nxt)) < np.abs(quartic(s)), nxt, s)
    return [sorted(float(x) for x in row if x > 0) for row in s]


def test_ten_thousand_seeded_values_against_extended_precision():
    rng = np.random.default_rng(34_002)
    c = np.concatenate([rng.uniform(-1.0, 1.0, 7000), rng.uniform(-1.0, C_STAR, 2000),
                        C_STAR - np.geomspace(1e-15, 1e-2, 500),
                        -1.0 + np.geomspace(1e-16, 1e-2, 500)])
    roots = _extended_roots(c)
    # the companion solve may split a near-double root into a complex pair
    # off the real axis by more than it keeps: those few values are left out
    count = np.array([len(r) for r in roots])
    keep = np.flatnonzero(count == np.where(c < verify._C_STAR, 3, 1))
    assert keep.size >= 9_900
    _assert_roots(c[keep], [roots[k] for k in keep])


def test_table_is_small():
    table = verify._root_table()
    assert table.size == verify._ROOT_NODES <= 4097
    assert not table.flags.writeable
