"""The refinement steps, worked out per column on Python floats, against
their numpy forms.

``verify._parabolic_refine`` and ``verify._polish_zeros`` work out each
column's step on Python floats and batch only the evaluations of f.
``oracles.numpy_parabolic_refine`` and ``oracles.numpy_polish_zeros`` are
the same steps on numpy arrays, as they were before.  Every call to f is
recorded on both: the points and the columns it gets, in order, and what
it returns.  The two records and the results must agree bit for bit
(``float.hex``), dtypes included, except that the numpy polish calls f
on an empty array where it takes no vertex: that call reads nothing and
returns nothing, so it is left out of the comparison, and the polish
must make no such call.
"""

import math

import numpy as np
import pytest

from lemnisub import (
    CATALOG,
    LemmaId,
    boundary_margin_profile,
    closed_form_threshold,
    verify,
)
from lemnisub.errors import LemnisubError

import oracles
from conftest import feasible_draws

XTOL = 1e-8
MARGIN_LEMMAS = [l for l in LemmaId if CATALOG[l].margin_criterion]


def _hex(values) -> tuple:
    arr = np.asarray(values)
    return arr.dtype.str, tuple(float(v).hex() for v in arr.ravel())


def _cols(cols) -> tuple:
    arr = np.asarray(cols)
    return arr.dtype.str, tuple(int(c) for c in arr)


def recorded(f, log: list):
    """f, with every call's points, columns (when passed) and values
    appended to ``log``."""
    def g(x, *cols):
        values = f(x, *cols)
        log.append((_hex(x), tuple(_cols(c) for c in cols), _hex(values)))
        return values
    return g


def same_refine(f, a, x, b, xtol=XTOL):
    """Run both forms of the parabolic refinement; assert equal records
    and results; return the results."""
    logs = [], []
    ours = verify._parabolic_refine(recorded(f, logs[0]), a, x, b, xtol)
    theirs = oracles.numpy_parabolic_refine(recorded(f, logs[1]), a, x, b, xtol)
    assert logs[0] == logs[1]
    assert [_hex(r) for r in ours] == [_hex(r) for r in theirs]
    return ours, len(logs[0])


def _empty(call) -> bool:
    """A recorded call of f on no points."""
    return not call[0][1]


def non_empty(log: list) -> list:
    """The calls of ``log`` that hand f some points."""
    return [call for call in log if not _empty(call)]


def same_polish(f, x, fx, sing):
    logs = [], []
    ours = verify._polish_zeros(recorded(f, logs[0]), x, fx, sing)
    theirs = oracles.numpy_polish_zeros(recorded(f, logs[1]), x, fx, sing)
    assert not any(map(_empty, logs[0]))
    assert logs[0] == non_empty(logs[1])
    assert [_hex(r) for r in ours] == [_hex(r) for r in theirs]
    return ours


def _draws(lemma, seed, count=4):
    """Seeded feasible points of a rule, at betas from 0.5 to 1.5 times
    the closed-form threshold."""
    rng = np.random.default_rng([seed, 10])
    return [params.with_beta(closed_form_threshold(lemma, params).beta_star
                             * rng.uniform(0.5, 1.5))
            for params in feasible_draws(lemma, seed, count)]


def _brackets(rng, n):
    a = rng.uniform(-2.0, 0.0, n)
    b = rng.uniform(0.05, 2.0, n)
    return a, a + (b - a) * rng.uniform(0.1, 0.9, n), b


# shapes of f: smooth, V-shaped, with rounding plateaus, and per column
SHAPES = {
    "smooth": lambda x, cols: (x - 0.3) ** 2 + 0.1,
    "v-shaped": lambda x, cols: np.abs(x - 0.3) * (1.0 + x * x),
    "plateaus": lambda x, cols: np.round(np.cos(5.0 * x) * 1e3) / 1e3,
    "wiggly": lambda x, cols: np.sin(7.0 * x) + 0.1 * x * x,
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(6))
def test_seeded_batches(shape, seed):
    rng = np.random.default_rng([seed, 11])
    for n in range(1, 9):
        same_refine(SHAPES[shape], *_brackets(rng, n))


@pytest.mark.parametrize("seed", range(6))
def test_column_dependent_f(seed):
    # each column has its own minimum, found through the columns f is
    # handed, as oracles.scan_threshold's refinement keeps its guesses
    rng = np.random.default_rng([seed, 12])
    for n in range(1, 9):
        a, x, b = _brackets(rng, n)
        centre = a + (b - a) * rng.uniform(0.0, 1.0, n)
        f = lambda t, cols: np.abs(t - centre[cols]) ** 1.5
        (xb, _), _ = same_refine(f, a, x, b)
        cols = np.arange(n)
        below = (f(x, cols) < f(a, cols)) & (f(x, cols) < f(b, cols))
        assert np.all(np.abs(xb - centre)[below] <= 1e-6)


def test_ties_with_one_end():
    # x reads as a (or b): the midpoint of the tied pair becomes x when it
    # reads lower, and a tie that stays a tie returns the better end
    a = np.array([0.0, 1.0, 0.0, 1.0])
    x = np.array([1.0, 2.0, 1.0, 2.0])
    b = np.array([2.0, 3.0, 3.0, 3.5])
    parabola = lambda t, cols: (t - 1.5 - (cols % 2)) ** 2
    (xb, fb), _ = same_refine(parabola, a, x, b)
    assert np.all(fb <= 1e-16)
    flat = lambda t, cols: np.maximum((t - 1.5) ** 2, 0.25)
    (xb, fb), _ = same_refine(flat, a, x, b)
    assert np.all(fb == 0.25)


@pytest.mark.parametrize("end", [math.inf, math.nan])
def test_ends_reading_inf_or_nan(end):
    rng = np.random.default_rng(13)
    for n in range(1, 9):
        a, x, b = _brackets(rng, n)
        lo = a + 0.05 * (b - a)

        def f(t, cols):
            return np.where(t <= lo[cols], end, (t - 0.2) ** 2)

        same_refine(f, a, x, b)
        same_refine(lambda t, cols: f(-t, cols), -b, -x, -a)


def test_probes_clipped_at_the_bracket():
    # a wide xtol against narrow brackets: the probes x +- xtol are cut at
    # the ends, and minima sit right at an end
    a = np.array([0.0, 0.0, 0.0, -1.0])
    x = np.array([0.5, 0.3, 0.9, 0.0])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    for xtol in (1e-3, 0.05, 0.2):
        for centre in (0.0, 1e-9, 0.999999, 0.6):
            same_refine(lambda t, cols: np.abs(t - centre) + 1.0, a, x, b, xtol)


def test_probes_reading_alike():
    # a local maximum at x = 0 between two symmetric minima: the first step
    # probes +-xtol, which read alike and lower; x - xtol is taken
    w = lambda t, cols: np.abs(np.abs(t) - 2e-8)
    (xb, fb), _ = same_refine(w, np.array([-1.0]), np.array([0.0]), np.array([1.0]))
    assert xb[0] < 0.0 and fb[0] == 0.0


def test_no_live_columns():
    # every x reads above an end: no step is taken, f is called once
    (xb, fb), calls = same_refine(lambda t, cols: -t, np.array([0.0, 1.0]),
                                  np.array([0.5, 1.5]), np.array([1.0, 2.0]))
    assert calls == 1 and xb.tolist() == [1.0, 2.0]
    (xb, fb), calls = same_refine(lambda t, cols: t, np.empty(0), np.empty(0),
                                  np.empty(0))
    assert calls == 1 and xb.size == 0


def test_scan_threshold_refinement(monkeypatch):
    # the grid path of oracles.scan_threshold refines with a column-
    # dependent f: every call must reach f the same way through both
    calls = []
    refine = verify._parabolic_refine

    def both(f, a, x, b, xtol):
        calls.append(1)
        logs = [], []
        ours = refine(recorded(f, logs[0]), a, x, b, xtol)
        theirs = oracles.numpy_parabolic_refine(recorded(f, logs[1]), a, x, b, xtol)
        assert logs[0] == logs[1]
        assert [_hex(r) for r in ours] == [_hex(r) for r in theirs]
        return ours

    monkeypatch.setattr(verify, "_parabolic_refine", both)
    for params in feasible_draws(LemmaId.L1, 14, 3):
        try:
            oracles.scan_threshold(LemmaId.L1, params, grid_size=256, exact=False)
        except LemnisubError:     # a verdict of the scan, not of the refinement
            pass
    assert calls


@pytest.mark.parametrize("lemma", MARGIN_LEMMAS)
def test_margin_profiles(monkeypatch, lemma):
    # seeded profiles of every margin rule, both refinements recorded
    profiles = {}
    for name, refine, polish in (
            ("ours", verify._parabolic_refine, verify._polish_zeros),
            ("numpy", oracles.numpy_parabolic_refine, oracles.numpy_polish_zeros)):
        log = []
        with monkeypatch.context() as m:
            m.setattr(verify, "_parabolic_refine",
                      lambda f, *args, r=refine: r(recorded(f, log), *args))
            m.setattr(verify, "_polish_zeros",
                      lambda f, *args, p=polish: p(recorded(f, log), *args))
            profiles[name] = log, [
                (_hex(p.t_samples), _hex(p.margins), p.argmin_t.hex())
                for p in (boundary_margin_profile(lemma, params, 512)
                          for params in _draws(lemma, 15))]
    ours, theirs = profiles["ours"], profiles["numpy"]
    assert not any(map(_empty, ours[0]))
    assert ours == (non_empty(theirs[0]), theirs[1])


# --- the polish at V-shaped zeros ---------------------------------------------

def test_polish_v_shaped_zeros():
    # x within a few xtol of zeros of |sin 3t| and of a plain V
    rng = np.random.default_rng(16)
    v = lambda t: np.abs(np.sin(3.0 * t)) * (1.0 + 0.1 * t * t)
    for n in range(1, 9):
        zeros = rng.integers(-3, 4, n) * (math.pi / 3.0)
        x = zeros + rng.uniform(-2.0, 2.0, n) * XTOL
        xb, fb = same_polish(v, x, v(x), ())
        assert np.all(fb <= v(x))
        same_polish(lambda t: np.abs(t - 0.5), 0.5 + x - zeros, np.abs(x - zeros), ())


def test_polish_scale_of_zero():
    # f reads 0 (or -0) throughout: every y is 0 / 0, nothing is taken
    x = np.array([0.1, 0.2, 0.3])
    for zero in (0.0, -0.0):
        xb, fb = same_polish(lambda t: np.full(t.size, zero), x, np.full(3, zero), ())
        assert xb.tolist() == x.tolist()
    # x and its right side read 0, its left side -1
    same_polish(lambda t: np.where(t < np.resize(x, t.size), -1.0, 0.0), x,
                np.zeros(3), ())


def test_polish_scale_of_the_steep_side():
    # the largest of the three readings sets the scale, whichever side it
    # is on: squared unscaled, 1e300 would overflow
    steep = lambda t: np.where(t > 0.0, 1e300, np.where(t < 0.0, 1.0, 0.5))
    for sign in (1.0, -1.0):
        same_polish(lambda t: steep(sign * t), np.zeros(1), np.full(1, 0.5), ())


def test_polish_non_finite_readings():
    x = np.array([0.1, 0.2, 0.3, 0.4])
    for bad in (math.inf, math.nan, -math.inf):
        def f(t):
            out = np.abs(t - 0.2) + 0.0
            out[::3] = bad
            return out

        same_polish(f, x, np.abs(x - 0.2 + 1e-9), ())


def test_polish_punctured_vertices():
    # a vertex inside a puncture is not taken; one outside is, and the
    # punctures' images 2 pi away count too
    zeros = np.array([0.3 + 4e-9, 1.2 - 3e-9])
    x = np.array([0.3, 1.2])
    v = lambda t: np.min(np.abs(t[:, None] - zeros), axis=1)
    for sing, moved in (((), [True, True]), ((0.3 + 5e-7,), [False, True]),
                        ((1.2 - 5e-7, 0.3 + 5e-7), [False, False]),
                        ((0.3 - 2.0 * math.pi,), [False, True])):
        xb, _ = same_polish(v, x, v(x), sing)
        assert (xb != x).tolist() == moved


def test_polish_no_columns():
    xb, fb = same_polish(lambda t: t, np.empty(0), np.empty(0), ())
    assert xb.size == 0
