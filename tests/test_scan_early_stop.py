"""The grid path's early-stopped threshold scan against the full scan.

``verify._scan_minima`` yields the 64 scan betas' minima upward and,
where every angle's criterion polynomial in beta has one positive root,
ends right after the first beta whose refined minimum reaches 1;
``verify._scan`` walks that stream.  ``oracles.full_scan_minima`` reads
every beta and refines all of them in one batch, as the grid path did
before, and ``oracles.full_scan_stream`` feeds it to the walk.  Up to
the stop the two must agree bit for bit, and so must the thresholds: the
CSV prints their last bits.

L1 at non-integer k takes the grid path; L1 requires -1 < B < A, so its
criterion (1 - B^2)|b|^2 beta^2 + 2(A - B) B Re(b) beta - (A - B)^2 has
one sign change at every angle and the stop is taken on every solve.
"""

import math

import numpy as np
import pytest

from lemnisub import LemmaId, LemmaParams, numeric_threshold, verify
from lemnisub.errors import LemnisubError, NonMonotoneMargin
from lemnisub.verify import _criterion_polynomial, _one_positive_root

import oracles
from conftest import draw_valid_params

GRIDS = (64, 2048)
DRAWS = 100


def _points():
    rng = np.random.default_rng(28_028)
    draws = []
    while len(draws) < DRAWS:
        params = draw_valid_params(LemmaId.L1, rng)
        if params.k not in (1.0, 3.0):          # 1 and 3 take the exact path
            draws.append(params)
    anchors = [LemmaParams(A=1.0, B=0.0, k=k) for k in (0.0, 2.0)]
    edges = [LemmaParams(A=A, B=B, k=k)
             for A in (1.0, 0.9, 0.0, -0.5)
             for B in (A - 1e-3, 0.5 * (A - 1.0), -0.999999)
             for k in (-0.999, 0.0, 1.5, 2.0, 2.999)]
    return draws + anchors + edges


POINTS = _points()


def _threshold(params, grid_size):
    try:
        return numeric_threshold(LemmaId.L1, params, grid_size).hex()
    except LemnisubError as exc:
        return type(exc).__name__


@pytest.fixture
def scans(monkeypatch):
    """Each ``_scan_minima`` call's arguments and the pairs drawn from it."""
    record = []
    scan = verify._scan_minima

    def spy(*args):
        read = []
        record.append((args, read))
        for pair in scan(*args):
            read.append(pair)
            yield pair

    monkeypatch.setattr(verify, "_scan_minima", spy)
    return record


@pytest.mark.parametrize("grid_size", GRIDS)
def test_threshold_bits_match_full_scan(monkeypatch, grid_size):
    fast = [_threshold(p, grid_size) for p in POINTS]
    monkeypatch.setattr(verify, "_scan_minima", oracles.full_scan_stream)
    full = [_threshold(p, grid_size) for p in POINTS]
    assert fast == full
    assert all(v.startswith("0x") for v in fast)       # every point solved


@pytest.mark.parametrize("grid_size", GRIDS)
def test_scan_stops_after_the_first_reached_beta(scans, grid_size):
    for params in POINTS:
        numeric_threshold(LemmaId.L1, params, grid_size)
        args, read = scans[-1]
        full_minima, full_probes, full_owner = oracles.full_scan_minima(*args)
        assert _one_positive_root(_criterion_polynomial(*args[1])), params
        i0 = oracles.analyze_scan(full_minima)
        minima = np.array([least for least, _ in read])
        assert len(read) <= i0 + 2, params
        assert minima[-1] >= 1.0 and np.all(minima[:-1] < 1.0), params
        assert np.all(full_minima[len(read):] >= 1.0)
        assert minima.tobytes() == full_minima[:len(read)].tobytes(), params
        for j, (_, probes) in enumerate(read):
            assert probes.tobytes() == full_probes[full_owner == j].tobytes()
    assert len(scans) == len(POINTS)


# --- the single-root test on planted columns ----------------------------------

@pytest.mark.parametrize("column,expected", [
    ([-1.0, 2.0], True),
    ([-1.0, 0.0, 0.0, 2.0], True),                # zeros between the signs
    ([-1.0, -3.0, 0.0, 2.0, 0.0, 1.0], True),
    ([-1.0, 0.0, 0.0], False),                    # no positive coefficient
    ([-1.0, -2.0, -0.5], False),                  # no change
    ([-1.0, 2.0, -1.0], False),                   # two changes
    ([-1.0, 0.0, 2.0, 0.0, -1.0], False),
    ([-1.0, 2.0, -1.0, 1.0], False),              # three changes
    ([0.0, -1.0, 1.0], False),                    # zero constant term
    ([-0.0, 1.0], False),
    ([1.0, -3.0, 1.0], False),                    # positive constant term
    ([-1.0, math.nan, 1.0], False),
    ([-1.0, math.inf, 1.0], False),
    ([-math.inf, 0.0, 1.0], False),
    ([-1.0, 1.0, -math.inf], False),
])
def test_one_positive_root_on_planted_columns(column, expected):
    F = np.array(column)[:, None]
    assert _one_positive_root(F) is expected
    good = np.zeros_like(F)                       # -1 + beta beside it
    good[0], good[1] = -1.0, 1.0
    assert _one_positive_root(np.hstack([F, good])) is expected


def test_one_positive_root_needs_every_column():
    F = np.array([[-1.0, -1.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, -1.0]])
    assert not _one_positive_root(F)
    assert _one_positive_root(F[:, :2])


def _planted(roots):
    """``polynomial`` with margin^2 = 1 + g(t) prod(beta - r), g > 0; it
    takes the grid's points z as ``_margin_polynomials``'s does, and reads t."""
    c = np.polynomial.polynomial.polyfromroots(roots)

    def polynomial(t, z=None):
        num = c[:, None] * (1.5 + np.cos(3.0 * t))[None, :]
        num[0] += 1.0
        return num, np.ones((1, t.size))
    return polynomial


def _grid_threshold(polynomial):
    return verify._grid_threshold(polynomial, (), np.linspace(1e-6, 10.0, 64), 64)


def test_columns_crossing_twice_raise_at_the_first_descent(scans, monkeypatch):
    # reached on [1, 2], lost on (2, 3), reached again from 3
    polynomial = _planted([1.0, 2.0, 3.0])
    with pytest.raises(NonMonotoneMargin) as walked:
        _grid_threshold(polynomial)
    (args, read), = scans
    assert not _one_positive_root(_criterion_polynomial(*args[1]))
    full_minima = oracles.full_scan_minima(*args)[0]
    with pytest.raises(NonMonotoneMargin) as full:
        oracles.analyze_scan(full_minima)
    assert str(walked.value) == str(full.value)
    descent = np.flatnonzero((full_minima[:-1] >= 1.0) & (full_minima[1:] < 1.0))[0]
    assert len(read) == descent + 2 < full_minima.size
    minima = np.array([least for least, _ in read])
    assert minima.tobytes() == full_minima[:len(read)].tobytes()
    monkeypatch.setattr(verify, "_scan_minima", oracles.full_scan_stream)
    with pytest.raises(NonMonotoneMargin):
        _grid_threshold(polynomial)


def test_columns_with_one_root_stop_early(scans, monkeypatch):
    polynomial = _planted([2.0])
    fast = _grid_threshold(polynomial)
    (args, read), = scans
    assert len(read) == int(np.searchsorted(args[4], 2.0)) + 1
    monkeypatch.setattr(verify, "_scan_minima", oracles.full_scan_stream)
    assert fast.hex() == _grid_threshold(polynomial).hex()
    assert fast == pytest.approx(2.0, rel=1e-12)
