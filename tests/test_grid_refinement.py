"""The grid's parabolic refinement against the golden section it replaced.

``boundary_margin_profile`` refines the grid's local minima of the
margin with ``verify._parabolic_refine`` for every rule, and
``numeric_threshold`` refines a Mobius premise's radial size g the same
way.  L1's dominant curve has the exponent (k + 1)/2, so for every k but
1 and 3 its margin is not rational in x = cos t and no exact solve
stands behind either.  The oracle is the same two functions with that
refiner replaced by the golden-section refinement the grid path used
before, run to angular resolution 1e-13 instead of 1e-8.  Those draws
are L1 only; ``test_margin_exact`` checks the other rules.  On odd grids,
where a minimum at t = 0 falls between two samples that read the same,
every margin rule's profile is held to its profile on an even grid.
"""

import dataclasses
import math
import zlib

import numpy as np
import pytest

from lemnisub import (DEFAULTS, LemmaId, boundary_margin_profile,
                      closed_form_threshold, numeric_threshold, verify)
from lemnisub.errors import LemnisubError

from conftest import draw_valid_params, feasible_draws
from oracles import rational_h_minus_one

ORACLE_XTOL = 1e-13      # the oracle's golden-section angular resolution
AGREE_RTOL = 1e-12       # refined and oracle values agree to this, relative
ABOVE_RTOL = 4e-15       # a refined minimum is never above the oracle's by more
MAX_CALLS = 12           # most evaluation calls of one refinement on these draws
KAPPAS = (0.0, 2.0, 0.37, 2.71, -0.5)
DRAWS = 6


def _golden_refine(f, a, x, b, xtol):
    """Golden section over [a, b], the refinement the grid path used before."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = a.astype(float).copy(), b.astype(float).copy()
    cols = np.arange(a.size)
    x1, x2 = a + (1.0 - invphi) * (b - a), a + invphi * (b - a)
    f1, f2 = f(x1, cols), f(x2, cols)
    while np.max(b - a) > xtol:
        left = f1 < f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        cand1, cand2 = a + (1.0 - invphi) * (b - a), a + invphi * (b - a)
        fp = f(np.where(left, cand1, cand2), cols)
        x1, f1, x2, f2 = (np.where(left, cand1, x2), np.where(left, fp, f2),
                          np.where(left, x1, cand2), np.where(left, f1, fp))
    take1 = f1 < f2
    return np.where(take1, x1, x2), np.where(take1, f1, f2)


def _points():
    points = []
    for k in KAPPAS:
        rng = np.random.default_rng(zlib.crc32(f"L1-{k}-grid-refinement".encode()))
        for _ in range(DRAWS):
            params = dataclasses.replace(draw_valid_params(LemmaId.L1, rng), k=k)
            star = closed_form_threshold(LemmaId.L1, params).beta_star
            points.append((params, [star, star * math.exp(rng.uniform(-0.7, 0.7))]))
    return points


POINTS = _points()


def _point_id(point):
    params, _ = point
    return f"k{params.k}-{zlib.crc32(repr(params).encode()):08x}"


def _threshold(params):
    try:
        return "Feasible", numeric_threshold(LemmaId.L1, params)
    except LemnisubError as exc:
        return type(exc).__name__, None


def _with_oracle(monkeypatch, f, *args):
    with monkeypatch.context() as m:
        m.setattr(verify, "_parabolic_refine", _golden_refine)
        m.setattr(verify, "DEFAULTS", dataclasses.replace(DEFAULTS,
                                                          angle_xtol=ORACLE_XTOL))
        return f(*args)


@pytest.fixture
def calls(monkeypatch):
    """Evaluation calls of each ``_parabolic_refine`` run."""
    counts = []
    refine = verify._parabolic_refine

    def counted(f, *args):
        counts.append(0)

        def g(*fargs):
            counts[-1] += 1
            return f(*fargs)
        return refine(g, *args)

    monkeypatch.setattr(verify, "_parabolic_refine", counted)
    return counts


@pytest.mark.parametrize("params,betas", POINTS, ids=map(_point_id, POINTS))
def test_refinement_matches_golden_section_oracle(monkeypatch, calls, params, betas):
    assert rational_h_minus_one(LemmaId.L1, params) is None
    status, value = _threshold(params)
    oracle_status, oracle_value = _with_oracle(monkeypatch, _threshold, params)
    assert status == oracle_status
    if value is not None:
        assert abs(value - oracle_value) <= AGREE_RTOL * oracle_value, (value, oracle_value)
    for beta in betas:
        at = params.with_beta(beta)
        refined = boundary_margin_profile(LemmaId.L1, at)
        oracle = _with_oracle(monkeypatch, boundary_margin_profile, LemmaId.L1, at)
        scale = max(1.0, abs(oracle.min_margin))
        where = f"beta {beta!r}: {refined.min_margin!r} vs {oracle.min_margin!r}"
        assert abs(refined.min_margin - oracle.min_margin) <= AGREE_RTOL * scale, where
        assert refined.min_margin - oracle.min_margin <= ABOVE_RTOL * scale, where
        assert -math.pi <= refined.argmin_t < math.pi
    assert calls and max(calls) <= MAX_CALLS, calls


def test_points_cover_even_and_fractional_kappa():
    assert {p.k for p, _ in POINTS} == set(KAPPAS)


MARGIN_RULES = [LemmaId.L1, LemmaId.L2, LemmaId.L3, LemmaId.L4, LemmaId.L8,
                LemmaId.L9, LemmaId.L10, LemmaId.L11]


# For real parameters the margin is even in t.  On an odd grid t = 0 lies
# halfway between two grid points, so a minimum there leaves two samples
# that read the same bits; the refinement starts from their midpoint
@pytest.mark.parametrize("lemma", MARGIN_RULES)
def test_odd_grid_profile_reads_the_even_grid_minimum(lemma):
    for params in feasible_draws(lemma, 5_000 + list(LemmaId).index(lemma), 4):
        at = params.with_beta(1.1 * closed_form_threshold(lemma, params).beta_star)
        odd, even = (boundary_margin_profile(lemma, at, n) for n in (999, 4096))
        scale = max(1.0, abs(even.min_margin))
        assert abs(odd.min_margin - even.min_margin) <= AGREE_RTOL * scale, \
            (params, odd.min_margin, even.min_margin)
