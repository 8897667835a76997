"""The exact admissibility minima against a dense grid, and the facts they rest on.

``admissibility_min`` evaluates each quantity at t = 0, pi and at most
one stationary angle solved in closed form.  The oracle below is the
grid-plus-golden-section minimum it replaced, at grid 8192.  The closed
forms themselves are checked against a central difference of Q and h
(``oracles.derivative_cross_check``).
"""

import math
import zlib

import numpy as np
import pytest

from lemnisub import (
    CATALOG,
    DEFAULTS,
    AdmissibilityQuantity,
    LemmaId,
    LemmaParams,
    admissibility_min,
    closed_form_threshold,
)
from lemnisub.catalog import (
    ADMISSIBILITY_EVALUATORS,
    admissibility_slope,
    phi_of_q_circle,
    singular_angles,
)
from lemnisub.verify import _candidate_angles, _outside_punctures

from conftest import draw_valid_params
from oracles import FD_RTOL, derivative_cross_check
from test_verifier import NEAR_POLE_L9

RADII = (0.5, 0.9, 1.0 - 1e-6, 1.0)
ORACLE_GRID = 8192
ORACLE_SEEDS = 8
AGREE_RTOL = 1e-12       # exact and oracle minima agree to this, relative
ABOVE_RTOL = 1e-15       # the exact minimum is never above the oracle by more
STATIONARY_RTOL = 1e-7   # central difference at an interior candidate
DRAWS = 6

_PHI = AdmissibilityQuantity.RE_PHI_OF_Q


def _golden_refine_vec(f, lo, hi, xtol):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.astype(float).copy(), hi.astype(float).copy()
    x1, x2 = a + (1.0 - invphi) * (b - a), a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while np.max(b - a) > xtol:
        left = f1 < f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        cand1, cand2 = a + (1.0 - invphi) * (b - a), a + invphi * (b - a)
        fp = f(np.where(left, cand1, cand2))
        x1, f1, x2, f2 = (np.where(left, cand1, x2), np.where(left, fp, f2),
                          np.where(left, x1, cand2), np.where(left, f1, fp))
    return np.where(f1 < f2, f1, f2)


def grid_oracle_min(lemma, params, quantity, radius):
    """The grid-plus-golden-section minimum that the exact path replaced."""
    evaluator = ADMISSIBILITY_EVALUATORS[quantity]
    f = lambda x: evaluator(lemma, params, x, radius).real
    sing = singular_angles(lemma, params) if radius == 1.0 else ()
    puncture = DEFAULTS.puncture_radius
    t = np.linspace(-math.pi, math.pi, ORACLE_GRID, endpoint=False)
    images = [s + shift for s in sing for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi)]
    for image in images:
        t = t[np.abs(t - image) > puncture]
    vals = f(t)
    seeds = t[np.argsort(vals)[:ORACLE_SEEDS]]
    step = 2.0 * math.pi / ORACLE_GRID
    lo, hi = seeds - step, seeds + step
    for image in images:
        inside_lo = (lo > image - puncture) & (lo < image + puncture)
        inside_hi = (hi > image - puncture) & (hi < image + puncture)
        lo = np.where(inside_lo, image + puncture, lo)
        hi = np.where(inside_hi, image - puncture, hi)
    good = lo < hi
    best = float(np.min(vals))
    if good.any():
        best = min(best, float(np.min(_golden_refine_vec(
            f, lo[good], hi[good], DEFAULTS.angle_xtol))))
    return best


def seeded_points(lemma):
    """Seeded parameter points with beta within e^{+-0.7} of beta*."""
    rng = np.random.default_rng(zlib.crc32((lemma.value + "exact-adm").encode()))
    points = []
    for _ in range(DRAWS):
        params = draw_valid_params(lemma, rng)
        beta_star = closed_form_threshold(lemma, params).beta_star or 1.0
        points.append(params.with_beta(beta_star * math.exp(rng.uniform(-0.7, 0.7))))
    return points


CASES = ([(lemma, params) for lemma in LemmaId for params in seeded_points(lemma)]
         + [(LemmaId.L9, NEAR_POLE_L9)]
         + [(LemmaId.L1, LemmaParams(A=0.6, B=-0.3, k=k, beta=beta))
            for k, beta in ((-0.5, 2.0), (0.37, 3.0), (1.5, 5.0), (2.71, 9.0))])


def _case_id(case):
    lemma, params = case
    return f"{lemma.value}-{zlib.crc32(repr(params).encode()):08x}"


@pytest.mark.parametrize("lemma,params", CASES, ids=map(_case_id, CASES))
def test_exact_minimum_matches_grid_oracle(lemma, params):
    for quantity in CATALOG[lemma].verdict_quantities:
        for radius in RADII:
            exact = admissibility_min(lemma, params, quantity, radius)
            oracle = grid_oracle_min(lemma, params, quantity, radius)
            scale = max(1.0, abs(oracle))
            where = f"{quantity.value} at r = {radius}: {exact!r} vs {oracle!r}"
            assert abs(exact - oracle) <= AGREE_RTOL * scale, where
            assert exact - oracle <= ABOVE_RTOL * scale, where


@pytest.mark.parametrize("lemma,params", CASES, ids=map(_case_id, CASES))
def test_closed_forms_match_central_difference(lemma, params):
    for quantity in CATALOG[lemma].verdict_quantities:
        if quantity is _PHI:
            continue
        for radius in (1.0, DEFAULTS.verdict_radius):
            dev = derivative_cross_check(lemma, params, quantity, radius)
            assert dev <= FD_RTOL, f"{quantity.value} at r = {radius}: {dev!r}"


def test_every_rule_and_verdict_quantity_is_covered():
    covered = {(lemma, q) for lemma, _ in CASES
               for q in CATALOG[lemma].verdict_quantities}
    assert covered == {(lemma, q) for lemma in LemmaId
                       for q in CATALOG[lemma].verdict_quantities}
    assert any(lemma is LemmaId.L1 and not params.k.is_integer()
               for lemma, params in CASES)


# --- the facts the exact path rests on ------------------------------------------

@pytest.mark.parametrize("lemma", [LemmaId.L5, LemmaId.L6, LemmaId.L7])
@pytest.mark.parametrize("radius", [0.3, 0.9, 1.0 - 1e-6, 1.0])
def test_phi_of_q_is_monotone_in_t(lemma, radius):
    # on the unit circle the branch point at t = pi is punctured
    t = np.linspace(0.0, math.pi - DEFAULTS.puncture_radius, 4001)
    for beta in (0.05, 1.0, 7.0):
        params = LemmaParams(beta=beta)
        values = phi_of_q_circle(lemma, params, t, radius).real
        steps = np.diff(values)
        slack = 1e-13 * np.max(np.abs(values))
        terms = admissibility_slope(lemma, params, _PHI, radius)
        assert len(terms) <= 1
        if not terms:   # constant, L5 everywhere and L7 on the unit circle
            assert np.all(np.abs(steps) <= slack)
            continue
        # the slope in x = cos t has the sign of k < 0, so the real part
        # rises with t and is least at t = 0 (for L6 too)
        assert terms[0][0] < 0.0
        assert np.all(steps >= -slack)
        assert admissibility_min(lemma, params, _PHI, radius) == values[0]


@pytest.mark.parametrize("e", [-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("s", [-1.0, -0.9, -0.3, 0.3, 0.9, 1.0])
def test_lone_power_real_part_is_monotone(e, s):
    # Re (1 + s e^{it})^e is monotone on [0, pi], with x-slope of the sign of
    # e s; |s| = 1 puts a branch point or pole at one end, so 1 + s cos t
    # is formed from half angles, without cancellation
    t = np.linspace(1e-6, math.pi - 1e-6, 4001)
    half = np.cos(t / 2.0) if s > 0.0 else np.sin(t / 2.0)
    base = (1.0 - abs(s)) + 2.0 * abs(s) * half ** 2 + 1j * s * np.sin(t)
    values = (base ** e).real
    steps = np.diff(values)
    assert np.all(-math.copysign(1.0, e * s) * steps >= -1e-13 * np.max(np.abs(values)))


def test_interior_candidates_are_stationary():
    h = 1e-5
    interior = 0
    for lemma, params in CASES:
        for quantity in CATALOG[lemma].verdict_quantities:
            evaluator = ADMISSIBILITY_EVALUATORS[quantity]
            for radius in RADII:
                t = _candidate_angles(lemma, params, quantity, radius)
                for tc in t[2:]:
                    assert 0.0 < tc < math.pi
                    f = evaluator(lemma, params, np.array([tc - h, tc, tc + h]),
                                  radius).real
                    slope = (f[2] - f[0]) / (2.0 * h)
                    assert abs(slope) <= STATIONARY_RTOL * max(1.0, abs(f[1])), \
                        (lemma, params, quantity, radius, tc, slope)
                    interior += 1
    assert interior >= 20


def test_candidates_stay_out_of_punctures():
    # L2 at B = -1: a pole of Q at t = 0 on the unit circle
    params = LemmaParams(A=0.5, B=-1.0, beta=10.0)
    t = _candidate_angles(LemmaId.L2, params, AdmissibilityQuantity.RE_ZQP_OVER_Q, 1.0)
    assert singular_angles(LemmaId.L2, params) == (0.0,)
    # one step outside the puncture |t| <= radius, as the profile's grid
    assert t[0] == np.nextafter(DEFAULTS.puncture_radius, 1.0) and t[1] == math.pi
    assert _outside_punctures(t, singular_angles(LemmaId.L2, params)).all()
    inside = _candidate_angles(LemmaId.L2, params,
                               AdmissibilityQuantity.RE_ZQP_OVER_Q, 0.999)
    assert inside[0] == 0.0


@pytest.mark.parametrize("lemma,params,quantity", [
    (LemmaId.L6, LemmaParams(beta=1.0), AdmissibilityQuantity.RE_ZHP_OVER_Q),
    (LemmaId.L4, LemmaParams(A=0.5, B=-0.5, beta=3.0), _PHI),
])
def test_quantity_without_closed_form_slope_is_refused(lemma, params, quantity):
    with pytest.raises(ValueError, match="no closed-form slope"):
        admissibility_min(lemma, params, quantity, 0.9)
