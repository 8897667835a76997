import math
import zlib

import numpy as np
import pytest

from lemnisub import (
    CATALOG,
    DEFAULTS,
    AdmissibilityQuantity,
    Janowski,
    LemmaId,
    LemmaParams,
    PowerSeries,
    SqrtLemniscate,
    Verdict,
    admissibility_min,
    boundary_margin_profile,
    check_superordination,
    closed_form_threshold,
    conclusion_region,
    implication_trial,
    monomial,
    numeric_threshold,
    random_schwarz,
    solve_premise,
    subordination_check,
)
from lemnisub.errors import (
    ConstantTermMismatch,
    InfeasibleParameters,
    NoThresholdInBracket,
    NonMonotoneMargin,
)
from lemnisub.regions import membership_margins
from lemnisub.verify import (
    _parabolic_refine,
    _scan,
    _select_argmin,
    winding_number,
)

import oracles
from conftest import draw_valid_params

SQRT2 = math.sqrt(2.0)
MARGIN_LEMMAS = [l for l in LemmaId if CATALOG[l].margin_criterion]


# --- primitives ---------------------------------------------------------------

def test_winding_number_basic():
    t = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    assert winding_number(np.exp(1j * t)) == 1
    assert winding_number(np.exp(-2j * t)) == -2
    assert winding_number(3.0 + np.exp(1j * t)) == 0


@pytest.mark.parametrize("f,ftol", [(lambda x: (x - 1.3) ** 2 + 0.2, 1e-12),
                                    (lambda x: np.abs(x - 1.3) + 0.2, 1e-10)],
                         ids=["smooth", "v-shaped"])
def test_parabolic_refine_vectorised(f, ftol):
    # a V-shaped minimum is resolved to xtol in x, so to xtol in f at slope 1
    lo = np.array([0.0, 1.0])
    hi = np.array([2.0, 2.0])
    xb, fb = _parabolic_refine(lambda x, cols: f(x), lo, 0.5 * (lo + hi), hi, 1e-10)
    assert np.max(np.abs(xb - 1.3)) <= 1e-8
    assert np.max(np.abs(fb - 0.2)) <= ftol


def test_parabolic_refine_keeps_the_better_end():
    # a seed not below both ends: the column returns its better end unrefined
    xb, fb = _parabolic_refine(lambda x, cols: x * x, np.array([0.5]),
                               np.array([1.0]), np.array([2.0]), 1e-10)
    assert (xb[0], fb[0]) == (0.5, 0.25)


def test_parabolic_refine_starts_a_tie_from_the_midpoint():
    # x reads the same as one end, as at a minimum halfway between two grid
    # points: the tied pair brackets the minimum at 1.5, from either side
    xb, fb = _parabolic_refine(lambda x, cols: (x - 1.5) ** 2, np.array([0.0, 1.0]),
                               np.array([1.0, 2.0]), np.array([2.0, 3.0]), 1e-10)
    assert np.max(np.abs(xb - 1.5)) <= 1e-8
    assert np.max(fb) <= 1e-16


SCAN_BETAS = np.linspace(0.5, 4.5, 9)


def _planted_scan(values):
    """``_scan``'s arguments for a scan whose j-th beta reads the least
    squared margin values[j] (NaN never reaches 1)."""
    return np.asarray(values, dtype=float) >= 1.0, SCAN_BETAS


def test_scan_single_upcrossing():
    lo, hi, up = _scan(*_planted_scan([0.2, 0.5, 0.9, 1.1, 1.5]))
    assert (lo, hi) == (SCAN_BETAS[2], SCAN_BETAS[3])
    assert up == 3                               # the index of hi


def test_scan_detects_descent_at_once():
    # the first descent is named, not the later one
    with pytest.raises(NonMonotoneMargin, match=r"after beta index 1;"):
        _scan(*_planted_scan([0.2, 1.2, 0.8, 1.4, 0.5]))


def test_scan_no_threshold():
    with pytest.raises(NoThresholdInBracket):
        _scan(*_planted_scan([0.1, 0.2, 0.3]))


def test_scan_reached_at_the_first_beta():
    lo, hi, up = _scan(*_planted_scan([1.0, 1.5, 2.0]))
    assert (lo, hi) == (1e-6 * SCAN_BETAS[0], SCAN_BETAS[0])
    assert up == 0


def test_scan_agrees_with_the_full_analysis():
    # every pattern of reached (1.5), missed (0.5) and NaN minima on 6 betas
    for pattern in np.ndindex(*(3,) * 6):
        values = np.array([0.5, 1.5, math.nan])[list(pattern)]
        try:
            i0 = oracles.analyze_scan(values)
        except (NoThresholdInBracket, NonMonotoneMargin) as exc:
            with pytest.raises(type(exc)) as walked:
                _scan(*_planted_scan(values))
            assert str(walked.value) == str(exc)
            continue
        lo, hi, up = _scan(*_planted_scan(values))
        if i0 < 0:
            assert (lo, hi, up) == (1e-6 * SCAN_BETAS[0], SCAN_BETAS[0], 0)
        else:
            assert (lo, hi, up) == (SCAN_BETAS[i0], SCAN_BETAS[i0 + 1], i0 + 1)


# --- margin profiles -----------------------------------------------------------

def test_profile_l9_degenerate_constant():
    p = boundary_margin_profile(
        LemmaId.L9, LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0, beta=2.0))
    assert p.min_margin == pytest.approx(2.0, abs=1e-12)
    assert p.argmin_t == 0.0
    assert p.is_constant()


def test_profile_l2_at_threshold():
    beta = 1.0 + SQRT2
    p = boundary_margin_profile(LemmaId.L2, LemmaParams(A=1.0, B=0.0, beta=beta))
    assert p.min_margin == pytest.approx(1.0, abs=1e-9)
    # the binding angle is t = +-pi, where |2 + beta e^{it}| = beta - 2
    assert abs(p.argmin_t) == pytest.approx(math.pi, abs=1e-6)


def test_profile_minimum_at_pi_stays_on_the_grid_angle():
    # the minimum sits at t = -pi, a grid angle; the refinement's last
    # probes at -pi +- 1e-8 read lower by rounding only and must not move it
    params = LemmaParams(A=-0.12142613934027158, B=-0.8211965118679712,
                         beta=12.918965768846798)
    p = boundary_margin_profile(LemmaId.L2, params)
    assert p.argmin_t == -math.pi
    assert p.min_margin == pytest.approx(1.9778590719019833, rel=1e-12)


def test_profile_mirrored_minima_report_the_positive_angle():
    # the refined minima of the mirrored pair read the same margin and
    # differ in |t| below the refinement's resolution; t >= 0 decides
    params = LemmaParams(A=-0.14290866977824024, B=-0.7140064561127962,
                         beta=7.680523771793103)
    p = boundary_margin_profile(LemmaId.L2, params)
    assert p.argmin_t == pytest.approx(2.3152500868, abs=1e-9)
    assert np.any(np.abs(p.t_samples + p.argmin_t) <= 2.0 * DEFAULTS.angle_xtol)


def test_select_argmin_ties_within_the_angle_resolution():
    xtol = DEFAULTS.angle_xtol
    ms = np.array([0.5, 0.5, 0.7])
    # |t| within 2 xtol: a tie, so t >= 0 wins
    assert _select_argmin(np.array([-1.0, 1.0 + 1.5 * xtol, 0.0]), ms) == (0.5, 1.0 + 1.5 * xtol)
    assert _select_argmin(np.array([-1.0 - 1.5 * xtol, 1.0, 0.0]), ms) == (0.5, 1.0)
    # farther apart, the smaller |t| wins whatever its sign
    assert _select_argmin(np.array([-1.0, 1.0 + 3.0 * xtol, 0.0]), ms) == (0.5, -1.0)
    # the smallest margin decides first
    assert _select_argmin(np.array([-1.0, 1.0, 0.0]), np.array([0.5, 0.6, 0.7])) == (0.5, -1.0)


def test_profile_l1_cosine_margin():
    # A=1, B=0, k=1: margin(t) = beta/(4 cos(t/2)); at beta=4 it is 1/cos(t/2)
    p = boundary_margin_profile(LemmaId.L1,
                                LemmaParams(A=1.0, B=0.0, k=1.0, beta=4.0))
    assert p.min_margin == pytest.approx(1.0, abs=1e-9)
    assert p.argmin_t == pytest.approx(0.0, abs=1e-7)
    expect = 1.0 / np.cos(p.t_samples / 2.0)
    assert np.max(np.abs(p.margins - expect)) <= 1e-9


def test_profile_punctures_exclude_singular_angles():
    p = boundary_margin_profile(LemmaId.L2, LemmaParams(A=0.0, B=-1.0, beta=10.0))
    assert p.punctures == (0.0,)
    assert np.min(np.abs(p.t_samples)) > 1e-6
    assert np.all(np.isfinite(p.margins))


@pytest.mark.parametrize("lemma", MARGIN_LEMMAS)
def test_profile_even_symmetry(lemma):
    rng = np.random.default_rng(zlib.crc32((lemma.value + "even").encode()))
    for _ in range(5):
        params = draw_valid_params(lemma, rng)
        thr = closed_form_threshold(lemma, params)
        if thr.beta_star is None:
            continue
        p = boundary_margin_profile(lemma, params.with_beta(1.1 * thr.beta_star),
                                    grid_size=1024)
        # pair each angle with its negative (grid from -pi, endpoint
        # excluded); refined angles without a mirror image are skipped
        m = dict(zip(np.round(p.t_samples, 12), p.margins))
        finite = [(t, v) for t, v in m.items() if np.isfinite(v) and -t in m]
        for t, v in finite:
            assert v == pytest.approx(m[-t], rel=1e-9, abs=1e-9)


def test_profile_requires_margin_lemma():
    with pytest.raises(ValueError):
        boundary_margin_profile(LemmaId.L5, LemmaParams(beta=1.0))


def test_profile_stores_refined_samples_consistently():
    p = boundary_margin_profile(LemmaId.L2, LemmaParams(A=1.0, B=0.0, beta=3.0))
    assert p.refined
    assert p.t_samples.shape == p.margins.shape
    assert p.min_margin == float(np.min(p.margins))
    assert np.all(np.diff(p.t_samples) >= 0.0)
    idx = np.flatnonzero(p.margins == p.min_margin)
    assert any(p.t_samples[i] == p.argmin_t for i in idx)


def test_profile_with_an_infinite_sample_is_not_constant():
    # the finite margins run from 2.0 to about 2607.6 and one sample is
    # infinite, which must not turn the scale of the test into inf
    p = boundary_margin_profile(LemmaId.L1,
                                LemmaParams(A=1.0, B=0.5, k=1.0, beta=4.0))
    finite = p.margins[np.isfinite(p.margins)]
    assert np.count_nonzero(~np.isfinite(p.margins)) == 1
    assert np.min(finite) == pytest.approx(2.0, abs=1e-9)
    assert np.max(finite) == pytest.approx(2607.6, abs=0.1)
    assert not p.is_constant()
    assert p.argmin_t != 0.0


def test_interior_pole_diagnostic_is_a_note():
    # L1 with B > 1/2: A - B h(z) vanishes inside the disk at beta*
    params = LemmaParams(A=1.0, B=0.75, k=1.0, beta=4.0)
    rep = check_superordination(LemmaId.L1, params)
    assert rep.pole_inside and rep.den_winding != 0
    assert any("winds around 0" in note for note in rep.notes)
    assert rep.margin.min_margin >= 1.0 - 1e-9    # the margin is unaffected
    assert rep.verdict is Verdict.VERIFIED
    # with B < 1/2 the denominator stays zero-free at beta*
    clean = check_superordination(
        LemmaId.L1, LemmaParams(A=1.0, B=0.25, k=1.0, beta=4.0))
    assert clean.den_winding == 0 and not clean.pole_inside
    # lemniscate premises have no Mobius inverse map to diagnose
    lemniscate = check_superordination(LemmaId.L2,
                                       LemmaParams(A=1.0, B=0.0, beta=3.0))
    assert lemniscate.den_winding is None and not lemniscate.pole_inside


def lower_bound_g(params, t):
    """The explicit lower-bound function for the L1 boundary margin.

    g(t) = |beta| / (2 (A-B) (2 cos(t/2))^{(k+1)/2} + |B beta|); its
    minimum over t sits at t = 0 for the whole parameter range.
    """
    A, B, beta = params.A, params.B, params.beta
    c = (2.0 * np.cos(t / 2.0)) ** ((params.k + 1.0) / 2.0)
    return abs(beta) / (2.0 * (A - B) * c + abs(B * beta))


def test_l1_lower_bound_g_argmin_at_zero():
    rng = np.random.default_rng(31)
    t = np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 4001)
    for _ in range(20):
        params = draw_valid_params(LemmaId.L1, rng)
        thr = closed_form_threshold(LemmaId.L1, params)
        g = lower_bound_g(params.with_beta(thr.beta_star), t)
        assert abs(t[int(np.argmin(g))]) <= 2e-3
        assert np.min(g) == pytest.approx(1.0, abs=1e-9)


# --- admissibility --------------------------------------------------------------

@pytest.mark.parametrize("lemma,expect", [(LemmaId.L5, 0.75),
                                          (LemmaId.L6, 0.50),
                                          (LemmaId.L7, 0.25)])
def test_admissibility_exact_boundary_constants(lemma, expect):
    m = admissibility_min(lemma, LemmaParams(beta=1.0),
                          AdmissibilityQuantity.RE_ZQP_OVER_Q, radius=1.0)
    assert abs(m - expect) <= 1e-9


def test_admissibility_l9_interior_value():
    m = admissibility_min(LemmaId.L9,
                          LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0, beta=1.0),
                          AdmissibilityQuantity.RE_ZQP_OVER_Q, radius=0.99)
    assert m == pytest.approx(1.0, abs=1e-12)   # (1-Bz)/(1+Bz) with B=0


def test_admissibility_l1_k3_degenerates_on_boundary_only():
    params = LemmaParams(A=1.0, B=0.0, k=3.0, beta=8.0)
    on_boundary = admissibility_min(LemmaId.L1, params,
                                    AdmissibilityQuantity.RE_ZQP_OVER_Q, 1.0)
    inside = admissibility_min(LemmaId.L1, params,
                               AdmissibilityQuantity.RE_ZQP_OVER_Q, 1.0 - 1e-6)
    assert abs(on_boundary) <= 1e-9
    assert inside > 0.0


def test_admissibility_phi_of_q():
    # L7: Re(beta/(1+z)) = beta/2 exactly on the circle
    m = admissibility_min(LemmaId.L7, LemmaParams(beta=0.9),
                          AdmissibilityQuantity.RE_PHI_OF_Q, radius=1.0)
    assert m == pytest.approx(0.45, abs=1e-12)


def test_admissibility_l8_uses_true_h_derivative():
    # the h-derivative quantity contains q/beta, not 1/beta; checked here
    # against the direct formula on a grid, and for every rule against a
    # central difference by test_closed_forms_match_central_difference
    params = LemmaParams(A=0.5, B=0.0, beta=3.0)
    m = admissibility_min(LemmaId.L8, params,
                          AdmissibilityQuantity.RE_ZHP_OVER_Q, radius=0.999)
    t = np.linspace(-np.pi, np.pi, 8192, endpoint=False)
    z = 0.999 * np.exp(1j * t)
    q = (1.0 + params.A * z) / (1.0 + params.B * z)
    zqp = (1.0 - params.A * params.B * z * z) / ((1.0 + params.A * z) * (1.0 + params.B * z))
    direct = (q / params.beta + zqp).real
    assert m == pytest.approx(float(direct.min()), abs=1e-6)


# a pole of Q = (A-B) z/(1+Bz)^2 sits 1.3e-4 outside the circle at t = 0,
# where |zQ'/Q| = |(1-Bz)/(1+Bz)| is about 1.5e4
NEAR_POLE_L9 = LemmaParams(A=-0.19149202174029467, B=-0.9998703276536798,
                           D=-0.019169261523765302, E=-0.4934766796486485,
                           beta=1.571268828773606)


def test_cross_check_accepts_pole_near_circle():
    m = admissibility_min(LemmaId.L9, NEAR_POLE_L9,
                          AdmissibilityQuantity.RE_ZQP_OVER_Q,
                          radius=1.0 - 1e-6)
    assert m > 0.0
    assert oracles.derivative_cross_check(
        LemmaId.L9, NEAR_POLE_L9, AdmissibilityQuantity.RE_ZQP_OVER_Q,
        1.0 - 1e-6) <= oracles.FD_RTOL
    assert check_superordination(LemmaId.L9, NEAR_POLE_L9).verdict is Verdict.VERIFIED


@pytest.mark.parametrize("lemma,params,quantity", [
    (LemmaId.L9, NEAR_POLE_L9, AdmissibilityQuantity.RE_ZQP_OVER_Q),
    (LemmaId.L2, LemmaParams(A=0.7, B=-0.4, beta=3.0),
     AdmissibilityQuantity.RE_ZQP_OVER_Q),
    (LemmaId.L8, LemmaParams(A=0.5, B=0.0, beta=3.0),
     AdmissibilityQuantity.RE_ZHP_OVER_Q),
])
def test_cross_check_rejects_closed_form_off_by_1e3(monkeypatch, lemma, params,
                                                     quantity):
    from lemnisub.catalog import ADMISSIBILITY_EVALUATORS
    radius = 1.0 - 1e-6
    check = lambda: oracles.derivative_cross_check(lemma, params, quantity, radius)
    assert check() <= oracles.FD_RTOL
    evaluator = ADMISSIBILITY_EVALUATORS[quantity]
    skewed = lambda *args: (1.0 + 1e-3) * evaluator(*args)
    monkeypatch.setitem(ADMISSIBILITY_EVALUATORS, quantity, skewed)
    assert check() > oracles.FD_RTOL


# --- verdicts -------------------------------------------------------------------

def test_verdict_l2_verified():
    rep = check_superordination(LemmaId.L2, LemmaParams(A=1.0, B=0.0, beta=3.0))
    assert rep.verdict is Verdict.VERIFIED
    assert rep.margin.min_margin == pytest.approx(3.0, abs=1e-9)  # beta(beta-2)


def test_verdict_l2_criterion_fails_at_two():
    rep = check_superordination(LemmaId.L2, LemmaParams(A=1.0, B=0.0, beta=2.0))
    assert rep.verdict is Verdict.CRITERION_FAILS
    assert rep.margin.min_margin == pytest.approx(0.0, abs=1e-9)


def test_verdict_l2_hypothesis_fails_at_one():
    rep = check_superordination(LemmaId.L2, LemmaParams(A=1.0, B=0.0, beta=1.0))
    assert rep.verdict is Verdict.HYPOTHESIS_FAILS
    assert not rep.feasible
    assert rep.margin.min_margin == pytest.approx(1.0, abs=1e-9)


def test_verdict_l5_admissibility_only():
    rep = check_superordination(LemmaId.L5, LemmaParams(beta=0.7))
    assert rep.verdict is Verdict.VERIFIED
    assert rep.margin is None
    assert rep.admissibility["ReZQprimeOverQ"] > 0.7


# --- numeric thresholds ----------------------------------------------------------

def test_numeric_threshold_l1_k2():
    b = numeric_threshold(LemmaId.L1, LemmaParams(A=1.0, B=0.0, k=2.0))
    assert b == pytest.approx(2.0 ** 2.5, rel=1e-4)


def test_numeric_threshold_l2_exact_point():
    b = numeric_threshold(LemmaId.L2, LemmaParams(A=1.0, B=0.0))
    assert b == pytest.approx(1.0 + SQRT2, rel=1e-4)


def test_numeric_threshold_l9_degenerate():
    b = numeric_threshold(LemmaId.L9, LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0))
    assert b == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("B,beta_star", [(-1e-13, 4e-13), (-1e-20, 4e-20)])
def test_numeric_threshold_scan_scales_below_its_floor(B, beta_star):
    # beta* = 2^((k+3)/2) (A - B)/(1 - |B|): 10 beta* lies below the scan's
    # usual start 1e-6, so the scan starts at 1e-6 beta* instead
    b = numeric_threshold(LemmaId.L1, LemmaParams(A=0.0, B=B, k=1.0))
    assert b == pytest.approx(beta_star, rel=1e-9, abs=0.0)


# A - B tiny: h - 1 (or its Mobius denominator) is of the size of A - B,
# and the squares of the margin criterion underflowed below about 1e-154
TINY_AB = [
    (LemmaId.L1, dict(k=1.0)),            # exact path, beta* ~ A - B
    (LemmaId.L1, dict(k=0.5)),            # grid path
    (LemmaId.L2, {}),                     # lemniscate premise, beta* ~ 1/(A - B)
    (LemmaId.L8, {}),
    (LemmaId.L9, dict(D=0.5, E=0.2)),     # Mobius premise, beta* ~ 1/(A - B)
    (LemmaId.L11, dict(D=0.5, E=0.2)),
]


@pytest.mark.parametrize("lemma,extra", TINY_AB)
@pytest.mark.parametrize("B", [-4.386647895761767e-236, -1e-200])
def test_numeric_threshold_scales_with_a_tiny_a_minus_b(lemma, extra, B):
    # each rule is homogeneous in (A - B) beta or (A - B)/beta, so
    # beta_numeric/beta_star_closed does not depend on A - B
    def ratio(B):
        params = LemmaParams(A=0.0, B=B, **extra)
        return (numeric_threshold(lemma, params)
                / closed_form_threshold(lemma, params).beta_star)

    assert ratio(B) == pytest.approx(ratio(-1e-100), rel=1e-9, abs=0.0)


def test_numeric_threshold_rejects_infeasible():
    with pytest.raises(InfeasibleParameters):
        numeric_threshold(LemmaId.L10, LemmaParams(A=1.0, B=-1.0, D=1.0, E=-1.0))


@pytest.mark.parametrize("lemma", [LemmaId.L1, LemmaId.L2, LemmaId.L9,
                                   LemmaId.L10, LemmaId.L11])
def test_conservative_sufficiency_sample(lemma):
    # small sample here; the acceptance suite runs the full sweep
    rng = np.random.default_rng(zlib.crc32((lemma.value + "cons").encode()))
    for _ in range(8):
        params = draw_valid_params(lemma, rng)
        thr = closed_form_threshold(lemma, params)
        nt = numeric_threshold(lemma, params, grid_size=512)
        assert nt <= thr.beta_star * (1.0 + 1e-6)


# --- subordination ----------------------------------------------------------------

def test_subordination_schwarz_composition_positive():
    p = (1.0 + 0.5 * PowerSeries.identity(64)).sqrt()
    r = subordination_check(p, SqrtLemniscate())
    assert r.margin > 0.0
    assert r.certified


def test_subordination_outside_negative():
    p = PowerSeries([1.0, 1.0], order=64)
    r = subordination_check(p, SqrtLemniscate())
    assert r.margin < 0.0


def test_subordination_boundary_touching_within_truncation():
    q = (1.0 + PowerSeries.identity(64)).sqrt()
    r = subordination_check(q, SqrtLemniscate())
    assert abs(r.margin) <= 0.1    # ~0 up to the (uncertified) truncation tail
    assert not r.certified


def test_subordination_requires_centred_series():
    with pytest.raises(ConstantTermMismatch):
        subordination_check(PowerSeries([1.5, 0.5], order=8), SqrtLemniscate())


def test_subordination_janowski_exact_margin():
    # p = 1 + c z has margin 1 - |c| r / |A - B(1+cz)| like the map itself
    p = PowerSeries([1.0, 0.4], order=32)
    r = subordination_check(p, Janowski(0.5, 0.0), radii=(0.9,))
    assert r.margin == pytest.approx(1.0 - 0.4 * 0.9 / 0.5, abs=1e-12)


@pytest.mark.parametrize("lemma", list(LemmaId))
def test_subordination_margin_matches_horner_on_premise_solves(lemma):
    rng = np.random.default_rng(zlib.crc32((lemma.value + "horner").encode()))
    t = np.linspace(-math.pi, math.pi, DEFAULTS.subordination_grid, endpoint=False)
    for _ in range(3):
        params = draw_valid_params(lemma, rng)
        thr = closed_form_threshold(lemma, params)
        params = params.with_beta(1.5 * thr.beta_star if thr.beta_star else 1.0)
        p = solve_premise(lemma, params, random_schwarz(rng)).p
        region = conclusion_region(lemma, params)
        horner = min(float(np.min(membership_margins(region, p.eval(r * np.exp(1j * t)))))
                     for r in DEFAULTS.radii)
        assert subordination_check(p, region).margin == pytest.approx(horner, abs=1e-12)


@pytest.mark.parametrize("lemma", list(LemmaId))
def test_subordination_tail_verdict_is_that_of_every_radius(lemma):
    # the tail bound |c_N| r^N/(1-r) grows with r, so the bound at the
    # largest radius decides for the whole schedule
    rng = np.random.default_rng(zlib.crc32((lemma.value + "tail").encode()))
    # the last schedule is uncertified on most rules, its 0.9 certified
    for radii in ((0.5, 0.95, 0.8), (0.999, 0.9), (0.3,), (0.9, 0.99999)):
        params = draw_valid_params(lemma, rng)
        thr = closed_form_threshold(lemma, params)
        params = params.with_beta(1.5 * thr.beta_star if thr.beta_star else 1.0)
        p = solve_premise(lemma, params, random_schwarz(rng)).p
        sub = subordination_check(p, conclusion_region(lemma, params), radii)
        assert sub.certified == all(p.tail_bound(r) < DEFAULTS.tail_tol
                                    for r in radii)
        assert sub.tail_bound == p.tail_bound(max(radii))


# --- implication trials -------------------------------------------------------------

def test_trial_l2_identity_schwarz():
    t = implication_trial(LemmaId.L2, LemmaParams(A=1.0, B=0.0, beta=3.0),
                          monomial(1))
    assert t.premise_residual <= 1e-9
    assert t.conclusion_margin > 0.0


def test_trial_l9_single():
    thr = closed_form_threshold(LemmaId.L9, LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0))
    t = implication_trial(LemmaId.L9,
                          LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0,
                                      beta=thr.beta_star),
                          monomial(1))
    assert t.conclusion_margin >= 0.0


def test_trial_accepts_numpy_scalar_parameters():
    # a numpy scalar times a series must stay a series, not become an ndarray
    assert isinstance(np.float64(2.0) * PowerSeries([1.0, 1.0]), PowerSeries)
    assert isinstance(np.float64(2.0) + PowerSeries([1.0, 1.0]), PowerSeries)
    values = dict(A=1.0, B=0.0, D=1.0, E=0.0, beta=1.5)
    plain = implication_trial(LemmaId.L9, LemmaParams(**values), monomial(1))
    numpy = implication_trial(
        LemmaId.L9, LemmaParams(**{k: np.float64(v) for k, v in values.items()}),
        monomial(1))
    assert numpy.conclusion_margin == plain.conclusion_margin
    assert numpy.premise_residual == plain.premise_residual


def test_trial_l1_k0_squared_schwarz_at_threshold():
    from lemnisub import monomial as mono
    thr = closed_form_threshold(LemmaId.L1, LemmaParams(A=1.0, B=0.0, k=0.0))
    t = implication_trial(
        LemmaId.L1,
        LemmaParams(A=1.0, B=0.0, k=0.0, beta=thr.beta_star), mono(2))
    assert t.premise_residual <= 1e-9
    assert t.conclusion_margin >= -1e-9


def test_trial_requires_feasibility_unless_exploratory():
    params = LemmaParams(A=1.0, B=0.0, beta=1.0)   # below the L2 threshold
    t = implication_trial(LemmaId.L2, params, monomial(1))
    assert not t.feasible
    assert t.premise_residual <= 1e-9
