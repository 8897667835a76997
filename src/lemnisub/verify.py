"""Numerical verification engine.

The superordination step of every margin-style catalog entry is the
uniform boundary criterion

    |inverse(h(e^{it}))| >= 1,   -pi <= t <= pi,

where ``inverse`` is the premise region's global inverse map.  This
module measures that margin on a dense angular grid with golden-section
refinement, measures the Miller-Mocanu admissibility minima from the
closed-form derivative quantities, and semi-decides subordination of
concrete power series by sampling an exhaustion of the disk.

Empirical beta thresholds are solved exactly per angle.  For every
margin rule h - 1 = a(t) + beta*b(t) is affine in beta, so at each angle
the criterion is a polynomial inequality in beta: a quadratic for the
Mobius premises (linear when |Y| = 1) and a quartic for the lemniscate.
The threshold is the largest crossing over all angles inside the
bracket that a coarse beta scan of the refined minimum margin confirms,
sharpened over the angle by golden-section refinement.

A verified verdict rests on three measured facts: the closed-form
hypothesis holds, the boundary margin stays >= 1, and the dominant
derivative piece Q is starlike (so h is univalent and the boundary
criterion implies containment).  When the inverse map's denominator
vanishes inside the disk the verification report records it as a
diagnostic: the containment argument through univalence is unaffected,
but the naive reformulation z < inverse(h(z)) would break there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .catalog import (
    ADMISSIBILITY_EVALUATORS,
    CATALOG,
    AdmissibilityQuantity,
    LemmaId,
    LemmaParams,
    ThresholdStatus,
    closed_form_threshold,
    conclusion_region,
    dominant_Q_on_circle,
    feasibility_check,
    h_minus_one_at,
    h_minus_one_on_circle,
    margin_on_circle,
    premise_region,
    singular_angles,
    singular_points,
    validate,
    zhprime_over_q_circle,
)
from .config import DEFAULTS
from .errors import (
    ConstantTermMismatch,
    InfeasibleParameters,
    LemnisubError,
    NoThresholdInBracket,
    NonMonotoneMargin,
)
from .generate import SchwarzFunction, solve_premise
from .regions import Janowski, TargetRegion, membership_margins
from .series import PowerSeries

_TWO_PI = 2.0 * math.pi
_INSET_RADIUS = 1.0 - 1e-6      # winding diagnostic circle
_REFINE_SEEDS = 8               # brackets refined around the smallest samples
_ROOT_RTOL = 1e-14              # Newton steps stop below this relative size
_NEWTON_STEPS = 100             # cap; a bisection fallback halves the bracket
_FD_STEP = 1e-6                 # largest step of the derivative cross-check
_FD_RTOL = 1e-5                 # its relative tolerance
_WINDING_SAMPLES = 1024         # samples of the winding diagnostic circle


# --- small numerics ---------------------------------------------------------

def winding_number(values: np.ndarray) -> int:
    """Winding of a closed sampled curve around the origin."""
    ph = np.angle(np.asarray(values))
    d = np.diff(np.concatenate([ph, ph[:1]]))
    d = (d + np.pi) % _TWO_PI - np.pi
    return int(round(float(d.sum()) / _TWO_PI))


def _golden_refine_vec(f, lo: np.ndarray, hi: np.ndarray, xtol: float):
    """Vectorised golden-section minimisation over a batch of brackets."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = 1.0 - invphi
    a = lo.astype(float).copy()
    b = hi.astype(float).copy()
    h = b - a
    x1 = a + invphi2 * h
    x2 = a + invphi * h
    f1 = f(x1)
    f2 = f(x2)
    while np.max(b - a) > xtol:
        left = f1 < f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        h = b - a
        cand1 = a + invphi2 * h
        cand2 = a + invphi * h
        probe = np.where(left, cand1, cand2)
        fp = f(probe)
        x1, f1, x2, f2 = (np.where(left, cand1, x2),
                          np.where(left, fp, f2),
                          np.where(left, x1, cand2),
                          np.where(left, f1, fp))
    take1 = f1 < f2
    return np.where(take1, x1, x2), np.where(take1, f1, f2)


def _punctured_grid(grid_size: int, sing: tuple) -> np.ndarray:
    t = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    if not sing:
        return t
    keep = np.ones(t.shape, dtype=bool)
    for s in sing:
        for image in (s - _TWO_PI, s, s + _TWO_PI):
            keep &= np.abs(t - image) > DEFAULTS.puncture_radius
    return t[keep]


def _clamp_brackets(lo: np.ndarray, hi: np.ndarray, sing: tuple,
                    *aligned: np.ndarray):
    """Push refinement brackets out of the punctured neighbourhoods.

    Brackets left empty are dropped, together with the matching entries
    of each array in ``aligned``.
    """
    puncture = DEFAULTS.puncture_radius
    for s in sing:
        for image in (s - _TWO_PI, s, s + _TWO_PI):
            lo = np.where((lo > image - puncture) & (lo < image + puncture),
                          image + puncture, lo)
            hi = np.where((hi > image - puncture) & (hi < image + puncture),
                          image - puncture, hi)
    good = lo < hi
    return (lo[good], hi[good]) + tuple(a[good] for a in aligned)


def _refine_minima(f, seeds: np.ndarray, grid_size: int, sing: tuple,
                   *aligned: np.ndarray) -> tuple:
    """Golden-section minima of f(x, *aligned) within a grid step of each seed.

    Each seed is bracketed by one step of the ``grid_size`` grid and the
    brackets are pushed out of the punctures; empty brackets are dropped
    together with their entries of ``aligned``.  Returns the minimising
    angles, the minima and the surviving ``aligned`` arrays.
    """
    step = _TWO_PI / grid_size
    lo, hi, *aligned = _clamp_brackets(seeds - step, seeds + step, sing, *aligned)
    if not lo.size:
        return (lo, lo.copy(), *aligned)
    xb, fb = _golden_refine_vec(lambda x: f(x, *aligned), lo, hi,
                                DEFAULTS.angle_xtol)
    return (xb, fb, *aligned)


# --- margin profiles ---------------------------------------------------------

@dataclass(frozen=True)
class MarginProfile:
    """Sampled boundary values of |inverse(h(e^{it}))|.

    The samples include the golden-section refinement points, so
    ``min_margin == min(margins)`` and ``argmin_t`` names one of the
    stored angles (ties broken toward the smallest |t|; constant
    profiles report 0).
    """

    t_samples: np.ndarray
    margins: np.ndarray
    min_margin: float
    argmin_t: float
    refined: bool
    punctures: tuple

    def is_constant(self) -> bool:
        """All samples agree to 1e-12 relative to the largest finite one."""
        finite = self.margins[np.isfinite(self.margins)]
        scale = float(np.max(finite, initial=1.0))
        return float(np.max(self.margins) - np.min(self.margins)) <= 1e-12 * scale


def _select_argmin(ts: np.ndarray, ms: np.ndarray) -> tuple:
    """Minimum with ties broken toward the smallest |t| (then t >= 0)."""
    mmin = float(np.min(ms))
    scale = max(1.0, abs(mmin))
    near = np.abs(ms - mmin) <= 1e-12 * scale
    cand = ts[near]
    order = np.lexsort((cand < 0, np.abs(cand)))
    return mmin, float(cand[order[0]])


def boundary_margin_profile(lemma: LemmaId, params: LemmaParams,
                            grid_size: int = DEFAULTS.margin_grid) -> MarginProfile:
    """Boundary margin of the superordination criterion on a uniform grid.

    Singular angles of h are excluded with a puncture of radius 1e-6 and
    the smallest samples are sharpened by golden-section refinement to
    angular resolution 1e-8.
    """
    validate(lemma, params)
    if not CATALOG[lemma].margin_criterion:
        raise ValueError(f"{lemma.value} concludes through admissibility only; "
                         "it has no boundary margin criterion")
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")

    sing = singular_angles(lemma, params)
    t = _punctured_grid(grid_size, sing)
    margins = margin_on_circle(lemma, params, t)

    finite = np.isfinite(margins)
    seeds = t[finite][np.argsort(margins[finite])[:_REFINE_SEEDS]]
    xb, fb = _refine_minima(lambda x: margin_on_circle(lemma, params, x),
                            seeds, grid_size, sing)
    xb = (xb + math.pi) % _TWO_PI - math.pi   # report angles in [-pi, pi)
    cand_t = np.concatenate([t, xb])
    cand_m = np.concatenate([margins, fb])

    order = np.argsort(cand_t)
    cand_t, cand_m = cand_t[order], cand_m[order]
    min_margin, argmin_t = _select_argmin(cand_t, cand_m)
    profile = MarginProfile(cand_t, cand_m, min_margin, argmin_t,
                            bool(xb.size), tuple(sing))
    if profile.is_constant():
        profile = replace(profile, argmin_t=0.0)   # degenerate constant profile
    return profile


# --- admissibility -----------------------------------------------------------

def admissibility_min(lemma: LemmaId, params: LemmaParams,
                      quantity: AdmissibilityQuantity,
                      radius: float = 1.0,
                      grid_size: int = DEFAULTS.admissibility_grid) -> float:
    """Minimum of the requested real part over a punctured angular grid.

    The quantities come from closed-form derivatives of the catalog's Q
    and h; a central finite difference along the circle cross-checks the
    derivative quantities at a subsample (relative tolerance 1e-5, step
    at most 1e-6, see ``_derivative_cross_check``).  The smallest
    samples are sharpened by golden-section refinement.
    """
    validate(lemma, params)
    if not (0.0 < radius <= 1.0):
        raise ValueError("radius must lie in (0, 1]")
    evaluator = ADMISSIBILITY_EVALUATORS[quantity]
    sing = singular_angles(lemma, params) if radius == 1.0 else ()
    t = _punctured_grid(grid_size, sing)
    vals = evaluator(lemma, params, t, radius).real

    if quantity is not AdmissibilityQuantity.RE_PHI_OF_Q:
        _derivative_cross_check(lemma, params, quantity, radius, t)

    seeds = t[np.argsort(vals)[:_REFINE_SEEDS]]
    _, fb = _refine_minima(lambda x: evaluator(lemma, params, x, radius).real,
                           seeds, grid_size, sing)
    best = float(np.min(vals))
    return min(best, float(np.min(fb))) if fb.size else best


def _derivative_cross_check(lemma: LemmaId, params: LemmaParams,
                            quantity: AdmissibilityQuantity, radius: float,
                            t: np.ndarray) -> None:
    """Verify z f'(z)/Q(z) against a central difference along the circle.

    The step shrinks to 1e-3 of each sample's distance to the nearest
    pole or branch point of h and Q, which keeps the truncation error of
    the difference near 1e-6 relative however close a pole sits to the
    circle; deviations are measured relative to max(1, |closed form|).
    """
    sub = t[:: max(1, t.size // 64)]
    # keep clear of punctures where derivatives blow up; singular angles
    # are 0 or pi, so |t| measures the distance to them
    for s in singular_angles(lemma, params):
        sub = sub[np.abs(np.abs(sub) - s) > 1e-2]
    if sub.size == 0:
        return
    z = radius * np.exp(1j * sub)
    dist = np.full(sub.shape, np.inf)
    for s in singular_points(lemma, params):
        dist = np.minimum(dist, np.abs(z - s))
    h = np.minimum(_FD_STEP, 1e-3 * dist)
    Q = dominant_Q_on_circle(lemma, params, sub, radius)
    if quantity is AdmissibilityQuantity.RE_ZQP_OVER_Q:
        fplus = dominant_Q_on_circle(lemma, params, sub + h, radius)
        fminus = dominant_Q_on_circle(lemma, params, sub - h, radius)
        closed = ADMISSIBILITY_EVALUATORS[quantity](lemma, params, sub, radius)
    else:
        fplus = 1.0 + h_minus_one_at(lemma, params, radius * np.exp(1j * (sub + h)))
        fminus = 1.0 + h_minus_one_at(lemma, params, radius * np.exp(1j * (sub - h)))
        closed = zhprime_over_q_circle(lemma, params, sub, radius)
    # d/dt f(r e^{it}) = i z f'(z), so z f'/Q = -i (df/dt)/Q
    fd = -1j * (fplus - fminus) / (2.0 * h) / Q
    dev = float(np.max(np.abs(fd.real - closed.real)
                       / np.maximum(1.0, np.abs(closed))))
    if dev > _FD_RTOL:
        raise LemnisubError(
            f"{lemma.value}/{quantity.value}: derivative cross-check deviates "
            f"by {dev:.3e} relative (tolerance {_FD_RTOL})")


# --- verdicts ----------------------------------------------------------------

class Verdict(Enum):
    VERIFIED = "Verified"
    HYPOTHESIS_FAILS = "HypothesisFails"
    CRITERION_FAILS = "CriterionFails"


@dataclass(frozen=True)
class VerificationReport:
    lemma: LemmaId
    params: LemmaParams
    feasible: bool
    margin: Optional[MarginProfile]
    admissibility: dict
    verdict: Verdict
    notes: tuple = field(default_factory=tuple)
    # winding of the Mobius inverse map's denominator on |z| = _INSET_RADIUS;
    # None for lemniscate premises and rules without a margin criterion
    den_winding: Optional[int] = None

    @property
    def pole_inside(self) -> bool:
        """The inverse map's denominator vanishes inside the disk."""
        return bool(self.den_winding)


def _denominator_winding(lemma: LemmaId, params: LemmaParams) -> int:
    region = premise_region(lemma, params)
    X, Y = region.A, region.B
    t = np.linspace(-math.pi, math.pi, _WINDING_SAMPLES, endpoint=False)
    z = _INSET_RADIUS * np.exp(1j * t)
    den = (X - Y) - Y * h_minus_one_at(lemma, params, z)
    return winding_number(den)


def check_superordination(lemma: LemmaId, params: LemmaParams,
                          grid_size: int = DEFAULTS.margin_grid,
                          margin_tol: float = DEFAULTS.margin_tol) -> VerificationReport:
    """Combine feasibility, boundary margin and admissibility into a verdict.

    Entries without a margin criterion (L5-L7) are decided by the
    admissibility route alone.  Admissibility minima are measured just
    inside the boundary so that entries whose starlikeness degenerates
    exactly on the circle (L1 at k = 3, Mobius targets with |B| = 1)
    still register as strictly positive inside the disk.  For Mobius
    premises the winding of the inverse map's denominator on an inset
    circle is recorded; a nonzero winding is a note, not a failure.
    """
    validate(lemma, params)
    row = CATALOG[lemma]
    feasible = feasibility_check(lemma, params)

    admissibility = {}
    for qty in row.verdict_quantities:
        admissibility[qty.value] = admissibility_min(
            lemma, params, qty, radius=DEFAULTS.verdict_radius,
            grid_size=DEFAULTS.admissibility_grid // 4)

    notes = []
    profile = den_winding = None
    criterion_ok = all(v > 0.0 for v in admissibility.values())
    if not criterion_ok:
        worst = min(admissibility, key=admissibility.get)
        notes.append(f"admissibility minimum {worst} = {admissibility[worst]:.3e} <= 0")
    if row.margin_criterion:
        profile = boundary_margin_profile(lemma, params, grid_size)
        if row.premise_kind != "sqrt":
            den_winding = _denominator_winding(lemma, params)
        if den_winding:
            notes.append(
                "inverse-map denominator winds around 0 inside the disk "
                f"(winding {den_winding}); containment rests on the "
                "univalence of h")
        if profile.min_margin < 1.0 - margin_tol:
            criterion_ok = False
            notes.append(f"min boundary margin {profile.min_margin:.9g} < 1")

    if feasible and criterion_ok:
        verdict = Verdict.VERIFIED
    elif not criterion_ok:
        verdict = Verdict.CRITERION_FAILS
    else:
        verdict = Verdict.HYPOTHESIS_FAILS
    if not feasible:
        notes.append("closed-form hypothesis fails at this beta")

    return VerificationReport(lemma, params, feasible, profile,
                              admissibility, verdict, tuple(notes), den_winding)


# --- numeric thresholds ------------------------------------------------------

def _analyze_scan(margins: np.ndarray) -> int:
    """Index of the single upcrossing of 1; raises otherwise."""
    reached = np.asarray(margins) >= 1.0
    if not reached.any():
        raise NoThresholdInBracket("margin never reaches 1 on the scan bracket")
    down = np.nonzero(reached[:-1] & ~reached[1:])[0]
    if down.size:
        raise NonMonotoneMargin(
            f"margin drops back below 1 after beta index {int(down[0])}; "
            "no threshold claimed")
    if reached[0]:
        return -1   # already above 1 at the bracket start
    return int(np.nonzero(~reached[:-1] & reached[1:])[0][0])


def _abs2_coeffs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Coefficients of |p + beta*q|^2 in ascending powers of beta."""
    return np.array([p.real * p.real + p.imag * p.imag,
                     2.0 * (p.real * q.real + p.imag * q.imag),
                     q.real * q.real + q.imag * q.imag])


def _margin_polynomials(lemma: LemmaId, params: LemmaParams):
    """Per-angle polynomials in beta whose ratio is the squared margin.

    Returns a function of the angles t giving coefficient arrays
    ``(num, den)``, each of shape (deg+1, t.size) in ascending powers of
    beta, with margin^2 = num(beta) / den(beta) at every angle.  For
    every margin rule h - 1 = a + beta*b is affine in beta, so with
    w = h - 1 the Mobius inverse gives num = |w|^2 and
    den = |(X-Y) - Y w|^2 (quadratics; den is linear when |Y| = 1), and
    the lemniscate inverse num = |w|^2 |2 + w|^2 (a quartic) over den = 1.
    """
    at0, at1 = params.with_beta(0.0), params.with_beta(1.0)
    region = premise_region(lemma, params)

    def coefficients(t: np.ndarray) -> tuple:
        a = h_minus_one_on_circle(lemma, at0, t)
        b = h_minus_one_on_circle(lemma, at1, t) - a
        w2 = _abs2_coeffs(a, b)
        if isinstance(region, Janowski):
            X, Y = region.A, region.B
            return w2, _abs2_coeffs((X - Y) - Y * a, -Y * b)
        num = np.zeros((5, t.size))
        for i, factor in enumerate(_abs2_coeffs(2.0 + a, b)):
            num[i:i + 3] += factor * w2
        return num, np.ones((1, t.size))

    return coefficients


def _crossing_coeffs(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Coefficients of F = num - den, which is >= 0 exactly where margin >= 1."""
    c = num.copy()
    c[:den.shape[0]] -= den
    return c


def _poly_value(c: np.ndarray, x):
    """Value and derivative of sum_k c[k] x^k by Horner's rule."""
    f, d = c[-1], 0.0
    for ck in c[-2::-1]:
        d = d * x + f
        f = f * x + ck
    return f, d


def _newton_in_bracket(c: np.ndarray, left, right,
                       x: np.ndarray) -> np.ndarray:
    """Crossing of F = 0 inside each column's [left, right].

    Newton steps from x; a step that leaves the shrinking bracket is
    replaced by its midpoint, so each column converges.  Columns where
    F < 0 holds at both ends or at neither come back NaN.
    """
    neg_left = _poly_value(c, left)[0] < 0.0
    dead = neg_left == (_poly_value(c, right)[0] < 0.0)
    for _ in range(_NEWTON_STEPS):
        f, d = _poly_value(c, x)
        same = (f < 0.0) == neg_left
        left = np.where(same, x, left)
        right = np.where(same, right, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - f / d
        nxt = np.where((nxt >= left) & (nxt <= right), nxt, 0.5 * (left + right))
        settled = np.abs(nxt - x) <= _ROOT_RTOL * np.abs(nxt)
        x = nxt
        if (settled | dead).all():
            break
    return np.where(dead, np.nan, x)


def _crossings(c: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Betas in [lo, hi] where each column's F changes between < 0 and >= 0.

    Returns shape (deg, n), ascending per column and NaN-padded.  The
    crossings of F' cut [lo, hi] into pieces on which F is monotone, so
    a piece whose ends differ in sign holds exactly one crossing.
    """
    deg, n = c.shape[0] - 1, c.shape[1]
    if deg == 0:
        return np.empty((0, n))
    crit = _crossings(c[1:] * np.arange(1.0, deg + 1.0)[:, None], lo, hi)
    cuts = np.concatenate([np.full((1, n), lo),
                           np.where(np.isnan(crit), hi, crit),
                           np.full((1, n), hi)])
    left, right = cuts[:-1], cuts[1:]
    return np.sort(_newton_in_bracket(c, left, right, 0.5 * (left + right)),
                   axis=0)


def _scan_minima(polynomial, coeffs: tuple, t: np.ndarray, sing: tuple,
                 betas: np.ndarray, grid_size: int) -> tuple:
    """Minimum squared margin over the circle at each scan beta.

    As in ``boundary_margin_profile``, the minimum over the grid is
    sharpened by golden-section refinement around the smallest samples,
    so a dip between grid points counts.  Refinement can only lower a
    minimum, so it runs only at the betas whose grid minimum reaches 1,
    all of them in one batch.  Returns the minima, the refined angles
    and the index of the scan beta each angle belongs to.
    """
    num, den = coeffs
    minima = np.empty(betas.size)
    seeds, owner = [], []
    with np.errstate(divide="ignore"):
        for j, beta in enumerate(betas):
            m2 = _poly_value(num, beta)[0] / _poly_value(den, beta)[0]
            minima[j] = m2.min()
            if minima[j] >= 1.0:
                seeds.append(t[np.argpartition(m2, _REFINE_SEEDS)[:_REFINE_SEEDS]])
                owner.append(np.full(_REFINE_SEEDS, j))
    if not seeds:
        return minima, np.empty(0), np.empty(0, dtype=int)

    def margin2(x, owner):
        n, d = polynomial(x)
        with np.errstate(divide="ignore"):
            return (_poly_value(n, betas[owner])[0]
                    / _poly_value(d, betas[owner])[0])

    xb, fb, owner = _refine_minima(margin2, np.concatenate(seeds), grid_size,
                                   sing, np.concatenate(owner))
    np.minimum.at(minima, owner, fb)
    return minima, xb, owner


def numeric_threshold(lemma: LemmaId, params: LemmaParams,
                      grid_size: int = 2048) -> float:
    """Smallest beta above which the boundary margin stays >= 1.

    At each angle t of the punctured grid the squared margin is a ratio
    of polynomials in beta, see ``_margin_polynomials``, and margin >= 1
    is F_t(beta) >= 0 for a polynomial F_t of degree 2 (Mobius premise)
    or 4 (lemniscate premise).  The minimum margin over the circle,
    refined between grid points as in ``boundary_margin_profile``, at
    ``DEFAULTS.scan_points`` betas in [1e-6, 10 beta*] brackets the last
    upcrossing of the level and confirms it is not lost again; the
    threshold is then the largest crossing of any F_t inside that
    bracket, found exactly per angle and sharpened over t by
    golden-section refinement around the best grid angles.  Crossings
    at isolated smaller beta, where the margin touches 1 from below
    between scan points, do not register on the scan, so the reported
    threshold is the stable one.
    """
    row = CATALOG[lemma]
    if not row.margin_criterion:
        raise ValueError(f"{lemma.value} has no margin criterion")
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    base = closed_form_threshold(lemma, params)
    if base.status is ThresholdStatus.INFEASIBLE:
        raise InfeasibleParameters(
            f"{lemma.value}: {base.binding_constraint}")
    sing = singular_angles(lemma, params)
    t = _punctured_grid(grid_size, sing)
    polynomial = _margin_polynomials(lemma, params)
    num, den = polynomial(t)

    betas = np.linspace(1e-6, 10.0 * base.beta_star, DEFAULTS.scan_points)
    minima, probes, owner = _scan_minima(polynomial, (num, den), t, sing,
                                         betas, grid_size)
    i0 = _analyze_scan(minima)
    if i0 < 0:
        lo, hi = 1e-12, float(betas[0])
    else:
        lo, hi = float(betas[i0]), float(betas[i0 + 1])
    # candidate angles: the grid, and the scan's refined angles at the
    # bracket's lower end, where a dip between grid points may bind
    probes = probes[owner == i0]
    t = np.concatenate([t, probes])
    coeffs = np.concatenate([_crossing_coeffs(num, den),
                             _crossing_coeffs(*polynomial(probes))], axis=1)
    last = np.fmax.reduce(_crossings(coeffs, lo, hi), axis=0, initial=-np.inf)
    best = max(lo, float(np.max(last)))

    # sharpen over t around the best candidate angles; each probe follows
    # its seed's crossing by Newton steps from the seed's value
    order = np.argsort(-last)[:_REFINE_SEEDS]
    order = order[np.isfinite(last[order])]

    def negated_crossing(x, guess):
        root = _newton_in_bracket(_crossing_coeffs(*polynomial(x)), lo, hi, guess)
        return np.where(np.isnan(root), np.inf, -root)

    _, fb, _ = _refine_minima(negated_crossing, t[order], grid_size, sing,
                              last[order])
    if fb.size:
        best = max(best, float(-np.min(fb)))
    return best


# --- subordination of concrete series ---------------------------------------

@dataclass(frozen=True)
class SubordinationResult:
    """Sampled-exhaustion containment certificate (a semi-decision)."""

    margin: float
    worst_radius: float
    worst_angle: float
    radii: tuple
    tail_bounds: dict
    certified: bool


def subordination_check(p: PowerSeries, region: TargetRegion,
                        radii: tuple = DEFAULTS.radii) -> SubordinationResult:
    """Minimum of ``membership_margins`` on p(r e^{it}) over the radius schedule.

    A positive result certifies containment at the sampled exhaustion
    only.  Each radius carries the geometric tail certificate
    |c_N| r^N/(1-r); radii whose certificate reaches ``DEFAULTS.tail_tol``
    are still evaluated but flag the result uncertified.
    """
    if abs(complex(p.coeffs[0]) - 1.0) > 1e-9:
        raise ConstantTermMismatch(
            f"p(0) = {p.coeffs[0]!r}, expected 1 to match the target centre")
    grid_size = DEFAULTS.subordination_grid
    t = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    best = math.inf
    worst_r = worst_t = 0.0
    tail_bounds = {}
    for r in radii:
        tail_bounds[r] = p.tail_bound(r)
        vals = p.eval_on_circle(r, grid_size)
        margins = membership_margins(region, vals)
        i = int(np.argmin(margins))
        if margins[i] < best:
            best = float(margins[i])
            worst_r, worst_t = float(r), float(t[i])
    certified = all(v < DEFAULTS.tail_tol for v in tail_bounds.values())
    return SubordinationResult(best, worst_r, worst_t, tuple(radii),
                               tail_bounds, certified)


# --- premise-exact implication trials ----------------------------------------

@dataclass(frozen=True)
class TrialReport:
    lemma: LemmaId
    params: LemmaParams
    schwarz: str
    order: int
    premise_residual: float
    conclusion_margin: float
    tail_certified: bool
    feasible: bool


def implication_trial(lemma: LemmaId, params: LemmaParams, w: SchwarzFunction,
                      order: int | None = None,
                      radii: tuple = DEFAULTS.radii) -> TrialReport:
    """Build the premise-exact p for a Schwarz draw and test the conclusion.

    With a feasible beta the conclusion margin is expected non-negative.
    Below threshold the trial still runs and reports ``feasible=False``;
    a negative margin there is evidence (never proof) of sharpness.
    """
    validate(lemma, params)
    feasible = feasibility_check(lemma, params)
    sol = solve_premise(lemma, params, w, order)
    sub = subordination_check(sol.p, conclusion_region(lemma, params), radii)
    return TrialReport(lemma, params, w.kind, sol.order, sol.residual,
                       sub.margin, sub.certified, feasible)
