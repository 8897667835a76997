"""Numerical verification engine.

The superordination step of every margin-style catalog entry is the
uniform boundary criterion

    |inverse(h(e^{it}))| >= 1,   -pi <= t <= pi,

where ``inverse`` is the premise region's global inverse map.  This
module measures that margin on a dense angular grid and semi-decides
subordination of concrete power series by sampling an exhaustion of the
disk.

The margin profile takes one path for every rule: the grid's smallest
local minima are refined by safeguarded parabolic steps
(``_parabolic_refine``), and those at a V-shaped zero of the margin are
polished from the smooth squared margin (``_polish_zeros``).  A call
refines at most ``_REFINE_SEEDS`` columns, most often one, so both work
out each column's step on Python floats and batch only the evaluations
of the margin: on arrays of a few elements numpy's per-call overhead
outweighed the arithmetic.  Each angular grid and its points e^{it}
depend only on the grid size and the punctures, so they are built once
per process, on first use, and shared read-only (``_punctured_grid``,
``_grid_points``) by the profile, the threshold solve, the winding
diagnostic and the subordination check; every value is bit for bit what
rebuilding them gives.

The Miller-Mocanu admissibility minima need no grid.  On |z| = r each
quantity's real part is, in x = cos t, a constant plus terms
w R(c r, x) with R(s, x) = Re(s z/(1 + s z)) (and at most a term linear
in x), or monotone in x; its minimum therefore sits at t = 0, at t = pi
or at the one stationary angle solved in closed form, and the
closed-form quantity is evaluated at those angles only.

Empirical beta thresholds take one route for every margin rule.
h - 1 = a(t) + beta*b(t) is affine in beta, so at each angle the
criterion is a polynomial inequality in s = beta|b|, and each angle's
threshold is its largest root over |b|, beta_t = top / g(t); the
threshold is top over the least g on the refined grid
(``_radial_threshold``).  The affine rules (L1-L4, L9-L11) have a = 0:
a Mobius premise's criterion has one positive root in closed form, the
lemniscate premise's quartic its largest root from a table
(``_lemniscate_root``; Ma & Minda's regions starlike about 1).  The
convective L8 has a != 0, and a Cassini quartic about two foci on the
line through 1 + a (``_cassini_sizes``).  On the lemniscate premise the
margin can hold on a window below that root too, so a coarse beta scan
is walked as well (``_scan_reached``, ``_scan``).

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
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .catalog import (
    ADMISSIBILITY_EVALUATORS,
    CATALOG,
    AdmissibilityQuantity,
    LemmaId,
    LemmaParams,
    ThresholdStatus,
    admissibility_slope,
    closed_form_threshold,
    conclusion_region,
    feasibility_check,
    h_minus_one_at,
    h_minus_one_on_circle,
    margin_on_circle,
    premise_region,
    singular_angles,
    validate,
)
from .config import DEFAULTS
from .errors import (
    ConstantTermMismatch,
    InfeasibleParameters,
    NoThresholdInBracket,
    NonMonotoneMargin,
)
from .generate import SchwarzFunction, solve_premise
from .regions import Janowski, TargetRegion, membership_margins
from .series import PowerSeries

_TWO_PI = 2.0 * math.pi
_INSET_RADIUS = 1.0 - 1e-6      # winding diagnostic circle
_REFINE_SEEDS = 8               # local minima refined, the smallest first
_REFINE_STEPS = 100             # cap on a refinement's steps
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0   # golden section of a bracket side
_ZERO_CURVATURE = 1e-12         # least relative curvature a polish trusts
_PROBE_RTOL = 4.0 * np.finfo(float).eps   # a probe must read lower by more, relative
_ROOT_RTOL = 1e-14              # Newton steps stop below this relative size
_NEWTON_STEPS = 100             # cap; a bisection fallback halves the bracket
_WINDING_SAMPLES = 1024         # samples of the winding diagnostic circle
# |t| of two refined minima closer than this count as a tie: the mirrored
# pair of one refinement differs by up to about angle_xtol
_TIE_TTOL = 2.0 * DEFAULTS.angle_xtol


# --- small numerics ---------------------------------------------------------

def winding_number(values: np.ndarray) -> int:
    """Winding of a closed sampled curve around the origin."""
    ph = np.angle(np.asarray(values))
    d = np.diff(np.concatenate([ph, ph[:1]]))
    d = (d + np.pi) % _TWO_PI - np.pi
    return int(round(float(d.sum()) / _TWO_PI))


def _parabolic_refine(f, a: np.ndarray, x: np.ndarray, b: np.ndarray,
                      xtol: float) -> tuple:
    """Minima of f inside brackets a < x < b, by safeguarded parabolic steps.

    Brent's scheme (Algorithms for Minimization without Derivatives,
    ch. 5) on a batch of columns: each step goes to the vertex of the
    parabola through the column's three best points, or takes a golden
    section of the larger side when the vertex leaves the bracket or
    does not halve the step before last.  A step below ``xtol`` probes
    x +- xtol instead, and the column stops at x when neither probe reads
    lower by more than rounding; x only ever moves to a lower reading.
    A column whose x ties one end and is below the other starts from the
    midpoint of the tied pair; one whose x is then not below both ends
    returns its better end.
    ``f(points, columns)`` is called once per step, on the unsettled
    columns only: their new points in column order, then the probes
    x - xtol, then x + xtol.
    Returns the minimising points and the minima.

    A call refines a handful of columns (at most ``_REFINE_SEEDS`` from
    the profile and the threshold solve, most often one), so each
    column's step is worked out on Python floats, whose + - * / and
    comparisons round as numpy's float64 do; only the evaluations of f
    are batched.  A quotient is formed only where it is finite, and
    inf - inf or 0 * inf read NaN as in numpy.  The same steps on numpy
    arrays took about 207 us per call over the profiles of 810 ``verify``
    commands, 40 of them in f, against 65 us here; 233 against 116 us
    (84 in f) over 270 ``threshold`` commands (one process, 2-vCPU
    x86-64 host).
    """
    n = x.size
    ends = f(np.concatenate([a, x, b]), np.tile(np.arange(n), 3)).tolist()
    fa, fx, fb = ends[:n], ends[n:2 * n], ends[2 * n:]
    a, x, b = a.tolist(), x.tolist(), b.tolist()
    # x reading the same as one end, as a minimum halfway between two grid
    # points of a curve symmetric about it does: the midpoint of the tied
    # pair, where it reads lower, becomes x and the pair its bracket
    tie_a = [fx[i] == fa[i] and fx[i] < fb[i] for i in range(n)]
    tied = [i for i in range(n) if tie_a[i] or (fx[i] == fb[i] and fx[i] < fa[i])]
    if tied:
        m = [0.5 * (x[i] + (a[i] if tie_a[i] else b[i])) for i in tied]
        readings = f(np.array(m), np.array(tied, dtype=np.intp)).tolist()
        for i, mi, fm in zip(tied, m, readings):
            if fm < fx[i]:
                if tie_a[i]:
                    b[i], fb[i] = x[i], fx[i]
                else:
                    a[i], fa[i] = x[i], fx[i]
                x[i], fx[i] = mi, fm
    x_out, f_out, live = [], [], []
    for i in range(n):
        # w is the better end, v the other
        (w, fw), (v, fv) = (((a[i], fa[i]), (b[i], fb[i])) if fa[i] <= fb[i]
                            else ((b[i], fb[i]), (a[i], fa[i])))
        x_out.append(w)
        f_out.append(fw)
        if fx[i] < fa[i] and fx[i] < fb[i]:
            # i, a, x, b, fx, w, fw, v, fv, the last two steps d and e, and
            # the trial point u and its value fu
            live.append([i, a[i], x[i], b[i], fx[i], w, fw, v, fv, b[i] - a[i],
                         b[i] - a[i], 0.0, 0.0])
    for _ in range(_REFINE_STEPS):
        if not live:
            break
        steps, probes = [], []
        for col in live:
            _, a, x, b, fx, w, fw, v, fv, d, e = col[:11]
            golden = a - x if x >= 0.5 * (a + b) else b - x
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # q > 0 wherever the vertex is taken, so p / q is a finite step
            if abs(p) < abs(0.5 * q * e) and p > q * (a - x) and p < q * (b - x):
                d, e = p / q, d
            else:
                d, e = _GOLDEN_STEP * golden, golden
            col[9:11] = d, e
            if abs(d) < xtol:
                # the two probes stand in u and fu until they are read; max
                # and min keep the bracket end on a tie, as np.maximum and
                # np.minimum with the end second do
                col[11:] = max(a, x - xtol), min(b, x + xtol)
                probes.append(col)
            else:
                col[11] = x + d
                steps.append(col)
        values = f(np.array([col[11] for col in steps + probes]
                            + [col[12] for col in probes]),
                   np.array([col[0] for col in steps + probes + probes],
                            dtype=np.intp)).tolist()
        k, m = len(steps), len(probes)
        for col, fu in zip(steps, values):
            col[12] = fu
        for col, f_lo, f_hi in zip(probes, values[k:k + m], values[k + m:]):
            col[11:] = (col[12], f_hi) if f_hi < f_lo else (col[11], f_lo)
        kept = []
        for col in live:
            i, a, x, b, fx, w, fw, v, fv, d, e, u, fu = col
            if abs(d) < xtol and not fu < fx - _PROBE_RTOL * abs(fx):
                x_out[i], f_out[i] = x, fx
                continue
            # the bracket keeps the best point inside; x, w, v are the three best
            better = fu < fx
            if better != (u < x):
                a = x if better else u
            else:
                b = x if better else u
            if better:
                v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
            elif fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
            kept.append([i, a, x, b, fx, w, fw, v, fv, d, e, u, fu])
        live = kept
    for i, _, x, _, fx, *_ in live:
        x_out[i], f_out[i] = x, fx
    return np.array(x_out, dtype=float), np.array(f_out, dtype=float)


def _outside_punctures(t: np.ndarray, sing: tuple) -> np.ndarray:
    """Where t is farther than the puncture radius from each singular angle."""
    keep = np.ones(t.shape, dtype=bool)
    for s in sing:
        for image in (s - _TWO_PI, s, s + _TWO_PI):
            keep &= np.abs(t - image) > DEFAULTS.puncture_radius
    return keep


# keys (grid size, punctures) kept by each grid table; the grid size may come
# from the command line (--grid), so the tables are bounded
_GRID_TABLES = 32


@lru_cache(maxsize=_GRID_TABLES)
def _punctured_grid(grid_size: int, sing: tuple) -> np.ndarray:
    """The ``grid_size`` uniform angles of [-pi, pi) less the punctures
    around the singular angles ``sing``.

    Built once per (grid size, punctures), on first use, and shared as a
    read-only array, so callers that rebuilt it per call read the same
    values bit for bit.
    """
    t = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    if sing:
        t = t[_outside_punctures(t, sing)]
    t.flags.writeable = False
    return t


@lru_cache(maxsize=_GRID_TABLES)
def _grid_points(grid_size: int, sing: tuple) -> np.ndarray:
    """e^{it} on ``_punctured_grid(grid_size, sing)``, as
    ``catalog.h_minus_one_on_circle`` computes it; read-only."""
    z = np.exp(1j * _punctured_grid(grid_size, sing))
    z.flags.writeable = False
    return z


def _clamp_brackets(lo: np.ndarray, hi: np.ndarray, sing: tuple) -> tuple:
    """Push refinement brackets out of the punctured neighbourhoods; returns
    the ends of those left non-empty and the mask that keeps them."""
    puncture = DEFAULTS.puncture_radius
    for s in sing:
        for image in (s - _TWO_PI, s, s + _TWO_PI):
            lo = np.where((lo > image - puncture) & (lo < image + puncture),
                          image + puncture, lo)
            hi = np.where((hi > image - puncture) & (hi < image + puncture),
                          image - puncture, hi)
    keep = lo < hi
    return lo[keep], hi[keep], keep


def _end_angles(sing: tuple) -> np.ndarray:
    """Angles in [0, pi] nearest t = 0 and t = pi outside the punctures.

    A puncture leaves out |t - s| <= radius, as ``_punctured_grid`` does,
    so a punctured end moves one floating-point step past its edge.
    """
    puncture = DEFAULTS.puncture_radius
    return np.array([np.nextafter(puncture, 1.0) if 0.0 in sing else 0.0,
                     np.nextafter(math.pi - puncture, 0.0) if math.pi in sing
                     else math.pi])


def _local_minima(values: np.ndarray) -> np.ndarray:
    """Indices of the ``_REFINE_SEEDS`` smallest finite samples that are not
    above either neighbour, the samples read round the circle."""
    ring = np.concatenate([values[-1:], values, values[:1]])
    idx = np.flatnonzero(np.isfinite(values) & ~(values > ring[:-2])
                         & ~(values > ring[2:]))
    return idx[np.argsort(values[idx], kind="stable")[:_REFINE_SEEDS]]


def _refine_minima(f, seeds: np.ndarray, grid_size: int, sing: tuple) -> tuple:
    """Minima of f(x) within a grid step of each seed.

    Each seed is bracketed by one step of the ``grid_size`` grid, the
    brackets are pushed out of the punctures and ``_parabolic_refine``
    starts from the seed and the bracket's ends; seeds whose bracket is
    left empty are dropped.  Returns the minimising angles and the minima.
    """
    step = _TWO_PI / grid_size
    lo, hi, keep = _clamp_brackets(seeds - step, seeds + step, sing)
    if not lo.size:
        return lo, lo.copy()
    return _parabolic_refine(lambda x, cols: f(x), lo, seeds[keep], hi,
                             DEFAULTS.angle_xtol)


# --- real roots of columns of polynomials -------------------------------------

def _poly_at(c: np.ndarray, x):
    """Value of sum_k c[k] x^k by Horner's rule: ``_poly_value``'s value by
    the same operations, without forming the derivative."""
    f = c[-1]
    for ck in c[-2::-1]:
        f = f * x + ck
    return f


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
    replaced by its midpoint, so each column converges.  A column settles
    when its step falls below ``_ROOT_RTOL`` relative, or when it steps
    back to where it stood two steps before: in a bracket a few ulps
    wide the step from each end can land exactly on the other end, and
    no later step leaves that pair.  Columns where F < 0 holds at both
    ends or at neither come back NaN.
    """
    neg_left = _poly_at(c, left) < 0.0
    dead = neg_left == (_poly_at(c, right) < 0.0)
    before = np.nan    # x one step back
    for _ in range(_NEWTON_STEPS):
        f, d = _poly_value(c, x)
        same = (f < 0.0) == neg_left
        left = np.where(same, x, left)
        right = np.where(same, right, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nxt = x - f / d    # a step out of the bracket is replaced below
        nxt = np.where((nxt >= left) & (nxt <= right), nxt, 0.5 * (left + right))
        settled = (np.abs(nxt - x) <= _ROOT_RTOL * np.abs(nxt)) | (nxt == before)
        before, x = x, nxt
        if (settled | dead).all():
            break
    return np.where(dead, np.nan, x)


# --- margin profiles ---------------------------------------------------------

@dataclass(frozen=True)
class MarginProfile:
    """Sampled boundary values of |inverse(h(e^{it}))|.

    The samples include the refined minima, so ``min_margin ==
    min(margins)`` and ``argmin_t`` names one of the stored angles (ties
    broken toward the smallest |t|; constant profiles report 0).
    """

    t_samples: np.ndarray
    margins: np.ndarray
    min_margin: float
    argmin_t: float
    refined: bool
    punctures: tuple

    def is_constant(self) -> bool:
        """All samples agree to 1e-12 relative to the largest finite one,
        or to 1e-12 absolute where that is below 1."""
        return _flat(self.margins, 1.0)


def _flat(values: np.ndarray, floor: float) -> bool:
    """All values agree to 1e-12 relative to the largest finite one, or to
    ``floor`` where that is larger."""
    finite = values[np.isfinite(values)]
    scale = float(np.max(finite, initial=floor))
    with np.errstate(invalid="ignore"):      # inf - inf where every value is inf
        return float(np.max(values) - np.min(values)) <= 1e-12 * scale


def _polish_zeros(f, x: np.ndarray, fx: np.ndarray, sing: tuple) -> tuple:
    """Refined minima x of a margin f, lowered at V-shaped zeros.

    Where h passes through 1 (or -1, lemniscate premise) f is |t - t0|
    times a smooth factor and parabolic steps leave f of size xtol.  The
    vertex of the smooth f^2's parabola through x and x +- xtol is taken
    where its relative curvature clears rounding (``_ZERO_CURVATURE``),
    it lies within xtol of x outside the punctures, and f reads lower.
    f is called on x - xtol then x + xtol, and again on the vertices
    taken, never on no points.  Each column's vertex is worked out on
    Python floats, as in ``_parabolic_refine``.
    """
    xtol = DEFAULTS.angle_xtol
    x_out, f_out = x.tolist(), fx.tolist()
    n = len(x_out)
    sides = f(np.array([xi - xtol for xi in x_out] + [xi + xtol for xi in x_out],
                       dtype=float)).tolist() if n else []
    cols, vertex = [], []
    for i, (xi, yl, y, yr) in enumerate(zip(x_out, sides[:n], f_out, sides[n:])):
        # f^2 / scale^2 cannot overflow.  np.fmax skips a NaN reading where
        # max may not, but a NaN reading leaves the curvature NaN whatever
        # the scale; so does a zero scale, as some reading is then +-0
        scale = max(yl, y, yr)
        if scale == 0.0:
            continue
        yl, y, yr = yl / scale, y / scale, yr / scale
        yl, y, yr = yl * yl, y * y, yr * yr
        curvature = yl - 2.0 * y + yr
        if curvature > _ZERO_CURVATURE:
            shift = 0.5 * xtol * (yl - yr) / curvature
            if abs(shift) <= xtol:
                cols.append(i)
                vertex.append(xi + shift)
    keep = _outside_punctures(np.array(vertex, dtype=float), sing).tolist()
    taken = [(i, xv) for i, xv, k in zip(cols, vertex, keep) if k]
    if taken:
        values = f(np.array([xv for _, xv in taken], dtype=float)).tolist()
        for (i, xv), fv in zip(taken, values):
            if fv < f_out[i]:
                x_out[i], f_out[i] = xv, fv
    return np.array(x_out, dtype=float), np.array(f_out, dtype=float)


def _select_argmin(ts: np.ndarray, ms: np.ndarray) -> tuple:
    """Minimum with ties broken toward the smallest |t| (then t >= 0).

    |t| values within ``_TIE_TTOL`` of the smallest count as equal, so
    the sign decides between the two angles of a mirrored pair.
    """
    mmin = float(np.min(ms))
    scale = max(1.0, abs(mmin))
    near = np.abs(ms - mmin) <= 1e-12 * scale
    mag = np.abs(ts[near])
    cand = ts[near][mag <= mag.min() + _TIE_TTOL]
    order = np.lexsort((np.abs(cand), cand < 0))
    return mmin, float(cand[order[0]])


def boundary_margin_profile(lemma: LemmaId, params: LemmaParams,
                            grid_size: int = DEFAULTS.margin_grid) -> MarginProfile:
    """Boundary margin of the superordination criterion on a uniform grid.

    Singular angles of h are excluded with a puncture of radius 1e-6.
    The grid and its points e^{it} are built once per (grid size,
    punctures) and shared (``_punctured_grid``, ``_grid_points``).  The
    smallest local minima of the samples are refined by parabolic steps
    to angular resolution 1e-8, and those at a V-shaped zero are polished
    to rounding (``_polish_zeros``); the margins at the added angles come
    from ``margin_on_circle``, each taken at the angle stored with it (a
    refined angle outside [-pi, pi) is moved by 2 pi first).  The refined
    minima, at most
    ``_REFINE_SEEDS``, are sorted and spliced into the sorted grid, so the
    samples are the grid's and the minima's in ascending order of angle.
    """
    validate(lemma, params)
    if not CATALOG[lemma].margin_criterion:
        raise ValueError(f"{lemma.value} concludes through admissibility only; "
                         "it has no boundary margin criterion")
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")

    sing = singular_angles(lemma, params)
    t = _punctured_grid(grid_size, sing)
    margin = partial(margin_on_circle, lemma, params)
    margins = margin(t, _grid_points(grid_size, sing))
    xb, fb = _refine_minima(margin, t[_local_minima(margins)], grid_size, sing)
    xb, fb = _polish_zeros(margin, xb, fb, sing)
    # report angles in [-pi, pi): a refined angle outside moves by 2 pi,
    # exactly, and its margin is taken again there
    moved = np.flatnonzero((xb < -math.pi) | (xb >= math.pi))
    if moved.size:
        xb[moved] -= np.copysign(_TWO_PI, xb[moved])
        fb[moved] = margin(xb[moved])
    order = np.argsort(xb)
    at = np.searchsorted(t, xb[order])
    cand_t, cand_m = np.insert(t, at, xb[order]), np.insert(margins, at, fb[order])
    min_margin, argmin_t = _select_argmin(cand_t, cand_m)
    profile = MarginProfile(cand_t, cand_m, min_margin, argmin_t,
                            bool(xb.size), tuple(sing))
    if profile.is_constant():
        profile = replace(profile, argmin_t=0.0)   # degenerate constant profile
    return profile


# --- admissibility -----------------------------------------------------------

def _candidate_angles(lemma: LemmaId, params: LemmaParams,
                      quantity: AdmissibilityQuantity, radius: float) -> np.ndarray:
    """Angles in [0, pi] among which the quantity's real part is least.

    The real part is even in t, and in x = cos t its slope has the sign
    of sum k/D(s, x)^2 with D(s, x) = 1 + 2 s x + s^2 and at most two
    terms (``admissibility_slope``).  One term keeps its sign, so the
    minimum sits at t = 0 or pi; two terms of opposite sign cancel only
    where D(s1, x) = rho D(s2, x), rho = sqrt(-k1/k2), which is linear in
    x.  On the unit circle the candidates are clipped into
    ``_end_angles``, out of the punctures around singular angles (which
    are 0 or pi).
    """
    terms = admissibility_slope(lemma, params, quantity, radius)
    if len(terms) > 2:
        raise ValueError(f"{lemma.value}/{quantity.value}: {len(terms)} slope "
                         "terms, no closed-form stationary point")
    t = [0.0, math.pi]
    if len(terms) == 2:
        (k1, s1), (k2, s2) = terms
        if k1 * k2 < 0.0:
            rho = math.sqrt(-k1 / k2)
            den = 2.0 * (s1 - rho * s2)
            x = (rho * (1.0 + s2 * s2) - (1.0 + s1 * s1)) / den if den else math.nan
            if -1.0 < x < 1.0:
                t.append(math.acos(x))
    if radius == 1.0:
        t = np.clip(t, *_end_angles(singular_angles(lemma, params)))
    return np.asarray(t, dtype=float)


def admissibility_min(lemma: LemmaId, params: LemmaParams,
                      quantity: AdmissibilityQuantity,
                      radius: float = 1.0) -> float:
    """Minimum of the requested real part over the circle |z| = radius.

    The quantities come from closed-form derivatives of the catalog's Q
    and h, evaluated at the at most three angles where the minimum can
    sit (``_candidate_angles``); at radius 1 the singular angles are
    punctured with radius 1e-6.  The test suite checks the derivative
    quantities against a central difference along the circle
    (``tests/oracles.derivative_cross_check``).
    """
    validate(lemma, params)
    if not (0.0 < radius <= 1.0):
        raise ValueError("radius must lie in (0, 1]")
    t = _candidate_angles(lemma, params, quantity, radius)
    vals = ADMISSIBILITY_EVALUATORS[quantity](lemma, params, t, radius).real
    return float(np.min(vals))


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
    z = _INSET_RADIUS * _grid_points(_WINDING_SAMPLES, ())
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
            lemma, params, qty, radius=DEFAULTS.verdict_radius)

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

def _scan(reached: np.ndarray, betas: np.ndarray) -> tuple:
    """The scan interval holding the upcrossing of 1.

    ``reached`` holds, for each scan beta in ascending order, whether the
    margin is >= 1 at every angle there.  The first True marks the
    upcrossing, and the first later False raises.  Returns
    [beta_{j-1}, beta_j] and j, with [1e-6 beta_0, beta_0] when the first
    beta reaches 1.
    """
    if not reached.any():
        raise NoThresholdInBracket("margin never reaches 1 on the scan bracket")
    up = int(np.argmax(reached))
    lost = np.flatnonzero(~reached[up:])
    if lost.size:
        raise NonMonotoneMargin(
            f"margin drops back below 1 after beta index {up + int(lost[0]) - 1}; "
            "no threshold claimed")
    lo = float(betas[up - 1]) if up else 1e-6 * float(betas[0])
    return lo, float(betas[up]), up


def numeric_threshold(lemma: LemmaId, params: LemmaParams,
                      grid_size: int = 2048) -> float:
    """Smallest beta above which the boundary margin stays >= 1.

    At each angle t of the punctured grid h - 1 = a(t) + beta b(t) is
    affine in beta.  With s = beta |b| and u = b / |b|, margin >= 1 is a
    polynomial inequality F_t(s) >= 0, whose largest positive root s_t is
    where the angle's margin is >= 1 for good: beta_t = s_t / |b| =
    top / g(t), and the threshold is max_t beta_t = top / min_t g
    (``_radial_threshold``).  For every affine rule (L1-L4, L9-L11) a = 0.

    Mobius premise (L1 for every k, L9-L11): with -1 <= Y < X and
    u = cos arg b, F_t = (1 - Y^2) s^2 + 2 (X - Y) Y u s - (X - Y)^2 has
    exactly one positive root, so top = X - Y,
        g = |b| G(u),   G(u) = Y u + sqrt(Y^2 u^2 + (1 - Y)(1 + Y)),
    and ``NonMonotoneMargin`` cannot occur.

    Lemniscate premise, affine rules (L2-L4): top = 1 and
    g = |b| / rho(u), rho the largest root of
    F_t = P_u(s) = s^4 + 4 u s^3 + 4 s^2 - 1 with u = cos arg b, which
    below u = -5 sqrt(3)/9 has three positive roots r1 < r2 < r3: the
    margin is >= 1 on [r1, r2] and from r3 on (``_lemniscate_root``).

    L8 (lemniscate premise, convective): a != 0, top = 1 and
    g = |b| / s_t, s_t the largest root of the Cassini quartic
    |s - p|^2 |s - r|^2 = 1 about the foci p = -a conj(u) and
    r = -(2 + a) conj(u) (``_cassini_sizes``).

    On the lemniscate premise a margin reached at one beta can be lost at
    a larger one, so the ``DEFAULTS.scan_points`` betas in [1e-6,
    10 beta*] (from 1e-6 beta* when 10 beta* <= 1e-6) are walked upward
    (``_scan_reached``, ``_scan``), and ``NonMonotoneMargin`` is raised at
    the first beta where the margin is lost again.  A window of lost
    margin between two scan betas does not register, and the threshold is
    its upper end, from which the margin stays >= 1.

    ``NoThresholdInBracket`` is raised where the scan never reaches 1, 10
    beta* overflows on a lemniscate premise, or the threshold lies above
    10 beta* or is not finite: min g = 0 (|Y| = 1, or b = 0 at a grid
    angle), or a min g so small that the quotient overflows.
    """
    if not CATALOG[lemma].margin_criterion:
        raise ValueError(f"{lemma.value} has no margin criterion")
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    base = closed_form_threshold(lemma, params)
    if base.status is ThresholdStatus.INFEASIBLE:
        raise InfeasibleParameters(
            f"{lemma.value}: {base.binding_constraint}")
    sing = singular_angles(lemma, params)
    region = premise_region(lemma, params)
    cap = 10.0 * base.beta_star
    if isinstance(region, Janowski):
        return _radial_threshold(lemma, params, region, sing, grid_size, cap)
    if not math.isfinite(cap):
        raise NoThresholdInBracket(f"scan bracket [1e-6, 10 beta* = {cap!r}] "
                                   "is not finite")
    # the scan starts at 1e-6, or at 1e-6 beta* where 10 beta* is not above it
    floor = 1e-6 if cap > 1e-6 else 1e-6 * base.beta_star
    betas = np.linspace(floor, cap, DEFAULTS.scan_points)
    return _radial_threshold(lemma, params, region, sing, grid_size, cap, betas)


# --- the lemniscate premise along a ray from h = 1 -----------------------------
#
# On the ray h - 1 = s e^{i theta}, c = cos theta, the lemniscate premise's
# squared margin is s^2 (s^2 + 4 c s + 4), so margin >= 1 exactly where
# P_c(s) = s^4 + 4 c s^3 + 4 s^2 - 1 >= 0.  P_c(0) = -1.  For c >= c* =
# -5 sqrt(3)/9 P_c has one positive root; below c* it has three,
# r1 < r2 < r3, with P_c >= 0 on [r1, r2] and from r3 on.  They meet at
# r1 = r2 = 1 at c = -1, where P = (s^2 - 2s - 1)(s - 1)^2 and the ray
# passes the lemniscate's node h = 0, and at r2 = r3 = sqrt 3 at c*, where
# P = (s - sqrt 3)^2 (s^2 - (2 sqrt(3)/9) s - 1/3) and the largest root
# jumps down to r1.  A root that meets another goes like the square root
# of the distance to the meeting, so near each meeting it is solved in
# w = (s - s0)/v, v = sqrt(|c - c0|), where it is a simple root.

_C_STAR = -0.9622504486493763     # the least double above c* = -5 sqrt(3)/9
_C_STAR_LOW = -1.8743033744755353e-17   # c* - _C_STAR, to a double
_ROOT_NODES = 4097                # nodes of the table of the one root on [c*, 1]
_SQRT3 = math.sqrt(3.0)
_Q1 = 2.0 * _SQRT3 / 9.0          # P_c* = (s - sqrt 3)^2 (s^2 - _Q1 s - 1/3)


@lru_cache(maxsize=None)
def _root_table() -> np.ndarray:
    """The one positive root of P_c at ``_ROOT_NODES`` uniform nodes of
    [c*, 1], by bracketed Newton steps on [0, 1] (P_c(1) = 4 + 4c > 0).

    Built once per process, on first use; read-only.
    """
    c = np.linspace(_C_STAR, 1.0, _ROOT_NODES)
    table = _newton_in_bracket([-1.0, 0.0, 4.0, 4.0 * c, 1.0], 0.0, 1.0,
                               np.full(_ROOT_NODES, 0.5))
    table.flags.writeable = False
    return table


def _lemniscate_root(c: np.ndarray) -> np.ndarray:
    """rho(c), the largest positive root of P_c, for c in [-1, 1]; NaN
    where c is NaN.

    For c >= c* it is the one root: a linear interpolation between the two
    ``_root_table`` nodes around c, then two Newton steps.  Below c* it is
    r3 = sqrt 3 + v w, v = sqrt(c* - c), where w solves
    w^2 Q(s) = 4 s^3 with Q(s) = s^2 - (2 sqrt(3)/9) s - 1/3 (P_c / v^2);
    that root is simple on all of [-1, c*], w -> sqrt(6 sqrt 3) at c*, and
    two Newton steps from the fitted start
    sqrt(6 sqrt 3) + v (1 + v (3.28 - 4.24 v)) reach it to rounding.
    """
    table, n = _root_table(), _ROOT_NODES
    one = np.maximum(c, _C_STAR)       # every column's one root; below c* replaced
    pos = (one - _C_STAR) * ((n - 1) / (1.0 - _C_STAR))
    i = np.fmin(np.floor(pos), n - 2).astype(np.intp)    # NaN reads the last node
    left = table[i]
    s = left + (pos - i) * (table[i + 1] - left)
    c4, c12 = 4.0 * one, 12.0 * one
    for _ in range(2):
        s = s - (((s + c4) * s + 4.0) * s * s - 1.0) / (((4.0 * s + c12) * s + 8.0) * s)
    upper = np.flatnonzero(c < _C_STAR)
    if upper.size:
        v = np.sqrt((_C_STAR - c[upper]) + _C_STAR_LOW)
        w = math.sqrt(6.0 * _SQRT3) + v * (1.0 + v * (3.28 - 4.24 * v))
        for _ in range(2):
            r = _SQRT3 + v * w
            q = r * (r - _Q1) - 1.0 / 3.0
            w = w - (w * w * q - 4.0 * r * r * r) / (
                2.0 * w * q + v * (w * w * (2.0 * r - _Q1) - 12.0 * r * r))
        s[upper] = _SQRT3 + v * w
    return s


def _radial_curve(lemma: LemmaId, params: LemmaParams):
    """b = h - 1 at beta = 1 as a function of the angles t (and optionally
    their points z = e^{it}, as for ``h_minus_one_on_circle``): an affine
    rule's h - 1 = beta b, evaluated once."""
    return partial(h_minus_one_on_circle, lemma, params.with_beta(1.0))


def _convective_curve(lemma: LemmaId, params: LemmaParams):
    """(a, b) with h - 1 = a + beta b as a function of t (and optionally z,
    as for ``_radial_curve``): a at beta = 0, b at beta = 1 less a."""
    at0, at1 = params.with_beta(0.0), params.with_beta(1.0)

    def curve(t: np.ndarray, z: Optional[np.ndarray] = None) -> tuple:
        a = h_minus_one_on_circle(lemma, at0, t, z)
        return a, h_minus_one_on_circle(lemma, at1, t, z) - a

    return curve


def _radial_size(region):
    """g as a function of b: |b| G(u) on a Mobius premise, |b| / rho(u)
    on the lemniscate premise (``_lemniscate_root``), u = cos arg b.

    g never forms |b|^2, and where Y u < 0 the Mobius G is taken as
    (1 - Y)(1 + Y) / (sqrt(Y^2 u^2 + (1 - Y)(1 + Y)) - Y u), which does not
    cancel; so A - B or X - Y near the underflow needs no rescaling.
    """
    if not isinstance(region, Janowski):
        def lemniscate(b: np.ndarray) -> np.ndarray:
            size = np.abs(b)
            with np.errstate(divide="ignore", invalid="ignore"):
                return size / _lemniscate_root(b.real / size)

        return lemniscate
    Y = region.B
    spread = (1.0 - Y) * (1.0 + Y)

    def mobius(b: np.ndarray) -> np.ndarray:
        size = np.abs(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            yu = Y * (b.real / size)
            root = np.sqrt(yu * yu + spread)
            return size * np.where(yu < 0.0, spread / (root - yu), yu + root)

    return mobius


# --- the lemniscate premise along a line: L8's Cassini quartic -----------------
#
# On L8 h - 1 = w = a + beta b, a != 0.  With u = b/|b| and s = beta |b|,
# |w| = |s - p| and |2 + w| = |s - r| for the foci p = -a conj(u) and
# r = -(2 + a) conj(u): the margin is >= 1 exactly where
# Q(s) = |s - p|^2 |s - r|^2 >= 1, the lemniscate |h - 1| |h + 1| = 1 being
# a Cassini oval.  Right of xm = max(Re p, Re r, 0) both factors of Q are
# positive, increasing and convex, so Q is too: where Q(xm) < 1 its largest
# root s_t lies right of xm, and Newton steps from a point where Q >= 1
# fall monotonically onto it.  At xm + 1 each factor is >= 1; at
# mid + sqrt(half^2 + 1) (mid and half the centre and half-width of Re p
# and Re r) the product of the real distances is 1.  Where Q(xm) >= 1
# every root lies at or below xm.

def _cassini_terms(a, b, size) -> tuple:
    """Re p, (Im p)^2, Re r and (Im r)^2 for size = |b|, by the same
    operations on arrays and on Python complex numbers."""
    ur, ui = b.real / size, b.imag / size
    ar, ai = a.real, a.imag
    two = 2.0 + ar
    pi, ri = ar * ui - ai * ur, two * ui - ai * ur
    return -(ar * ur + ai * ui), pi * pi, -(two * ur + ai * ui), ri * ri


def _cassini_value(s, pr, pi2, rr, ri2) -> tuple:
    """Q(s) - 1 and Q'(s) for the terms of ``_cassini_terms``."""
    dl, dr = s - pr, s - rr
    fl, fr = dl * dl + pi2, dr * dr + ri2
    return fl * fr - 1.0, 2.0 * (dl * fr + dr * fl)


def _cassini_sizes(a: np.ndarray, b: np.ndarray) -> tuple:
    """L8's g = |b| / s_t on the grid, ``_cassini_size``'s steps as one
    array loop; g = inf where Q(xm) >= 1.  Also the bound |b| / xm <= g
    there, where xm > 0 (inf elsewhere)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        size = np.abs(b)
        pr, pi2, rr, ri2 = terms = _cassini_terms(a, b, size)
        xm = np.maximum(np.maximum(pr, rr), 0.0)
        left = _cassini_value(xm, *terms)[0] >= 0.0
        half = 0.5 * np.abs(pr - rr)
        s = np.minimum(xm + 1.0, 0.5 * (pr + rr) + np.sqrt(half * half + 1.0))
        s[left] = np.nan
        for _ in range(_NEWTON_STEPS):
            q, dq = _cassini_value(s, *terms)
            nxt = s - q / dq
            down = (dq > 0.0) & (nxt < s)
            if not down.any():
                break
            s = np.where(down, nxt, s)
        g = size / s
        g[left] = np.inf
        return g, np.where(left & (xm > 0.0), size / xm, np.inf)


def _cassini_size(a: complex, b: complex, size: float) -> float:
    """L8's g = |b| / s_t at one angle on Python floats, size = |b| as
    ``np.abs`` gives it (Python's abs of a complex can differ by an ulp).

    Newton steps from min(xm + 1, mid + sqrt(half^2 + 1)) stop where a step
    no longer decreases; where Q(xm) >= 1 the root is ``_left_root``'s.
    NaN where b = 0, inf where no s > 0 has Q(s) < 1.
    """
    if size == 0.0:
        return math.nan
    pr, pi2, rr, ri2 = terms = _cassini_terms(a, b, size)
    xm = max(max(pr, rr), 0.0)
    if _cassini_value(xm, *terms)[0] >= 0.0:
        s = _left_root(*terms, xm)
    else:
        half = 0.5 * abs(pr - rr)
        s = min(xm + 1.0, 0.5 * (pr + rr) + math.sqrt(half * half + 1.0))
        for _ in range(_NEWTON_STEPS):
            q, dq = _cassini_value(s, *terms)
            nxt = s - q / dq if dq > 0.0 else s
            if not nxt < s:
                break
            s = nxt
    return math.inf if s == 0.0 else size / s


def _left_root(pr: float, pi2: float, rr: float, ri2: float, xm: float) -> float:
    """sup {s in [0, xm]: Q(s) < 1}, 0 for none, where Q(xm) >= 1.

    The crossings of each derivative of the quartic Q - 1, from the third
    down (``_newton_in_bracket``), cut [0, xm] into pieces on which the
    next is monotone; Q's last crossing is polished by two Newton steps on
    the factored Q, which keeps the accuracy the coefficients lose.
    """
    p0, r0 = pr * pr + pi2, rr * rr + ri2
    c = [p0 * r0 - 1.0, -2.0 * (pr * r0 + rr * p0), p0 + r0 + 4.0 * pr * rr,
         -2.0 * (pr + rr), 1.0]
    cuts = np.array([0.0, xm])
    for k in (3, 2, 1, 0):
        left, right = cuts[:-1], cuts[1:]
        x = _newton_in_bracket([math.perm(j, k) * cj for j, cj in enumerate(c)][k:],
                               left, right, 0.5 * (left + right))
        x = x[np.isfinite(x)]
        cuts = np.concatenate([[0.0], x, [xm]])
    if not x.size:
        return 0.0
    s = float(x[-1])
    for _ in range(2):
        q, dq = _cassini_value(s, pr, pi2, rr, ri2)
        s -= q / dq if dq > 0.0 else 0.0
    return s


# --- the threshold over the circle -----------------------------------------------

def _least_size(g, values: np.ndarray, t: np.ndarray, grid_size: int,
                sing: tuple) -> float:
    """min_t g from its grid ``values``, g(x) giving g at any angles x: the
    least of the grid and its local minima, refined as in
    ``boundary_margin_profile``, or where g is constant on the grid
    (``_flat``) the samples' median, not the lowest rounding (so L9 at
    A = 1, B = 0, D = 1, E = 0, where |e^{it}| reads 1 - 2^-52 at some
    angles, gives 1)."""
    if _flat(values, 0.0):
        return float(np.median(values))
    _, fb = _refine_minima(g, t[_local_minima(values)], grid_size, sing)
    return float(np.min(fb, initial=np.min(values)))


def _scan_reached(a, b: np.ndarray, betas: np.ndarray, threshold: float,
                  at: int) -> np.ndarray:
    """Whether the lemniscate margin is >= 1 at every grid angle, at each
    scan beta, for h - 1 = a + beta b on the grid (a = 0 on L2-L4).

    Every beta from ``threshold`` on is reached: each grid angle's margin
    stays >= 1 from its beta_t on.  One below reads the squared margin
    |w|^2 |2 + w|^2 at the grid's binding angle ``at`` first, and on the
    whole grid only where it passes there.
    """
    def reaches(w: np.ndarray) -> np.ndarray:
        v = 2.0 + w.real
        with np.errstate(over="ignore", invalid="ignore"):
            return (w.real * w.real + w.imag * w.imag) * (v * v + w.imag * w.imag) >= 1.0

    reached = betas >= threshold
    below = np.flatnonzero(~reached)
    for j in below[reaches((a[at] if np.ndim(a) else a) + betas[below] * b[at])]:
        reached[j] = bool(np.all(reaches(a + betas[j] * b)))
    return reached


def _radial_threshold(lemma: LemmaId, params: LemmaParams, region, sing: tuple,
                      grid_size: int, cap: float,
                      betas: Optional[np.ndarray] = None) -> float:
    """``numeric_threshold`` for every margin rule: X - Y (Mobius premise)
    or 1 (lemniscate premise) over min_t g.

    g is taken on the shared grid (``_radial_size`` of an affine rule's b,
    ``_cassini_sizes`` of L8's a and b; ``_cassini_size`` per angle in the
    refinement) and refined by ``_least_size``.  L8's grid angles whose
    roots lie left of xm read inf; any whose bound |b| / xm falls below
    the least g takes its own root, and the grid is refined again.  On the
    lemniscate premise the scan ``betas`` are then walked
    (``_scan_reached``, ``_scan``).  A NaN g (b = 0 or a pole on the grid)
    or an overflowing quotient claims no threshold.
    """
    t, z = _punctured_grid(grid_size, sing), _grid_points(grid_size, sing)
    if CATALOG[lemma].ode_style == "affine":
        curve, size = _radial_curve(lemma, params), _radial_size(region)
        a, b = 0.0, curve(t, z)
        values, bound = size(b), math.inf

        def g(x: np.ndarray) -> np.ndarray:
            return size(curve(x))
    else:
        curve = _convective_curve(lemma, params)
        a, b = curve(t, z)
        values, bound = _cassini_sizes(a, b)

        def g(x: np.ndarray) -> np.ndarray:
            a, b = curve(x)
            return np.array([_cassini_size(*ab) for ab in
                             zip(a.tolist(), b.tolist(), np.abs(b).tolist())])

    least = _least_size(g, values, t, grid_size, sing)
    near = bound < least
    if np.any(near):
        values[near] = g(t[near])
        least = _least_size(g, values, t, grid_size, sing)
    top = region.A - region.B if isinstance(region, Janowski) else 1.0
    value = top / least if least > 0.0 else math.inf
    if betas is not None:
        _scan(_scan_reached(a, b, betas, value, int(np.argmin(values))), betas)
    if not (math.isfinite(value) and value <= cap):
        raise NoThresholdInBracket(
            f"threshold {top!r}/min g with min g = {least!r} is infinite or "
            "above 10 beta*")
    return value


# --- subordination of concrete series ---------------------------------------

@dataclass(frozen=True)
class SubordinationResult:
    """Sampled-exhaustion containment test (a semi-decision, not a proof)."""

    margin: float
    worst_radius: float
    worst_angle: float
    tail_bound: float
    certified: bool


def subordination_check(p: PowerSeries, region: TargetRegion,
                        radii: tuple = DEFAULTS.radii) -> SubordinationResult:
    """Minimum of ``membership_margins`` on p(r e^{it}) over the radius schedule.

    A positive result shows containment at the sampled points only.  The
    geometric tail estimate |c_N| r^N/(1-r) bounds nothing unless the
    coefficients decrease; it grows with r, so it is taken once, at the
    largest radius, and when it reaches ``DEFAULTS.tail_tol`` every
    radius is still evaluated but the result is flagged uncertified.
    """
    if abs(complex(p.coeffs[0]) - 1.0) > 1e-9:
        raise ConstantTermMismatch(
            f"p(0) = {p.coeffs[0]!r}, expected 1 to match the target centre")
    grid_size = DEFAULTS.subordination_grid
    t = _punctured_grid(grid_size, ())
    best = math.inf
    worst_r = worst_t = 0.0
    for r in radii:
        vals = p.eval_on_circle(r, grid_size)
        margins = membership_margins(region, vals)
        i = int(np.argmin(margins))
        if margins[i] < best:
            best = float(margins[i])
            worst_r, worst_t = float(r), float(t[i])
    tail = p.tail_bound(max(radii))
    return SubordinationResult(best, worst_r, worst_t, tail,
                               tail < DEFAULTS.tail_tol)


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
