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
polished from the smooth squared margin (``_polish_zeros``).  Each
angular grid and its points e^{it} depend only on the grid size and the
punctures, so they are built once per process, on first use, and shared
read-only (``_punctured_grid``, ``_grid_points``) by the profile, the
threshold solve, the winding diagnostic and the subordination check;
every value is bit for bit what rebuilding them gives.

The Miller-Mocanu admissibility minima need no grid.  On |z| = r each
quantity's real part is, in x = cos t, a constant plus terms
w R(c r, x) with R(s, x) = Re(s z/(1 + s z)) (and at most a term linear
in x), or monotone in x; its minimum therefore sits at t = 0, at t = pi
or at the one stationary angle solved in closed form, and the
closed-form quantity is evaluated at those angles only.

Empirical beta thresholds take one of two routes.  For every margin rule
h - 1 = a(t) + beta*b(t) is affine in beta, so at each angle the
criterion is a polynomial inequality in beta.  For every affine rule
(L1-L4, L9-L11) a = 0, the criterion depends on beta only through the
point beta b(t) on a ray from h = 1, and each angle's threshold is the
distance at which that ray leaves the premise region for good over |b|:
beta_t = top / g(t) (Ma & Minda's starlike regions about 1; Miller &
Mocanu, Differential Subordinations, 2000, 3.4).  The threshold is top
over the least g on the refined grid, with no crossing search
(``_radial_threshold``).  On a Mobius premise (L1, L9-L11) the criterion
is a quadratic with one positive root, in closed form; on the lemniscate
premise (L2-L4) it is a quartic in the distance, whose largest root
comes from a table or from a form where it stays simple, polished by
Newton steps (``_lemniscate_root``).  The quartic's margin can also hold
on a window [r1, r2] below that root, so there the threshold also walks
a coarse beta scan upward (``_scan``) and raises where the margin,
reached, is lost again.  For the convective L8 a != 0,
and its threshold is the largest crossing over all angles inside the
bracket where that walk of the minimum margin first reaches 1.  h - 1 is
rational in z there, so the scan minima and the binding angle are solved
in x = cos t (``_exact_threshold``).  Each angle's largest crossing
(``_last_crossing``) is read off the signs of its polynomial's Bernstein
coefficients on the bracket where they clear a rounding slack: one sign
means no crossing, one sign change exactly one, found by bracketed
Newton steps.  Columns with a coefficient inside the slack, a NaN or
inf, or more sign changes take the full derivative-root recursion
(``_crossings``).

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
    h_minus_one_scale,
    margin_on_circle,
    poly_mul,
    premise_region,
    rational_h_minus_one,
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
_BERNSTEIN_SLACK = 64.0 * np.finfo(float).eps   # Bernstein signs trusted above, relative
_TANGENT_XTOL = 1e-12           # tangent-point steps stop below this in x
_SCALE_BITS = 200               # beta is rescaled by powers of 2^200 only
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
    ``f(points, columns)`` is called on the unsettled columns only.
    Returns the minimising points and the minima.
    """
    n = x.size
    fa, fx, fb = np.split(f(np.concatenate([a, x, b]), np.tile(np.arange(n), 3)), 3)
    # x reading the same as one end, as a minimum halfway between two grid
    # points of a curve symmetric about it does: the midpoint of the tied
    # pair, where it reads lower, becomes x and the pair its bracket
    tie_a, tie_b = (fx == fa) & (fx < fb), (fx == fb) & (fx < fa)
    tied = np.flatnonzero(tie_a | tie_b)
    if tied.size:
        m, fm = 0.5 * (x + np.where(tie_a, a, b)), np.full(n, np.inf)
        fm[tied] = f(m[tied], tied)
        tie_a, tie_b = tie_a & (fm < fx), tie_b & (fm < fx)
        a, fa = np.where(tie_b, x, a), np.where(tie_b, fx, fa)
        b, fb = np.where(tie_a, x, b), np.where(tie_a, fx, fb)
        x, fx = np.where(tie_a | tie_b, m, x), np.where(tie_a | tie_b, fm, fx)
    end_a = fa <= fb
    x_out, f_out = np.where(end_a, a, b), np.where(end_a, fa, fb)
    cols = np.flatnonzero((fx < fa) & (fx < fb))
    a, x, b, fx, end_a = a[cols], x[cols], b[cols], fx[cols], end_a[cols]
    w, fw = x_out[cols], f_out[cols]                          # the better end
    v, fv = np.where(end_a, b, a), np.where(end_a, fb[cols], fa[cols])
    d = e = b - a
    for _ in range(_REFINE_STEPS):
        if not cols.size:
            break
        golden = np.where(x >= 0.5 * (a + b), a - x, b - x)
        with np.errstate(divide="ignore", invalid="ignore"):   # w or v may read inf
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = np.where(q > 0.0, -p, p), np.abs(q)
            vertex = ((np.abs(p) < np.abs(0.5 * q * e))
                      & (p > q * (a - x)) & (p < q * (b - x)))
            d, e = (np.where(vertex, p / q, _GOLDEN_STEP * golden),
                    np.where(vertex, d, golden))
        probe = np.abs(d) < xtol
        u = x + d
        lo, hi = np.maximum(x - xtol, a)[probe], np.minimum(x + xtol, b)[probe]
        k = int(np.count_nonzero(~probe))
        values = f(np.concatenate([u[~probe], lo, hi]),
                   np.concatenate([cols[~probe], cols[probe], cols[probe]]))
        f_lo, f_hi = values[k:k + lo.size], values[k + lo.size:]
        right = f_hi < f_lo
        fu = np.empty(cols.size)
        fu[~probe] = values[:k]
        u[probe], fu[probe] = np.where(right, hi, lo), np.where(right, f_hi, f_lo)
        done = probe & ~(fu < fx - _PROBE_RTOL * np.abs(fx))
        # the bracket keeps the best point inside; x, w, v are the three best
        better, left = (fu < fx) & ~done, u < x
        a = np.where(better != left, np.where(better, x, u), a)
        b = np.where(better == left, np.where(better, x, u), b)
        second = ~better & ((fu <= fw) | (w == x))
        third = ~better & ~second & ((fu <= fv) | (v == x) | (v == w))
        v = np.where(better | second, w, np.where(third, u, v))
        fv = np.where(better | second, fw, np.where(third, fu, fv))
        w = np.where(better, x, np.where(second, u, w))
        fw = np.where(better, fx, np.where(second, fu, fw))
        x, fx = np.where(better, u, x), np.where(better, fu, fx)
        x_out[cols[done]], f_out[cols[done]] = x[done], fx[done]
        keep = ~done
        cols, a, x, b, fx, w, fw, v, fv, d, e = (
            arr[keep] for arr in (cols, a, x, b, fx, w, fw, v, fv, d, e))
    x_out[cols], f_out[cols] = x, fx
    return x_out, f_out


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


def _derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative along the first axis."""
    k = np.arange(1.0, c.shape[0])
    return c[1:] * k.reshape((-1,) + (1,) * (c.ndim - 1))


def _newton_in_bracket(c: np.ndarray, left, right,
                       x: np.ndarray) -> np.ndarray:
    """Crossing of F = 0 inside each column's [left, right].

    Newton steps from x; a step that leaves the shrinking bracket is
    replaced by its midpoint, so each column converges.  Columns where
    F < 0 holds at both ends or at neither come back NaN.
    """
    neg_left = _poly_at(c, left) < 0.0
    dead = neg_left == (_poly_at(c, right) < 0.0)
    for _ in range(_NEWTON_STEPS):
        f, d = _poly_value(c, x)
        same = (f < 0.0) == neg_left
        left = np.where(same, x, left)
        right = np.where(same, right, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nxt = x - f / d    # a step out of the bracket is replaced below
        nxt = np.where((nxt >= left) & (nxt <= right), nxt, 0.5 * (left + right))
        settled = np.abs(nxt - x) <= _ROOT_RTOL * np.abs(nxt)
        x = nxt
        if (settled | dead).all():
            break
    return np.where(dead, np.nan, x)


def _crossings(c: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Points of [lo, hi] where each column's F changes between < 0 and >= 0.

    Returns shape (deg, n), ascending per column and NaN-padded.  The
    crossings of F' cut [lo, hi] into pieces on which F is monotone, so
    a piece whose ends differ in sign holds exactly one crossing.  This
    finds every crossing; ``_last_crossing``, which wants the largest
    only, runs it on the columns that Bernstein signs leave undecided.
    """
    deg, n = c.shape[0] - 1, c.shape[1]
    if deg == 0:
        return np.empty((0, n))
    crit = _crossings(_derivative(c), lo, hi)
    cuts = np.concatenate([np.full((1, n), lo),
                           np.where(np.isnan(crit), hi, crit),
                           np.full((1, n), hi)])
    left, right = cuts[:-1], cuts[1:]
    return np.sort(_newton_in_bracket(c, left, right, 0.5 * (left + right)),
                   axis=0)


def _bernstein_weights(deg: int, lo: float, width: float) -> list:
    """w[i][k], the weight of c_k in the i-th Bernstein coefficient on
    [lo, lo + width] of sum_k c_k x^k.

    With x = lo + width u, sum_k c_k x^k = sum_j a_j u^j where
    a_j = width^j sum_k C(k, j) lo^(k-j) c_k, and the Bernstein
    coefficients on u in [0, 1] are b_i = sum_{j<=i} C(i, j)/C(deg, j) a_j.
    """
    return [[sum(math.comb(i, j) / math.comb(deg, j) * math.comb(k, j)
                 * lo ** (k - j) * width ** j for j in range(min(i, k) + 1))
             for k in range(deg + 1)] for i in range(deg + 1)]


def _last_crossing(c: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The largest crossing of each column's F in [lo, hi], -inf where none.

    On [lo, hi] F = sum_i b_i B_i is a weighted mean of its Bernstein
    coefficients b_i, and it has at most as many roots inside as the b_i
    have sign changes, of the same parity (Descartes' rule in the
    Bernstein basis; Basu, Pollack & Roy, Algorithms in Real Algebraic
    Geometry, ch. 10).  Each b_i is a sum of terms of at most
    sum_k |c_k| r^k, r = |lo| + hi - lo, in size, and so is the Horner
    value of F anywhere in [lo, hi]; a coefficient is trusted when it
    clears ``_BERNSTEIN_SLACK`` times that size, far above both rounding
    errors.  A column whose b_i all clear it with one sign has no
    crossing, and one whose signs change once has exactly one simple
    root, reached by ``_newton_in_bracket`` from the midpoint.  Every
    other column (a coefficient within the slack, a NaN or inf, or more
    than one sign change) takes the full ``_crossings``.  The weights
    are scalars, so no step calls BLAS.
    """
    deg, n = c.shape[0] - 1, c.shape[1]
    weights = _bernstein_weights(deg, lo, hi - lo)
    r = abs(lo) + (hi - lo)
    with np.errstate(invalid="ignore", over="ignore"):   # such columns fall back
        b = np.array([sum(w * ck for w, ck in zip(row, c)) for row in weights])
        slack = _BERNSTEIN_SLACK * sum(np.abs(ck) * r ** k for k, ck in enumerate(c))
    pos, neg = b > slack, b < -slack
    clear = np.all(pos | neg, axis=0)          # NaN and inf never clear
    changes = np.count_nonzero(pos[1:] != pos[:-1], axis=0)
    out = np.full(n, -np.inf)
    one = np.flatnonzero(clear & (changes == 1))
    if one.size:
        out[one] = _newton_in_bracket(c[:, one], lo, hi,
                                      np.full(one.size, 0.5 * (lo + hi)))
    rest = np.flatnonzero(~clear | (changes > 1))
    if rest.size:
        out[rest] = np.fmax.reduce(_crossings(c[:, rest], lo, hi), axis=0,
                                   initial=-np.inf)
    return out


# --- the lemniscate criterion as a polynomial in x = cos t ---------------------
#
# When h - 1 = (N0 + beta N1)/D with real polynomials N0, N1, D in z
# (``rational_h_minus_one``), the lemniscate premise's squared margin on
# |z| = 1 is |N|^2 |2D + N|^2 / |D|^4, and margin >= 1 holds exactly where
# F = |N|^2 |2D + N|^2 - |D|^4 >= 0.  F is a polynomial in beta and
# x = cos t, stored as a 2-D array of ascending coefficients, beta down
# the rows and x along the columns.

def _circle_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Re(p(z) conj q(z)) on |z| = 1, as ascending coefficients in x = cos t.

    For real p and q it is sum_{j,k} p_j q_k cos((j - k) t): a Chebyshev
    series whose coefficient of T_d(x) = cos(d t) sums the
    cross-correlations of p and q at lags d and -d.
    """
    corr = np.correlate(p, q, "full")          # lags j - k from 1 - q.size
    zero = q.size - 1
    cheb = np.zeros(max(p.size, q.size))
    cheb[:p.size] = corr[zero:]
    cheb[1:q.size] += corr[zero - 1::-1]
    return np.sum(cheb[:, None] * _chebyshev_powers(cheb.size), axis=0)


@lru_cache(maxsize=None)
def _chebyshev_powers(n: int) -> np.ndarray:
    """Row d holds T_d(x) in ascending powers of x, for d < n."""
    table = np.zeros((n, n))
    table[0, 0] = 1.0
    for d in range(1, n):             # T_1 = x, T_d = 2x T_{d-1} - T_{d-2}
        table[d, 1:] = (2.0 if d > 1 else 1.0) * table[d - 1, :-1]
        if d > 1:
            table[d] -= table[d - 2]
    table.flags.writeable = False     # shared by every caller
    return table


def _affine_abs2(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """|p0 + beta p1|^2 on |z| = 1, rows in ascending powers of beta."""
    return np.array([_circle_product(p0, p0), 2.0 * _circle_product(p0, p1),
                     _circle_product(p1, p1)])


def _beta_scale(lemma: LemmaId, params: LemmaParams) -> float:
    """A power of two V that brings b in h - 1 = a + beta b to unit size
    before any |.|^2 is formed, where b may be as small as A - B.

    The lemniscate premise's |w|^2 |2 + w|^2 is not homogeneous in a and
    b, so only b is scaled, and the criterion is solved in beta V.  V is
    the power of 2^_SCALE_BITS nearest the size of b
    (``h_minus_one_scale``), so it is 1 unless that size is beyond
    2^(+-_SCALE_BITS/2), and squares of the scaled terms neither underflow
    nor overflow.
    """
    size = h_minus_one_scale(lemma, params)
    if size == 0.0:
        return 1.0
    return 2.0 ** (_SCALE_BITS * round(math.log2(size) / _SCALE_BITS))


def _criterion_polynomial(lemma: LemmaId, params: LemmaParams, V: float) -> np.ndarray:
    """F = |N|^2 |2D + N|^2 - |D|^4 for a lemniscate premise, in beta V for
    the scale V of ``_beta_scale`` and x = cos t; F >= 0 exactly where the
    margin is >= 1."""
    N0, N1, D = rational_h_minus_one(lemma, params)
    d2 = _circle_product(D, D)[None, :]
    P = poly_mul(_affine_abs2(N0, N1 / V), _affine_abs2(2.0 * D + N0, N1 / V))
    R = poly_mul(d2, d2)
    F = np.zeros((P.shape[0], max(P.shape[1], R.shape[1])))
    F[:, :P.shape[1]] += P
    F[:1, :R.shape[1]] -= R
    return F


def _abs2_coeffs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Coefficients of |p + beta*q|^2 in ascending powers of beta."""
    return np.array([p.real * p.real + p.imag * p.imag,
                     2.0 * (p.real * q.real + p.imag * q.imag),
                     q.real * q.real + q.imag * q.imag])


def _margin_polynomials(lemma: LemmaId, params: LemmaParams, V: float):
    """The squared margin at each angle as a quartic in beta V, for a
    lemniscate premise and the scale V of ``_beta_scale``.

    Returns a function of the angles t giving an array of shape
    (5, t.size), ascending powers of beta V down the rows.  With
    w = h - 1 = a + beta*b, the lemniscate inverse gives
    margin^2 = |w|^2 |2 + w|^2.  h is evaluated at beta = 0 and at
    beta = 1/V; the exact path serves only the convective L8, whose a is
    not 0.
    """
    # b / V is h - 1 at beta = 1/V less a
    at0, at1 = params.with_beta(0.0), params.with_beta(1.0 / V)

    def quartic(t: np.ndarray) -> np.ndarray:
        a = h_minus_one_on_circle(lemma, at0, t)
        b = h_minus_one_on_circle(lemma, at1, t) - a
        w2 = _abs2_coeffs(a, b)
        num = np.zeros((5, t.size))
        for i, factor in enumerate(_abs2_coeffs(2.0 + a, b)):
            num[i:i + 3] += factor * w2
        return num

    return quartic


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
    return float(np.max(values) - np.min(values)) <= 1e-12 * scale


def _polish_zeros(f, x: np.ndarray, fx: np.ndarray, sing: tuple) -> tuple:
    """Refined minima x of a margin f, lowered at V-shaped zeros.

    Where h passes through 1 (or -1, lemniscate premise) f is |t - t0|
    times a smooth factor and parabolic steps leave f of size xtol.  The
    vertex of the smooth f^2's parabola through x and x +- xtol is taken
    where its relative curvature clears rounding (``_ZERO_CURVATURE``),
    it lies within xtol of x outside the punctures, and f reads lower.
    """
    xtol = DEFAULTS.angle_xtol
    fl, fr = np.split(f(np.concatenate([x - xtol, x + xtol])), 2)
    scale = np.fmax(np.fmax(fl, fr), fx)      # f^2 / scale^2 cannot overflow
    with np.errstate(divide="ignore", invalid="ignore"):
        yl, y, yr = (fl / scale) ** 2, (fx / scale) ** 2, (fr / scale) ** 2
        curvature = yl - 2.0 * y + yr
        shift = 0.5 * xtol * (yl - yr) / curvature
    vertex = x + shift
    take = ((curvature > _ZERO_CURVATURE) & (np.abs(shift) <= xtol)
            & _outside_punctures(vertex, sing))
    fv = np.full(x.size, np.inf)
    fv[take] = f(vertex[take])
    lower = fv < fx
    return np.where(lower, vertex, x), np.where(lower, fv, fx)


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
    affine in beta, so margin >= 1 is a polynomial inequality
    F_t(beta) >= 0, and the threshold is the least beta from which every
    angle's holds.  For every affine rule (L1-L4, L9-L11) a = 0, so the
    criterion depends on beta only through the point beta b(t) on the ray
    from h = 1 along b(t): with s = beta |b| and u = cos arg b it is
    F_t(s) >= 0, and the largest positive root of F_t is where the ray
    leaves the premise region for good.  Each angle's threshold is that
    root over |b|, beta_t = top / g(t), and the threshold is
    max_t beta_t = top / min_t g (``_radial_threshold``; Ma & Minda's
    regions starlike about 1), with no bracket or crossing search.

    Mobius premise (L1 for every k, L9-L11): with -1 <= Y < X,
    F_t = (1 - Y^2) s^2 + 2 (X - Y) Y u s - (X - Y)^2.  F_t(0) < 0 and
    F_t has exactly one positive root,
        beta_t = (X - Y) / g(t),   g = |b| G(u),
        G(u) = Y u + sqrt(Y^2 u^2 + (1 - Y)(1 + Y)),
    so top = X - Y, each angle's margin stays >= 1 from beta_t on and
    ``NonMonotoneMargin`` cannot occur.

    Lemniscate premise (L2-L4): top = 1 and g = |b| / rho(u), rho the
    largest root of F_t = P_u(s) = s^4 + 4 u s^3 + 4 s^2 - 1, which
    below u = -5 sqrt(3)/9 has three positive roots r1 < r2 < r3: the
    margin is >= 1 on [r1, r2] and from r3 on (``_lemniscate_root``).  So
    a margin reached at one beta can be lost at a larger one.  The
    ``DEFAULTS.scan_points`` betas in [1e-6, 10 beta*] (from 1e-6 beta*
    when 10 beta* <= 1e-6) are walked upward by ``_scan``, each passing
    where every grid angle's margin is >= 1 there, read off its roots;
    ``NonMonotoneMargin`` is raised at the first beta where the margin is
    lost again.  A window (r2, r3) / |b| that falls between two scan betas
    above the first reach does not register, and the threshold is its
    upper end, from which the margin stays >= 1.

    L8 (lemniscate premise, convective): a != 0 and F_t is a quartic in
    beta.  The same scan, of the minimum margin over the circle, brackets
    the upcrossing of 1, and the threshold is the largest crossing of any
    angle's F inside that bracket, solved in x = cos t
    (``_exact_threshold``), where h - 1 is rational; the punctured grid's
    angles only seed that solve.

    ``NoThresholdInBracket`` is raised where the scan never reaches 1, 10
    beta* overflows on a lemniscate premise, or the threshold lies above
    10 beta* or is not finite: min g = 0 (|Y| = 1, or b = 0 at a grid
    angle), or a min g so small that the quotient overflows.
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
    if row.ode_style == "affine":
        return _radial_threshold(lemma, params, region, sing, grid_size, cap, betas)
    # solved in beta V, V a power of two: exact, and 1 unless A - B is extreme
    V = _beta_scale(lemma, params)
    return _exact_threshold(_margin_polynomials(lemma, params, V),
                            _criterion_polynomial(lemma, params, V),
                            _punctured_grid(grid_size, sing), sing, betas * V) / V


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


def _window_roots(c: np.ndarray, r3: np.ndarray) -> tuple:
    """r1 and r2 of P_c for c < c*, given r3.

    r1 = 1 + v w with v = sqrt(c + 1), where w solves
    v^2 w^4 - 2 w^2 + 4 (1 + v w)^3 = 0 (P_c / v^2).  That root is simple
    on all of [-1, c*], also at c = -1 where r1 = r2 is double; it is
    3v - sqrt(9 v^2 + 2) to first order in v, and three Newton steps from
    the fitted start 3v - sqrt(9 v^2 + 2) - 2.35 v^2 reach it to rounding.
    r2 and the negative root r4 then solve x^2 - S x - 1/(r1 r3) = 0,
    S = -4c - r1 - r3 (Vieta).
    """
    v = np.sqrt(np.maximum(c + 1.0, 0.0))
    w = v * (3.0 - 2.35 * v) - np.sqrt(9.0 * v * v + 2.0)
    for _ in range(3):
        u = 1.0 + v * w
        w = w - ((v * v * w * w - 2.0) * w * w + 4.0 * u ** 3) / (
            4.0 * (v * v * w * w - 1.0) * w + 12.0 * v * u * u)
    r1 = 1.0 + v * w
    S = -4.0 * c - r1 - r3
    r2 = 0.5 * (S + np.sqrt(S * S + 4.0 / (r1 * r3)))
    return r1, np.minimum(np.maximum(r2, r1), r3)


def _lemniscate_reached(b: np.ndarray, g: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Whether the lemniscate margin is >= 1 at every angle, at each scan
    beta, from h - 1 = beta b and g = |b| / rho on the grid.

    An angle misses the margin where beta |b| < rho, or, below c*, where
    beta |b| < r1 or r2 < beta |b| < r3 = rho (``_window_roots``).
    """
    size = np.abs(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = b.real / size
        low = 1.0 / g
    window = np.flatnonzero(c < _C_STAR)
    inside = np.zeros(betas.size + 1, dtype=np.intp)   # windows holding each beta
    if window.size:
        size = size[window]
        r3 = size / g[window]
        r1, r2 = _window_roots(c[window], r3)
        low[window] = r1 / size
        # the scan betas strictly inside each window are betas[lo:hi]
        lo = np.searchsorted(betas, r2 / size, side="right")
        hi = np.maximum(np.searchsorted(betas, r3 / size, side="left"), lo)
        inside = np.cumsum(np.bincount(lo, minlength=betas.size + 1)
                           - np.bincount(hi, minlength=betas.size + 1))
    return (betas >= np.max(low)) & (inside[:-1] == 0)


def _radial_curve(lemma: LemmaId, params: LemmaParams):
    """b = h - 1 at beta = 1 as a function of the angles t (and optionally
    their points z = e^{it}, as for ``h_minus_one_on_circle``): an affine
    rule's h - 1 = beta b, evaluated once."""
    return partial(h_minus_one_on_circle, lemma, params.with_beta(1.0))


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


def _radial_threshold(lemma: LemmaId, params: LemmaParams, region, sing: tuple,
                      grid_size: int, cap: float,
                      betas: Optional[np.ndarray] = None) -> float:
    """``numeric_threshold`` for an affine rule: X - Y (Mobius premise) or
    1 (lemniscate premise) over min_t g.

    g (``_radial_size``) is taken on the shared grid, and the grid's
    smallest local minima are refined by parabolic steps as in
    ``boundary_margin_profile``, unless g is constant on the grid
    (``_flat``): there the samples differ by rounding alone, and their
    median, not the lowest, is taken for g (so L9 at A = 1, B = 0, D = 1,
    E = 0, where |b| = |e^{it}| reads 1 - 2^-52 at some angles, gives 1).
    On the lemniscate premise the scan ``betas`` are walked first
    (``_lemniscate_reached``, ``_scan``).  A NaN g (b = 0 or a pole on the
    grid) or an overflowing quotient claims no threshold.
    """
    curve, g = _radial_curve(lemma, params), _radial_size(region)
    t = _punctured_grid(grid_size, sing)
    b = curve(t, _grid_points(grid_size, sing))
    values = g(b)
    if betas is not None:
        _scan(_lemniscate_reached(b, values, betas), betas)
    if _flat(values, 0.0):
        least = float(np.median(values))
    else:
        _, fb = _refine_minima(lambda x: g(curve(x)), t[_local_minima(values)],
                               grid_size, sing)
        least = float(np.min(fb, initial=np.min(values)))
    top = region.A - region.B if isinstance(region, Janowski) else 1.0
    value = top / least if least > 0.0 else math.inf
    if not (math.isfinite(value) and value <= cap):
        raise NoThresholdInBracket(
            f"threshold {top!r}/min g with min g = {least!r} is infinite or "
            "above 10 beta*")
    return value


# --- the threshold from the criterion polynomial F(x; beta) -------------------

def _tangent_points(F: np.ndarray, x: np.ndarray, beta: np.ndarray,
                    x_lo: float, x_hi: float) -> np.ndarray:
    """x in [x_lo, x_hi] where F = dF/dx = 0, by Newton steps in (x, beta).

    There the curve F = 0 has a horizontal tangent in beta, so the last
    crossing in beta is stationary over x: the binding angle of the
    threshold when it lies inside the interval.  A seed that leaves the
    interval or diverges comes back NaN; the ends are candidates anyway.
    """
    # coefficients in x (at least three), each a column of coefficients in beta
    Fx = F.T[:, :, None]
    dFx = _derivative(Fx)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            f = _poly_at(Fx, x)
            fx, fxx = _poly_value(dFx, x)
            v, vb = _poly_value(f, beta)
            vx, vxb = _poly_value(fx, beta)
            vxx = _poly_at(fxx, beta)
            det = vx * vxb - vb * vxx
            dx = (vb * vx - v * vxb) / det
            x, beta = x + dx, beta + (v * vxx - vx * vx) / det
            x = np.where((x >= x_lo) & (x <= x_hi) & np.isfinite(beta), x, np.nan)
            if not np.any(np.abs(dx[np.isfinite(x)]) > _TANGENT_XTOL):
                break
    return x


def _exact_threshold(polynomial, F: np.ndarray, t: np.ndarray, sing: tuple,
                     betas: np.ndarray) -> float:
    """``numeric_threshold`` from the criterion polynomial F(x; beta).

    At each scan beta the least F over the x interval sits at an end or
    where dF/dx rises through 0; the scan minimum is the least squared
    margin at those angles.  The largest crossing in the bracket is
    taken over the ends, the grid angles and the scan's least angle at
    the bracket's lower end; the best interior peaks among them seed
    ``_tangent_points``, whose crossings are taken too.  Every candidate
    is an angle of the punctured circle, so none overshoots the
    threshold.

    F only places the candidates.  Their values come from the per-angle
    quartics in beta (``_margin_polynomials``), the squared margin; each
    angle's F_t is its quartic less 1.  They keep their relative
    accuracy where F is small against its coefficients in x: near t = 0
    or pi, and near poles and zeros of h on the circle.
    """
    ends = _end_angles(sing)
    x_hi, x_lo = np.cos(ends)
    slope = _derivative(_poly_at(F[:, :, None], betas))
    crit = _crossings(slope, x_lo, x_hi)
    crit = np.where(_poly_value(slope, crit)[1] > 0.0, crit, x_hi)   # minima only
    angles = np.concatenate([np.repeat(ends[:, None], betas.size, axis=1),
                             np.arccos(crit)])
    m2 = _poly_at(polynomial(angles.ravel()),
                  np.tile(betas, angles.shape[0])).reshape(angles.shape)
    lo, hi, up = _scan(m2.min(axis=0) >= 1.0, betas)
    # the scan's least angle at the bracket's lower end, if it has one
    below = angles[np.argmin(m2, axis=0), np.arange(betas.size)][max(up - 1, 0):up]

    def last_crossing(at: np.ndarray) -> np.ndarray:
        F_t = polynomial(at)
        F_t[0] -= 1.0
        return _last_crossing(F_t, lo, hi)

    # F is even in t: the ends and the grid's angles between them, in order
    cand = np.concatenate([ends[:1], t[(t > ends[0]) & (t < ends[1])], ends[1:]])
    n = cand.size
    cand = np.append(cand, below)
    last = last_crossing(cand)
    best = max(lo, float(np.max(last)))
    # seeds: the peaks of the last crossing over t and the scan's least
    # angle, inside the interval and best first
    mid = last[1:n - 1]
    seeds = np.concatenate([np.flatnonzero((mid >= last[:n - 2]) & (mid >= last[2:n])) + 1,
                            np.arange(n, cand.size)])
    seeds = seeds[np.isfinite(last[seeds]) & (cand[seeds] > ends[0])
                  & (cand[seeds] < ends[1])]
    if not seeds.size:
        return best
    seeds = seeds[np.argsort(-last[seeds])[:_REFINE_SEEDS]]
    x = _tangent_points(F, np.cos(cand[seeds]), last[seeds], x_lo, x_hi)
    x = x[np.isfinite(x)]
    if x.size:
        best = max(best, float(np.max(last_crossing(np.arccos(x)))))
    return best


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
