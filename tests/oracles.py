"""Slow, independent oracles for the fast paths of ``lemnisub``.

The coefficient recursions are oracles for the Newton kernels.  Each
sets one coefficient per Python iteration from the lower ones by one or
two dot products, O(N^2) in all.  They round differently from the
Newton kernels, which take products by FFT above a crossover, so the
tests compare the two within a tolerance set from float64, never bit
for bit.

``stationary_minima`` is the oracle for the boundary margin profile's
refined minima.  Where h - 1 is rational in z it solves the stationary
points of margin^2 = P/R in x = cos t; the profile refines the grid's
local minima by parabolic steps instead.

``derivative_cross_check`` is the oracle for the closed-form admissibility
quantities: a central difference of Q or h along the circle.

``last_crossing`` is the oracle for ``_last_crossing``: the
largest of all crossings that the full derivative-root recursion
``_crossings`` finds, which is what the threshold solve reduced
before Bernstein signs decided most columns.

``full_window_mul_mid`` is the oracle for ``series.mul_mid``'s middle
products: every direct product cut from the full ``np.convolve``, as
before the "valid" convolution formed only the window.  They must agree
bit for bit.

``scan_threshold`` is the oracle for ``verify.numeric_threshold``: the
solve every margin rule took before the radial route, a 64-beta scan
walked by ``scan`` and the largest crossing of the per-angle criterion
polynomials in its bracket, on the exact path in x = cos t where h - 1 is
rational (L1 at k = 1, 3, L2-L4, L8 and L9-L11, ``exact_threshold``) and
on the grid otherwise (``grid_threshold``, early-stopped by Descartes'
rule, ``one_positive_root``).  With ``exact=False`` it sends any rule
down the grid path.  On the lemniscate premise it gives the bits
``numeric_threshold`` gave before the radial route wherever 10 beta* is
finite, on L8 too.  ``margin_ratio`` and ``margin_polynomials`` give
either premise's squared margin as a ratio of polynomials in beta, (P, R)
in beta and x = cos t or (num, den) per angle, with the scales of
``beta_scales``; ``criterion_polynomial`` forms their F = P - R or
num - den.  The exact path's helpers that ``src/`` no longer has
(``rational_h_minus_one``, ``_last_crossing``, ``_crossings``,
``_tangent_points``, ``_margin_polynomials`` and what they call) are
frozen here verbatim.

``fifty_digit_threshold`` is the reference for the radial route:
max_t beta_t on a Mobius premise or on the lemniscate premise of an
affine rule, computed in mpmath from the curve written out per rule,
minimised by golden section at 50 digits.  ``lemniscate_eigenvalues``,
``lemniscate_root`` and ``fifty_digit_lemniscate_roots`` give the roots
of the lemniscate premise's ray quartic, from companion eigenvalues in
doubles and from ``mpmath.polyroots``: the references for
``verify._lemniscate_root``.  ``fifty_digit_cassini_root`` is L8's
largest root of |s - p|^2 |s - r|^2 = 1 at one angle, the reference for
``verify._cassini_size``; ``fifty_digit_threshold`` covers L8 with it.

``analyze_scan`` is the oracle for ``verify._scan`` (and ``scan``): the
scan's verdict read off all of its minima at once, as the threshold solve
did before it walked the scan.

``fresh_grid``, ``argsort_margin_profile``, ``fresh_convective_curve``
and ``two_evaluation_radial_curve`` are the oracles for the shared grid
tables (``verify._punctured_grid``, ``verify._grid_points``), the
profile's splice of its refined minima and the affine rules' single curve
evaluation.  They rebuild the grid and e^{it} on every call, sort the
concatenated samples, and evaluate h at beta = 0 for every rule, as
``boundary_margin_profile`` and the threshold solve did before the
tables.  The profile must agree bit for bit; so must L8's a and b and the
radial curve b.

``numpy_parabolic_refine`` and ``numpy_polish_zeros`` are the oracles for
``verify._parabolic_refine`` and ``verify._polish_zeros``: the same steps
on numpy arrays, as they were before each column's bookkeeping moved to
Python floats.  They must agree bit for bit, in every call to f too.
"""

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from lemnisub import DEFAULTS, AdmissibilityQuantity, LemmaId, LemmaParams, series, verify
from lemnisub.catalog import (
    ADMISSIBILITY_EVALUATORS,
    ThresholdStatus,
    _curve,
    closed_form_threshold,
    h_minus_one_at,
    h_minus_one_on_circle,
    margin_on_circle,
    premise_region,
    singular_angles,
    singular_points,
)
from lemnisub.errors import (
    ConstantTermNotOne,
    DivisionByZeroConstantTerm,
    InfeasibleParameters,
    NoThresholdInBracket,
    NonMonotoneMargin,
)
from lemnisub.regions import Janowski
from lemnisub.verify import (_NEWTON_STEPS, _local_minima, _newton_in_bracket, _poly_at,
                             _poly_value, _refine_minima)

from support import dominant_Q_on_circle

FD_STEP = 1e-6     # largest step of the derivative cross-check
FD_RTOL = 1e-5     # its relative tolerance
CROSS_CHECK_ANGLES = np.linspace(-math.pi, math.pi, 64, endpoint=False)


def sqrt_fill(a, s, lo, hi):
    """Set s_lo..s_{hi-1} of s = sqrt(a), the root with s_0 = 1; needs a_0 = 1.

    Squaring reads a_m = 2 s_m + sum_{j=1}^{m-1} s_j s_{m-j} for m >= 1.
    """
    if lo == 0:
        if abs(a[0] - 1.0) > 1e-12:
            raise ConstantTermNotOne(f"constant term is {a[0]!r}, expected 1")
        s[0] = 1.0
        lo = 1
    for m in range(lo, hi):
        acc = np.dot(s[1:m], s[m - 1 : 0 : -1]) if m > 1 else 0.0
        s[m] = (a[m] - acc) / 2.0


def divide_fill(a, b, out, lo, hi):
    """Set out_lo..out_{hi-1} of out = a/b; needs b_0 away from 0.

    Multiplying back reads a_m = sum_{j=0}^{m} out_j b_{m-j}.
    """
    if lo == 0:
        if abs(b[0]) < 1e-14:
            raise DivisionByZeroConstantTerm(f"denominator constant term {b[0]!r}")
        out[0] = a[0] / b[0]
        lo = 1
    for m in range(lo, hi):
        acc = np.dot(out[:m], b[m:0:-1])
        out[m] = (a[m] - acc) / b[0]


def euler_power_step(a, c, jc, u, ku, n):
    """Set u_n and ku_n = n u_n of u = p**a; needs c_0 = 1.

    Reads c_1..c_n of p with jc_j = j c_j, and u_0..u_{n-1} with
    ku_k = k u_k.  Euler's recursion reads p z u' = a u z p'
    coefficientwise, n u_n = sum_{j=1}^{n} (a j - (n - j)) c_j u_{n-j}.
    """
    u[n] = (a * np.dot(jc[1 : n + 1], u[n - 1 :: -1])
            - np.dot(c[1 : n + 1], ku[n - 1 :: -1])) / n
    ku[n] = n * u[n]


def sqrt_series(a):
    s = np.zeros(a.size, dtype=complex)
    sqrt_fill(a, s, 0, a.size)
    return s


def divide_series(a, b):
    out = np.zeros(min(a.size, b.size), dtype=complex)
    divide_fill(a, b, out, 0, out.size)
    return out


def power_series(c, a):
    """p**a by Euler's recursion, for the coefficients c of p."""
    jc = c * np.arange(c.size)
    u = np.zeros(c.size, dtype=complex)
    ku = np.zeros(c.size, dtype=complex)
    u[0] = 1.0
    for n in range(1, c.size):
        euler_power_step(a, c, jc, u, ku, n)
    return u


def exp_series(f):
    """exp(f) from z e' = e z f': n e_n = sum_j j f_j e_{n-j}; needs f_0 = 0."""
    zf = f * np.arange(f.size)
    e = np.zeros(f.size, dtype=complex)
    e[0] = 1.0
    for m in range(1, f.size):
        e[m] = np.dot(zf[1 : m + 1], e[m - 1 :: -1][:m]) / m
    return e


def premise_recursion(F, beta, m, own):
    """The premise recursion (beta n + own) c_n = F_n + sum_{j=1}^{n-1} G_j u_{n-j},
    G = F - own p and u = p^m, one coefficient at a time.

    u is extended per exponent: none for m = 0, c itself for m = 1, the
    square's dot product for m = 2 and Euler's step otherwise.
    """
    c = np.zeros(F.size, dtype=complex)
    c[0] = 1.0
    pivots = beta * np.arange(F.size) + own
    if m == 0.0:
        c[1:] = F[1:] / pivots[1:]
        return c
    G = F.copy()
    u = c if m == 1.0 else np.zeros_like(c)
    u[0] = 1.0
    jc = np.zeros_like(c)
    ku = np.zeros_like(c)
    for n in range(1, F.size):
        c[n] = (F[n] + np.dot(G[1:n], u[n - 1 : 0 : -1])) / pivots[n]
        G[n] -= own * c[n]
        if m == 2.0:
            u[n] = 2.0 * c[n] + np.dot(c[1:n], c[n - 1 : 0 : -1])
        elif m != 1.0:
            jc[n] = n * c[n]
            euler_power_step(m, c, jc, u, ku, n)
    return c


# --- the boundary margin's minima, solved exactly in x = cos t ---------------

def at_beta(C, beta):
    """sum_j beta^j C_j in powers of x, up to a positive factor.

    The factor scales the largest term beta^j C_j to size 1, so no beta
    the rules accept (1e-300 to 1e100) overflows or underflows the
    result; P/R keeps its stationary points.
    """
    j = np.arange(C.shape[0])
    size = np.max(np.abs(C), axis=1)
    with np.errstate(divide="ignore"):
        log_term = j * math.log(abs(beta)) + np.log(size)   # -inf for zero rows
    w = np.exp(log_term - np.max(log_term)) * np.sign(beta) ** j
    return np.sum(w[:, None] * C / np.where(size > 0.0, size, 1.0)[:, None], axis=0)


def stationary_minima(P, R, beta, ends, t):
    """Angles in [-pi, pi) of the local minima of P/R over x in cos(ends).

    P and R are ``margin_ratio``'s polynomials in beta and
    x = cos t with margin^2 = P/R.  Inside, the minima are the roots of
    S = P'R - PR' where S rises through 0, since (P/R)' = S/R^2.  Each is
    bracketed by a sign change of S between the grid's x values and
    polished by Newton steps.  An end counts when P/R does not rise
    toward it.
    """
    p, r = at_beta(P, beta), at_beta(R, beta)
    s = poly_mul(_derivative(p), r) - poly_mul(p, _derivative(r))
    x = np.cos(np.concatenate([ends[1:], t[(t < ends[1]) & (t > ends[0])][::-1],
                               ends[:1]]))                 # ascending
    v = verify._poly_at(s, x)
    rise = np.flatnonzero((v[:-1] < 0.0) & (v[1:] >= 0.0))
    left, right = x[rise], x[rise + 1]
    roots = verify._newton_in_bracket(s[:, None], left, right, 0.5 * (left + right))
    tp = np.concatenate([np.arccos(roots), ends[np.array([v[-1] <= 0.0, v[0] >= 0.0])]])
    return np.concatenate([tp[tp < math.pi], -tp[tp > 0.0]])


# --- the exact path in x = cos t, frozen -----------------------------------------
#
# The helpers below are verbatim copies of those that ``scan_threshold``
# read from ``verify`` and ``catalog`` until the last rule on the exact path,
# L8, took the radial route and they were deleted from ``src/``.

_BERNSTEIN_SLACK = 64.0 * np.finfo(float).eps   # Bernstein signs trusted above, relative
_TANGENT_XTOL = 1e-12           # tangent-point steps stop below this in x
_SCALE_BITS = 200               # beta is rescaled by powers of 2^200 only


def _derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative along the first axis."""
    k = np.arange(1.0, c.shape[0])
    return c[1:] * k.reshape((-1,) + (1,) * (c.ndim - 1))


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


def h_minus_one_scale(lemma: LemmaId, params: LemmaParams) -> float:
    """Size of b = Q/beta in h - 1 = a + beta b, up to the factors
    (1 + c z)^e: the curve's scale."""
    return abs(_curve(lemma, params).scale)


def poly_mul(a, b) -> np.ndarray:
    """Product of two polynomials given by ascending coefficient arrays,
    1-D or 2-D (one axis per variable)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim == 1:
        return np.convolve(a, b)
    # the rows, each padded to the product's width and laid end to end,
    # multiply as one polynomial whose power i * width + j stands for y^i x^j
    rows, width = a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1
    flat = [np.zeros((m.shape[0], width)) for m in (a, b)]
    for f, m in zip(flat, (a, b)):
        f[:, :m.shape[1]] = m
    out = np.convolve(flat[0].ravel(), flat[1].ravel())
    return out[:rows * width].reshape(rows, width)


def rational_h_minus_one(lemma: LemmaId, params: LemmaParams) -> Optional[tuple]:
    """Real polynomials (N0, N1, D) in z with h - 1 = (N0 + beta N1)/D.

    The arrays hold ascending coefficients and have one length.  D is the
    least common multiple of the denominators of Q and, when h = q + Q,
    of q; then N1 = scale z prod (1 + c z)^e D and N0 = (q - 1) D.  None
    when an exponent is not an integer: L1 at non-integer kappa, which is
    every k but 1 and 3.
    """
    curve = _curve(lemma, params)
    parts = []
    for part in (curve.factors, curve.q if curve.convective else None):
        if part is None:
            continue
        merged = {}
        for c, e in part:
            if c != 0.0 and e != 0.0:
                merged[c] = merged.get(c, 0.0) + e
        if not all(e.is_integer() for e in merged.values()):
            return None
        parts.append(merged)
    den = {}
    for merged in parts:
        for c, e in merged.items():
            den[c] = max(den.get(c, 0), int(-e))

    def times_den(merged: dict) -> np.ndarray:
        out = np.ones(1)
        for c, n in den.items():
            for _ in range(n + int(merged.get(c, 0.0))):
                out = poly_mul(out, (1.0, c))
        return out

    D = times_den({})
    N1 = curve.scale * poly_mul((0.0, 1.0), times_den(parts[0]))
    qD = times_den(parts[1]) if curve.convective else D
    size = max(D.size, N1.size, qD.size)
    D, N1, qD = (np.concatenate([p, np.zeros(size - p.size)]) for p in (D, N1, qD))
    return qD - D, N1, D


# --- the largest crossing of each column, from every crossing ----------------

def last_crossing(F, lo, hi):
    """The largest crossing of each column of F in [lo, hi], -inf where none."""
    return np.fmax.reduce(_crossings(F, lo, hi), axis=0, initial=-np.inf)


# --- direct products cut from the full convolution ----------------------------

# bound at import, so that a test may patch the oracle in as series.mul_mid
_MUL_MID = series.mul_mid


def full_window_mul_mid(a, b, lo, hi):
    """Coefficients lo..hi-1 of a b, zero beyond the product's end; a direct
    product is the window of the full ``np.convolve``, a product above
    ``series.FFT_CROSSOVER`` goes to ``series.mul_mid``'s FFT."""
    a, b = a[:hi], b[:hi]
    if min(a.size, b.size) > series.FFT_CROSSOVER:
        return _MUL_MID(a, b, lo, hi)
    full = np.convolve(a, b)
    pad = np.zeros(max(0, hi - max(lo, full.size)), dtype=full.dtype)
    return np.concatenate([full[lo:hi], pad])


# --- the threshold as a beta scan plus crossings, as before the radial route ---

def _nearest_scale(size):
    if size == 0.0:
        return 1.0
    return 2.0 ** (_SCALE_BITS * round(math.log2(size) / _SCALE_BITS))


def beta_scales(lemma, params):
    """Powers of two (U, V) that bring the terms of the squared margin to
    unit size: U for the Mobius premise's (X-Y) (every rule with one is
    affine, h - 1 = beta b), V for b; the criterion is solved in
    beta / (U / V)."""
    region = premise_region(lemma, params)
    U = _nearest_scale(abs(region.A - region.B)) if isinstance(region, Janowski) else 1.0
    return U, _nearest_scale(h_minus_one_scale(lemma, params))


def lemniscate_margin_ratio(lemma, params, V):
    """(P, R) with margin^2 = P/R on the unit circle for a lemniscate
    premise, as polynomials in beta V for the scale V of ``_beta_scale``."""
    N0, N1, D = rational_h_minus_one(lemma, params)
    d2 = _circle_product(D, D)[None, :]
    return (poly_mul(_affine_abs2(N0, N1 / V),
                     _affine_abs2(2.0 * D + N0, N1 / V)),
            poly_mul(d2, d2))


def criterion_polynomial(P, R):
    """F = P - R, which is >= 0 exactly where margin^2 = P/R >= 1."""
    F = np.zeros((max(P.shape[0], R.shape[0]), max(P.shape[1], R.shape[1])))
    F[:P.shape[0], :P.shape[1]] += P
    F[:R.shape[0], :R.shape[1]] -= R
    return F


def margin_ratio(lemma, params, scales=(1.0, 1.0)):
    """(P, R) with margin^2 = P/R in beta / (U / V) and x = cos t, or None
    when h - 1 has no rational form; the lemniscate premise's is
    ``lemniscate_margin_ratio``."""
    form = rational_h_minus_one(lemma, params)
    if form is None:
        return None
    U, V = scales
    region = premise_region(lemma, params)
    if not isinstance(region, Janowski):
        return lemniscate_margin_ratio(lemma, params, V)
    N0, N1, D = form
    X, Y = region.A, region.B
    return (_affine_abs2(N0 / U, N1 / V),
            _affine_abs2(((X - Y) * D - Y * N0) / U, -Y * N1 / V))


def margin_polynomials(lemma, params, scales):
    """Per-angle (num, den) in beta / (U / V) with margin^2 = num/den: for
    a Mobius premise num = |w|^2 and den = |(X-Y) - Y w|^2 with
    w = beta b, h evaluated once at beta = 1/V; for the lemniscate premise
    num is ``_margin_polynomials``' quartic and den = 1.  A z
    passed in is not read."""
    U, V = scales
    region = premise_region(lemma, params)
    if not isinstance(region, Janowski):
        quartic = _margin_polynomials(lemma, params, V)
        return lambda t, z=None: (quartic(t), np.ones((1, t.size)))
    X, Y = region.A, region.B
    at1 = params.with_beta(1.0 / V)

    def coefficients(t, z=None):
        b = h_minus_one_on_circle(lemma, at1, t, z)
        a = np.zeros_like(b)
        return (_abs2_coeffs(a, b),
                _abs2_coeffs((X - Y) / U - Y * a, -Y * b))

    return coefficients


def one_positive_root(F):
    """Whether every column of F, ascending in beta, has one positive root
    by Descartes' rule of signs: finite coefficients, F(0) < 0 and a
    positive coefficient with no negative one above it."""
    if not (np.isfinite(F).all() and (F[0] < 0.0).all()):
        return False
    positive = np.logical_or.accumulate(F > 0.0, axis=0)
    return bool(positive[-1].all() and not (positive & (F < 0.0)).any())


def scan_minima(polynomial, coeffs, t, sing, betas, grid_size):
    """Yields the least squared margin over the circle at each scan beta
    with the refined angles where it was sought; refined only at the betas
    whose grid minimum reaches 1, and ended right after the first such
    beta when every column has one positive root."""
    num, den = coeffs
    stop = one_positive_root(criterion_polynomial(num, den))

    def margin2(beta, x):
        n, d = polynomial(x)
        with np.errstate(divide="ignore"):
            return _poly_at(n, beta) / _poly_at(d, beta)

    for beta in betas:
        with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 when A - B underflows
            m2 = _poly_at(num, beta) / _poly_at(den, beta)
        least, xb = m2.min(), np.empty(0)
        if least >= 1.0:
            xb, fb = _refine_minima(lambda x: margin2(beta, x), t[_local_minima(m2)],
                                    grid_size, sing)
            least = np.min(fb, initial=least)
        yield least, xb
        if stop and least >= 1.0:
            return


def scan(minima, betas):
    """The scan interval holding the upcrossing of 1, and the angles at its
    lower end.

    ``minima`` yields one (least squared margin, angles where it sits)
    pair per scan beta, ascending.  The first value >= 1 marks the
    upcrossing, and a later value below 1 raises at once.  Returns
    [beta_{j-1}, beta_j] with the angles yielded at beta_{j-1}, or
    [1e-6 beta_0, beta_0] and no angles when the first beta reaches 1.
    """
    below, up = np.empty(0), None
    for j, (least, angles) in enumerate(minima):
        if least >= 1.0:
            up = j if up is None else up
        elif up is not None:
            raise NonMonotoneMargin(
                f"margin drops back below 1 after beta index {j - 1}; "
                "no threshold claimed")
        else:
            below = angles
    if up is None:
        raise NoThresholdInBracket("margin never reaches 1 on the scan bracket")
    lo = float(betas[up - 1]) if up else 1e-6 * float(betas[0])
    return lo, float(betas[up]), below


def exact_threshold(polynomial, F, t, sing, betas):
    """The threshold from the criterion polynomial F(x; beta) = P - R.

    At each scan beta the least F over the x interval sits at an end or
    where dF/dx rises through 0; the scan minimum is the least squared
    margin at those angles.  The largest crossing in the bracket is
    taken over the ends, the grid angles and the scan's least angle at
    the bracket's lower end; the best interior peaks among them seed
    ``_tangent_points``, whose crossings are taken too.  Each
    candidate's value comes from the per-angle (num, den) of
    ``polynomial``.
    """
    ends = verify._end_angles(sing)
    x_hi, x_lo = np.cos(ends)
    slope = _derivative(_poly_at(F[:, :, None], betas))
    crit = _crossings(slope, x_lo, x_hi)
    crit = np.where(verify._poly_value(slope, crit)[1] > 0.0, crit, x_hi)   # minima only
    angles = np.concatenate([np.repeat(ends[:, None], betas.size, axis=1),
                             np.arccos(crit)])
    num, den = polynomial(angles.ravel())
    at = np.tile(betas, angles.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 when A - B underflows
        m2 = (_poly_at(num, at) / _poly_at(den, at)).reshape(angles.shape)
    least = angles[np.argmin(m2, axis=0), np.arange(betas.size)]
    lo, hi, below = scan(zip(m2.min(axis=0), least), betas)

    # F is even in t: the ends and the grid's angles between them, in order
    cand = np.concatenate([ends[:1], t[(t > ends[0]) & (t < ends[1])], ends[1:]])
    n = cand.size
    cand = np.append(cand, below)
    last = _last_crossing(criterion_polynomial(*polynomial(cand)), lo, hi)
    best = max(lo, float(np.max(last)))
    # seeds: the peaks of the last crossing over t and the scan's least
    # angle, inside the interval and best first
    mid = last[1:n - 1]
    seeds = np.concatenate([np.flatnonzero((mid >= last[:n - 2]) & (mid >= last[2:n])) + 1,
                            np.arange(n, cand.size)])
    seeds = seeds[np.isfinite(last[seeds]) & (cand[seeds] > ends[0])
                  & (cand[seeds] < ends[1])]
    seeds = seeds[np.argsort(-last[seeds])[:verify._REFINE_SEEDS]]
    # padded to three powers of x, so that d2F/dx2 stays an array
    F3 = np.pad(F, ((0, 0), (0, max(0, 3 - F.shape[1]))))
    x = _tangent_points(F3, np.cos(cand[seeds]), last[seeds], x_lo, x_hi)
    x = x[np.isfinite(x)]
    if x.size:
        last = _last_crossing(criterion_polynomial(*polynomial(np.arccos(x))),
                                     lo, hi)
        best = max(best, float(np.max(last)))
    return best


def grid_threshold(polynomial, sing, betas, grid_size):
    """The threshold on the grid: ``scan`` over ``scan_minima`` brackets
    it, the largest crossing over the grid and the scan's refined angles
    at the bracket's lower end is taken, and sharpened over t around its
    best local maxima by Newton steps from each seed's value."""
    t = verify._punctured_grid(grid_size, sing)
    num, den = polynomial(t, verify._grid_points(grid_size, sing))
    lo, hi, probes = scan(scan_minima(polynomial, (num, den), t, sing, betas, grid_size),
                          betas)
    n = t.size
    t = np.concatenate([t, probes])
    coeffs = np.concatenate([criterion_polynomial(num, den),
                             criterion_polynomial(*polynomial(probes))], axis=1)
    last = _last_crossing(coeffs, lo, hi)
    best = max(lo, float(np.max(last)))
    peaks = np.concatenate([_local_minima(-last[:n]), np.arange(n, t.size)])
    peaks = peaks[np.isfinite(last[peaks])]
    order = peaks[np.argsort(-last[peaks], kind="stable")[:verify._REFINE_SEEDS]]

    def negated_crossing(x, guess):
        root = verify._newton_in_bracket(
            criterion_polynomial(*polynomial(x)), lo, hi, guess)
        return np.where(np.isnan(root), np.inf, -root)

    # each seed's bracket as in verify._refine_minima, with its Newton
    # guess kept aligned through the columns being refined
    seeds, step = t[order], verify._TWO_PI / grid_size
    a, b, keep = verify._clamp_brackets(seeds - step, seeds + step, sing)
    if a.size:
        guess = last[order][keep]
        _, fb = verify._parabolic_refine(lambda x, cols: negated_crossing(x, guess[cols]),
                                         a, seeds[keep], b, verify.DEFAULTS.angle_xtol)
        best = max(best, float(-np.min(fb)))
    return best


def scan_threshold(lemma, params, grid_size=2048, exact=True):
    """``numeric_threshold`` as it was before the Mobius premises took the
    radial route: the 64-beta scan walked by ``scan``, then the largest
    crossing in its bracket, on the exact path in x = cos t where h - 1 is
    rational and ``exact`` holds (``exact_threshold``), else on the grid
    (``grid_threshold``)."""
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    base = closed_form_threshold(lemma, params)
    if base.status is ThresholdStatus.INFEASIBLE:
        raise InfeasibleParameters(f"{lemma.value}: {base.binding_constraint}")
    sing = singular_angles(lemma, params)
    floor = 1e-6 if 10.0 * base.beta_star > 1e-6 else 1e-6 * base.beta_star
    betas = np.linspace(floor, 10.0 * base.beta_star, DEFAULTS.scan_points)
    scales = beta_scales(lemma, params)
    sigma = scales[0] / scales[1]
    polynomial = margin_polynomials(lemma, params, scales)
    ratio = margin_ratio(lemma, params, scales) if exact else None
    if ratio is None:
        return sigma * grid_threshold(polynomial, sing, betas / sigma, grid_size)
    return sigma * exact_threshold(polynomial, criterion_polynomial(*ratio),
                                   verify._punctured_grid(grid_size, sing), sing,
                                   betas / sigma)


def analyze_scan(margins: np.ndarray) -> int:
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


# --- the margin profile and polynomials before the shared grid tables ---------

def fresh_grid(grid_size, sing):
    """The punctured grid, built anew."""
    t = np.linspace(-math.pi, math.pi, grid_size, endpoint=False)
    return t[verify._outside_punctures(t, sing)] if sing else t


def argsort_margin_profile(lemma, params, grid_size):
    """(t_samples, margins, min_margin, argmin_t, refined) of the margin
    profile: a fresh grid, e^{it} computed per call, and the refined
    minima placed by sorting the concatenated samples."""
    sing = singular_angles(lemma, params)
    t = fresh_grid(grid_size, sing)
    margin = lambda x: margin_on_circle(lemma, params, x)
    margins = margin(t)
    xb, fb = _refine_minima(margin, t[_local_minima(margins)], grid_size, sing)
    xb, fb = verify._polish_zeros(margin, xb, fb, sing)
    moved = np.flatnonzero((xb < -math.pi) | (xb >= math.pi))
    xb[moved] -= np.copysign(2.0 * math.pi, xb[moved])
    fb[moved] = margin(xb[moved])
    cand_t = np.concatenate([t, xb])
    order = np.argsort(cand_t)
    cand_t, cand_m = cand_t[order], np.concatenate([margins, fb])[order]
    min_margin, argmin_t = verify._select_argmin(cand_t, cand_m)
    return cand_t, cand_m, min_margin, argmin_t, bool(xb.size)


def fresh_convective_curve(lemma, params):
    """``verify._convective_curve`` with e^{it} computed from t (a z passed
    in is not read)."""
    at0, at1 = params.with_beta(0.0), params.with_beta(1.0)

    def curve(t, z=None):
        a = h_minus_one_on_circle(lemma, at0, t)
        return a, h_minus_one_on_circle(lemma, at1, t) - a

    return curve


def two_evaluation_radial_curve(lemma, params):
    """``verify._radial_curve`` with b = h - 1 taken as (h - 1 at beta = 1)
    less (h - 1 at beta = 0), e^{it} computed from t (a z passed in is not
    read)."""
    def curve(t, z=None):
        return (h_minus_one_on_circle(lemma, params.with_beta(1.0), t)
                - h_minus_one_on_circle(lemma, params.with_beta(0.0), t))

    return curve


# --- the admissibility quantities against a central difference ----------------

def derivative_cross_check(lemma, params, quantity, radius):
    """Largest deviation of z f'(z)/Q(z) from a central difference along
    |z| = radius, relative to max(1, |closed form|), over 64 angles.

    f is Q for ``RE_ZQP_OVER_Q`` and h for ``RE_ZHP_OVER_Q``; the closed
    form is the catalog's evaluator.  Angles within 1e-2 of a singular
    angle are left out, and the step shrinks to 1e-3 of each sample's
    distance to the nearest pole or branch point of h and Q, which keeps
    the truncation error near 1e-6 relative however close a pole sits
    to the circle.  Compare the result with ``FD_RTOL``.

    The quotient can be trusted only where A - B and beta are well above
    rounding.  Near it, Q and h - 1 can fall among the subnormal numbers
    (A - B = 1e-300 with beta = 1e-15 puts Q near 1e-315), where
    f(t + h) - f(t - h) keeps few or no digits and the quotient deviates
    however right the closed form is.  ``tests/test_cli.py`` pins such
    points against ``bench/reference.py`` instead.
    """
    sub = CROSS_CHECK_ANGLES
    # singular angles are 0 or pi, so |t| measures the distance to them
    for s in singular_angles(lemma, params):
        sub = sub[np.abs(np.abs(sub) - s) > 1e-2]
    if sub.size == 0:
        return 0.0
    z = radius * np.exp(1j * sub)
    dist = np.full(sub.shape, np.inf)
    for s in singular_points(lemma, params):
        dist = np.minimum(dist, np.abs(z - s))
    h = np.minimum(FD_STEP, 1e-3 * dist)
    if quantity is AdmissibilityQuantity.RE_ZQP_OVER_Q:
        f = lambda t: dominant_Q_on_circle(lemma, params, t, radius)
    else:
        f = lambda t: h_minus_one_at(lemma, params, radius * np.exp(1j * t))
    closed = ADMISSIBILITY_EVALUATORS[quantity](lemma, params, sub, radius)
    # d/dt f(r e^{it}) = i z f'(z), so z f'/Q = -i (df/dt)/Q
    fd = -1j * (f(sub + h) - f(sub - h)) / (2.0 * h) / dominant_Q_on_circle(
        lemma, params, sub, radius)
    return float(np.max(np.abs(fd.real - closed.real)
                        / np.maximum(1.0, np.abs(closed))))


# --- the affine thresholds max_t beta_t to fifty digits -----------------------

# h - 1 = beta (A - B) z / den(z) for the affine rules with a polynomial den,
# and b of L8's h - 1 = a + beta b
_DENOMINATORS = {
    LemmaId.L2: lambda A, B, z: (1 + B * z) ** 2,
    LemmaId.L3: lambda A, B, z: (1 + A * z) * (1 + B * z),
    LemmaId.L4: lambda A, B, z: (1 + A * z) ** 2,
    LemmaId.L8: lambda A, B, z: (1 + A * z) * (1 + B * z),
    LemmaId.L9: lambda A, B, z: (1 + B * z) ** 2,
    LemmaId.L10: lambda A, B, z: (1 + A * z) * (1 + B * z),
    LemmaId.L11: lambda A, B, z: (1 + A * z) ** 2,
}
LEMNISCATE_AFFINE = (LemmaId.L2, LemmaId.L3, LemmaId.L4)


def _radial_curve_numpy(lemma, params, t):
    """b = h - 1 at beta = 1 on the circle, written out per rule."""
    if lemma is LemmaId.L1:
        # z / (2 (1 + z)^kappa) with 1 + z = 2 cos(t/2) e^{it/2}
        kappa = (params.k + 1.0) / 2.0
        return (np.exp(1j * t * (1.0 - kappa / 2.0))
                / (2.0 * (2.0 * np.cos(t / 2.0)) ** kappa))
    A, B, z = params.A, params.B, np.exp(1j * t)
    return (A - B) * z / _DENOMINATORS[lemma](A, B, z)


def lemniscate_eigenvalues(c):
    """The four roots of s^4 + 4 c s^3 + 4 s^2 - 1 for each c, as the
    eigenvalues of the companion matrices (test code only: ``lemnisub``
    calls no LAPACK).  Double roots, at c = -1 and c = -5 sqrt(3)/9, come
    out as pairs about 1e-8 apart, possibly off the real axis."""
    c = np.asarray(c, dtype=float)
    companion = np.zeros(c.shape + (4, 4))
    companion[..., 1:, :3] = np.eye(3)
    companion[..., 0, 3] = 1.0
    companion[..., 2, 3] = -4.0
    companion[..., 3, 3] = -4.0 * c
    return np.linalg.eigvals(companion)


def lemniscate_root(c):
    """The largest positive root of s^4 + 4 c s^3 + 4 s^2 - 1 for each c,
    in doubles (``lemniscate_eigenvalues``)."""
    roots = lemniscate_eigenvalues(c)
    real = np.where((np.abs(roots.imag) <= 1e-6) & (roots.real > 0.0), roots.real, -np.inf)
    return np.max(real, axis=-1)


def fifty_digit_lemniscate_roots(c, mp):
    """The positive real roots of s^4 + 4 c s^3 + 4 s^2 - 1, ascending, for
    the double c taken as an exact rational, by ``mp.polyroots`` at the
    working precision."""
    roots = mp.polyroots([1, 4 * mp.mpf(c), 4, 0, -1], maxsteps=200,
                         extraprec=4 * mp.mp.prec)
    tiny = mp.mpf(2) ** (-mp.mp.prec // 3)
    return sorted(mp.re(r) for r in roots if abs(mp.im(r)) <= tiny and mp.re(r) > 0)


def _fifty_digit_rho(u, mp):
    """The largest positive root of s^4 + 4 u s^3 + 4 s^2 - 1 at the working
    precision: Newton steps from ``lemniscate_root``'s double.  The root
    is simple except at u = -5 sqrt(3)/9, where no minimum of g lies."""
    s = mp.mpf(float(lemniscate_root(float(u))))
    for _ in range(100):
        step = (((s + 4 * u) * s + 4) * s * s - 1) / (((4 * s + 12 * u) * s + 8) * s)
        s -= step
        if abs(step) <= mp.eps * s:
            break
    return s


def cassini_coefficients(p, r):
    """[c0, c1, c2, c3] with |s - p|^2 |s - r|^2 - 1 =
    s^4 + c3 s^3 + c2 s^2 + c1 s + c0, for numpy or mpmath foci."""
    pp, rr = p.real * p.real + p.imag * p.imag, r.real * r.real + r.imag * r.imag
    return [pp * rr - 1, -2 * (p.real * rr + r.real * pp),
            pp + rr + 4 * p.real * r.real, -2 * (p.real + r.real)]


def cassini_root(a, b):
    """L8's root at each angle in doubles: the largest positive real root
    of |s - p|^2 |s - r|^2 = 1, p = -a conj(u), r = -(2 + a) conj(u),
    u = b/|b|, from companion eigenvalues (test code only); 0 where none."""
    u = np.conj(b / np.abs(b))
    c = cassini_coefficients(-a * u, -(2.0 + a) * u)
    companion = np.zeros(np.shape(b) + (4, 4))
    companion[..., 1:, :3] = np.eye(3)
    companion[..., :, 3] = -np.stack(c, axis=-1)
    roots = np.linalg.eigvals(companion)
    real = np.where((np.abs(roots.imag) <= 1e-6) & (roots.real > 0.0), roots.real, 0.0)
    return np.max(real, axis=-1)


def fifty_digit_cassini_root(a, b, mp):
    """``cassini_root`` at one angle for the doubles a, b taken exactly, by
    ``mp.polyroots`` at the working precision."""
    a, b = mp.mpc(a), mp.mpc(b)
    u = mp.conj(b / abs(b))
    c0, c1, c2, c3 = cassini_coefficients(-a * u, -(2 + a) * u)
    roots = mp.polyroots([1, c3, c2, c1, c0], maxsteps=200, extraprec=4 * mp.mp.prec)
    tiny = mp.mpf(2) ** (-mp.mp.prec // 3)
    real = [mp.re(x) for x in roots if abs(mp.im(x)) <= tiny and mp.re(x) > 0]
    return max(real, default=mp.mpf(0))


def _fifty_digit_cassini(a, b, start, mp):
    """``cassini_root`` in mpmath: Newton steps from the double ``start``."""
    u = mp.conj(b / abs(b))
    c = cassini_coefficients(-a * u, -(2 + a) * u) + [1]
    s = mp.mpf(start)
    for _ in range(100 if s else 0):
        f, d = c[-1], 0
        for ck in c[-2::-1]:
            f, d = f * s + ck, d * s + f
        step = f / d
        s -= step
        if abs(step) <= mp.eps * s:
            break
    return s


def fifty_digit_threshold(lemma, params, mp, grid_size=4096):
    """max_t beta_t = top / min_t g over the punctured circle, in mpmath at
    the working precision (the caller sets 50 digits).

    Mobius premise: top = X - Y and
    g = |b| (Y u + sqrt(Y^2 u^2 + (1 - Y)(1 + Y))), u = Re b/|b|.
    Lemniscate premise (L2-L4): top = 1 and g = |b| / rho(u), rho the
    largest positive root of s^4 + 4 u s^3 + 4 s^2 - 1
    (``_fifty_digit_rho``).  L8: top = 1 and g = |b| / s_t, s_t the
    largest root of |s - p|^2 |s - r|^2 = 1 (``_fifty_digit_cassini``),
    h - 1 = a + beta b with a = (A - B) z / (1 + B z) and
    b = a / (1 + A z).  b is written out per rule (L1
    through the half-angle form of 1 + z).  The 4 least local minima of g
    in double precision on a ``grid_size`` grid are bracketed by a grid
    step each and refined by golden section in mpmath to 1e-13 in t, where
    g is stationary, so the value is good to about 1e-26 relative.
    Parameters are the floats as exact rationals.
    """
    lemniscate = lemma in LEMNISCATE_AFFINE
    convective = lemma is LemmaId.L8
    if lemniscate or convective:
        top = mp.mpf(1)
    else:
        X, Y = (params.A, params.B) if lemma is LemmaId.L1 else (params.D, params.E)
        Ym = mp.mpf(Y)
        top = mp.mpf(X) - Ym

    def b_mp(t):
        if lemma is LemmaId.L1:
            kappa = (mp.mpf(params.k) + 1) / 2
            return mp.expj(t * (1 - kappa / 2)) / (2 * (2 * mp.cos(t / 2)) ** kappa)
        A, B, z = mp.mpf(params.A), mp.mpf(params.B), mp.expj(t)
        return (A - B) * z / _DENOMINATORS[lemma](A, B, z)

    def g_mp(t):
        b = b_mp(t)
        if convective:
            a = b * (1 + mp.mpf(params.A) * mp.expj(t))
            s = _fifty_digit_cassini(a, b, cassini_root(complex(a), complex(b)), mp)
            return abs(b) / s if s else mp.inf
        u = mp.re(b) / abs(b)
        if lemniscate:
            return abs(b) / _fifty_digit_rho(u, mp)
        return abs(b) * (Ym * u + mp.sqrt(Ym ** 2 * u ** 2 + (1 - Ym) * (1 + Ym)))

    t = fresh_grid(grid_size, singular_angles(lemma, params))
    b = _radial_curve_numpy(lemma, params, t)
    u = b.real / np.abs(b)
    if convective:
        with np.errstate(divide="ignore"):      # inf where no s > 0 misses the margin
            g = np.abs(b) / cassini_root(b * (1.0 + params.A * np.exp(1j * t)), b)
    elif lemniscate:
        g = np.abs(b) / lemniscate_root(u)
    else:
        g = np.abs(b) * (Y * u + np.sqrt(Y * Y * u * u + (1.0 - Y) * (1.0 + Y)))
    ring = np.concatenate([g[-1:], g, g[:1]])
    seeds = np.flatnonzero((g <= ring[:-2]) & (g <= ring[2:]))
    seeds = seeds[np.argsort(g[seeds])[:4]]
    step = 2.0 * math.pi / grid_size
    shrink = (mp.sqrt(5) - 1) / 2
    least = None
    for i in seeds:
        lo, hi = mp.mpf(t[i] - step), mp.mpf(t[i] + step)
        x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        f1, f2 = g_mp(x1), g_mp(x2)
        while hi - lo > 1e-13:
            if f1 < f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - shrink * (hi - lo)
                f1 = g_mp(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + shrink * (hi - lo)
                f2 = g_mp(x2)
        value = min(f1, f2)
        least = value if least is None else min(least, value)
    return top / least

# --- the refinement steps on numpy arrays, as before the per-column loop -------

def numpy_parabolic_refine(f, a: np.ndarray, x: np.ndarray, b: np.ndarray,
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
    for _ in range(verify._REFINE_STEPS):
        if not cols.size:
            break
        golden = np.where(x >= 0.5 * (a + b), a - x, b - x)
        with np.errstate(divide="ignore", invalid="ignore"):   # w or v may read inf
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = np.where(q > 0.0, -p, p), np.abs(q)
            vertex = ((np.abs(p) < np.abs(0.5 * q * e))
                      & (p > q * (a - x)) & (p < q * (b - x)))
            d, e = (np.where(vertex, p / q, verify._GOLDEN_STEP * golden),
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
        done = probe & ~(fu < fx - verify._PROBE_RTOL * np.abs(fx))
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


def numpy_polish_zeros(f, x: np.ndarray, fx: np.ndarray, sing: tuple) -> tuple:
    """Refined minima x of a margin f, lowered at V-shaped zeros.

    Where h passes through 1 (or -1, lemniscate premise) f is |t - t0|
    times a smooth factor and parabolic steps leave f of size xtol.  The
    vertex of the smooth f^2's parabola through x and x +- xtol is taken
    where its relative curvature clears rounding (``_ZERO_CURVATURE``),
    it lies within xtol of x outside the punctures, and f reads lower.
    """
    xtol = verify.DEFAULTS.angle_xtol
    fl, fr = np.split(f(np.concatenate([x - xtol, x + xtol])), 2)
    scale = np.fmax(np.fmax(fl, fr), fx)      # f^2 / scale^2 cannot overflow
    with np.errstate(divide="ignore", invalid="ignore"):
        yl, y, yr = (fl / scale) ** 2, (fx / scale) ** 2, (fr / scale) ** 2
        curvature = yl - 2.0 * y + yr
        shift = 0.5 * xtol * (yl - yr) / curvature
    vertex = x + shift
    take = ((curvature > verify._ZERO_CURVATURE) & (np.abs(shift) <= xtol)
            & verify._outside_punctures(vertex, sing))
    fv = np.full(x.size, np.inf)
    fv[take] = f(vertex[take])
    lower = fv < fx
    return np.where(lower, vertex, x), np.where(lower, fv, fx)
