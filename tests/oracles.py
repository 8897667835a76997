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

``last_crossing`` is the oracle for ``verify._last_crossing``: the
largest of all crossings that the full derivative-root recursion
``verify._crossings`` finds, which is what the threshold solve reduced
before Bernstein signs decided most columns.

``full_window_mul_mid`` is the oracle for ``series.mul_mid``'s middle
products: every direct product cut from the full ``np.convolve``, as
before the "valid" convolution formed only the window.  They must agree
bit for bit.

``scan_threshold`` is the oracle for ``verify.numeric_threshold`` on the
affine rules (L1-L4, L9-L11): the solve they took before the radial
route, a 64-beta scan walked by ``scan`` and the largest crossing of the
per-angle criterion polynomials in its bracket, on the exact path in
x = cos t where h - 1 is rational (L1 at k = 1, 3, L2-L4 and L9-L11,
``exact_threshold``) and on the grid otherwise (``grid_threshold``,
early-stopped by Descartes' rule, ``one_positive_root``).  With
``exact=False`` it sends any rule down the grid path.  On the lemniscate
premises it gives the bits ``numeric_threshold`` gave before the radial
route wherever 10 beta* is finite, and L8's still.  ``margin_ratio`` and
``margin_polynomials`` give either premise's squared margin as a ratio
of polynomials in beta, (P, R) in beta and x = cos t or (num, den) per
angle, with the scales of ``beta_scales``; ``criterion_polynomial``
forms their F = P - R or num - den.  ``verify``'s exact path serves only
L8's quartics over 1, so ``scan``, ``exact_threshold``,
``criterion_polynomial`` and ``lemniscate_margin_ratio`` keep the solve
over a general ratio that it reduced: the stream scan that the grid path
stopped early, and F padded to the larger of P's and R's shapes.

``fifty_digit_threshold`` is the reference for the radial route:
max_t beta_t on a Mobius premise or on the lemniscate premise of an
affine rule, computed in mpmath from the curve written out per rule,
minimised by golden section at 50 digits.  ``lemniscate_eigenvalues``,
``lemniscate_root`` and ``fifty_digit_lemniscate_roots`` give the roots
of the lemniscate premise's ray quartic, from companion eigenvalues in
doubles and from ``mpmath.polyroots``: the references for
``verify._lemniscate_root`` and ``verify._window_roots``.

``analyze_scan`` is the oracle for ``verify._scan`` (and ``scan``): the
scan's verdict read off all of its minima at once, as the threshold solve
did before it walked the scan.

``fresh_grid``, ``argsort_margin_profile``,
``two_evaluation_margin_polynomials`` and ``two_evaluation_radial_curve``
are the oracles for the shared grid tables (``verify._punctured_grid``,
``verify._grid_points``), the profile's splice of its refined minima and
the affine rules' single curve evaluation.  They rebuild the grid and
e^{it} on every call, sort the concatenated samples, and evaluate h at
beta = 0 for every rule, as ``boundary_margin_profile`` and the threshold
solve did before the tables.  The profile must agree bit for bit; so must
the quartics and the radial curve b.
"""

import math

import numpy as np

from lemnisub import DEFAULTS, AdmissibilityQuantity, LemmaId, series, verify
from lemnisub.catalog import (
    ADMISSIBILITY_EVALUATORS,
    ThresholdStatus,
    closed_form_threshold,
    h_minus_one_at,
    h_minus_one_on_circle,
    h_minus_one_scale,
    margin_on_circle,
    poly_mul,
    premise_region,
    rational_h_minus_one,
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
from lemnisub.verify import _local_minima, _poly_at, _refine_minima

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
    s = poly_mul(verify._derivative(p), r) - poly_mul(p, verify._derivative(r))
    x = np.cos(np.concatenate([ends[1:], t[(t < ends[1]) & (t > ends[0])][::-1],
                               ends[:1]]))                 # ascending
    v = verify._poly_at(s, x)
    rise = np.flatnonzero((v[:-1] < 0.0) & (v[1:] >= 0.0))
    left, right = x[rise], x[rise + 1]
    roots = verify._newton_in_bracket(s[:, None], left, right, 0.5 * (left + right))
    tp = np.concatenate([np.arccos(roots), ends[np.array([v[-1] <= 0.0, v[0] >= 0.0])]])
    return np.concatenate([tp[tp < math.pi], -tp[tp > 0.0]])


# --- the largest crossing of each column, from every crossing ----------------

def last_crossing(F, lo, hi):
    """The largest crossing of each column of F in [lo, hi], -inf where none."""
    return np.fmax.reduce(verify._crossings(F, lo, hi), axis=0, initial=-np.inf)


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
    return 2.0 ** (verify._SCALE_BITS * round(math.log2(size) / verify._SCALE_BITS))


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
    d2 = verify._circle_product(D, D)[None, :]
    return (poly_mul(verify._affine_abs2(N0, N1 / V),
                     verify._affine_abs2(2.0 * D + N0, N1 / V)),
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
    return (verify._affine_abs2(N0 / U, N1 / V),
            verify._affine_abs2(((X - Y) * D - Y * N0) / U, -Y * N1 / V))


def margin_polynomials(lemma, params, scales):
    """Per-angle (num, den) in beta / (U / V) with margin^2 = num/den: for
    a Mobius premise num = |w|^2 and den = |(X-Y) - Y w|^2 with
    w = beta b, h evaluated once at beta = 1/V; for the lemniscate premise
    num is ``verify._margin_polynomials``' quartic and den = 1.  A z
    passed in is not read."""
    U, V = scales
    region = premise_region(lemma, params)
    if not isinstance(region, Janowski):
        quartic = verify._margin_polynomials(lemma, params, V)
        return lambda t, z=None: (quartic(t), np.ones((1, t.size)))
    X, Y = region.A, region.B
    at1 = params.with_beta(1.0 / V)

    def coefficients(t, z=None):
        b = h_minus_one_on_circle(lemma, at1, t, z)
        a = np.zeros_like(b)
        return (verify._abs2_coeffs(a, b),
                verify._abs2_coeffs((X - Y) / U - Y * a, -Y * b))

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
    ``verify._tangent_points``, whose crossings are taken too.  Each
    candidate's value comes from the per-angle (num, den) of
    ``polynomial``.
    """
    ends = verify._end_angles(sing)
    x_hi, x_lo = np.cos(ends)
    slope = verify._derivative(_poly_at(F[:, :, None], betas))
    crit = verify._crossings(slope, x_lo, x_hi)
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
    last = verify._last_crossing(criterion_polynomial(*polynomial(cand)), lo, hi)
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
    x = verify._tangent_points(F3, np.cos(cand[seeds]), last[seeds], x_lo, x_hi)
    x = x[np.isfinite(x)]
    if x.size:
        last = verify._last_crossing(criterion_polynomial(*polynomial(np.arccos(x))),
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
    last = verify._last_crossing(coeffs, lo, hi)
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


def two_evaluation_margin_polynomials(lemma, params, V):
    """``verify._margin_polynomials`` (lemniscate premise) with h evaluated
    at beta = 0 and at beta = 1/V for every rule."""
    at0, at1 = params.with_beta(0.0), params.with_beta(1.0 / V)

    def quartic(t):
        a = h_minus_one_on_circle(lemma, at0, t)
        b = h_minus_one_on_circle(lemma, at1, t) - a
        w2 = verify._abs2_coeffs(a, b)
        num = np.zeros((5, t.size))
        for i, factor in enumerate(verify._abs2_coeffs(2.0 + a, b)):
            num[i:i + 3] += factor * w2
        return num

    return quartic


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

# h - 1 = beta (A - B) z / den(z) for the affine rules with a polynomial den
_DENOMINATORS = {
    LemmaId.L2: lambda A, B, z: (1 + B * z) ** 2,
    LemmaId.L3: lambda A, B, z: (1 + A * z) * (1 + B * z),
    LemmaId.L4: lambda A, B, z: (1 + A * z) ** 2,
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


def fifty_digit_threshold(lemma, params, mp, grid_size=4096):
    """max_t beta_t = top / min_t g over the punctured circle, in mpmath at
    the working precision (the caller sets 50 digits).

    Mobius premise: top = X - Y and
    g = |b| (Y u + sqrt(Y^2 u^2 + (1 - Y)(1 + Y))), u = Re b/|b|.
    Lemniscate premise (L2-L4): top = 1 and g = |b| / rho(u), rho the
    largest positive root of s^4 + 4 u s^3 + 4 s^2 - 1
    (``_fifty_digit_rho``).  b is written out per rule (L1
    through the half-angle form of 1 + z).  The 4 least local minima of g
    in double precision on a ``grid_size`` grid are bracketed by a grid
    step each and refined by golden section in mpmath to 1e-13 in t, where
    g is stationary, so the value is good to about 1e-26 relative.
    Parameters are the floats as exact rationals.
    """
    lemniscate = lemma in LEMNISCATE_AFFINE
    if lemniscate:
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
        u = mp.re(b) / abs(b)
        if lemniscate:
            return abs(b) / _fifty_digit_rho(u, mp)
        return abs(b) * (Ym * u + mp.sqrt(Ym ** 2 * u ** 2 + (1 - Ym) * (1 + Ym)))

    t = fresh_grid(grid_size, singular_angles(lemma, params))
    b = _radial_curve_numpy(lemma, params, t)
    u = b.real / np.abs(b)
    if lemniscate:
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
