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

``full_scan_minima`` is the oracle for ``verify._scan_minima``: the
grid path's threshold scan as it was before it stopped early, every
scan beta read and the refinements of all betas whose grid minimum
reaches 1 taken in one batch.  Up to the beta where the early-stopped
scan stops, the two must agree bit for bit.  ``full_scan_stream`` feeds
it to ``verify._scan`` beta by beta.

``analyze_scan`` is the oracle for ``verify._scan``: the scan's verdict
read off all of its minima at once, as the threshold solve did before it
walked the scan.
"""

import math

import numpy as np

from lemnisub import AdmissibilityQuantity, series, verify
from lemnisub.catalog import (
    ADMISSIBILITY_EVALUATORS,
    h_minus_one_at,
    poly_mul,
    singular_angles,
    singular_points,
)
from lemnisub.errors import (
    ConstantTermNotOne,
    DivisionByZeroConstantTerm,
    NoThresholdInBracket,
    NonMonotoneMargin,
)
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

    P and R are ``verify._margin_ratio``'s polynomials in beta and
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


# --- the grid path's threshold scan, every beta read --------------------------

def full_scan_minima(polynomial, coeffs: tuple, t: np.ndarray, sing: tuple,
                     betas: np.ndarray, grid_size: int) -> tuple:
    """Minimum squared margin over the circle at each scan beta.

    As in ``boundary_margin_profile``, the minimum over the grid is
    refined around the smallest local minima of the samples (zeros need
    no polish here), so a dip between grid points counts.  Refinement
    can only lower a minimum, so it runs only at the betas whose grid
    minimum reaches 1, all of them in one batch.  Returns the minima,
    the refined angles and the index of the scan beta each belongs to.
    """
    num, den = coeffs
    minima = np.empty(betas.size)
    seeds, owner = [], []
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 when A - B underflows
        for j, beta in enumerate(betas):
            m2 = _poly_at(num, beta) / _poly_at(den, beta)
            minima[j] = m2.min()
            if minima[j] >= 1.0:
                seeds.append(t[_local_minima(m2)])
                owner.append(np.full(seeds[-1].size, j))
    if not seeds:
        return minima, np.empty(0), np.empty(0, dtype=int)

    def margin2(x, owner):
        n, d = polynomial(x)
        with np.errstate(divide="ignore"):
            return _poly_at(n, betas[owner]) / _poly_at(d, betas[owner])

    xb, fb, owner = _refine_minima(margin2, np.concatenate(seeds), grid_size,
                                   sing, np.concatenate(owner))
    np.minimum.at(minima, owner, fb)
    return minima, xb, owner


def full_scan_stream(*args):
    """``full_scan_minima`` as the stream ``verify._scan`` walks: each
    beta's minimum and its refined angles, every beta read."""
    minima, probes, owner = full_scan_minima(*args)
    for j, least in enumerate(minima):
        yield least, probes[owner == j]


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
