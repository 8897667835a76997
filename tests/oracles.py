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
"""

import math

import numpy as np

from lemnisub import verify
from lemnisub.catalog import poly_mul
from lemnisub.errors import ConstantTermNotOne, DivisionByZeroConstantTerm


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
