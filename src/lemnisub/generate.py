"""Test-function generators: Schwarz self-maps and premise-exact solutions.

A Schwarz function is an analytic self-map w of the unit disk with
w(0) = 0 (hence |w(z)| <= |z|).  Three families are provided:

* ``monomial(m)``: w(z) = z^m,
* ``blaschke_factor(a)``: w(z) = z (z + a)/(1 + conj(a) z), |a| < 1,
* ``scaled_polynomial(coeffs)``: a random polynomial with zero constant
  term, divided by its largest sampled modulus on the unit circle times
  a safety factor.

Each family passes one sampled check (``_check_contraction``): the
largest modulus over 4096 circle samples is at most 1 + 1e-12.  It is a
measurement at the samples, not a proven bound on |w|.

``solve_premise_ode`` inverts a lemma's defining functional equation
with equality: given w it produces the coefficients of the unique p
with p(0) = 1 satisfying

    theta(p) + beta z p'(z) / p(z)^m = F(w(z)),

where F is the premise target and theta(p) is 1 for the affine entries
and p for the convective ones.  Each rule is solved in closed form
through the integral I = integral_0^z (F(s) - 1)/s ds, I_n = F_n/n:

* m = 0 (L2, L9, L1 at k = 0; L5): p_n = F_n/(beta n + own), with own = 1
  for convective entries and 0 for affine ones, one vectorised division;
* affine m = 1 (L3, L10, L1 at k = 1): p = exp(I/beta);
* affine m = 2 (L4, L11): p = 1/(1 - I/beta);
* L1 at any other k: p = g^(1/(1-k)) with g = 1 + ((1-k)/beta) I, taken
  as exp(f) with z f' = (F - 1)/(beta g);
* convective m = 1 (L6, L8): v = 1/p solves the linear
  beta z v' + F v = 1, so with E = exp(I/beta) and S_n = E_n/(beta n + 1),
  p = E/S;
* L7 (convective, m = 2): Newton's method on the operator, each step a
  linear first-order equation solved by an integrating factor (Bostan et
  al., SODA 2007).

The series operations are the Newton kernels of ``series``: each step of
the Newton ladder doubles the number of coefficients of the target, of
the series the closed form passes through and of p, a few products per
step, O(N log N) in all above the FFT crossover.  The reported residual
is the largest coefficient of beta z p' - (F - theta(p)) u after the
fact, with u = p^m (p for m = 1, p*p for m = 2, ``PowerSeries.power``
otherwise) and one direct short product (``PowerSeries.__mul__``, blocks
of ``np.convolve`` cut to order N), which does not share the kernels'
FFT rounding.  It is the defect of the premise
functional, theta(p) + beta z p'/p^m - F, times u.

A Newton step sets the coefficients lo..hi-1 of every array from the ones
below, so the solve keeps its arrays sized once and extends them in
place: the adaptive ``solve_premise`` raises the order
64 -> 128 -> 256 -> 512 by one Newton step each, and each order's
solution is bit for bit the one a solve to that order from scratch
gives, because the ladder to order 2N is the ladder to N plus one step.
``compose_target`` extends its target series the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .catalog import CATALOG, LemmaId, LemmaParams, premise_region, validate
from .errors import NotAContraction, RecursionBreakdown, TruncationInsufficient
from .regions import SqrtLemniscate, TargetRegion
from .series import (
    PowerSeries,
    divide_step,
    exp_step,
    exp_update,
    mul,
    mul_mid,
    newton_arrays,
    newton_steps,
    recip_step,
    sqrt_step,
)

_SUP_SAMPLES = 4096
_SUP_TOL = 1e-12
_SAFETY = 1.0000001
_POLY_DEGREE = 8           # degree of the random polynomial family


@dataclass(frozen=True)
class SchwarzFunction:
    """A disk self-map fixing the origin, held as a truncated series."""

    kind: str
    series: PowerSeries
    boundary_sup: float


def _boundary_sup(series: PowerSeries) -> float:
    return float(np.max(np.abs(series.eval_on_circle(1.0, _SUP_SAMPLES))))


def _check_contraction(kind: str, series: PowerSeries) -> SchwarzFunction:
    if abs(series.coeffs[0]) > DEFAULTS.coeff_tol:
        raise NotAContraction(f"{kind}: constant term {series.coeffs[0]!r} is not 0")
    sup = _boundary_sup(series)
    if sup > 1.0 + _SUP_TOL:
        raise NotAContraction(f"{kind}: boundary sup {sup} exceeds 1 + {_SUP_TOL}")
    return SchwarzFunction(kind, series, sup)


def monomial(m: int, order: int = DEFAULTS.series_order) -> SchwarzFunction:
    """w(z) = z^m."""
    if m < 1:
        raise ValueError("monomial exponent must be a positive integer")
    order = max(order, m)
    c = np.zeros(order + 1, dtype=complex)
    c[m] = 1.0
    return _check_contraction(f"monomial({m})", PowerSeries(c))


def blaschke_factor(a: complex, order: int = DEFAULTS.series_order) -> SchwarzFunction:
    """w(z) = z (z + a)/(1 + conj(a) z); a = 0 collapses to z^2.

    The geometric tail of the expansion decays like |a|^n, so the order
    is raised automatically until the truncated series itself passes the
    sampled contraction check (``_check_contraction``).
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise NotAContraction(f"blaschke factor needs |a| < 1, got {abs(a)}")
    need = order
    if abs(a) > 0.0:
        # |a|^(n-1) <= 1e-13 guarantees the truncation stays a contraction
        need = max(order, int(np.ceil(np.log(1e-13) / np.log(abs(a)))) + 2)
    c = np.zeros(need + 1, dtype=complex)
    # z(z+a) * sum_n (-conj(a))^n z^n
    geo = (-np.conj(a)) ** np.arange(need + 1)
    c[1:] += a * geo[: need]
    c[2:] += geo[: need - 1]
    return _check_contraction(f"blaschke({a.real:.6g}{a.imag:+.6g}j)", PowerSeries(c))


def scaled_polynomial(coeffs, order: int = DEFAULTS.series_order) -> SchwarzFunction:
    """Polynomial with zero constant term, normalised to boundary sup 1/safety."""
    c = np.asarray(coeffs, dtype=complex)
    if c.size == 0 or abs(c[0]) > 0.0:
        raise NotAContraction("scaled polynomial needs a zero constant term")
    raw = PowerSeries(c, order=max(order, c.size - 1))
    sup = _boundary_sup(raw)
    if sup <= 0.0:
        raise NotAContraction("cannot normalise the zero polynomial")
    return _check_contraction("poly", PowerSeries(raw.coeffs / (sup * _SAFETY)))


def random_schwarz(rng: np.random.Generator,
                   order: int = DEFAULTS.series_order) -> SchwarzFunction:
    """Seeded draw from the three families, reproducible given the rng state."""
    family = int(rng.integers(0, 3))
    if family == 0:
        return monomial(int(rng.integers(1, 7)), order)
    if family == 1:
        radius = 0.8 * np.sqrt(rng.uniform())
        angle = rng.uniform(-np.pi, np.pi)
        return blaschke_factor(radius * np.exp(1j * angle), order)
    c = np.zeros(_POLY_DEGREE + 1, dtype=complex)
    c[1:] = rng.normal(size=_POLY_DEGREE) + 1j * rng.normal(size=_POLY_DEGREE)
    w = scaled_polynomial(c, order)
    return SchwarzFunction(f"poly(deg={_POLY_DEGREE})", w.series, w.boundary_sup)


def _target_ladder(region: TargetRegion, w: PowerSeries):
    """q(w) for the region's target function q, as an array sized to w's
    order, and the Newton step that sets its coefficients lo..hi-1."""
    q, h = newton_arrays(w.order + 1)
    if isinstance(region, SqrtLemniscate):
        a = (1.0 + w).coeffs
        return q, lambda lo, hi: sqrt_step(a, q, h, lo, hi)
    a = (1.0 + region.A * w).coeffs
    b = (1.0 + region.B * w).coeffs
    return q, lambda lo, hi: divide_step(a, b, q, h, lo, hi)


def _target_series(region: TargetRegion, w: PowerSeries) -> PowerSeries:
    """Series of q(w) for the region's target function q."""
    q, step = _target_ladder(region, w)
    for lo, hi in newton_steps(1, q.size):
        step(lo, hi)
    return PowerSeries(q)


def compose_target(region: TargetRegion, w: SchwarzFunction) -> PowerSeries:
    """Series of q(w(z)) for a target region q.

    Because q(w) is exactly subordinate to q, these series exercise the
    subordination checker on functions that approach the target boundary.
    The truncation starts at 1024 and is doubled until the geometric tail
    estimate at the outermost sampling radius (a heuristic, see
    ``PowerSeries.tail_bound``) falls below ``tail_tol``; near-inner w
    (boundary sup close to 1) pushes the branch point of sqrt(1+w) toward
    the circle, which is why the cap sits well above the generator default.
    Each doubling is one more Newton step on the coefficients already
    computed.
    """
    top = DEFAULTS.max_order
    q, step = _target_ladder(region, w.series.pad_to(top))
    n, done = 1024, 1
    while True:
        for lo, hi in newton_steps(done, n + 1):
            step(lo, hi)
        done = n + 1
        if PowerSeries(q[:done]).tail_bound(max(DEFAULTS.radii)) < DEFAULTS.tail_tol \
                or n >= top:
            return PowerSeries(q[:done])
        n = min(2 * n, top)


# --- premise-exact solutions ------------------------------------------------

@dataclass(frozen=True)
class PremiseSolution:
    """p with premise(p) = F(w) coefficientwise up to the truncation order."""

    p: PowerSeries
    residual: float
    order: int
    tail_certified: bool


class _PremiseState:
    """The premise solve's arrays, sized once and extended in place along
    the Newton ladder to a growing order: the target F, the solution c
    and the series its closed form passes through.

    ``solve_to(n)`` takes only the Newton steps above the order already
    reached.  Each step reads the same values as in a solve built to order
    n from scratch, so the solution at every order is the same.
    """

    def __init__(self, lemma: LemmaId, params: LemmaParams, w: SchwarzFunction,
                 size: int):
        validate(lemma, params)
        row = CATALOG[lemma]
        self.beta = params.beta
        self.m = row.ode_exponent(params)
        self.own = 1.0 if row.ode_style == "convective" else 0.0
        # the smallest pivot is |beta| for affine rules; convective ones exceed 1
        if not self.own and abs(self.beta) < 1e-14:
            raise RecursionBreakdown("vanishing pivot beta*n at n=1")
        self.F, self._target_step = _target_ladder(premise_region(lemma, params),
                                                   w.series.pad_to(size))
        self.pivots = self.beta * np.arange(size + 1) + self.own
        self.c = np.zeros(size + 1, dtype=complex)
        self.c[0] = 1.0
        self._step = _closed_form_step(self)
        self.order = 0

    def solve_to(self, order: int) -> PremiseSolution:
        """The solution at ``order``, extending the one already reached."""
        n = order + 1
        # a diverging solve overflows to inf/nan; its residual reports that
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for lo, hi in newton_steps(self.order + 1, n):
                self._target_step(lo, hi)
                self._step(lo, hi)
            p = PowerSeries(self.c[:n])
            if self.m == 0.0:
                u = None
            elif self.m == 1.0:
                u = p
            elif self.m == 2.0:
                u = p * p
            else:
                u = p.power(self.m)
            residual = _premise_residual(self.beta, p,
                                         PowerSeries(self.F[:n]) - (p if self.own else 1.0), u)
        self.order = order
        return PremiseSolution(p, residual, order,
                               p.tail_bound(max(DEFAULTS.radii)) < DEFAULTS.tail_tol)


def _closed_form_step(state: _PremiseState):
    """The Newton step lo -> hi that sets c_lo..c_{hi-1} of the state's
    solution from its closed form in I = integral of (F - 1)/s, I_n = F_n/n
    (the module docstring)."""
    F, c, pivots, beta, m = state.F, state.c, state.pivots, state.beta, state.m
    n = c.size
    if m == 0.0:                         # c_n = F_n/(beta n + own)
        def step(lo, hi):
            c[lo:hi] = F[lo:hi] / pivots[lo:hi]
        return step
    zf, h = newton_arrays(n)             # z f' of the exponent f, and 1/exp(f)
    zf[0] = 0.0
    if m == 1.0 and not state.own:       # c = exp(I/beta)
        def step(lo, hi):
            zf[lo:hi] = F[lo:hi] / beta
            exp_step(zf, c, h, lo, hi)
        return step
    if m == 1.0:                         # c = E/S, E = exp(I/beta), S_n = E_n/(beta n + 1)
        E, S, hS = newton_arrays(n, 3)

        def step(lo, hi):
            zf[lo:hi] = F[lo:hi] / beta
            exp_step(zf, E, h, lo, hi)
            S[lo:hi] = E[lo:hi] / pivots[lo:hi]
            divide_step(E, S, c, hS, lo, hi)
        return step
    if state.own:                        # L7: Newton on the operator
        return _convective_square_step(state)
    g, = newton_arrays(n, 1)             # g = 1 + ((1 - m)/beta) I = c^(1 - m)
    if m == 2.0:                         # c = 1/g
        def step(lo, hi):
            g[lo:hi] = -F[lo:hi] / pivots[lo:hi]
            recip_step(g, c, lo, hi)
        return step
    # c = g^(1/(1 - m)) = exp(f) with z f' = (F - 1)/(beta g)
    num, hg = newton_arrays(n)
    num[0] = 0.0

    def step(lo, hi):
        g[lo:hi] = (1.0 - m) * F[lo:hi] / pivots[lo:hi]
        num[lo:hi] = F[lo:hi] / beta
        divide_step(num, g, zf, hg, lo, hi)
        exp_step(zf, c, h, lo, hi)
    return step


def _convective_square_step(state: _PremiseState):
    """L7's step: Newton on Phi(v) = beta v z v' + F v - 1 for v = 1/p.

    The correction d solves the linear beta z d' + a d = -Phi(v)/v with
    a = (beta z v' + F)/v, a_0 = 1, by the integrating factor
    Psi = exp(J), z J' = (a - 1)/beta: T = d Psi has
    T_n = (Psi (-Phi/v))_n/(beta n + 1).  Phi(v) vanishes below lo, so d
    needs a, Psi and 1/Psi only to hi - lo <= lo coefficients: they are
    extended to lo first, from the v already known, 1/Psi by hand, since
    the correction needs it at Psi's own precision.  The solution p = 1/v
    is v's reciprocal, extended with it.
    """
    F, p, pivots, beta = state.F, state.c, state.pivots, state.beta
    n = p.size
    v, psi, hpsi, zj = newton_arrays(n, 4)
    zj[0] = 0.0
    ns = np.arange(n)

    def step(lo, hi):
        k = (lo + 1) // 2                # psi's precision before this step
        if lo > k:
            zj[k:lo] = mul_mid(beta * ns[:lo] * v[:lo] + F[:lo], p, k, lo) / beta
            exp_update(zj, psi, hpsi, k, lo)     # 1/psi is held to k
            recip_step(psi, hpsi, k, lo)
        phi = mul_mid(v[:lo], beta * np.concatenate([ns[:lo] * v[:lo], np.zeros(hi - lo)])
                      + F[:hi], lo, hi)
        t = -mul(psi, mul(p, phi, hi - lo), hi - lo) / pivots[lo:hi]
        v[lo:hi] = mul(hpsi, t, hi - lo)
        recip_step(v, p, lo, hi)
    return step


def solve_premise_ode(lemma: LemmaId, params: LemmaParams, w: SchwarzFunction,
                      order: int = DEFAULTS.series_order) -> PremiseSolution:
    """Newton solve for the premise-exact p at a fixed order."""
    return _PremiseState(lemma, params, w, order).solve_to(order)


def _premise_residual(beta: float, p: PowerSeries, G: PowerSeries,
                      u: PowerSeries | None) -> float:
    """Max coefficient of beta z p' - G u, with G = F - theta(p) and
    u = p^m (None for m = 0, where u = 1).  G u is the direct short
    product ``PowerSeries.__mul__``: one ``np.convolve`` up to order 512,
    blocks of 513 coefficients above."""
    return (beta * p.zderiv() - (G if u is None else G * u)).max_abs_coeff()


def solve_premise(lemma: LemmaId, params: LemmaParams, w: SchwarzFunction,
                  order: int | None = None) -> PremiseSolution:
    """Adaptive-order solve: double N while the tail fails, capped.

    The tail estimate |c_N| r^N/(1-r) at the outermost sampling radius
    bounds nothing unless the coefficients decrease, so
    ``tail_certified`` is a heuristic flag, not a certificate.  For
    targets with circle singularities it often stays above ``tail_tol``
    within the cap, in which case the solution at the cap is returned
    with ``tail_certified=False``.  The residual stays at rounding level
    unless the solution diverges.  Each doubling is one more Newton step
    on one solve, computing only the new coefficients: a higher order
    repeats the first N coefficients of p bit for bit, so its residual
    can only be larger, up to rounding (for L1 at k outside {0, 1, 2}
    the residual's p^k is a Newton solve of its own, whose first
    coefficients move in the last bits with the order), and the first
    order whose residual fails raises.
    """
    n = DEFAULTS.series_order if order is None else order
    cap = DEFAULTS.max_series_order
    state = _PremiseState(lemma, params, w, max(n, cap) if order is None else order)
    sol = state.solve_to(n)
    # "not <=" so that a NaN residual fails too
    while order is None and n < cap and \
            sol.residual <= DEFAULTS.residual_tol and not sol.tail_certified:
        n = min(2 * n, cap)
        sol = state.solve_to(n)
    if not sol.residual <= DEFAULTS.residual_tol:
        raise TruncationInsufficient(f"premise residual {sol.residual} at order {n}")
    return sol
