"""Test-function generators: Schwarz self-maps and premise-exact solutions.

A Schwarz function is an analytic self-map w of the unit disk with
w(0) = 0 (hence |w(z)| <= |z|).  Three families are provided:

* ``monomial(m)``: w(z) = z^m,
* ``blaschke_factor(a)``: w(z) = z (z + a)/(1 + conj(a) z), |a| < 1,
* ``scaled_polynomial(coeffs)``: a random polynomial with zero constant
  term, normalised by its measured boundary maximum times a safety
  factor so the truncated series is certifiably a contraction.

``solve_premise_ode`` inverts a lemma's defining functional equation
with equality: given w it produces the coefficients of the unique p
with p(0) = 1 satisfying

    theta(p) + beta z p'(z) / p(z)^m = F(w(z)),

where F is the premise target and theta(p) is 1 for the affine entries
and p for the convective ones.  Read beta z p' = (F - theta(p)) p^m
coefficientwise; one recursion serves both styles,

    (beta n + own) c_n = F_n + sum_{j=1}^{n-1} G_j u_{n-j},

with own = 1 for convective entries and 0 for affine ones, G = F - own p
and u = p^m.  The solve branches once on m:

* m = 0: u = 1 and the sum vanishes, so c_n = F_n/(beta n + own) is one
  vectorised division;
* m = 1: u is p itself, one dot product per coefficient;
* m = 2: u_n = 2 c_n + sum_{j=1}^{n-1} c_j c_{n-j}, a second dot product;
* any other m (L1 with k outside {0, 1, 2}): Euler's power step, shared
  with ``PowerSeries.power``, extends u by one coefficient in O(n).

A solve to order N is O(N^2), except for m = 0.  The recursion is exact:
the reported residual is the largest coefficient of
beta z p' - (F - theta(p)) u after the fact, one Cauchy product with the
solve's own u and no series division.  It is the defect of the premise
functional, theta(p) + beta z p'/p^m - F, times u.

Coefficient n of F, c, G and u reads only coefficients below n, so the
solve keeps them in arrays sized once and extends them in place: the
adaptive ``solve_premise`` raises the order 64 -> 128 -> 256 -> 512 by
computing only the new coefficients of the target and of the recursion,
and each order's solution is bit for bit the one a solve to that order
from scratch gives.  ``compose_target`` extends its target series the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .catalog import CATALOG, LemmaId, LemmaParams, premise_region, validate
from .errors import NotAContraction, RecursionBreakdown, TruncationInsufficient
from .regions import SqrtLemniscate, TargetRegion
from .series import PowerSeries, divide_fill, euler_power_step, sqrt_fill

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


def _certify(kind: str, series: PowerSeries) -> SchwarzFunction:
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
    return _certify(f"monomial({m})", PowerSeries(c))


def blaschke_factor(a: complex, order: int = DEFAULTS.series_order) -> SchwarzFunction:
    """w(z) = z (z + a)/(1 + conj(a) z); a = 0 collapses to z^2.

    The geometric tail of the expansion decays like |a|^n, so the order
    is raised automatically until the truncated series itself passes the
    boundary-sup certificate.
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
    return _certify(f"blaschke({a.real:.6g}{a.imag:+.6g}j)", PowerSeries(c))


def scaled_polynomial(coeffs, order: int = DEFAULTS.series_order) -> SchwarzFunction:
    """Polynomial with zero constant term, normalised to boundary sup 1/safety."""
    c = np.asarray(coeffs, dtype=complex)
    if c.size == 0 or abs(c[0]) > 0.0:
        raise NotAContraction("scaled polynomial needs a zero constant term")
    raw = PowerSeries(c, order=max(order, c.size - 1))
    sup = _boundary_sup(raw)
    if sup <= 0.0:
        raise NotAContraction("cannot normalise the zero polynomial")
    return _certify("poly", PowerSeries(raw.coeffs / (sup * _SAFETY)))


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


def _target_fill(region: TargetRegion, w: PowerSeries):
    """q(w) for the region's target function q, as an array sized to w's
    order, and the fill that sets its coefficients lo..hi-1 in place."""
    q = np.zeros(w.order + 1, dtype=complex)
    if isinstance(region, SqrtLemniscate):
        a = (1.0 + w).coeffs
        return q, lambda lo, hi: sqrt_fill(a, q, lo, hi)
    a = (1.0 + region.A * w).coeffs
    b = (1.0 + region.B * w).coeffs
    return q, lambda lo, hi: divide_fill(a, b, q, lo, hi)


def _target_series(region: TargetRegion, w: PowerSeries) -> PowerSeries:
    """Series of q(w) for the region's target function q."""
    q, fill = _target_fill(region, w)
    fill(0, q.size)
    return PowerSeries(q)


def compose_target(region: TargetRegion, w: SchwarzFunction) -> PowerSeries:
    """Series of q(w(z)) for a target region q.

    Because q(w) is exactly subordinate to q, these series exercise the
    subordination checker on functions that approach the target boundary.
    The truncation starts at 1024 and is doubled until the geometric tail
    certificate at the outermost sampling radius passes; near-inner w
    (boundary sup close to 1) pushes the branch point of sqrt(1+w) toward
    the circle, which is why the cap sits well above the generator default.
    Each doubling extends the coefficients already computed.
    """
    top = DEFAULTS.max_order
    q, fill = _target_fill(region, w.series.pad_to(top))
    n = 1024
    fill(0, n + 1)
    while PowerSeries(q[: n + 1]).tail_bound(max(DEFAULTS.radii)) >= DEFAULTS.tail_tol \
            and n < top:
        n, done = min(2 * n, top), n
        fill(done + 1, n + 1)
    return PowerSeries(q[: n + 1])


# --- premise-exact solutions ------------------------------------------------

@dataclass(frozen=True)
class PremiseSolution:
    """p with premise(p) = F(w) coefficientwise up to the truncation order."""

    p: PowerSeries
    residual: float
    order: int
    tail_certified: bool


class _PremiseState:
    """The premise recursion's arrays F, c, G = F - own p and u = p^m,
    sized once and extended in place to a growing order.

    ``solve_to(n)`` computes only the coefficients above the order already
    reached.  Each coefficient reads the same values as in a solve built
    to order n from scratch, so the solution at every order is the same.
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
        self.F, self._fill_target = _target_fill(premise_region(lemma, params),
                                                 w.series.pad_to(size))
        self._fill_target(0, 1)
        self.pivots = self.beta * np.arange(size + 1) + self.own
        self.c = np.zeros(size + 1, dtype=complex)
        self.c[0] = 1.0
        if self.m != 0.0:
            self.G = self.F.copy()           # G = F - own * p, filled as c grows
            self.u, self._extend_power = _growing_power(self.m, self.c)
        self.order = 0

    def solve_to(self, order: int) -> PremiseSolution:
        """The solution at ``order``, extending the one already reached."""
        lo, hi = self.order + 1, order + 1
        F, c = self.F, self.c
        self._fill_target(lo, hi)
        # a diverging solve overflows to inf/nan; its residual reports that
        with np.errstate(over="ignore", invalid="ignore"):
            if self.m == 0.0:
                c[lo:hi] = F[lo:hi] / self.pivots[lo:hi]
                u = None
            else:
                G, u, pivots, own = self.G, self.u, self.pivots, self.own
                G[lo:hi] = F[lo:hi]
                for n in range(lo, hi):
                    c[n] = (F[n] + np.dot(G[1:n], u[n - 1 : 0 : -1])) / pivots[n]
                    G[n] -= own * c[n]
                    self._extend_power(n)
                u = PowerSeries(u[:hi])
            p = PowerSeries(c[:hi])
            residual = _premise_residual(self.beta, p,
                                         PowerSeries(F[:hi]) - (p if self.own else 1.0), u)
        self.order = order
        return PremiseSolution(p, residual, order,
                               p.tail_bound(max(DEFAULTS.radii)) < DEFAULTS.tail_tol)


def solve_premise_ode(lemma: LemmaId, params: LemmaParams, w: SchwarzFunction,
                      order: int = DEFAULTS.series_order) -> PremiseSolution:
    """Coefficient recursion for the premise-exact p at a fixed order."""
    return _PremiseState(lemma, params, w, order).solve_to(order)


def _growing_power(m: float, c: np.ndarray):
    """u = p^m as an array that grows with c, and the step that sets u_n
    once c_n is known; m = 1 shares c itself."""
    if m == 1.0:
        return c, lambda n: None
    u = np.zeros_like(c)
    u[0] = 1.0
    if m == 2.0:
        def extend(n: int) -> None:
            u[n] = 2.0 * c[n] + np.dot(c[1:n], c[n - 1 : 0 : -1])
    else:
        jc = np.zeros_like(c)                # jc_j = j c_j
        ku = np.zeros_like(c)                # ku_k = k u_k

        def extend(n: int) -> None:
            jc[n] = n * c[n]
            euler_power_step(m, c, jc, u, ku, n)
    return u, extend


def _premise_residual(beta: float, p: PowerSeries, G: PowerSeries,
                      u: PowerSeries | None) -> float:
    """Max coefficient of beta z p' - G u, with G = F - theta(p) and the
    solve's u = p^m (None for m = 0, where u = 1)."""
    return (beta * p.zderiv() - (G if u is None else G * u)).max_abs_coeff()


def solve_premise(lemma: LemmaId, params: LemmaParams, w: SchwarzFunction,
                  order: int | None = None) -> PremiseSolution:
    """Adaptive-order solve: double N while the tail fails, capped.

    The tail certificate at the outermost sampling radius often is not
    attainable within the cap for targets with circle singularities, in
    which case the solution at the cap is returned with
    ``tail_certified=False``.  The residual is met by construction unless
    the recursion diverges.  Each doubling extends one solve, computing
    only the new coefficients: a higher order repeats the first N
    coefficients bit for bit, so its residual can only be larger, and the
    first order whose residual fails raises.
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
