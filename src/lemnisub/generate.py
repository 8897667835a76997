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
and u = p^m.  Euler's power step extends u by one coefficient in O(n),
so a full solve is O(N^2).  The recursion is exact: the reported
residual is the largest coefficient of (premise functional - F(w)) after
the fact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .catalog import CATALOG, LemmaId, LemmaParams, premise_region, validate
from .errors import NotAContraction, RecursionBreakdown, TruncationInsufficient
from .regions import SqrtLemniscate, TargetRegion
from .series import PowerSeries, euler_power_step

_SUP_SAMPLES = 4096
_SUP_TOL = 1e-12
_SAFETY = 1.0000001
_POLY_DEGREE = 8           # degree of the random polynomial family
_TARGET_MAX_ORDER = 16384  # cap of compose_target's doubling


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


def _target_series(region: TargetRegion, w: PowerSeries) -> PowerSeries:
    """Series of q(w) for the region's target function q."""
    if isinstance(region, SqrtLemniscate):
        return (1.0 + w).sqrt()
    return (1.0 + region.A * w) / (1.0 + region.B * w)


def compose_target(region: TargetRegion, w: SchwarzFunction) -> PowerSeries:
    """Series of q(w(z)) for a target region q.

    Because q(w) is exactly subordinate to q, these series exercise the
    subordination checker on functions that approach the target boundary.
    The truncation starts at 1024 and is doubled until the geometric tail
    certificate at the outermost sampling radius passes; near-inner w
    (boundary sup close to 1) pushes the branch point of sqrt(1+w) toward
    the circle, which is why the cap sits well above the generator default.
    """
    def build(n: int) -> PowerSeries:
        return _target_series(region, w.series.pad_to(n))

    n = 1024
    p = build(n)
    while p.tail_bound(max(DEFAULTS.radii)) >= DEFAULTS.tail_tol \
            and n < _TARGET_MAX_ORDER:
        n = min(2 * n, _TARGET_MAX_ORDER)
        p = build(n)
    return p


# --- premise-exact solutions ------------------------------------------------

@dataclass(frozen=True)
class PremiseSolution:
    """p with premise(p) = F(w) coefficientwise up to the truncation order."""

    p: PowerSeries
    residual: float
    order: int
    tail_certified: bool


def solve_premise_ode(lemma: LemmaId, params: LemmaParams, w: SchwarzFunction,
                      order: int = DEFAULTS.series_order) -> PremiseSolution:
    """Coefficient recursion for the premise-exact p at a fixed order."""
    validate(lemma, params)
    row = CATALOG[lemma]
    beta = params.beta
    m = row.ode_exponent(params)
    own = 1.0 if row.ode_style == "convective" else 0.0
    # the smallest pivot is |beta| for affine rules; convective ones exceed 1
    if not own and abs(beta) < 1e-14:
        raise RecursionBreakdown("vanishing pivot beta*n at n=1")
    F = _target_series(premise_region(lemma, params), w.series.pad_to(order)).coeffs

    c = np.zeros(order + 1, dtype=complex)
    u = np.zeros(order + 1, dtype=complex)   # u = p^m
    c[0] = 1.0
    u[0] = 1.0
    G = F.copy()                             # G = F - own * p, filled as c grows
    # a diverging solve overflows to inf/nan; its residual reports that
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, order + 1):
            c[n] = (F[n] + np.dot(G[1:n], u[n - 1 : 0 : -1])) / (beta * n + own)
            G[n] -= own * c[n]
            if m != 0.0:
                u[n] = euler_power_step(m, c, u, n)
        p = PowerSeries(c)
        residual = _premise_residual(lemma, params, p, PowerSeries(F),
                                     PowerSeries(u) if m != 0.0 else None)
    return PremiseSolution(p, residual, order,
                           p.tail_bound(max(DEFAULTS.radii)) < DEFAULTS.tail_tol)


def _premise_residual(lemma: LemmaId, params: LemmaParams, p: PowerSeries,
                      F: PowerSeries, u: PowerSeries | None) -> float:
    """Max coefficient of (premise functional applied to p) - F, given u = p^m."""
    ratio = p.zderiv()
    if u is not None:
        ratio = ratio / u
    lhs = params.beta * ratio + (p if CATALOG[lemma].ode_style == "convective" else 1.0)
    return (lhs - F).max_abs_coeff()


def solve_premise(lemma: LemmaId, params: LemmaParams, w: SchwarzFunction,
                  order: int | None = None) -> PremiseSolution:
    """Adaptive-order solve: double N while the tail fails, capped.

    The tail certificate at the outermost sampling radius often is not
    attainable within the cap for targets with circle singularities, in
    which case the solution at the cap is returned with
    ``tail_certified=False``.  The residual is met by construction unless
    the recursion diverges.  A higher order repeats the first N
    coefficients bit for bit, so its residual can only be larger: the
    first order whose residual fails raises.
    """
    n = DEFAULTS.series_order if order is None else order
    cap = DEFAULTS.max_series_order
    sol = solve_premise_ode(lemma, params, w, n)
    # "not <=" so that a NaN residual fails too
    while order is None and n < cap and \
            sol.residual <= DEFAULTS.residual_tol and not sol.tail_certified:
        n = min(2 * n, cap)
        sol = solve_premise_ode(lemma, params, w, n)
    if not sol.residual <= DEFAULTS.residual_tol:
        raise TruncationInsufficient(f"premise residual {sol.residual} at order {n}")
    return sol
