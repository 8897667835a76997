"""The catalog of eleven differential-subordination implications.

Each entry states an implication of the form

    premise(p)  subordinate to  premise target   =>   p subordinate to  conclusion target

together with the closed-form condition on beta under which it holds.
The table below fixes the notation used across the package; kappa
abbreviates (k+1)/2.

    id   premise functional        premise target      conclusion target
    L1   1 + b z p'/p^k            (1+Az)/(1+Bz)       sqrt(1+z)      (-1<k<=3, -1<B<A<=1)
    L2   1 + b z p'                sqrt(1+z)           (1+Az)/(1+Bz)
    L3   1 + b z p'/p              sqrt(1+z)           (1+Az)/(1+Bz)
    L4   1 + b z p'/p^2            sqrt(1+z)           (1+Az)/(1+Bz)
    L5   p + b z p'                sqrt(1+z)           sqrt(1+z)      (b>0)
    L6   p + b z p'/p              sqrt(1+z)           sqrt(1+z)      (b>0)
    L7   p + b z p'/p^2            sqrt(1+z)           sqrt(1+z)      (b>0)
    L8   p + b z p'/p              sqrt(1+z)           (1+Az)/(1+Bz)  (b>0, two conditions)
    L9   1 + b z p'                (1+Dz)/(1+Ez)       (1+Az)/(1+Bz)
    L10  1 + b z p'/p              (1+Dz)/(1+Ez)       (1+Az)/(1+Bz)
    L11  1 + b z p'/p^2            (1+Dz)/(1+Ez)       (1+Az)/(1+Bz)

For every entry, h denotes the dominant curve of the superordination
step (the premise functional evaluated on the conclusion target q) and
Q its derivative piece:

    L1   h = 1 + b z / (2 (1+z)^kappa)                 Q = h - 1
    L2,L9   h = 1 + b (A-B) z / (1+Bz)^2               Q = h - 1
    L3,L10  h = 1 + b (A-B) z / ((1+Az)(1+Bz))         Q = h - 1
    L4,L11  h = 1 + b (A-B) z / (1+Az)^2               Q = h - 1
    L5   h = sqrt(1+z) + b z / (2 sqrt(1+z))           Q = h - q
    L6   h = sqrt(1+z) + b z / (2 (1+z))               Q = h - q
    L7   h = sqrt(1+z) + b z / (2 (1+z)^{3/2})         Q = h - q
    L8   h = (1+Az)/(1+Bz) + b (A-B) z / ((1+Az)(1+Bz))  Q = h - q

Hypothesis inequalities, as stated:

    L1   |b| >= 2^{(k+3)/2} (A-B) + |B b|
    L2   (A-B) b >= sqrt(2) (1+|B|)^2 + (1-B)^2
    L3   (A-B) b >= (sqrt(2)-1) (1+|A|)(1+|B|)
    L4   (A-B) b >= (sqrt(2)-1) (1+|A|)^2 + (1-A)^2
    L5-L7  any b > 0
    L8   (A-B) b >= sqrt(2)(1+|A|)(1+|B|) + |A|^2 - 1   and
         1/b >= max(0, (A-B)/((1+|A|)(1+|B|)) - (1-|B|)/(1+|B|))
    L9   b(A-B) >= (D-E)(1+B^2)  + |2B(D-E)  - E b (A-B)|
    L10  b(A-B) >= (D-E)(1+|AB|) + |(A+B)(D-E) - E b (A-B)|
    L11  |b|(A-B) >= (D-E)(1+A^2) + |2A(D-E) - E b (A-B)|

Each is written once, in ``closed_form_threshold``, which solves it for
b into the feasible set: closed b-intervals of either sign.  The
implicit forms (L1 through |B b|, L9-L11 through the |c - E x| term, L8
through its cap) resolve exactly by piecewise-linear analysis.  L1 and
L11 are stated through |b| and so also hold at negative b; for L11,
E b keeps its sign, so the negative side has its own end.  The
threshold beta* (the minimal b > 0 in the set) and the status are read
from the set, and ``feasibility_check`` tests whether beta lies in it.
The test suite cross-checks the solve against a bisection oracle and
against the inequalities evaluated as written.

Each ``CatalogRow`` holds a rule's target kinds, style and exponent m
(0, 1, 2, or "k"), from which its statement text, parameters and target
regions are derived, and the route its proof takes
(``margin_criterion``, ``verdict_quantities``).

The code derives the table of h and Q from each row's style, exponent m
and targets: every rule reads theta(p) + b z p'/p^m < premise target
=> p < q with theta(p) = 1 (affine) or p (convective), so h = theta(q) + Q
with Q = z q' phi(q), phi(q) = b q^{-m} (Miller & Mocanu, Differential
Subordinations, 2000, section 3.4), and q, Q are products of (1 + c z)^e:

    sqrt(1+z):      q = (1+z)^{1/2}         Q = b (1/2) z (1+z)^{-(m+1)/2}
    (1+Az)/(1+Bz):  q = (1+Az) (1+Bz)^{-1}  Q = b (A-B) z (1+Az)^{-m} (1+Bz)^{m-2}

Hence z Q'/Q = 1 + sum e c z/(1 + c z), z h'/Q = z Q'/Q (+ q^m/b if h = q + Q),
and h or Q is singular at -1/c for each factor of negative or fractional e.
``admissibility_slope`` reads from the same factors the slope of each
admissibility quantity along |z| = r, in x = cos t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .config import DEFAULTS
from .errors import InvalidParameters, SingularPoint
from .regions import Janowski, SqrtLemniscate, TargetRegion

SQRT2 = math.sqrt(2.0)

_OPEN_BOUND_TOL = 1e-9   # open interval ends are enforced with this slack
_SING_TOL = 1e-13
_BETA_MAX = 1e100        # larger beta overflows the squared margins


class LemmaId(str, Enum):
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"
    L4 = "L4"
    L5 = "L5"
    L6 = "L6"
    L7 = "L7"
    L8 = "L8"
    L9 = "L9"
    L10 = "L10"
    L11 = "L11"


@dataclass(frozen=True)
class LemmaParams:
    """Parameter bundle; each field is used only where the lemma requires it."""

    A: Optional[float] = None
    B: Optional[float] = None
    D: Optional[float] = None
    E: Optional[float] = None
    k: Optional[float] = None
    beta: Optional[float] = None

    def with_beta(self, beta: float) -> "LemmaParams":
        return replace(self, beta=beta)


class ThresholdStatus(Enum):
    FEASIBLE = "Feasible"
    ALWAYS_FEASIBLE = "AlwaysFeasible"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class ThresholdResult:
    feasible: tuple     # closed intervals (lo, hi) of beta, ends may be +-inf
    binding_constraint: str

    @property
    def beta_star(self) -> Optional[float]:
        """The least beta > 0 of the set; None when every beta > 0 or none qualifies."""
        ends = [lo for lo, hi in self.feasible if hi > 0.0]
        return min(ends) if ends and min(ends) > 0.0 else None

    @property
    def status(self) -> ThresholdStatus:
        if self.beta_star is not None:
            return ThresholdStatus.FEASIBLE
        if any(hi > 0.0 for _, hi in self.feasible):
            return ThresholdStatus.ALWAYS_FEASIBLE
        return ThresholdStatus.INFEASIBLE


class AdmissibilityQuantity(str, Enum):
    RE_ZQP_OVER_Q = "ReZQprimeOverQ"   # starlikeness of Q
    RE_ZHP_OVER_Q = "ReZHprimeOverQ"   # second Miller-Mocanu condition
    RE_PHI_OF_Q = "RePhiOfQ"           # positivity of phi on q(D)


# formula text and parameters of each target kind
_TARGETS = {
    "sqrt": ("sqrt(1+z)", ""),
    "janowski_AB": ("(1+Az)/(1+Bz)", "AB"),
    "janowski_DE": ("(1+Dz)/(1+Ez)", "DE"),
}


@dataclass(frozen=True)
class CatalogRow:
    premise_kind: str        # "sqrt" | "janowski_AB" | "janowski_DE"
    conclusion_kind: str     # "sqrt" | "janowski_AB"
    ode_style: str           # "affine" (1 + b z p'/p^m) | "convective" (p + b z p'/p^m)
    exponent: int | str      # m: 0, 1, 2, or "k" for the parameter k
    margin_criterion: bool
    verdict_quantities: tuple

    def ode_exponent(self, params: LemmaParams) -> float:
        return float(params.k if self.exponent == "k" else self.exponent)

    @property
    def statement(self) -> str:
        theta = "1" if self.ode_style == "affine" else "p"
        power = {0: "", 1: "/p"}.get(self.exponent, f"/p^{self.exponent}")
        return (f"{theta} + b*z*p'{power} < {_TARGETS[self.premise_kind][0]}"
                f"  =>  p < {_TARGETS[self.conclusion_kind][0]}")

    @property
    def uses(self) -> frozenset:
        names = _TARGETS[self.premise_kind][1] + _TARGETS[self.conclusion_kind][1]
        return frozenset(names + ("k" if self.exponent == "k" else "")) | {"beta"}


_ZQ = AdmissibilityQuantity.RE_ZQP_OVER_Q
_ZH = AdmissibilityQuantity.RE_ZHP_OVER_Q
_PHI = AdmissibilityQuantity.RE_PHI_OF_Q

CATALOG = {
    LemmaId.L1: CatalogRow("janowski_AB", "sqrt", "affine", "k", True, (_ZQ,)),
    LemmaId.L2: CatalogRow("sqrt", "janowski_AB", "affine", 0, True, (_ZQ,)),
    LemmaId.L3: CatalogRow("sqrt", "janowski_AB", "affine", 1, True, (_ZQ,)),
    LemmaId.L4: CatalogRow("sqrt", "janowski_AB", "affine", 2, True, (_ZQ,)),
    LemmaId.L5: CatalogRow("sqrt", "sqrt", "convective", 0, False, (_ZQ, _PHI)),
    LemmaId.L6: CatalogRow("sqrt", "sqrt", "convective", 1, False, (_ZQ, _PHI)),
    LemmaId.L7: CatalogRow("sqrt", "sqrt", "convective", 2, False, (_ZQ, _PHI)),
    LemmaId.L8: CatalogRow("sqrt", "janowski_AB", "convective", 1, True, (_ZQ, _ZH)),
    LemmaId.L9: CatalogRow("janowski_DE", "janowski_AB", "affine", 0, True, (_ZQ,)),
    LemmaId.L10: CatalogRow("janowski_DE", "janowski_AB", "affine", 1, True, (_ZQ,)),
    LemmaId.L11: CatalogRow("janowski_DE", "janowski_AB", "affine", 2, True, (_ZQ,)),
}


# --- validation ---

def validation_errors(lemma: LemmaId, params: LemmaParams,
                      require_beta: bool = True) -> list:
    """All domain violations at once; empty list means valid."""
    row = CATALOG[lemma]
    errs = []
    need = set(row.uses)
    if not require_beta:
        need.discard("beta")
    for name in sorted(need):
        if getattr(params, name) is None:
            errs.append(f"{lemma.value} requires parameter {name}")
    if errs:
        return errs

    for name in sorted(need):
        if not math.isfinite(getattr(params, name)):
            errs.append(f"{lemma.value} needs a finite {name}, "
                        f"got {name}={getattr(params, name)}")

    A, B, D, E, k, beta = (params.A, params.B, params.D, params.E,
                           params.k, params.beta)
    if "A" in row.uses:
        if lemma is LemmaId.L1:
            # strict lower bound on B, enforced with the open-interval slack
            if not (B > -1.0 + _OPEN_BOUND_TOL):
                errs.append(f"L1 needs -1 < B, got B={B}")
            if not (B < A <= 1.0):
                errs.append(f"L1 needs B < A <= 1, got A={A}, B={B}")
        else:
            if not (-1.0 <= B < A <= 1.0):
                errs.append(f"{lemma.value} needs -1 <= B < A <= 1, got A={A}, B={B}")
    if "D" in row.uses:
        if not (-1.0 <= E < D <= 1.0):
            errs.append(f"{lemma.value} needs -1 <= E < D <= 1, got D={D}, E={E}")
    if "k" in row.uses:
        if not (-1.0 + _OPEN_BOUND_TOL < k <= 3.0):
            errs.append(f"L1 needs -1 < k <= 3, got k={k}")
    if require_beta and beta is not None:
        if row.ode_style == "convective":
            if not beta > 0.0:
                errs.append(f"{lemma.value} needs beta > 0, got beta={beta}")
        elif beta == 0.0:
            errs.append(f"{lemma.value} needs beta != 0")
        if math.isfinite(beta) and abs(beta) > _BETA_MAX:
            errs.append(f"{lemma.value} needs |beta| <= {_BETA_MAX:g}, "
                        f"got beta={beta}")
    return errs


def validate(lemma: LemmaId, params: LemmaParams, require_beta: bool = True) -> None:
    errs = validation_errors(lemma, params, require_beta)
    if errs:
        raise InvalidParameters(errs)


# --- regions ---

def _region(kind: str, params: LemmaParams) -> TargetRegion:
    names = _TARGETS[kind][1]
    if not names:
        return SqrtLemniscate()
    return Janowski(*(getattr(params, name) for name in names))


def premise_region(lemma: LemmaId, params: LemmaParams) -> TargetRegion:
    return _region(CATALOG[lemma].premise_kind, params)


def conclusion_region(lemma: LemmaId, params: LemmaParams) -> TargetRegion:
    return _region(CATALOG[lemma].conclusion_kind, params)


# --- closed-form thresholds ---

def _solve_linear_abs(P: float, c: float, E: float) -> Optional[float]:
    """Minimal x > 0 with x - |c - E*x| >= P, or None when none exists.

    g(x) = x - |c - E*x| is continuous, piecewise linear and nondecreasing
    for |E| <= 1, so the minimal solution is the smallest root of g = P.
    A candidate root is accepted up to rounding: g(x) cancels two terms of
    size about |x|, so the slack scales with |x| as well as with |P|.
    """
    def g(x: float) -> float:
        return x - abs(c - E * x)

    candidates = []
    if 1.0 + E != 0.0:
        candidates.append((P + c) / (1.0 + E))
    if 1.0 - E != 0.0:
        candidates.append((P - c) / (1.0 - E))
    if E != 0.0:
        candidates.append(c / E)          # kink of |c - E*x|
    best = None
    for x in candidates:
        if x > 0.0 and g(x) >= P - 1e-12 * max(1.0, abs(P), x):
            if best is None or x < best:
                best = x
    return best


def closed_form_threshold(lemma: LemmaId, params: LemmaParams) -> ThresholdResult:
    """The lemma's hypothesis inequality, solved for beta.

    ``feasible`` is the whole set of beta, of either sign, on which the
    inequality holds; ``beta_star`` and ``status`` are read from it.  They
    and ``binding_constraint`` concern beta > 0 only; L1 and L11 are
    stated through |beta| and also hold at negative beta.
    """
    validate(lemma, params, require_beta=False)
    A, B, D, E, k = params.A, params.B, params.D, params.E, params.k
    inf = math.inf

    if lemma is LemmaId.L1:
        # |beta| (1 - |B|) >= 2^{(k+3)/2} (A - B); -1 < B < 1 on the valid domain
        beta = 2.0 ** ((k + 3.0) / 2.0) * (A - B) / (1.0 - abs(B))
        return ThresholdResult(((-inf, -beta), (beta, inf)),
                               "beta*(1-|B|) = 2^((k+3)/2)*(A-B)")

    if lemma is LemmaId.L2:
        beta = (SQRT2 * (1.0 + abs(B)) ** 2 + (1.0 - B) ** 2) / (A - B)
        return ThresholdResult(((beta, inf),),
                               "(A-B)*beta = sqrt(2)*(1+|B|)^2 + (1-B)^2")

    if lemma is LemmaId.L3:
        beta = (SQRT2 - 1.0) * (1.0 + abs(A)) * (1.0 + abs(B)) / (A - B)
        return ThresholdResult(((beta, inf),),
                               "(A-B)*beta = (sqrt(2)-1)*(1+|A|)*(1+|B|)")

    if lemma is LemmaId.L4:
        beta = ((SQRT2 - 1.0) * (1.0 + abs(A)) ** 2 + (1.0 - A) ** 2) / (A - B)
        return ThresholdResult(((beta, inf),),
                               "(A-B)*beta = (sqrt(2)-1)*(1+|A|)^2 + (1-A)^2")

    if lemma in (LemmaId.L5, LemmaId.L6, LemmaId.L7):
        return ThresholdResult(((0.0, inf),), "any beta > 0")

    if lemma is LemmaId.L8:
        # (A-B) beta >= (A-B) c1, and 1/beta >= cap_rate
        c1 = (SQRT2 * (1.0 + abs(A)) * (1.0 + abs(B)) + abs(A) ** 2 - 1.0) / (A - B)
        cap_rate = max(0.0, (A - B) / ((1.0 + abs(A)) * (1.0 + abs(B)))
                       - (1.0 - abs(B)) / (1.0 + abs(B)))
        cap = 1.0 / cap_rate if cap_rate > 0.0 else inf
        if c1 > cap:
            return ThresholdResult((), f"condition 1 needs beta >= {c1:.6g} but "
                                       f"condition 2 caps beta <= {cap:.6g}")
        return ThresholdResult(((c1, cap),),
                               "(A-B)*beta = sqrt(2)*(1+|A|)*(1+|B|) + |A|^2 - 1")

    # L9-L11: x - |c - E*x| >= P with x = beta*(A-B); L11 reads |x| - |c - E*x|,
    # so x = -y < 0 qualifies when y - |-c - E*y| >= P
    P, c = _affine_bound_terms(lemma, params)
    feasible = []
    if lemma is LemmaId.L11:
        y = _solve_linear_abs(P, -c, E)
        if y is not None:
            feasible.append((-inf, -y / (A - B)))
    x = _solve_linear_abs(P, c, E)
    if x is None:
        return ThresholdResult(tuple(feasible),
                               f"x - |{c:.6g} - E*x| >= {P:.6g} has no solution")
    feasible.append((x / (A - B), inf))
    return ThresholdResult(tuple(feasible),
                           f"beta*(A-B) - |{c:.6g} - E*beta*(A-B)| = {P:.6g}")


def _affine_bound_terms(lemma: LemmaId, params: LemmaParams):
    """Constant and kink terms of the L9-L11 hypothesis inequalities."""
    A, B, D, E = params.A, params.B, params.D, params.E
    if lemma is LemmaId.L9:
        return (D - E) * (1.0 + B * B), 2.0 * B * (D - E)
    if lemma is LemmaId.L10:
        return (D - E) * (1.0 + abs(A * B)), (A + B) * (D - E)
    if lemma is LemmaId.L11:
        return (D - E) * (1.0 + A * A), 2.0 * A * (D - E)
    raise ValueError(f"{lemma} has no affine bound terms")


def feasibility_check(lemma: LemmaId, params: LemmaParams) -> bool:
    """Whether beta lies in the feasible set of ``closed_form_threshold``.

    Each interval end carries a small relative slack so that beta exactly
    at the closed-form threshold tests as feasible despite rounding.
    """
    validate(lemma, params)
    slack = DEFAULTS.feasibility_slack
    return any(lo - slack * max(1.0, abs(lo)) <= params.beta
               <= hi + slack * max(1.0, abs(hi))
               for lo, hi in closed_form_threshold(lemma, params).feasible)


# --- dominant curves: h, Q and friends (derivation in the module docstring) ---

class _Curve(NamedTuple):
    convective: bool    # h = q + Q, else h = 1 + Q
    sqrt: bool          # q = sqrt(1+z), else q = (1+Az)/(1+Bz)
    m: float
    q: tuple            # factors (c, e) of q
    scale: float        # Q = beta * scale * z * prod over `factors`
    factors: tuple      # factors (c, e) of Q; zero ones are skipped


def _curve(lemma: LemmaId, params: LemmaParams) -> _Curve:
    row = CATALOG[lemma]
    m = row.ode_exponent(params)
    convective = row.ode_style == "convective"
    if row.conclusion_kind == "sqrt":
        return _Curve(convective, True, m, ((1.0, 0.5),), 0.5,
                      ((1.0, -(m + 1.0) / 2.0),))
    A, B = params.A, params.B
    return _Curve(convective, False, m, ((A, 1.0), (B, -1.0)), A - B,
                  ((A, -m), (B, m - 2.0)))


def _on_circle(t: np.ndarray, r: float) -> tuple:
    """Points z = r e^{it}, and t itself when r = 1 (for the half-angle forms)."""
    return (np.exp(1j * t), t) if r == 1.0 else (r * np.exp(1j * t), None)


def _power(c: float, e: float, z, t):
    """(1 + c z)^e: a plain product for integer e > 0, else the principal power.

    On the unit circle (t given) 1 +- z come from half-angle products, so
    real parts constant along the circle are exact to rounding.
    """
    if t is not None and c == 1.0 and not e.is_integer():
        return (2.0 * np.cos(t / 2.0)) ** e * np.exp(1j * e * t / 2.0)
    if t is not None and abs(c) == 1.0:
        chord = 2.0 * np.cos(t / 2.0) if c == 1.0 else -2.0j * np.sin(t / 2.0)
        f = chord * np.exp(0.5j * t)
    else:
        f = 1.0 + c * z
    if not e.is_integer():
        return np.exp(e * np.log(f))
    return f if e == 1.0 else f ** int(e)


def _product(scale, factors, z, t):
    """scale * prod (1 + c z)^e; negative integer powers form one quotient."""
    den = None
    for c, e in factors:
        if c == 0.0 or e == 0.0:
            continue
        if e > 0.0 or not e.is_integer():
            scale = scale * _power(c, e, z, t)
        else:
            f = _power(c, -e, z, t)
            den = f if den is None else den * f
    return scale if den is None else scale / den


def _dominant_Q(curve: _Curve, beta: float, z, t):
    return _product(beta * curve.scale * z, curve.factors, z, t)


def _h_minus_one(lemma: LemmaId, params: LemmaParams, z, t):
    curve = _curve(lemma, params)
    Q = _dominant_Q(curve, params.beta, z, t)
    if not curve.convective:
        return Q
    if curve.sqrt:
        return (_power(1.0, 0.5, z, t) - 1.0) + Q
    return curve.scale * z / _power(params.B, 1.0, z, t) + Q   # q - 1 = (A-B)z/(1+Bz)


def _regular_points(lemma: LemmaId, params: LemmaParams, z) -> np.ndarray:
    """z as a complex array; raises when it meets a pole or branch point."""
    z = np.asarray(z, dtype=complex)
    for s in singular_points(lemma, params):
        if np.any(np.abs(z - s) < _SING_TOL * abs(s)):   # |1 + c z| < tol
            raise SingularPoint(f"pole or branch point at z = {s!r} on the evaluation set")
    return z


def h_minus_one_at(lemma: LemmaId, params: LemmaParams, z):
    """h(z) - 1, vectorised over arbitrary points of the closed disk."""
    return _h_minus_one(lemma, params, _regular_points(lemma, params, z), None)


def h_minus_one_on_circle(lemma: LemmaId, params: LemmaParams,
                          t: np.ndarray) -> np.ndarray:
    """h(e^{it}) - 1, vectorised and numerically stable near singular angles."""
    return _h_minus_one(lemma, params, np.exp(1j * t), t)


def h_minus_one_sizes(lemma: LemmaId, params: LemmaParams) -> tuple:
    """Sizes of a and b in h - 1 = a + beta b, up to the factors (1 + c z)^e:
    a = theta(q) - 1 (0 for affine rules, of size |A - B| for a Mobius q)
    and b = Q/beta, whose constant is the curve's scale."""
    curve = _curve(lemma, params)
    a = 0.0
    if curve.convective:
        a = 1.0 if curve.sqrt else abs(params.A - params.B)
    return a, abs(curve.scale)


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


def margin_on_circle(lemma: LemmaId, params: LemmaParams,
                     t: np.ndarray) -> np.ndarray:
    """|inverse(h(e^{it}))| through the premise region's inverse map."""
    hm1 = h_minus_one_on_circle(lemma, params, t)
    region = premise_region(lemma, params)
    if isinstance(region, SqrtLemniscate):
        # |h^2 - 1| = |h - 1| * |h + 1|
        return np.abs(hm1) * np.abs(2.0 + hm1)
    X, Y = region.A, region.B
    with np.errstate(divide="ignore"):
        return np.abs(hm1) / np.abs((X - Y) - Y * hm1)


def singular_points(lemma: LemmaId, params: LemmaParams) -> tuple:
    """Finite points where h or Q has a pole or branch point.

    These are the points -1/c of the factors of Q, and of q when h = q + Q,
    whose exponent is negative or fractional.
    """
    curve = _curve(lemma, params)
    out = []
    for c, e in curve.factors + (curve.q if curve.convective else ()):
        if c != 0.0 and (e < 0.0 or not e.is_integer()) and -1.0 / c not in out:
            out.append(-1.0 / c)
    return tuple(out)


def singular_angles(lemma: LemmaId, params: LemmaParams) -> tuple:
    """Angles t where h has a pole or branch point on the unit circle."""
    return tuple(sorted({math.atan2(0.0, s) for s in singular_points(lemma, params)
                         if abs(s) == 1.0}))


# --- admissibility quantities ---------------------------------------------

def _zq_over_q(curve: _Curve, z, t):
    """z Q'/Q = 1 + sum_i e_i c_i z/(1 + c_i z), t given on the unit circle.

    There one factor with |c| = 1 has c z/(1 + c z) = (1 + i tan(t/2))/2
    or (1 - i cot(t/2))/2, real part exactly 1/2.  Otherwise the sum is
    (1 + a1 z + a2 z^2)/prod(1 + c_i z), a1 = sum c_i (1 + e_i),
    a2 = c1 c2 (1 + e1 + e2), which does not cancel near |c_i| = 1.
    """
    factors = [(c, e) for c, e in curve.factors if c != 0.0 and e != 0.0]
    if not factors:
        return np.ones_like(z)
    c1, e1 = factors[0]
    if t is not None and len(factors) == 1 and abs(c1) == 1.0:
        half = 0.5j * np.tan(t / 2.0) if c1 == 1.0 else -0.5j / np.tan(t / 2.0)
        return 1.0 + e1 * (0.5 + half)
    num = c1 * (1.0 + e1)
    den = _power(c1, 1.0, z, t)
    if len(factors) == 2:
        c2, e2 = factors[1]
        num = num + c2 * (1.0 + e2) + c1 * c2 * (1.0 + e1 + e2) * z
        den = den * _power(c2, 1.0, z, t)
    return (1.0 + num * z) / den


def zqprime_over_q_circle(lemma: LemmaId, params: LemmaParams,
                          t: np.ndarray, r: float) -> np.ndarray:
    """z Q'(z)/Q(z) on |z| = r."""
    return _zq_over_q(_curve(lemma, params), *_on_circle(t, r))


def zhprime_over_q_circle(lemma: LemmaId, params: LemmaParams,
                          t: np.ndarray, r: float) -> np.ndarray:
    """z h'(z)/Q(z); equals z Q'/Q plus z q'/Q = q^m/beta when h = q + Q."""
    curve = _curve(lemma, params)
    z, tc = _on_circle(t, r)
    base = _zq_over_q(curve, z, tc)
    if not curve.convective:
        return base   # h = 1 + Q
    qm = [(c, curve.m * e) for c, e in curve.q]
    return _product(1.0, qm, z, tc) / params.beta + base


def phi_of_q_circle(lemma: LemmaId, params: LemmaParams,
                    t: np.ndarray, r: float) -> np.ndarray:
    """phi(q(z)) = beta q(z)^{-m} on |z| = r."""
    curve = _curve(lemma, params)
    return _product(np.full(t.shape, params.beta, dtype=complex),
                    [(c, -curve.m * e) for c, e in curve.q], *_on_circle(t, r))


ADMISSIBILITY_EVALUATORS = {
    AdmissibilityQuantity.RE_ZQP_OVER_Q: zqprime_over_q_circle,
    AdmissibilityQuantity.RE_ZHP_OVER_Q: zhprime_over_q_circle,
    AdmissibilityQuantity.RE_PHI_OF_Q: phi_of_q_circle,
}


# --- slopes of the admissibility quantities along the circle ---------------
#
# On |z| = r write x = cos t.  A factor (1 + c z) contributes, with s = c r,
#     R(s, x) = Re(s e^{it}/(1 + s e^{it})) = (s x + s^2)/(1 + 2 s x + s^2),
#     dR/dx   = s (1 - s^2)/(1 + 2 s x + s^2)^2,
# so w R(s, x) has the slope term (k, s) = (w s (1 - s^2), s), read as
# k/(1 + 2 s x + s^2)^2; a constant slope k is the term (k, 0).

def _mobius_slope(scale: float, factors, r: float) -> Optional[tuple]:
    """Slope term of Re(scale (1 + a z)/(1 + b z)) on |z| = r, or None.

    scale (1 + a z)/(1 + b z) = scale + scale ((a - b)/b) R(b r, x), so the
    term is (scale (a - b) r (1 - s^2), s) with s = b r; b = 0 leaves the
    constant slope scale a r.  None when the product has another shape.
    """
    a = b = 0.0
    for c, e in factors:
        if c == 0.0 or e == 0.0:
            continue
        if e == 1.0 and a == 0.0:
            a = c
        elif e == -1.0 and b == 0.0:
            b = c
        else:
            return None
    s = b * r
    return scale * (a - b) * r * (1.0 - s * s), s


def admissibility_slope(lemma: LemmaId, params: LemmaParams,
                        quantity: AdmissibilityQuantity, r: float) -> tuple:
    """Terms (k, s) such that d/dx Re quantity(r e^{it}) has the sign of
    sum k/(1 + 2 s x + s^2)^2, x = cos t; zero terms are dropped.

    Re z Q'/Q = 1 + sum e R(c r, x) over the factors (c, e) of Q, for any
    real e.  When h = q + Q, z h'/Q adds q^m/beta, which must be Mobius
    (L8: q/beta).  phi(q) = beta q^{-m} is Mobius, or a lone power
    (1 + w)^e, w = c z, with |e| <= 1, whose real part is monotone in x
    with the sign of e c: for c > 0 its t-derivative is
    -e |w (1+w)^{e-1}| sin(t + (e-1) arg(1+w)), and on [0, pi]
    0 <= arg(1+w) <= t/2 when c r <= 1.  Raises ValueError for a quantity
    of any other shape.
    """
    curve = _curve(lemma, params)
    terms = [(e * c * r * (1.0 - (c * r) ** 2), c * r) for c, e in curve.factors]
    if quantity is _PHI:
        power = [(c, -curve.m * e) for c, e in curve.q]
        term = _mobius_slope(params.beta, power, r)
        if term is None and len(power) == 1 and abs(power[0][1]) <= 1.0:
            term = (power[0][1] * power[0][0], 0.0)
        terms = [term]
    elif quantity is _ZH and curve.convective:
        terms.append(_mobius_slope(1.0 / params.beta,
                                   [(c, curve.m * e) for c, e in curve.q], r))
    if None in terms:
        raise ValueError(f"{lemma.value}/{quantity.value} has no closed-form "
                         "slope on the circle")
    merged = {}
    for k, s in terms:
        merged[s] = merged.get(s, 0.0) + k
    return tuple((k, s) for s, k in merged.items() if k != 0.0)
