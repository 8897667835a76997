"""Reference mathematics for the benchmark's output checks.

Everything here is transcribed from the module docstrings of
``lemnisub.catalog``, ``lemnisub.regions`` and ``lemnisub.generate`` and
written in plain complex arithmetic: no half-angle forms, no program code.
The checks in ``checks.py`` compare the program's outputs against these
functions, so a fault shared by the program and its own tests still shows.

Parameters travel as plain dicts with the keys ``A``, ``B``, ``D``, ``E``,
``k`` and ``beta``; a rule reads only the keys it uses.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)

RULES = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L11")
MARGIN_RULES = ("L1", "L2", "L3", "L4", "L8", "L9", "L10", "L11")
USES = {"L1": "ABk", "L2": "AB", "L3": "AB", "L4": "AB", "L5": "", "L6": "",
        "L7": "", "L8": "AB", "L9": "ABDE", "L10": "ABDE", "L11": "ABDE"}

# exponent m of p^m in the premise functional, and its style:
# "affine" is 1 + b z p'/p^m, "convective" is p + b z p'/p^m
ODE = {"L1": ("affine", None), "L2": ("affine", 0.0), "L3": ("affine", 1.0),
       "L4": ("affine", 2.0), "L5": ("convective", 0.0),
       "L6": ("convective", 1.0), "L7": ("convective", 2.0),
       "L8": ("convective", 1.0), "L9": ("affine", 0.0),
       "L10": ("affine", 1.0), "L11": ("affine", 2.0)}

# admissibility is measured just inside the circle (check_superordination)
VERDICT_RADIUS = 1.0 - 1e-6
MARGIN_TOL = 1e-9          # the verdict's margin slack, --tol default
PUNCTURE = 1e-6            # excluded neighbourhood of singular angles


def ode_exponent(rule: str, p: dict) -> float:
    m = ODE[rule][1]
    return float(p["k"]) if m is None else m


def premise_target(rule: str, p: dict):
    """('sqrt', None) or ('janowski', (X, Y)) for the premise region."""
    if rule == "L1":
        return "janowski", (p["A"], p["B"])
    if rule in ("L9", "L10", "L11"):
        return "janowski", (p["D"], p["E"])
    return "sqrt", None


def conclusion_target(rule: str, p: dict):
    if rule in ("L1", "L5", "L6", "L7"):
        return "sqrt", None
    return "janowski", (p["A"], p["B"])


def target_value(kind: str, XY, w):
    """q(w): sqrt(1+w) on the principal branch, or (1+Xw)/(1+Yw)."""
    w = np.asarray(w, dtype=complex)
    if kind == "sqrt":
        return np.sqrt(1.0 + w)
    X, Y = XY
    return (1.0 + X * w) / (1.0 + Y * w)


def inverse_modulus(kind: str, XY, w):
    """|q^{-1}(w)|: |w^2 - 1| for sqrt(1+z), |(w-1)/(X - Y w)| for Janowski."""
    w = np.asarray(w, dtype=complex)
    with np.errstate(all="ignore"):
        if kind == "sqrt":
            out = np.abs(w * w - 1.0)
        else:
            X, Y = XY
            out = np.abs((w - 1.0) / (X - Y * w))
    return np.where(np.isnan(out), np.inf, out)


# --- dominant curve h and derivative piece Q ----------------------------------

def h_value(rule: str, p: dict, z):
    """h(z) from the catalog table, in plain complex arithmetic."""
    z = np.asarray(z, dtype=complex)
    b = p["beta"]
    with np.errstate(all="ignore"):
        if rule == "L1":
            kappa = (p["k"] + 1.0) / 2.0
            return 1.0 + b * z / (2.0 * (1.0 + z) ** kappa)
        if rule in ("L5", "L6", "L7"):
            return np.sqrt(1.0 + z) + q_part(rule, p, z)
        A, B = p["A"], p["B"]
        if rule in ("L2", "L9"):
            return 1.0 + b * (A - B) * z / (1.0 + B * z) ** 2
        if rule in ("L3", "L10"):
            return 1.0 + b * (A - B) * z / ((1.0 + A * z) * (1.0 + B * z))
        if rule in ("L4", "L11"):
            return 1.0 + b * (A - B) * z / (1.0 + A * z) ** 2
        # L8
        return ((1.0 + A * z) / (1.0 + B * z)
                + b * (A - B) * z / ((1.0 + A * z) * (1.0 + B * z)))


def q_part(rule: str, p: dict, z):
    """Q(z): h - 1 for the affine entries, h - q for L5-L8."""
    z = np.asarray(z, dtype=complex)
    b = p["beta"]
    with np.errstate(all="ignore"):
        if rule == "L5":
            return b * z / (2.0 * np.sqrt(1.0 + z))
        if rule == "L6":
            return b * z / (2.0 * (1.0 + z))
        if rule == "L7":
            return b * z / (2.0 * (1.0 + z) ** 1.5)
        if rule == "L8":
            A, B = p["A"], p["B"]
            return b * (A - B) * z / ((1.0 + A * z) * (1.0 + B * z))
        return h_value(rule, p, z) - 1.0


def _q_factors(rule: str, p: dict):
    """Q = const * z * prod (1 + c z)^e, read off the Q column above."""
    A, B = p.get("A"), p.get("B")
    if rule == "L1":
        return [(1.0, -(p["k"] + 1.0) / 2.0)]
    if rule in ("L2", "L9"):
        return [(B, -2.0)]
    if rule in ("L3", "L10", "L8"):
        return [(A, -1.0), (B, -1.0)]
    if rule in ("L4", "L11"):
        return [(A, -2.0)]
    return [(1.0, {"L5": -0.5, "L6": -1.0, "L7": -1.5}[rule])]


def zqprime_over_q(rule: str, p: dict, z):
    """z Q'(z)/Q(z) = 1 + sum e c z/(1 + c z), by logarithmic differentiation."""
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for c, e in _q_factors(rule, p):
        out = out + e * c * z / (1.0 + c * z)
    return out


def zhprime_over_q(rule: str, p: dict, z):
    """z h'/Q = z Q'/Q + z q'/Q, since h = q + Q (L8: q = (1+Az)/(1+Bz))."""
    z = np.asarray(z, dtype=complex)
    A, B = p["A"], p["B"]
    zq_prime = (A - B) * z / (1.0 + B * z) ** 2
    return zqprime_over_q(rule, p, z) + zq_prime / q_part(rule, p, z)


def phi_of_q(rule: str, p: dict, z):
    """phi(q(z)) = b / q^m for p + b z p'/p^m with q = sqrt(1+z) (L5-L7)."""
    q = np.sqrt(1.0 + np.asarray(z, dtype=complex))
    return p["beta"] / q ** ode_exponent(rule, p)


ADMISSIBILITY = {"ReZQprimeOverQ": zqprime_over_q,
                 "ReZHprimeOverQ": zhprime_over_q,
                 "RePhiOfQ": phi_of_q}


def admissibility_keys(rule: str) -> set:
    if rule in ("L5", "L6", "L7"):
        return {"ReZQprimeOverQ", "RePhiOfQ"}
    if rule == "L8":
        return {"ReZQprimeOverQ", "ReZHprimeOverQ"}
    return {"ReZQprimeOverQ"}


# --- minima over a circle -------------------------------------------------------

def circle_min(f, n: int = 4096, seeds: int = 8, levels: int = 5):
    """(min, argmin) of a real function of the angle, by a dense grid and zooms.

    The grid is offset by half a step, so it never lands on t = 0 or pi,
    where several entries have poles or branch points.  Each zoom level
    samples 33 points across two spacings of the level above around each
    of the ``seeds`` smallest samples; five levels reach spacings near
    1.5e-9 from n = 4096.
    """
    step = 2.0 * math.pi / n
    t = -math.pi + (np.arange(n) + 0.5) * step
    v = _finite(f(t))
    idx = np.argpartition(v, seeds)[:seeds]
    best_t, best_v = t[idx], v[idx]
    offsets = np.linspace(-1.0, 1.0, 33)
    rows = np.arange(best_t.size)
    for _ in range(levels):
        tt = best_t[:, None] + step * offsets[None, :]
        vv = _finite(f(tt.ravel())).reshape(tt.shape)
        j = np.argmin(vv, axis=1)
        best_t, best_v = tt[rows, j], vv[rows, j]
        step /= 16.0
    i = int(np.argmin(best_v))
    return float(best_v[i]), float((best_t[i] + math.pi) % (2.0 * math.pi) - math.pi)


def _finite(v):
    v = np.asarray(v, dtype=float)
    return np.where(np.isfinite(v), v, np.inf)


def boundary_margin(rule: str, p: dict, t):
    """|premise inverse(h(e^{it}))| at angles t."""
    kind, XY = premise_target(rule, p)
    return inverse_modulus(kind, XY, h_value(rule, p, np.exp(1j * np.asarray(t))))


def singular_angles(rule: str, p: dict) -> list:
    """Angles of the poles and branch points of h on the unit circle.

    They are the zeros of the factors 1 + c z of h that lie on the
    circle: z = -1 for (1+z)^a (L1, L5-L7), and z = -1/A or -1/B when
    |A| or |B| is 1.
    """
    out = []
    for c, e in _q_factors(rule, p):
        if e < 0.0 and abs(c) == 1.0:
            out.append(math.pi if c > 0 else 0.0)
    return out


def min_margin(rule: str, p: dict, n: int = 4096):
    """(min, argmin) of the boundary margin over the punctured unit circle.

    As in ``boundary_margin_profile``, angles within PUNCTURE of a
    singular angle are left out: near a pole of h the margin of a
    Janowski premise tends to 1/|Y| without attaining it.
    """
    sing = np.asarray(singular_angles(rule, p))

    def f(t):
        v = boundary_margin(rule, p, t)
        if sing.size:
            d = np.abs((np.asarray(t)[..., None] - sing + math.pi) % (2 * math.pi) - math.pi)
            v = np.where(np.min(d, axis=-1) <= PUNCTURE, np.inf, v)
        return v

    return circle_min(f, n)


def admissibility_min(rule: str, p: dict, key: str,
                      radius: float = VERDICT_RADIUS) -> float:
    f = ADMISSIBILITY[key]
    with np.errstate(all="ignore"):
        value, _ = circle_min(lambda t: f(rule, p, radius * np.exp(1j * t)).real, 1024)
    return value


# --- hypothesis inequalities and closed-form thresholds ------------------------

def _scaled(lhs: float, rhs: float) -> float:
    return (lhs - rhs) / max(1.0, abs(rhs))


def hypothesis_gaps(rule: str, p: dict) -> list:
    """lhs - rhs of each hypothesis inequality, scaled by max(1, |rhs|).

    All entries >= 0 means the hypothesis holds at p['beta'].
    """
    b = p["beta"]
    A, B, D, E = p.get("A"), p.get("B"), p.get("D"), p.get("E")
    if rule == "L1":
        return [_scaled(abs(b), 2.0 ** ((p["k"] + 3.0) / 2.0) * (A - B) + abs(B * b))]
    if rule == "L2":
        return [_scaled((A - B) * b, SQRT2 * (1 + abs(B)) ** 2 + (1 - B) ** 2)]
    if rule == "L3":
        return [_scaled((A - B) * b, (SQRT2 - 1) * (1 + abs(A)) * (1 + abs(B)))]
    if rule == "L4":
        return [_scaled((A - B) * b, (SQRT2 - 1) * (1 + abs(A)) ** 2 + (1 - A) ** 2)]
    if rule in ("L5", "L6", "L7"):
        return [b]
    if rule == "L8":
        cap = max(0.0, (A - B) / ((1 + abs(A)) * (1 + abs(B)))
                  - (1 - abs(B)) / (1 + abs(B)))
        return [_scaled((A - B) * b, SQRT2 * (1 + abs(A)) * (1 + abs(B)) + abs(A) ** 2 - 1),
                _scaled(1.0 / b, cap)]
    x = b * (A - B)
    if rule == "L9":
        return [_scaled(x, (D - E) * (1 + B * B) + abs(2 * B * (D - E) - E * x))]
    if rule == "L10":
        return [_scaled(x, (D - E) * (1 + abs(A * B)) + abs((A + B) * (D - E) - E * x))]
    return [_scaled(abs(b) * (A - B), (D - E) * (1 + A * A) + abs(2 * A * (D - E) - E * x))]


def beta_star(rule: str, p: dict):
    """Smallest beta > 0 meeting the hypothesis, or None when none does.

    The first inequality of every entry is nondecreasing in beta > 0, so
    its least solution is bracketed by doubling and bisected to
    rounding; L8's second inequality caps beta from above and is tested
    at that least solution.
    """
    def first(b: float) -> float:
        return hypothesis_gaps(rule, dict(p, beta=b))[0]

    hi = 1.0
    while first(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            return None
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if first(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    if min(hypothesis_gaps(rule, dict(p, beta=hi))) < -1e-12:
        return None
    return hi


# --- series evaluation ------------------------------------------------------------

def horner(coeffs, z):
    """sum c_n z^n by Horner's rule over an array of points."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def horner_with_derivative(coeffs, z):
    """(p(z), p'(z)) by the two-row Horner scheme."""
    z = np.asarray(z, dtype=complex)
    val = np.zeros_like(z)
    der = np.zeros_like(z)
    for c in coeffs[::-1]:
        der = der * z + val
        val = val * z + c
    return val, der


def premise_functional(rule: str, p: dict, coeffs, z):
    """1 + b z p'/p^m or p + b z p'/p^m at points z, from p's coefficients."""
    val, der = horner_with_derivative(coeffs, z)
    style = ODE[rule][0]
    m = ode_exponent(rule, p)
    term = p["beta"] * z * der / val ** m
    return (val if style == "convective" else 1.0) + term


def schwarz_draws(seed: int, trials: int) -> list:
    """The draws of ``lemnisub falsify --seed <seed>``, as closed forms.

    Each draw picks a family with ``rng.integers(0, 3)``: z^m with m from
    ``rng.integers(1, 7)``; z (z + a)/(1 + conj(a) z) with
    a = 0.8 sqrt(u) e^{i angle}; or a degree-8 polynomial with complex
    normal coefficients, which the program divides by its boundary
    maximum times a safety factor.  Returns one dict per trial.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        family = int(rng.integers(0, 3))
        if family == 0:
            out.append({"family": "monomial", "m": int(rng.integers(1, 7))})
        elif family == 1:
            radius = 0.8 * np.sqrt(rng.uniform())
            angle = rng.uniform(-np.pi, np.pi)
            out.append({"family": "blaschke",
                        "a": complex(radius * np.exp(1j * angle))})
        else:
            c = np.zeros(9, dtype=complex)
            c[1:] = rng.normal(size=8) + 1j * rng.normal(size=8)
            out.append({"family": "poly", "c": c})
    return out


def schwarz_value(draw: dict, z, scale: float = 1.0):
    """w(z) of a draw; ``scale`` divides the polynomial family."""
    z = np.asarray(z, dtype=complex)
    if draw["family"] == "monomial":
        return z ** draw["m"]
    if draw["family"] == "blaschke":
        a = draw["a"]
        return z * (z + a) / (1.0 + np.conj(a) * z)
    return horner(draw["c"], z) / scale
