import dataclasses
import math
import zlib

import numpy as np
import pytest

from lemnisub import (
    CATALOG,
    DEFAULTS,
    LemmaId,
    LemmaParams,
    ThresholdStatus,
    closed_form_threshold,
    feasibility_check,
)
from lemnisub.catalog import (
    _affine_bound_terms,
    dominant_Q_on_circle,
    h_minus_one_at,
    h_minus_one_on_circle,
    margin_on_circle,
    singular_angles,
    validate,
)
from lemnisub.errors import InvalidParameters

from conftest import draw_valid_params

SQRT2 = math.sqrt(2.0)

ALL = list(LemmaId)
MARGIN_LEMMAS = [l for l in ALL if CATALOG[l].margin_criterion]


def bisect_smallest_root(f, lo, hi, tol=1e-12, iters=200):
    """Oracle: smallest root of a nondecreasing f on [lo, hi] by bisection."""
    if f(lo) >= 0.0:
        return lo
    if f(hi) < 0.0:
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol:
            break
    return hi


# --- closed-form thresholds --------------------------------------------------

def test_threshold_l1_examples():
    r = closed_form_threshold(LemmaId.L1, LemmaParams(A=1.0, B=0.0, k=1.0))
    assert r.status is ThresholdStatus.FEASIBLE
    assert r.beta_star == pytest.approx(4.0)
    r = closed_form_threshold(LemmaId.L1, LemmaParams(A=0.5, B=-0.5, k=3.0))
    assert r.beta_star == pytest.approx(16.0)   # beta >= 8 + beta/2


def test_threshold_l2_exact_point():
    r = closed_form_threshold(LemmaId.L2, LemmaParams(A=1.0, B=0.0))
    assert r.beta_star == pytest.approx(1.0 + SQRT2, abs=1e-12)


def test_threshold_l8_examples():
    r = closed_form_threshold(LemmaId.L8, LemmaParams(A=1.0, B=0.0))
    assert r.status is ThresholdStatus.FEASIBLE
    assert r.beta_star == pytest.approx(2.0 * SQRT2)   # second condition vacuous
    r = closed_form_threshold(LemmaId.L8, LemmaParams(A=1.0, B=-0.9))
    assert r.status is ThresholdStatus.INFEASIBLE
    assert "2.8284" in r.binding_constraint and "2.235" in r.binding_constraint


def test_threshold_l10_corner_infeasible():
    r = closed_form_threshold(LemmaId.L10, LemmaParams(A=1.0, B=-1.0, D=1.0, E=-1.0))
    assert r.status is ThresholdStatus.INFEASIBLE   # reduces to 0 >= 4


def test_threshold_l9_degenerate_point():
    r = closed_form_threshold(LemmaId.L9, LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0))
    assert r.beta_star == pytest.approx(1.0)


@pytest.mark.parametrize("lemma", [LemmaId.L5, LemmaId.L6, LemmaId.L7])
def test_threshold_always_feasible(lemma):
    r = closed_form_threshold(lemma, LemmaParams())
    assert r.status is ThresholdStatus.ALWAYS_FEASIBLE
    assert r.beta_star is None


# --- feasibility -------------------------------------------------------------

def test_feasibility_l9_examples():
    base = LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0)
    assert feasibility_check(LemmaId.L9, base.with_beta(1.0))
    assert not feasibility_check(LemmaId.L9, base.with_beta(0.99))


def test_feasibility_l11_remark_anchor():
    # at beta = 1 the inequality reads (A-B) >= (D-E)(1+A^2) + |2A(D-E) - E(A-B)|
    p = LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0, beta=1.0)
    assert not feasibility_check(LemmaId.L11, p)    # 1 >= 2 + 2 is false


@pytest.mark.parametrize("lemma", ALL)
def test_feasibility_boundary_of_threshold(lemma):
    rng = np.random.default_rng(zlib.crc32(lemma.value.encode()))
    tested = 0
    while tested < 200:
        params = draw_valid_params(lemma, rng)
        r = closed_form_threshold(lemma, params)
        if r.status is ThresholdStatus.ALWAYS_FEASIBLE:
            beta = float(rng.uniform(0.01, 10.0))
            assert feasibility_check(lemma, params.with_beta(beta))
            tested += 1
            continue
        if r.status is not ThresholdStatus.FEASIBLE:
            continue
        assert feasibility_check(lemma, params.with_beta(r.beta_star))
        assert not feasibility_check(
            lemma, params.with_beta(r.beta_star * (1.0 - 1e-6)))
        tested += 1


def reference_feasibility(lemma, params):
    """Oracle: each rule's hypothesis inequality evaluated as written at beta.

    Comparisons carry the same small relative slack as ``feasibility_check``,
    so that beta exactly at the closed-form threshold tests as feasible.
    """
    validate(lemma, params)
    A, B, D, E, k, beta = (params.A, params.B, params.D, params.E,
                           params.k, params.beta)
    slack = DEFAULTS.feasibility_slack

    def ge(lhs: float, rhs: float) -> bool:
        return lhs >= rhs - slack * max(1.0, abs(rhs))

    if lemma is LemmaId.L1:
        return ge(abs(beta), 2.0 ** ((k + 3.0) / 2.0) * (A - B) + abs(B * beta))
    if lemma is LemmaId.L2:
        return ge((A - B) * beta, SQRT2 * (1.0 + abs(B)) ** 2 + (1.0 - B) ** 2)
    if lemma is LemmaId.L3:
        return ge((A - B) * beta, (SQRT2 - 1.0) * (1.0 + abs(A)) * (1.0 + abs(B)))
    if lemma is LemmaId.L4:
        return ge((A - B) * beta, (SQRT2 - 1.0) * (1.0 + abs(A)) ** 2 + (1.0 - A) ** 2)
    if lemma in (LemmaId.L5, LemmaId.L6, LemmaId.L7):
        return beta > 0.0
    if lemma is LemmaId.L8:
        cond1 = ge((A - B) * beta,
                   SQRT2 * (1.0 + abs(A)) * (1.0 + abs(B)) + abs(A) ** 2 - 1.0)
        cap = max(0.0, (A - B) / ((1.0 + abs(A)) * (1.0 + abs(B)))
                  - (1.0 - abs(B)) / (1.0 + abs(B)))
        cond2 = ge(1.0 / beta, cap)
        return cond1 and cond2
    P, c = _affine_bound_terms(lemma, params)
    x = (abs(beta) if lemma is LemmaId.L11 else beta) * (A - B)
    return ge(x, P + abs(c - E * beta * (A - B)))


def _probe_betas(lemma, params, rng):
    """Log-uniform betas over [e^-7, e^7], of both signs where validation
    allows them, and each finite nonzero end of the feasible set times
    1 +- 1e-6 and 1 +- 1e-13.
    """
    betas = list(np.exp(rng.uniform(-7.0, 7.0, 4)))
    if CATALOG[lemma].ode_style == "affine":
        betas += list(-np.exp(rng.uniform(-7.0, 7.0, 4)))
    for interval in closed_form_threshold(lemma, params).feasible:
        for end in interval:
            if math.isfinite(end) and end != 0.0:
                betas += [end * f for f in (1 - 1e-6, 1 - 1e-13, 1 + 1e-13, 1 + 1e-6)]
    return [float(b) for b in betas]


@pytest.mark.parametrize("lemma", ALL)
def test_feasibility_agrees_with_inequality_as_written(lemma):
    rng = np.random.default_rng(zlib.crc32(("fold" + lemma.value).encode()))
    checks = 0
    for _ in range(1000):
        params = draw_valid_params(lemma, rng)
        for beta in _probe_betas(lemma, params, rng):
            p = params.with_beta(beta)
            assert feasibility_check(lemma, p) == reference_feasibility(lemma, p), p
            checks += 1
    assert checks >= 4000


def test_feasibility_l11_negative_side():
    # E*beta keeps its sign: only beta <= -3 meets |beta| >= 3 + |3 + beta|
    params = LemmaParams(A=1.0, B=0.0, D=0.5, E=-1.0)
    r = closed_form_threshold(LemmaId.L11, params)
    assert r.status is ThresholdStatus.INFEASIBLE and r.beta_star is None
    assert r.feasible == ((-math.inf, -3.0),)
    for beta, want in ((-5.0, True), (-3.0, True), (-2.9, False), (3.0, False)):
        p = params.with_beta(beta)
        assert feasibility_check(LemmaId.L11, p) is want
        assert reference_feasibility(LemmaId.L11, p) is want


@pytest.mark.parametrize("lemma", [LemmaId.L9, LemmaId.L10, LemmaId.L11])
def test_affine_solve_agrees_with_bisection_oracle(lemma):
    rng = np.random.default_rng(4242)
    for _ in range(100):
        params = draw_valid_params(lemma, rng)
        r = closed_form_threshold(lemma, params)
        P, c = _affine_bound_terms(lemma, params)
        E = params.E

        def gap(x):
            return x - abs(c - E * x) - P

        hi = 1000.0 * max(1.0, P + abs(c))
        oracle = bisect_smallest_root(gap, 1e-12, hi)
        if r.status is ThresholdStatus.INFEASIBLE:
            assert oracle is None or oracle > hi * 0.99
        else:
            x_star = r.beta_star * (params.A - params.B)
            assert oracle == pytest.approx(x_star, abs=1e-9, rel=1e-9)


# --- parameter validation ------------------------------------------------------

def test_validation_rejects_bad_domains():
    with pytest.raises(InvalidParameters):
        validate(LemmaId.L1, LemmaParams(A=1.0, B=-1.0, k=1.0, beta=4.0))
    with pytest.raises(InvalidParameters):
        validate(LemmaId.L1, LemmaParams(A=1.0, B=0.0, k=3.5, beta=4.0))
    with pytest.raises(InvalidParameters):
        validate(LemmaId.L2, LemmaParams(A=0.0, B=0.5, beta=3.0))
    with pytest.raises(InvalidParameters):
        validate(LemmaId.L5, LemmaParams(beta=-1.0))
    with pytest.raises(InvalidParameters):
        validate(LemmaId.L9, LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0, beta=0.0))


def test_validation_aggregates_messages():
    with pytest.raises(InvalidParameters) as exc:
        validate(LemmaId.L9, LemmaParams(A=None, B=None, D=None, E=None, beta=1.0))
    assert len(exc.value.messages) >= 4


# --- dominant curves -----------------------------------------------------------

def _dominant_q_at(lemma, params, z):
    """Q at points z of the closed disk, one circle |z| = r at a time."""
    return np.array([dominant_Q_on_circle(lemma, params, np.array([np.angle(v)]),
                                          abs(v))[0]
                     for v in np.atleast_1d(np.asarray(z, dtype=complex))])


def test_premise_h_examples():
    # h = 1 + beta*z when B = 0 for the L2 family
    h = 1.0 + h_minus_one_at(LemmaId.L2, LemmaParams(A=1.0, B=0.0, beta=3.0), 0.5)
    assert h == pytest.approx(2.5)
    h = 1.0 + h_minus_one_at(LemmaId.L1,
                             LemmaParams(A=1.0, B=0.0, k=1.0, beta=4.0), 0.0)
    assert h == pytest.approx(1.0)
    h = 1.0 + h_minus_one_at(LemmaId.L9,
                             LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0, beta=2.0), 1j)
    assert h == pytest.approx(1.0 + 2.0j)


def test_dominant_q_examples():
    q = _dominant_q_at(LemmaId.L5, LemmaParams(beta=1.0), 0.21)
    assert q == pytest.approx([0.21 / 2.2], abs=1e-12)   # 0.21/(2*1.1)
    q = _dominant_q_at(LemmaId.L6, LemmaParams(beta=2.0), 0.0)
    assert q == pytest.approx([0.0])
    q = _dominant_q_at(LemmaId.L9,
                       LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0, beta=2.0), 0.5)
    assert q == pytest.approx([1.0])


@pytest.mark.parametrize("lemma", ALL)
def test_h_and_q_normalisation(lemma):
    rng = np.random.default_rng(zlib.crc32(lemma.value.encode()))
    for _ in range(25):
        params = draw_valid_params(lemma, rng).with_beta(float(rng.uniform(0.1, 5.0)))
        assert 1.0 + h_minus_one_at(lemma, params, 0.0) == pytest.approx(1.0)
        assert _dominant_q_at(lemma, params, 0.0) == pytest.approx([0.0])
        # Q = h - 1 for the affine entries, h - q for the convective ones
        z = 0.4 + 0.3j
        h = 1.0 + h_minus_one_at(lemma, params, z)
        q = _dominant_q_at(lemma, params, z)[0]
        if CATALOG[lemma].ode_style == "affine":
            assert q == pytest.approx(h - 1.0, abs=1e-12)


@pytest.mark.parametrize("lemma", ALL)
def test_h_conjugate_symmetry(lemma):
    rng = np.random.default_rng(zlib.crc32((lemma.value + "sym").encode()))
    for _ in range(10):
        params = draw_valid_params(lemma, rng).with_beta(float(rng.uniform(0.1, 5.0)))
        z = 0.8 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        left = h_minus_one_at(lemma, params, np.conj(z))
        right = np.conj(h_minus_one_at(lemma, params, z))
        assert left == pytest.approx(right, abs=1e-12)


@pytest.mark.parametrize("lemma", MARGIN_LEMMAS)
def test_circle_h_matches_pointwise_h(lemma):
    rng = np.random.default_rng(zlib.crc32((lemma.value + "circ").encode()))
    params = draw_valid_params(lemma, rng).with_beta(2.0)
    t = rng.uniform(-3.0, 3.0, 32)
    vec = h_minus_one_on_circle(lemma, params, t)
    direct = h_minus_one_at(lemma, params, np.exp(1j * t))
    assert vec == pytest.approx(direct, abs=1e-11)


def test_singular_angles_catalogued():
    assert singular_angles(LemmaId.L1, LemmaParams(A=1.0, B=0.0, k=1.0)) == (math.pi,)
    assert singular_angles(LemmaId.L2, LemmaParams(A=0.0, B=-1.0)) == (0.0,)
    assert singular_angles(LemmaId.L3, LemmaParams(A=1.0, B=-1.0)) == (0.0, math.pi)
    assert singular_angles(LemmaId.L9,
                           LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0)) == ()


def test_margin_on_circle_l2_closed_form():
    # at A=1, B=0: margin(t) = beta * |2 + beta e^{it}|
    beta = 3.0
    params = LemmaParams(A=1.0, B=0.0, beta=beta)
    t = np.linspace(-3.0, 3.0, 17)
    vals = margin_on_circle(LemmaId.L2, params, t)
    expect = beta * np.abs(2.0 + beta * np.exp(1j * t))
    assert np.max(np.abs(vals - expect)) <= 1e-12


# --- reference table: h, Q, q and phi written out per rule ---------------------
#
# Transcribed from the catalog module docstring in plain complex arithmetic
# (principal branches), independent of how the catalog evaluates them.

def _sqrt1p(z):
    return np.sqrt(1.0 + z)


def _mobius(X, Y, z):
    return (1.0 + X * z) / (1.0 + Y * z)


# rule -> (theta is q, exponent m, h(p, z), Q(p, z))
REFERENCE = {
    LemmaId.L1: (False, lambda p: p.k,
                 lambda p, z: 1.0 + p.beta * z / (2.0 * (1.0 + z) ** ((p.k + 1.0) / 2.0)),
                 lambda p, z: p.beta * z / (2.0 * (1.0 + z) ** ((p.k + 1.0) / 2.0))),
    LemmaId.L2: (False, lambda p: 0.0,
                 lambda p, z: 1.0 + p.beta * (p.A - p.B) * z / (1.0 + p.B * z) ** 2,
                 lambda p, z: p.beta * (p.A - p.B) * z / (1.0 + p.B * z) ** 2),
    LemmaId.L3: (False, lambda p: 1.0,
                 lambda p, z: 1.0 + p.beta * (p.A - p.B) * z
                 / ((1.0 + p.A * z) * (1.0 + p.B * z)),
                 lambda p, z: p.beta * (p.A - p.B) * z
                 / ((1.0 + p.A * z) * (1.0 + p.B * z))),
    LemmaId.L4: (False, lambda p: 2.0,
                 lambda p, z: 1.0 + p.beta * (p.A - p.B) * z / (1.0 + p.A * z) ** 2,
                 lambda p, z: p.beta * (p.A - p.B) * z / (1.0 + p.A * z) ** 2),
    LemmaId.L5: (True, lambda p: 0.0,
                 lambda p, z: _sqrt1p(z) + p.beta * z / (2.0 * _sqrt1p(z)),
                 lambda p, z: p.beta * z / (2.0 * _sqrt1p(z))),
    LemmaId.L6: (True, lambda p: 1.0,
                 lambda p, z: _sqrt1p(z) + p.beta * z / (2.0 * (1.0 + z)),
                 lambda p, z: p.beta * z / (2.0 * (1.0 + z))),
    LemmaId.L7: (True, lambda p: 2.0,
                 lambda p, z: _sqrt1p(z) + p.beta * z / (2.0 * (1.0 + z) ** 1.5),
                 lambda p, z: p.beta * z / (2.0 * (1.0 + z) ** 1.5)),
    LemmaId.L8: (True, lambda p: 1.0,
                 lambda p, z: _mobius(p.A, p.B, z) + p.beta * (p.A - p.B) * z
                 / ((1.0 + p.A * z) * (1.0 + p.B * z)),
                 lambda p, z: p.beta * (p.A - p.B) * z
                 / ((1.0 + p.A * z) * (1.0 + p.B * z))),
}
# L9-L11 share the dominant curves of L2-L4 (only the premise target differs)
REFERENCE.update({LemmaId.L9: REFERENCE[LemmaId.L2], LemmaId.L10: REFERENCE[LemmaId.L3],
                  LemmaId.L11: REFERENCE[LemmaId.L4]})


def _conclusion_q(lemma, p, z):
    """q and z q' of the conclusion target."""
    if CATALOG[lemma].conclusion_kind == "sqrt":
        return _sqrt1p(z), z / (2.0 * _sqrt1p(z))
    return _mobius(p.A, p.B, z), (p.A - p.B) * z / (1.0 + p.B * z) ** 2


def _reference_points(rng, lemma):
    params = draw_valid_params(lemma, rng).with_beta(float(rng.uniform(0.1, 5.0)))
    radius = np.sqrt(rng.uniform(0.0, 0.98, 16))
    z = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, 16))
    t = rng.uniform(-3.0, 3.0, 16)
    return params, z, t


def _close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    return np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("lemma", ALL)
def test_h_and_q_match_reference_table(lemma):
    convective, _, h_ref, q_ref = REFERENCE[lemma]
    assert (CATALOG[lemma].ode_style == "convective") is convective
    rng = np.random.default_rng(zlib.crc32(("table" + lemma.value).encode()))
    for _ in range(20):
        params, z, t = _reference_points(rng, lemma)
        assert _close(h_minus_one_at(lemma, params, z), h_ref(params, z) - 1.0)
        assert _close(_dominant_q_at(lemma, params, z), q_ref(params, z))
        w = np.exp(1j * t)
        assert _close(h_minus_one_on_circle(lemma, params, t), h_ref(params, w) - 1.0)
        assert _close(h_minus_one_at(lemma, params, w), h_ref(params, w) - 1.0)
        assert _close(dominant_Q_on_circle(lemma, params, t), q_ref(params, w))


@pytest.mark.parametrize("lemma", ALL)
def test_phi_and_h_derivative_identities(lemma):
    from lemnisub.catalog import (phi_of_q_circle, zhprime_over_q_circle,
                                  zqprime_over_q_circle)
    convective, exponent, _, q_ref = REFERENCE[lemma]
    rng = np.random.default_rng(zlib.crc32(("identity" + lemma.value).encode()))
    for _ in range(20):
        params, _, t = _reference_points(rng, lemma)
        for r in (0.9, 1.0):
            z = r * np.exp(1j * t)
            q, zq_prime = _conclusion_q(lemma, params, z)
            Q = dominant_Q_on_circle(lemma, params, t, r)
            # phi(q) = beta q^{-m} and Q = z q' phi(q)
            phi = phi_of_q_circle(lemma, params, t, r)
            assert _close(phi, params.beta / q ** exponent(params))
            assert _close(phi * zq_prime, Q)
            # z Q'/Q against a central difference of the reference Q
            dz = 1e-5 * z
            fd = z * (q_ref(params, z + dz) - q_ref(params, z - dz)) / (2.0 * dz) / Q
            zqp = zqprime_over_q_circle(lemma, params, t, r)
            assert _close(zqp, fd, rel=1e-7)
            # h = theta(q) + Q: z h'/Q = z Q'/Q (+ z q'/Q when theta(q) = q)
            extra = zq_prime / Q if convective else 0.0
            assert _close(zhprime_over_q_circle(lemma, params, t, r), zqp + extra)


# rule -> coefficients c whose points -1/c are poles or branch points of h or Q
SINGULAR_REFERENCE = {
    LemmaId.L1: lambda p: [1.0], LemmaId.L5: lambda p: [1.0],
    LemmaId.L6: lambda p: [1.0], LemmaId.L7: lambda p: [1.0],
    LemmaId.L2: lambda p: [p.B], LemmaId.L9: lambda p: [p.B],
    LemmaId.L3: lambda p: [p.A, p.B], LemmaId.L10: lambda p: [p.A, p.B],
    LemmaId.L8: lambda p: [p.A, p.B],
    LemmaId.L4: lambda p: [p.A], LemmaId.L11: lambda p: [p.A],
}


@pytest.mark.parametrize("lemma", ALL)
def test_singular_points_match_reference_table(lemma):
    from lemnisub.catalog import singular_points
    from lemnisub.errors import SingularPoint
    rng = np.random.default_rng(zlib.crc32(("singular" + lemma.value).encode()))
    for i in range(10):
        params = draw_valid_params(lemma, rng).with_beta(2.0)
        if i == 0 and params.A is not None:
            params = dataclasses.replace(params, A=1.0, B=0.0)   # B = 0 drops a factor
        want = {-1.0 / c for c in SINGULAR_REFERENCE[lemma](params) if c != 0.0}
        got = singular_points(lemma, params)
        assert len(got) == len(want) and set(got) == want
        for s in got:
            if abs(s) <= 1.0:
                with pytest.raises(SingularPoint):
                    h_minus_one_at(lemma, params, np.array([0.0, s]))


# --- package exports ------------------------------------------------------------

def test_every_exported_name_resolves():
    import lemnisub
    assert [n for n in lemnisub.__all__ if not hasattr(lemnisub, n)] == []
