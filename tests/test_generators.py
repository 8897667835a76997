import dataclasses
import math
import warnings
import zlib

import numpy as np
import pytest

from lemnisub import (
    CATALOG,
    LemmaId,
    LemmaParams,
    PowerSeries,
    blaschke_factor,
    closed_form_threshold,
    monomial,
    premise_region,
    random_schwarz,
    scaled_polynomial,
    solve_premise,
    solve_premise_ode,
)
from lemnisub.errors import (
    NotAContraction,
    RecursionBreakdown,
    TruncationInsufficient,
)
from lemnisub import generate
from lemnisub.generate import _target_series, compose_target
from lemnisub.regions import Janowski, SqrtLemniscate

from conftest import draw_valid_params

ALL = list(LemmaId)


def boundary_sup(series, n=4096):
    t = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return float(np.max(np.abs(series.eval(np.exp(1j * t)))))


# --- Schwarz families ---------------------------------------------------------

def test_monomial_families():
    w = monomial(1)
    assert w.series[1] == pytest.approx(1.0)
    assert w.boundary_sup == pytest.approx(1.0, abs=1e-12)
    w2 = monomial(2)
    assert w2.series[2] == pytest.approx(1.0) and w2.series[1] == pytest.approx(0.0)


def test_blaschke_collapses_at_zero():
    w = blaschke_factor(0.0)
    assert w.series[2] == pytest.approx(1.0)
    assert w.series[1] == pytest.approx(0.0)


def test_blaschke_series_is_certified_contraction():
    for a in (0.3, 0.6 + 0.2j, -0.79, 0.5j):
        w = blaschke_factor(a)
        assert abs(w.series[0]) == 0.0
        assert boundary_sup(w.series) <= 1.0 + 1e-12
        # exact values on a few interior points
        z = np.array([0.3, -0.2 + 0.4j, 0.1 - 0.6j])
        expect = z * (z + a) / (1.0 + np.conj(a) * z)
        assert np.max(np.abs(w.series.eval(z) - expect)) <= 1e-10


def test_blaschke_order_rises_with_a():
    assert blaschke_factor(0.79).series.order > monomial(1).series.order


def test_scaled_polynomial_normalisation(rng):
    c = np.zeros(9, dtype=complex)
    c[1:] = rng.normal(size=8) + 1j * rng.normal(size=8)
    w = scaled_polynomial(c)
    sup = boundary_sup(w.series)
    assert sup <= 1.0 + 1e-12
    assert sup == pytest.approx(1.0 / 1.0000001, rel=1e-6)


def test_contraction_violations_raise():
    with pytest.raises(NotAContraction):
        blaschke_factor(1.0)
    with pytest.raises(NotAContraction):
        scaled_polynomial([0.0, 0.0, 0.0])
    with pytest.raises(NotAContraction):
        scaled_polynomial([1.0, 0.5])


def test_random_schwarz_reproducible():
    a = random_schwarz(np.random.default_rng(7))
    b = random_schwarz(np.random.default_rng(7))
    assert a.kind == b.kind
    assert np.array_equal(a.series.coeffs, b.series.coeffs)


def test_random_schwarz_invariants(rng):
    for _ in range(25):
        w = random_schwarz(rng)
        assert abs(w.series[0]) == 0.0
        assert w.boundary_sup <= 1.0 + 1e-12


# --- premise-exact solutions ----------------------------------------------------

def test_l2_quadrature_coefficients():
    # 1 + beta z p' = sqrt(1+z): c_n = binom(1/2, n)/(beta n)
    beta = 3.0
    sol = solve_premise_ode(LemmaId.L2, LemmaParams(A=1.0, B=0.0, beta=beta),
                            monomial(1), 32)
    assert sol.p[1] == pytest.approx(1.0 / (2.0 * beta))     # 1/6
    assert sol.p[2] == pytest.approx(-1.0 / (16.0 * beta))   # -1/48
    b = 1.0
    for n in range(1, 33):
        b = b * (0.5 - n + 1) / n
        assert sol.p[n] == pytest.approx(b / (beta * n), abs=1e-14)


def test_l9_linear_closed_form():
    # E = 0: p' = D/beta, so p = 1 + D z / beta
    sol = solve_premise_ode(LemmaId.L9,
                            LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0, beta=2.0),
                            monomial(1), 16)
    assert sol.p[1] == pytest.approx(0.5)
    assert np.max(np.abs(sol.p.coeffs[2:])) <= 1e-15
    sol = solve_premise_ode(LemmaId.L9,
                            LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0, beta=1.5),
                            monomial(1), 16)
    assert sol.p[1] == pytest.approx(2.0 / 3.0)


def test_l1_log_closed_form():
    # k = 2: 1/p = 1 - ((A-B)/(beta B)) log(1+Bz)
    A, B, beta = 1.0, -0.5, 8.0
    sol = solve_premise_ode(LemmaId.L1, LemmaParams(A=A, B=B, k=2.0, beta=beta),
                            monomial(1), 64)
    lg = (1.0 + B * PowerSeries.identity(64)).log()
    closed = 1.0 / (1.0 - (A - B) / (beta * B) * lg)
    assert np.max(np.abs(sol.p.coeffs - closed.coeffs)) <= 1e-10
    # k = 1: p = (1+Bz)^a with a = (A-B)/(beta B), so c_n = binom(a, n) B^n
    sol = solve_premise_ode(LemmaId.L1, LemmaParams(A=A, B=B, k=1.0, beta=beta),
                            monomial(1), 64)
    a, b = (A - B) / (beta * B), 1.0
    for n in range(1, 65):
        b = b * (a - n + 1) / n * B
        assert sol.p[n] == pytest.approx(b, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("lemma,beta,coeff", [
    # 1 + beta z p'/p = 1 + Dz: p = exp(Dz/beta)
    (LemmaId.L10, 2.5, lambda x, n: x ** n / math.factorial(n)),
    # 1 + beta z p'/p^2 = 1 + Dz: p = 1/(1 - Dz/beta)
    (LemmaId.L11, 2.5, lambda x, n: x ** n),
    (LemmaId.L11, -2.5, lambda x, n: x ** n),
])
def test_janowski_premise_closed_forms_at_e_zero(lemma, beta, coeff):
    D = 0.8
    sol = solve_premise_ode(lemma, LemmaParams(A=1.0, B=0.0, D=D, E=0.0, beta=beta),
                            monomial(1), 32)
    for n in range(33):
        assert sol.p[n] == pytest.approx(coeff(D / beta, n), rel=1e-12, abs=1e-15)


def test_l5_resolvent_closed_form():
    # p + beta z p' = sqrt(1+z): c_n = binom(1/2,n)/(1 + beta n)
    # a tiny beta still solves: convective pivots beta n + 1 exceed 1
    for beta in (0.7, 1e-15):
        sol = solve_premise_ode(LemmaId.L5, LemmaParams(beta=beta), monomial(1), 32)
        b = 1.0
        for n in range(1, 33):
            b = b * (0.5 - n + 1) / n
            assert sol.p[n] == pytest.approx(b / (1.0 + beta * n), abs=1e-14)


def test_l1_exponent_coherence():
    # the recursion at k=2 agrees with substituting p^2 into the premise
    params = LemmaParams(A=0.6, B=-0.3, k=2.0, beta=6.0)
    sol = solve_premise_ode(LemmaId.L1, params, blaschke_factor(0.4), 64)
    lhs = 1.0 + params.beta * sol.p.zderiv() / sol.p.power(2.0)
    w = blaschke_factor(0.4).series.pad_to(64)
    rhs = (1.0 + params.A * w) / (1.0 + params.B * w)
    assert (lhs - rhs).max_abs_coeff() <= 1e-12


@pytest.mark.parametrize("lemma", ALL)
def test_premise_residuals_across_catalog(lemma):
    rng = np.random.default_rng(zlib.crc32((lemma.value + "res").encode()))
    for _ in range(10):
        params = draw_valid_params(lemma, rng)
        thr = closed_form_threshold(lemma, params)
        beta = 1.05 * thr.beta_star if thr.beta_star is not None else 1.0
        w = random_schwarz(rng)
        sol = solve_premise_ode(lemma, params.with_beta(beta), w, 64)
        assert sol.residual <= 1e-9
        assert sol.p[0] == pytest.approx(1.0)


def test_adaptive_solve_caps_and_reports():
    sol = solve_premise(LemmaId.L2, LemmaParams(A=1.0, B=0.0, beta=3.0),
                        monomial(1))
    assert sol.order <= 512
    assert sol.residual <= 1e-9


@pytest.mark.parametrize("order", [None, 512])
def test_solve_premise_rejects_non_finite_residual(order):
    # far below threshold the coefficients overflow and the residual is NaN,
    # already at order 64, where the adaptive solve stops; no warning escapes
    params = LemmaParams(A=1.0, B=0.0, k=2.0, beta=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationInsufficient,
                           match=f"residual nan at order {order or 64}"):
            solve_premise(LemmaId.L1, params, monomial(1), order)


def test_adaptive_solve_stops_at_first_failing_residual(monkeypatch):
    # the residual at order 64 is 5.2e92; a higher order repeats those
    # coefficients, so doubling would only cost more work
    reached = []
    solve_to = generate._PremiseState.solve_to

    def recording(state, order):
        reached.append((state, order))
        return solve_to(state, order)

    monkeypatch.setattr(generate._PremiseState, "solve_to", recording)
    with pytest.raises(TruncationInsufficient, match=r"residual 5\.21\d*e\+92 at order 64"):
        solve_premise(LemmaId.L4, LemmaParams(A=0.5, B=0.0, beta=0.01), monomial(1))
    assert [order for _, order in reached] == [64]
    state = reached[0][0]
    assert state.order == 64
    assert not state.c[65:].any() and not state.F[65:].any()


def _same_solution(a, b):
    # bit for bit, NaN residuals included
    return (a.p.coeffs.tobytes() == b.p.coeffs.tobytes()
            and repr(a.residual) == repr(b.residual)
            and a.order == b.order and a.tail_certified == b.tail_certified)


def _restarting_solve(lemma, params, w, order=None):
    # the adaptive solve as a fresh solve at every order: 64, 128, 256, 512
    n = 64 if order is None else order
    sol = solve_premise_ode(lemma, params, w, n)
    while order is None and n < 512 and sol.residual <= 1e-9 \
            and not sol.tail_certified:
        n = min(2 * n, 512)
        sol = solve_premise_ode(lemma, params, w, n)
    return sol


# every rule, and L1 at k in {0, 1, 2} and at two other exponents, so that
# each branch of the recursion (m = 0, 1, 2 and Euler's step) is extended
RESUMED = [(lemma, None) for lemma in ALL] + [
    (LemmaId.L1, k) for k in (0.0, 1.0, 2.0, -0.5, 2.5)]


@pytest.mark.parametrize("lemma,k", RESUMED)
def test_resumed_solve_matches_fresh_solve_at_each_order(lemma, k):
    rng = np.random.default_rng(zlib.crc32(f"{lemma.value}{k}resume".encode()))
    poly = np.concatenate([[0.0], rng.normal(size=8) + 1j * rng.normal(size=8)])
    families = (monomial(2), blaschke_factor(0.6 - 0.3j), scaled_polynomial(poly))
    for w, factor in zip(families, (0.6, 1.05, 2.0)):
        params = draw_valid_params(lemma, rng)
        if k is not None:
            params = dataclasses.replace(params, k=k)
        thr = closed_form_threshold(lemma, params)
        params = params.with_beta(factor * thr.beta_star if thr.beta_star else factor)
        state = generate._PremiseState(lemma, params, w, 512)
        for order in (64, 128, 256, 512):
            resumed = state.solve_to(order)
            assert _same_solution(resumed, solve_premise_ode(lemma, params, w, order))
        for order in (None, 100):
            assert _same_solution(solve_premise(lemma, params, w, order),
                                  _restarting_solve(lemma, params, w, order))


@pytest.mark.parametrize("region", [SqrtLemniscate(), Janowski(0.5, -0.99)])
def test_compose_target_extends_the_target_series(region):
    w = blaschke_factor(0.9j)
    p = compose_target(region, w)
    assert p.order > 1024
    fresh = _target_series(region, w.series.pad_to(p.order))
    assert p.coeffs.tobytes() == fresh.coeffs.tobytes()


# m = 2: the solve's u is p * p, the same direct product; the bound allows
# for a u formed by other products of coefficients of modulus about 1
SQUARE_RESIDUAL_TOL = 1e-15


@pytest.mark.parametrize("lemma", ALL)
def test_residual_reuses_the_solve_power_exactly(lemma):
    # the residual is max |beta z p' - (F - theta(p)) u| with the solve's own
    # u = p^m: none for m = 0, p itself for m = 1, p * p for m = 2 and
    # p.power(m) for any other m, the same kernels on the same coefficients,
    # so these agree bit for bit
    rng = np.random.default_rng(zlib.crc32((lemma.value + "u").encode()))
    row = CATALOG[lemma]
    for order in (64, 256):
        params = draw_valid_params(lemma, rng)
        thr = closed_form_threshold(lemma, params)
        params = params.with_beta(1.2 * thr.beta_star if thr.beta_star else 1.0)
        w = random_schwarz(rng)
        sol = solve_premise_ode(lemma, params, w, order)
        m = row.ode_exponent(params)
        if m == 0.0:
            u = None
        elif m == 1.0:
            u = sol.p
        elif m == 2.0:
            u = sol.p * sol.p
        else:
            u = sol.p.power(m)
        F = _target_series(premise_region(lemma, params), w.series.pad_to(order))
        G = F - (sol.p if row.ode_style == "convective" else 1.0)
        defect = params.beta * sol.p.zderiv() - (G if u is None else G * u)
        if m == 2.0:
            assert abs(sol.residual - defect.max_abs_coeff()) <= SQUARE_RESIDUAL_TOL
        else:
            assert sol.residual == defect.max_abs_coeff()


# --- the per-exponent branches at large order ----------------------------------

FAST_ORDER = 2048


def _solve_at(lemma, rng, k=None):
    params = draw_valid_params(lemma, rng)
    if k is not None:
        params = dataclasses.replace(params, k=k)
    thr = closed_form_threshold(lemma, params)
    params = params.with_beta(1.2 * thr.beta_star if thr.beta_star else 1.0)
    w = random_schwarz(rng, FAST_ORDER)
    F = _target_series(premise_region(lemma, params), w.series.pad_to(FAST_ORDER))
    sol = solve_premise_ode(lemma, params, w, FAST_ORDER)
    return params, F, sol


def _affine_closed_form(F, beta, m):
    # 1 + beta z p'/p^m = F reads z p' p^-m = (F - 1)/beta, which integrates
    # to p^(1-m) = 1 + ((1-m)/beta) I for m != 1 and to p = exp(I/beta) for
    # m = 1, where z I' = F - 1, i.e. I_n = F_n/n
    I = np.zeros_like(F.coeffs)
    I[1:] = F.coeffs[1:] / np.arange(1, F.order + 1)
    I = PowerSeries(I)
    if m == 1.0:
        return (I / beta).exp()
    base = 1.0 + ((1.0 - m) / beta) * I
    return base if m == 0.0 else 1.0 / base


@pytest.mark.parametrize("lemma,k", [
    (LemmaId.L2, None), (LemmaId.L3, None), (LemmaId.L4, None),
    (LemmaId.L9, None), (LemmaId.L10, None), (LemmaId.L11, None),
    (LemmaId.L1, 0.0), (LemmaId.L1, 1.0), (LemmaId.L1, 2.0),
])
def test_affine_solve_matches_closed_form_at_large_order(lemma, k):
    rng = np.random.default_rng(zlib.crc32(f"{lemma.value}{k}closed".encode()))
    for _ in range(2):
        params, F, sol = _solve_at(lemma, rng, k)
        closed = _affine_closed_form(F, params.beta,
                                     CATALOG[lemma].ode_exponent(params))
        scale = sol.p.max_abs_coeff()
        assert np.max(np.abs(sol.p.coeffs - closed.coeffs)) <= 1e-13 * scale


def _euler_loop(F, beta, m, own):
    # one loop for every exponent, with Euler's power step
    # n u_n = sum_j (m j - (n - j)) c_j u_{n-j} at every coefficient
    c = np.zeros_like(F)
    u = np.zeros_like(F)
    c[0] = u[0] = 1.0
    G = F.copy()
    for n in range(1, F.size):
        c[n] = (F[n] + np.dot(G[1:n], u[n - 1 : 0 : -1])) / (beta * n + own)
        G[n] -= own * c[n]
        if m != 0.0:
            j = np.arange(1, n + 1)
            u[n] = np.dot((m * j - (n - j)) * c[1 : n + 1], u[n - 1 :: -1]) / n
    return c


@pytest.mark.parametrize("lemma,k", [
    (LemmaId.L5, None), (LemmaId.L6, None), (LemmaId.L7, None),
    (LemmaId.L8, None),
    (LemmaId.L1, -0.5), (LemmaId.L1, 0.5), (LemmaId.L1, 2.5), (LemmaId.L1, 3.0),
])
def test_solve_matches_euler_loop_at_large_order(lemma, k):
    rng = np.random.default_rng(zlib.crc32(f"{lemma.value}{k}euler".encode()))
    row = CATALOG[lemma]
    for _ in range(2):
        params, F, sol = _solve_at(lemma, rng, k)
        own = 1.0 if row.ode_style == "convective" else 0.0
        ref = _euler_loop(F.coeffs, params.beta, row.ode_exponent(params), own)
        scale = sol.p.max_abs_coeff()
        assert np.max(np.abs(sol.p.coeffs - ref)) <= 1e-13 * scale


def test_affine_vanishing_pivot_raises():
    with pytest.raises(RecursionBreakdown, match="vanishing pivot"):
        solve_premise_ode(LemmaId.L2, LemmaParams(A=1.0, B=0.0, beta=1e-15),
                          monomial(1), 16)


def test_compose_target_tail_certificate():
    w = blaschke_factor(0.5)
    p = compose_target(SqrtLemniscate(), w)
    assert p.tail_bound(0.999) < 1e-9
    # the composed series equals sqrt(1 + w) pointwise
    z = 0.7 * np.exp(1j * np.linspace(-3, 3, 11))
    expect = np.sqrt(1.0 + w.series.eval(z))
    assert np.max(np.abs(p.eval(z) - expect)) <= 1e-9
