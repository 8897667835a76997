"""The Newton kernels of ``lemnisub.series`` against the coefficient-loop
oracles of ``oracles.py``, on both sides of the FFT crossover.

Products whose shorter factor has at most ``series.FFT_CROSSOVER``
coefficients are ``np.convolve``; longer ones are zero-padded FFTs, whose
rounding is relative to the norms of the factors.  So the kernels are held
to the loops within 1e-14 of the largest coefficient of the result, on
the three Schwarz families at N = 512, 2048 and 16384.
"""

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
    solve_premise_ode,
)
from lemnisub import series
from lemnisub.generate import _target_series
from lemnisub.regions import Janowski, SqrtLemniscate

import oracles
from conftest import draw_valid_params

KERNEL_TOL = 1e-14           # of the largest coefficient


def _draw(family, rng, order):
    if family == "monomial":
        return monomial(int(rng.integers(1, 7)), order)
    if family == "blaschke":
        a = 0.8 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        return blaschke_factor(a, order)
    c = np.zeros(9, dtype=complex)
    c[1:] = rng.normal(size=8) + 1j * rng.normal(size=8)
    return scaled_polynomial(c, order)


def _close(got, ref):
    return np.max(np.abs(got - ref)) <= KERNEL_TOL * np.max(np.abs(ref))


def _check_kernels(w, rng, order):
    w = w.series.pad_to(order)
    one_plus = (1.0 + w).coeffs
    assert _close(PowerSeries(one_plus).sqrt().coeffs, oracles.sqrt_series(one_plus))
    A, B = np.sort(rng.uniform(-0.99, 0.99, 2))[::-1]
    num, den = (1.0 + A * w).coeffs, (1.0 + B * w).coeffs
    assert _close((PowerSeries(num) / PowerSeries(den)).coeffs,
                  oracles.divide_series(num, den))
    a = rng.uniform(0.0, 3.0)
    assert _close(PowerSeries(one_plus).power(a).coeffs,
                  oracles.power_series(one_plus, a))
    f = 0.5 * w.coeffs
    assert _close(PowerSeries(f).exp().coeffs, oracles.exp_series(f))


@pytest.mark.parametrize("order", [512, 2048])
@pytest.mark.parametrize("family", ["monomial", "blaschke", "poly"])
def test_kernels_match_loop_oracles(family, order):
    rng = np.random.default_rng(zlib.crc32(f"{family}{order}kernels".encode()))
    for _ in range(3):
        _check_kernels(_draw(family, rng, order), rng, order)


@pytest.mark.parametrize("family", ["monomial", "blaschke", "poly"])
def test_kernels_match_loop_oracles_at_the_largest_order(family):
    rng = np.random.default_rng(zlib.crc32(f"{family}16384".encode()))
    order = 16384
    w = _draw(family, rng, order).series.pad_to(order)
    one_plus = (1.0 + w).coeffs
    assert _close(PowerSeries(one_plus).sqrt().coeffs, oracles.sqrt_series(one_plus))


# p**a for a in (-1, 0) on a base that vanishes on the circle: the result
# decays like n^(-1-a), slowly near a = -1, and each Newton step of exp
# multiplies the rounding of its products by the sum of those coefficients,
# where Euler's loop carries one coefficient's rounding; 3.2e-13 is the
# worst measured, for (1 + z)^-0.99 at N = 2048
NEGATIVE_POWER_TOL = 1e-12


@pytest.mark.parametrize("family", ["monomial", "blaschke", "poly"])
def test_negative_powers_match_euler_loop(family):
    rng = np.random.default_rng(zlib.crc32(f"{family}negative".encode()))
    for a in (-0.99, -0.5, -0.2):
        one_plus = (1.0 + _draw(family, rng, 2048).series.pad_to(2048)).coeffs
        got = PowerSeries(one_plus).power(a).coeffs
        ref = oracles.power_series(one_plus, a)
        assert np.max(np.abs(got - ref)) <= NEGATIVE_POWER_TOL * np.max(np.abs(ref))


def test_sqrt_of_polynomial_draws_at_512():
    # the draws where an FFT sqrt once lost 1e-5 from coefficient 293 on
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = _draw("poly", rng, 512).series
        one_plus = (1.0 + w).coeffs
        assert _close(PowerSeries(one_plus).sqrt().coeffs, oracles.sqrt_series(one_plus))


@pytest.mark.parametrize("size", [1, 2, 100, series.FFT_CROSSOVER])
def test_products_at_and_below_the_crossover_are_direct(size, rng):
    a = rng.normal(size=size) + 1j * rng.normal(size=size)
    b = rng.normal(size=3 * size) + 1j * rng.normal(size=3 * size)
    full = np.convolve(a, b)
    assert series.mul(a, b, full.size).tobytes() == full.tobytes()
    assert series.mul_mid(b, a, size, 2 * size).tobytes() == full[size : 2 * size].tobytes()


@pytest.mark.parametrize("size", [series.FFT_CROSSOVER + 1, 1000, 4097])
def test_products_above_the_crossover_match_the_direct_product(size, rng):
    # every window lo..hi-1 of the product, the wrapped tail of the cyclic
    # convolution kept below lo
    a = rng.normal(size=size) + 1j * rng.normal(size=size)
    b = rng.normal(size=2 * size) + 1j * rng.normal(size=2 * size)
    full = np.convolve(a, b)
    scale = np.sum(np.abs(a)) * np.max(np.abs(b))
    for lo, hi in ((0, 2 * size), (size, 2 * size), (size // 2, size + 7)):
        got = series.mul_mid(a, b, lo, hi)
        assert got.size == hi - lo
        assert np.max(np.abs(got - full[lo:hi])) <= 1e-14 * scale


def test_target_series_matches_loop_oracles():
    w = blaschke_factor(0.9j).series.pad_to(2048)
    assert _close(_target_series(SqrtLemniscate(), w).coeffs,
                  oracles.sqrt_series((1.0 + w).coeffs))
    assert _close(_target_series(Janowski(0.5, -0.99), w).coeffs,
                  oracles.divide_series((1.0 + 0.5 * w).coeffs,
                                        (1.0 - 0.99 * w).coeffs))


# every branch of the closed-form solve: m = 0, 1, 2 in both styles, and L1
# at the exponents outside {0, 1, 2}
SOLVES = [(lemma, None) for lemma in LemmaId] + [
    (LemmaId.L1, k) for k in (0.0, 1.0, 2.0, -0.5, 2.5)]


@pytest.mark.parametrize("lemma,k", SOLVES)
def test_solve_matches_premise_recursion(lemma, k):
    rng = np.random.default_rng(zlib.crc32(f"{lemma.value}{k}recursion".encode()))
    row = CATALOG[lemma]
    for order in (64, 512):
        params = draw_valid_params(lemma, rng)
        if k is not None:
            params = params.__class__(**{**params.__dict__, "k": k})
        thr = closed_form_threshold(lemma, params)
        params = params.with_beta(1.2 * thr.beta_star if thr.beta_star else 1.0)
        w = random_schwarz(rng, order)
        F = _target_series(premise_region(lemma, params), w.series.pad_to(order))
        sol = solve_premise_ode(lemma, params, w, order)
        own = 1.0 if row.ode_style == "convective" else 0.0
        ref = oracles.premise_recursion(F.coeffs, params.beta,
                                        row.ode_exponent(params), own)
        assert np.max(np.abs(sol.p.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("order", [512, 2048])
def test_premise_residual_stays_at_rounding_level_at_large_beta(order):
    # p = 1 + O(1/beta): the FFT products split off the constant terms, or
    # their rounding, relative to the constant 1, would reach beta n times
    # the residual (1e-10 here at order 512)
    params = LemmaParams(A=0.8648148667651909, B=0.8583922355870042,
                         beta=732.3748610575361)
    w = blaschke_factor(0.7 - 0.2j, order)
    assert solve_premise_ode(LemmaId.L8, params, w, order).residual <= 1e-12
