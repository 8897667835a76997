import doctest
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from lemnisub import series
from lemnisub import PowerSeries
from lemnisub.errors import (
    ConstantTermNotOne,
    ConstantTermNotZero,
    DivisionByZeroConstantTerm,
)

from conftest import decaying_series_coeffs

COEFF_TOL = 1e-12


def binom_half(n_terms):
    """Oracle: binomial coefficients of (1+x)^(1/2) by the product recurrence."""
    out = [1.0]
    for n in range(1, n_terms):
        out.append(out[-1] * (0.5 - n + 1) / n)
    return np.array(out)


def test_module_examples_run():
    result = doctest.testmod(series)
    assert result.failed == 0 and result.attempted == 4


def test_polynomial_product_identity():
    one_plus = PowerSeries([1.0, 1.0], order=8)
    one_minus = PowerSeries([1.0, -1.0], order=8)
    prod = one_plus * one_minus
    expect = np.zeros(9)
    expect[0], expect[2] = 1.0, -1.0
    assert np.max(np.abs(prod.coeffs - expect)) == 0.0


def test_geometric_series_reciprocal():
    geo = 1.0 / PowerSeries([1.0, 1.0], order=16)
    expect = (-1.0) ** np.arange(17)
    assert np.max(np.abs(geo.coeffs - expect)) <= COEFF_TOL


def test_mobius_series_trivial_denominator():
    z = PowerSeries.identity(8)
    s = (1.0 + 1.0 * z) / (1.0 + 0.0 * z)
    expect = np.zeros(9)
    expect[0] = expect[1] = 1.0
    assert np.max(np.abs(s.coeffs - expect)) <= COEFF_TOL


def test_sqrt_matches_binomial_series():
    s = (1.0 + PowerSeries.identity(24)).sqrt()
    assert np.max(np.abs(s.coeffs - binom_half(25))) <= COEFF_TOL


def test_power_half_matches_binomial_series():
    s = (1.0 + PowerSeries.identity(24)).power(0.5)
    assert np.max(np.abs(s.coeffs - binom_half(25))) <= COEFF_TOL


def test_power_examples():
    sq = (1.0 + PowerSeries.identity(8)).power(2)
    expect = np.zeros(9)
    expect[:3] = [1.0, 2.0, 1.0]
    assert np.max(np.abs(sq.coeffs - expect)) <= COEFF_TOL
    inv = (1.0 + PowerSeries.identity(8)).power(-1)
    assert np.max(np.abs(inv.coeffs - (-1.0) ** np.arange(9))) <= COEFF_TOL


def test_log_mercator():
    lg = (1.0 + PowerSeries.identity(16)).log()
    ns = np.arange(1, 17)
    expect = np.concatenate([[0.0], (-1.0) ** (ns + 1) / ns])
    assert np.max(np.abs(lg.coeffs - expect)) <= COEFF_TOL


def test_exp_factorials():
    e = PowerSeries.identity(12).exp()
    expect = 1.0 / np.array([math.factorial(n) for n in range(13)])
    assert np.max(np.abs(e.coeffs - expect)) <= COEFF_TOL


def test_zderiv_of_sqrt_series():
    # differentiate the binomial series term-wise: c_n -> n c_n
    zd = (1.0 + PowerSeries.identity(12)).sqrt().zderiv()
    expect = binom_half(13) * np.arange(13)
    assert np.max(np.abs(zd.coeffs - expect)) <= COEFF_TOL
    # leading terms z/2 - z^2/4 + 3 z^3/16
    assert zd[1] == pytest.approx(0.5)
    assert zd[2] == pytest.approx(-0.25)
    assert zd[3] == pytest.approx(3.0 / 16.0)


def test_calculus_basics():
    p = PowerSeries([1.0, 1.0, 1.0])
    assert np.allclose(p.zderiv().coeffs, [0.0, 1.0, 2.0])


def test_eval_examples():
    assert PowerSeries([1.0, 1.0]).eval(0.0) == pytest.approx(1.0)
    s = (1.0 + PowerSeries.identity(64)).sqrt()
    assert abs(s.eval(0.21) - math.sqrt(1.21)) <= 1e-10
    geo = 1.0 / PowerSeries([1.0, -1.0], order=64)
    # truncation error ~ 2^-64; float rounding of the 65-term Horner dominates
    assert abs(geo.eval(0.5) - 2.0) <= 1e-13


@pytest.mark.parametrize("radius", [0.9, 0.999, 1.0])
@pytest.mark.parametrize("samples", [64, 2048])
def test_eval_on_circle_matches_horner(samples, radius):
    # orders below, at and past the grid size exercise the folding mod samples
    rng = np.random.default_rng(samples)
    z = radius * np.exp(1j * np.linspace(-np.pi, np.pi, samples, endpoint=False))
    for order in (0, 1, samples - 1, samples, samples + 1, 4 * samples):
        c = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        got = PowerSeries(c).eval_on_circle(radius, samples)
        scale = np.sum(np.abs(c) * radius ** np.arange(order + 1))
        assert got.shape == (samples,)
        assert np.max(np.abs(got - npoly.polyval(z, c))) <= 1e-13 * scale


def test_eval_on_circle_tables_change_no_bit():
    # the cached scale and fold tables against the formula built per call;
    # each case is taken twice (the second a cache hit), in shuffled order
    # so that sizes and radii change from one case to the next
    rng = np.random.default_rng(20480)
    tables = (series._circle_scale, series._circle_fold)
    for cached in tables:
        cached.cache_clear()
    cases = [(samples, order, radius)
             for radius in (0.9, 0.99, 0.999, 1.0, 0.37)
             for samples in (64, 1000, 2048, 4096)
             for order in (0, 1, samples - 1, samples, samples + 1, 4 * samples)]
    for i in rng.permutation(len(cases)):
        samples, order, radius = cases[i]
        c = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        scaled = c * (-float(radius)) ** np.arange(c.size)
        k = np.arange(c.size) % samples
        folded = (np.bincount(k, weights=scaled.real, minlength=samples)
                  + 1j * np.bincount(k, weights=scaled.imag, minlength=samples))
        want = samples * np.fft.ifft(folded)
        p = PowerSeries(c)
        assert np.array_equal(p.eval_on_circle(radius, samples), want)
        hits = [f.cache_info().hits for f in tables]
        assert np.array_equal(p.eval_on_circle(radius, samples), want)
        assert [f.cache_info().hits for f in tables] == [h + 1 for h in hits]


def test_eval_on_circle_tables_are_read_only_and_bounded():
    for table in (series._circle_scale(0.9, 8), series._circle_fold(8, 3)):
        with pytest.raises(ValueError):
            table[0] = 0
    for cached in (series._circle_scale, series._circle_fold):
        cached.cache_clear()
    for n in range(1, 201):
        PowerSeries(np.ones(n)).eval_on_circle(0.5, n + 1)
    for cached in (series._circle_scale, series._circle_fold):
        info = cached.cache_info()
        assert info.misses == 200
        assert 0 < info.currsize <= info.maxsize < 200


def test_convolution_identity_at_random_points(rng):
    for _ in range(10):
        a = PowerSeries(rng.uniform(-1, 1, 17) + 1j * rng.uniform(-1, 1, 17))
        b = PowerSeries(rng.uniform(-1, 1, 17) + 1j * rng.uniform(-1, 1, 17))
        prod = (a.pad_to(40) * b.pad_to(40))   # degree 32 fits: product is exact
        z = 0.9 * rng.uniform(0, 1, 100) * np.exp(1j * rng.uniform(-np.pi, np.pi, 100))
        lhs = prod.eval(z)
        rhs = a.eval(z) * b.eval(z)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_roundtrips_at_order_64(seed):
    rng = np.random.default_rng(10_000 + seed)
    c = decaying_series_coeffs(rng, 64)
    s = PowerSeries(c)
    assert ((s.sqrt() * s.sqrt()) - s).max_abs_coeff() <= COEFF_TOL
    assert (s.log().exp() - s).max_abs_coeff() <= COEFF_TOL
    b = PowerSeries(decaying_series_coeffs(rng, 64))
    assert (((s * b) / b) - s).max_abs_coeff() <= COEFF_TOL


def test_power_two_equals_self_product(rng):
    s = PowerSeries(decaying_series_coeffs(rng, 64))
    assert (s.power(2) - s * s).max_abs_coeff() <= COEFF_TOL


def test_power_integer_matches_repeated_multiplication(rng):
    s = PowerSeries(decaying_series_coeffs(rng, 48))
    rep = s * s * s
    assert (s.power(3) - rep).max_abs_coeff() <= COEFF_TOL


def test_truncation_order_tracking():
    a = PowerSeries(np.ones(9))
    b = PowerSeries(np.ones(5))
    assert (a * b).order == 4
    assert (a + b).order == 4
    assert (a / b).order == 4


def test_fills_extend_a_result_bit_for_bit(rng):
    # a Newton step sets coefficients lo..hi-1 from the lower ones, and the
    # ladder to 2n - 1 coefficients is the ladder to n plus one step, so
    # extending a result order by order gives what one call to each order
    # gives, across the FFT crossover too
    a = PowerSeries(np.concatenate([[1.0], 0.3 * (rng.normal(size=640)
                                                  + 1j * rng.normal(size=640))]))
    b = PowerSeries(np.concatenate([[0.7 - 0.2j], 0.3 * rng.normal(size=640)]))
    s, hs = series.newton_arrays(641)
    q, hq = series.newton_arrays(641)
    q[0], hq[0] = a[0] / b[0], 1.0 / b[0]
    done = 1
    for n in (5, 9, 17, 81, 161, 321, 641):
        for lo, hi in series.newton_steps(done, n):
            series.sqrt_step(a.coeffs, s, hs, lo, hi)
            series.divide_step(a.coeffs, b.coeffs, q, hq, lo, hi)
        done = n
        assert s[:n].tobytes() == a.pad_to(n - 1).sqrt().coeffs.tobytes()
        assert q[:n].tobytes() == (a / b.pad_to(n - 1)).coeffs.tobytes()


def test_newton_ladder_nests_and_restarts_off_the_ladder():
    assert series.newton_ladder(65) == [1, 2, 3, 5, 9, 17, 33, 65]
    assert series.newton_ladder(129)[:-1] == series.newton_ladder(65)
    assert series.newton_steps(65, 129) == [(65, 129)]
    # 65 is not on the ladder to 101, so the steps start again from 1
    assert series.newton_steps(65, 101) == series.newton_steps(1, 101)
    assert series.newton_steps(1, 1) == []


def test_error_cases():
    z = PowerSeries.identity(8)
    with pytest.raises(DivisionByZeroConstantTerm):
        (1.0 + z) / z
    with pytest.raises(ConstantTermNotOne):
        (2.0 + z).sqrt()
    with pytest.raises(ConstantTermNotOne):
        (0.5 + z).log()
    with pytest.raises(ConstantTermNotZero):
        (1.0 + z).exp()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=12))
def test_sqrt_square_roundtrip_property(tail):
    s = PowerSeries([1.0] + [t * 0.5 ** i for i, t in enumerate(tail)])
    assert ((s.sqrt() * s.sqrt()) - s).max_abs_coeff() <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=12))
def test_exp_log_roundtrip_property(tail):
    s = PowerSeries([1.0] + [t * 0.5 ** i for i, t in enumerate(tail)])
    assert (s.log().exp() - s).max_abs_coeff() <= 1e-10
