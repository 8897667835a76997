"""Products that form only the coefficients their callers read.

``series.mul_mid`` takes a direct middle product as a "valid"
convolution; it must match the window of the full ``np.convolve``
(``oracles.full_window_mul_mid``) bit for bit, on random shapes, on
operands at every alignment, at the exact calls of the Newton kernels, and
so in every premise solve.  ``PowerSeries.__mul__`` is a short product in
blocks of ``series.SHORT_BLOCK``: one ``np.convolve`` up to that many
coefficients, bit for bit the full product truncated, and within a
componentwise rounding bound of it above.
"""

import sys
import zlib

import numpy as np
import pytest

from lemnisub import (
    LemmaId,
    PowerSeries,
    blaschke_factor,
    closed_form_threshold,
    monomial,
    scaled_polynomial,
    solve_premise,
)
from lemnisub import generate, series

import oracles
from conftest import draw_valid_params

EPS = np.finfo(float).eps
# Each side of the comparison is a complex inner product of n + 1 terms,
# within gamma_{n+3} sum |a_i||b_j| of the exact sum (Higham, Accuracy and
# Stability of Numerical Algorithms, 2002, section 3.6), gamma_k ~ k eps/2;
# their difference is then within (n + 3) eps sum <= 2 (n + 1) eps sum for
# n >= 1 (coefficient 0 is a0 b0 on both sides).  C doubles that.
SHORT_PRODUCT_C = 4.0


def _complex(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _offset_view(values, offset_bytes):
    """A copy of ``values`` that starts ``offset_bytes`` into a fresh buffer."""
    buf = np.zeros(values.nbytes + 64, dtype=np.uint8)
    out = buf[offset_bytes : offset_bytes + values.nbytes].view(complex)
    out[:] = values
    return out


def _same(a, b, lo, hi):
    return series.mul_mid(a, b, lo, hi).tobytes() == \
        oracles.full_window_mul_mid(a, b, lo, hi).tobytes()


def _takes_valid_path(a, b, lo, hi):
    short = min(a[:hi].size, b[:hi].size)
    return (short <= series.FFT_CROSSOVER and 0 < lo and short - 1 <= lo
            and hi <= max(a[:hi].size, b[:hi].size))


# --- middle products ------------------------------------------------------------

def test_middle_products_match_the_full_window_on_seeded_shapes():
    rng = np.random.default_rng(zlib.crc32(b"middle shapes"))
    valid = 0
    for _ in range(1500):
        short = int(rng.integers(1, series.FFT_CROSSOVER + 1))
        long = int(rng.integers(short, 3 * series.FFT_CROSSOVER))
        a, b = _complex(rng, short), _complex(rng, long)
        if rng.uniform() < 0.5:
            # a window inside the valid range, where every output sums
            # ``short`` products
            lo = int(rng.integers(max(1, short - 1), long))
            hi = int(rng.integers(lo + 1, long + 1))
        else:
            lo = int(rng.integers(1, long + short))
            hi = int(rng.integers(lo + 1, lo + long + 1))
        for x, y in ((a, b), (b, a)):
            valid += _takes_valid_path(x, y, lo, hi)
            assert _same(x, y, lo, hi), (short, long, lo, hi)
    assert valid >= 1000


def test_middle_products_of_equal_sizes_keep_the_argument_order():
    rng = np.random.default_rng(zlib.crc32(b"middle equal"))
    for size in (1, 2, 3, 17, 64, 255, series.FFT_CROSSOVER):
        a, b = _complex(rng, size), _complex(rng, size)
        for lo, hi in ((size - 1, size), (max(1, size - 1), size + 1),
                       (size, 2 * size), (1, size)):
            if hi <= lo:
                continue
            assert _same(a, b, lo, hi)
            assert _same(b, a, lo, hi)


@pytest.mark.parametrize("offset_a", [0, 8, 16, 24])
@pytest.mark.parametrize("offset_b", [0, 8, 40])
def test_middle_products_match_the_full_window_at_every_alignment(offset_a, offset_b):
    rng = np.random.default_rng(zlib.crc32(f"middle {offset_a} {offset_b}".encode()))
    for short, long in ((1, 9), (7, 8), (64, 129), (128, 256), (255, 511),
                        (series.FFT_CROSSOVER, series.FFT_CROSSOVER)):
        a = _offset_view(_complex(rng, short), offset_a)
        b = _offset_view(_complex(rng, long), offset_b)
        for lo in sorted({max(1, short - 1), short, (short + long) // 2}):
            for hi in sorted({lo + 1, long}):
                if hi > lo:
                    assert _same(a, b, lo, hi)
                    assert _same(b, a, lo, hi)


def _schwarz(family, rng, order):
    if family == "monomial":
        return monomial(int(rng.integers(1, 7)), order)
    if family == "blaschke":
        a = 0.8 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        return blaschke_factor(a, order)
    c = np.zeros(9, dtype=complex)
    c[1:] = _complex(rng, 8)
    return scaled_polynomial(c, order)


def _premise_draw(lemma, rng):
    params = draw_valid_params(lemma, rng)
    thr = closed_form_threshold(lemma, params)
    return params.with_beta(1.2 * thr.beta_star if thr.beta_star else 1.0)


def test_kernel_call_shapes_match_the_full_window(monkeypatch):
    # every mul_mid call of the Newton kernels and of L7's step, checked
    # against the oracle as the solve makes it
    middle_callers = set()

    def checked(a, b, lo, hi):
        got = oracles._MUL_MID(a, b, lo, hi)
        assert got.tobytes() == oracles.full_window_mul_mid(a, b, lo, hi).tobytes()
        if _takes_valid_path(a, b, lo, hi):
            middle_callers.add(sys._getframe(1).f_code.co_name)
        return got

    monkeypatch.setattr(series, "mul_mid", checked)
    monkeypatch.setattr(generate, "mul_mid", checked)
    rng = np.random.default_rng(zlib.crc32(b"call shapes"))
    for lemma in LemmaId:
        params = _premise_draw(lemma, rng)
        for order in (None, 1024):
            solve_premise(lemma, params, _schwarz("blaschke", rng, 64), order)
    # "step" is L7's (_convective_square_step), the one step of generate
    # that calls mul_mid itself
    assert {"recip_step", "divide_step", "exp_update", "step"} <= middle_callers


@pytest.mark.parametrize("family", ["monomial", "blaschke", "poly"])
def test_solve_does_not_move_with_middle_products(family, monkeypatch):
    rng = np.random.default_rng(zlib.crc32(f"{family} solve".encode()))
    cases = [(lemma, _premise_draw(lemma, rng), _schwarz(family, rng, 64))
             for lemma in LemmaId]
    for order in (None, 2048):
        new = [solve_premise(lemma, params, w, order).p.coeffs.tobytes()
               for lemma, params, w in cases]
        with monkeypatch.context() as patch:
            patch.setattr(series, "mul_mid", oracles.full_window_mul_mid)
            patch.setattr(generate, "mul_mid", oracles.full_window_mul_mid)
            old = [solve_premise(lemma, params, w, order).p.coeffs.tobytes()
                   for lemma, params, w in cases]
        assert new == old


# --- short products ---------------------------------------------------------------

@pytest.mark.parametrize("sizes", [(1, 1), (2, 2), (65, 65), (257, 257), (512, 512),
                                   (series.SHORT_BLOCK, series.SHORT_BLOCK),
                                   (300, 900), (series.SHORT_BLOCK, 2049)])
def test_short_product_is_the_full_product_up_to_a_block(sizes, rng):
    a, b = _complex(rng, sizes[0]), _complex(rng, sizes[1])
    n = min(sizes)
    ref = np.convolve(a[:n], b[:n])[:n].tobytes()
    assert (PowerSeries(a) * PowerSeries(b)).coeffs.tobytes() == ref
    assert (PowerSeries(b) * PowerSeries(a)).coeffs.tobytes() == \
        np.convolve(b[:n], a[:n])[:n].tobytes()


@pytest.mark.parametrize("sizes", [(series.SHORT_BLOCK + 1,) * 2, (2049, 2049),
                                   (2049, 3000), (700, 514), (16385, 16385)])
def test_short_product_above_a_block_is_within_rounding(sizes, rng):
    a, b = _complex(rng, sizes[0]), _complex(rng, sizes[1])
    n = min(sizes)
    got = (PowerSeries(a) * PowerSeries(b)).coeffs
    ref = np.convolve(a[:n], b[:n])[:n]
    scale = np.convolve(np.abs(a[:n]), np.abs(b[:n]))[:n]
    bound = SHORT_PRODUCT_C * np.arange(1, n + 1) * EPS * scale
    assert got.size == n
    assert np.all(np.abs(got - ref) <= bound)
