"""Truncated Taylor series of analytic functions on the unit disk.

A :class:`PowerSeries` stores complex coefficients ``c[0] .. c[N]`` of

    p(z) = c0 + c1*z + c2*z**2 + ... + cN*z**N

and supports the calculus needed by the verification engine: Cauchy
products, division, real powers, ``sqrt``/``log``/``exp``, the operator
``z d/dz`` and evaluation.  ``*`` is the direct short product, O(N^2):
``np.convolve`` on blocks of ``SHORT_BLOCK`` coefficients of the second
factor (``_short_product``), which forms the coefficients 0..N that it
returns and, above them, only one ramp per block.  Up to ``SHORT_BLOCK`` coefficients, every order
of the adaptive solve, that is one ``np.convolve``, bit for bit the
full product truncated.  Division, ``sqrt``, ``exp``, ``log`` and
powers are Newton iterations on coefficient arrays (the kernels at the
end of this module), each a few products per doubling of the order:
below ``FFT_CROSSOVER`` coefficients a product is ``np.convolve``, above
it a zero-padded FFT, O(N log N).  A direct product that reads only a
middle window of coefficients forms just that window, as a "valid"
convolution (``mul_mid``).  Arbitrary points are evaluated by
Horner's rule, O(N) per point; the M equispaced points of a circle are
one inverse FFT of the coefficients folded modulo M (``eval_on_circle``),
O(N + M log M) in place of O(N M).  Its scale vector (-r)^n and fold
index n mod M are built once per radius, order and grid size, and kept
in bounded caches of read-only arrays.

Arithmetic between two series truncates the result at the smaller of the
two orders.  Values are immutable once constructed; instances may be
shared freely across threads.

    >>> s = PowerSeries([1.0, 1.0])        # 1 + z
    >>> (s * PowerSeries([1.0, -1.0])).coeffs.real.tolist()
    [1.0, 0.0]
    >>> one_over = 1.0 / s.pad_to(4)       # geometric series
    >>> one_over.coeffs.real.tolist()
    [1.0, -1.0, 1.0, -1.0, 1.0]
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

from .config import DEFAULTS
from .errors import (
    ConstantTermNotOne,
    ConstantTermNotZero,
    DivisionByZeroConstantTerm,
)

Scalar = Union[int, float, complex]

_DIV_PIVOT_TOL = 1e-14
# products whose shorter factor has at most this many coefficients are
# taken by np.convolve, longer ones by FFT (mul_mid)
FFT_CROSSOVER = 256
# PowerSeries.__mul__ takes the second factor in blocks of this many
# coefficients: every adaptive order is one np.convolve
SHORT_BLOCK = DEFAULTS.max_series_order + 1


class PowerSeries:
    """Immutable truncated power series with complex coefficients."""

    __slots__ = ("_c",)
    # numpy scalars then defer to __rmul__/__radd__ instead of broadcasting
    __array_ufunc__ = None

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        c = np.asarray(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs,
                       dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            if c.size > order + 1:
                c = c[: order + 1]
            elif c.size < order + 1:
                c = np.concatenate([c, np.zeros(order + 1 - c.size, dtype=complex)])
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "_c", c)

    # --- construction helpers ---

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "PowerSeries":
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(c)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The series of z itself."""
        c = np.zeros(order + 1, dtype=complex)
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    # --- basic access ---

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array c0..cN."""
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __len__(self) -> int:
        return self._c.size

    def __getitem__(self, n: int) -> complex:
        return complex(self._c[n])

    def __repr__(self) -> str:
        head = np.array2string(self._c[: min(4, self._c.size)], precision=6)
        return f"PowerSeries(order={self.order}, coeffs={head}...)"

    def pad_to(self, order: int) -> "PowerSeries":
        return PowerSeries(self._c, order=order)

    # --- ring operations ---

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries(self._c[: n + 1] + other._c[: n + 1])
        c = self._c.copy()
        c[0] = c[0] + other
        return PowerSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(-self._c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The Cauchy product to the smaller order (``_short_product``), or
        the product with a scalar."""
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order) + 1
            return PowerSeries(_short_product(self._c, other._c, n))
        return PowerSeries(self._c * complex(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PowerSeries):
            return _divide(self, other)
        return PowerSeries(self._c / complex(other))

    def __rtruediv__(self, other):
        num = PowerSeries.constant(complex(other), self.order)
        return _divide(num, self)

    def __pow__(self, exponent):
        return self.power(exponent)

    # --- analytic operations ---

    def power(self, exponent: float) -> "PowerSeries":
        """p**a for real a; needs c0 = 1.

        For a >= 1, p**a = p**j exp((a - j) log p) with j = floor(a), p**j
        by repeated squaring: exp's Newton step multiplies by 1/p**(a - j),
        whose coefficients grow with n where p nears 0 on the circle unless
        a - j < 1.
        """
        _require_constant_one(self._c)
        c, a = self._c, float(exponent)
        whole = math.floor(a) if a >= 1.0 else 0
        u = exp_of((a - whole) * _zlog(c))
        while whole:
            if whole & 1:
                u = mul(u, c, c.size)
            whole >>= 1
            if whole:
                c = mul(c, c, c.size)
        return PowerSeries(u)

    def sqrt(self) -> "PowerSeries":
        """Square root with value 1 at the origin; needs c0 = 1."""
        _require_constant_one(self._c)
        s, h = newton_arrays(self._c.size)
        for lo, hi in newton_steps(1, s.size):
            sqrt_step(self._c, s, h, lo, hi)
        return PowerSeries(s)

    def log(self) -> "PowerSeries":
        """Logarithm vanishing at the origin; needs c0 = 1."""
        _require_constant_one(self._c)
        zl = _zlog(self._c)
        zl[1:] /= np.arange(1, zl.size)
        return PowerSeries(zl)

    def exp(self) -> "PowerSeries":
        """Exponential; needs c0 = 0."""
        if abs(self._c[0]) > DEFAULTS.coeff_tol:
            raise ConstantTermNotZero(f"constant term is {self._c[0]!r}, expected 0")
        return PowerSeries(exp_of(self._c * np.arange(self._c.size)))

    def zderiv(self) -> "PowerSeries":
        """The operator z d/dz: c_n -> n c_n."""
        return PowerSeries(self._c * np.arange(self._c.size))

    def eval(self, z):
        """Horner evaluation at a complex point or ndarray of points."""
        return npoly.polyval(z, self._c)

    def eval_on_circle(self, radius: float, samples: int) -> np.ndarray:
        """p(radius e^{i t_k}) at t_k = -pi + 2 pi k / samples, by one FFT.

        The grid is that of ``np.linspace(-pi, pi, samples, endpoint=False)``.
        With z_k = -radius e^{2 pi i k / samples}, p(z_k) is the inverse DFT
        of the coefficients c_n (-radius)^n folded modulo ``samples``.  The
        scale vector (-radius)^n and the fold index n mod ``samples`` are
        built once per shape (``_circle_scale``, ``_circle_fold``).
        """
        n = self._c.size
        scaled = self._c * _circle_scale(float(radius), n)
        k = _circle_fold(n, samples)
        folded = (np.bincount(k, weights=scaled.real, minlength=samples)
                  + 1j * np.bincount(k, weights=scaled.imag, minlength=samples))
        return samples * np.fft.ifft(folded)

    def tail_bound(self, radius: float) -> float:
        """Geometric tail estimate |c_N| r^N / (1 - r).

        It sums the tail as if |c_n| <= |c_N| for every n > N, so it
        bounds nothing unless the coefficients decrease; a heuristic, not
        a certificate.
        """
        if radius >= 1.0:
            return float("inf")
        return float(abs(self._c[-1]) * radius ** self.order / (1.0 - radius))

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self._c)))


# A falsify trial evaluates one order on the same few circles again and
# again; rebuilding (-r)^n costs one libm pow per coefficient, most of an
# evaluation at order 2048.  The tables are read-only and shared.

@lru_cache(maxsize=64)
def _circle_scale(radius: float, n: int) -> np.ndarray:
    """(-radius)^0 .. (-radius)^(n-1), for ``eval_on_circle``."""
    table = (-radius) ** np.arange(n)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _circle_fold(n: int, samples: int) -> np.ndarray:
    """0 .. n-1 modulo ``samples``, for ``eval_on_circle``."""
    table = np.arange(n) % samples
    table.flags.writeable = False
    return table


def _short_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of a b, a short product (Mulders, AAECC 2000).

    b is taken in blocks of ``SHORT_BLOCK`` coefficients: block s adds
    ``np.convolve(a[:n-s], b[s:s+SHORT_BLOCK])[:n-s]`` into coefficients
    s..n-1.  Above the ones it keeps a block forms a ramp of at most
    ``SHORT_BLOCK`` - 1 coefficients, where the full product of the
    truncations forms n - 1.  For n <= ``SHORT_BLOCK`` this is the one
    call ``np.convolve(a[:n], b[:n])[:n]``, bit for bit.  Above it
    every coefficient is still a direct sum of the products a_i b_j,
    grouped by block, so it moves only in the last bits.
    """
    a, b = a[:n], b[:n]
    out = np.convolve(a, b[:SHORT_BLOCK])[:n]
    for s in range(SHORT_BLOCK, n, SHORT_BLOCK):
        out[s:] += np.convolve(a[: n - s], b[s : s + SHORT_BLOCK])[: n - s]
    return out


def _require_constant_one(c: np.ndarray) -> None:
    if abs(c[0] - 1.0) > DEFAULTS.coeff_tol:
        raise ConstantTermNotOne(f"constant term is {c[0]!r}, expected 1")


def _require_pivot(b: np.ndarray) -> None:
    if abs(b[0]) < _DIV_PIVOT_TOL:
        raise DivisionByZeroConstantTerm(
            f"denominator constant term {b[0]!r} below {_DIV_PIVOT_TOL}"
        )


def _divide(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    return PowerSeries(divide_of(a._c, b._c, min(a.order, b.order) + 1))


def _zlog(c: np.ndarray) -> np.ndarray:
    """z (log p)' = z p'/p for the coefficients c of p."""
    return divide_of(c * np.arange(c.size), c, c.size)


# --- Newton kernels on coefficient arrays -----------------------------------
#
# Each kernel doubles the number of correct coefficients per step (Newton
# iteration on power series; Brent & Kung, J. ACM 25(4), 1978).  A step
# ``lo -> hi`` (hi <= 2 lo) sets coefficients lo..hi-1 of its result in
# place, reading the coefficients below hi of its inputs and the ones below
# lo of its result, so a caller may hold a result and extend it to a higher
# order later.  The precisions of an n-coefficient result are fixed by n
# alone: ``newton_ladder(n)`` halves n, rounding up, down to 1.  The ladder
# to 2n - 1 coefficients is the ladder to n plus one step, so a result at
# order N = 2^j n0 extended to 2N is bit for bit the result built to 2N
# from scratch.  Kernels with a coupled inverse (division, sqrt, exp) also
# keep h, the reciprocal of their divisor or result, one step behind: at
# the start of the step lo -> hi it holds ceil(lo/2) coefficients.

def _smooth_sizes(limit: int) -> np.ndarray:
    out = [1]
    for p in (2, 3, 5):
        out = [v * p ** e for v in out for e in range(limit.bit_length())
               if v * p ** e <= limit]
    return np.array(sorted(set(out)))


# FFT lengths up to twice the largest order's size, then powers of two
_FFT_SIZES = _smooth_sizes(2 * DEFAULTS.max_order + 2)


def _fft_len(n: int) -> int:
    """The smallest 5-smooth length >= n (a power of two beyond the table)."""
    if n > _FFT_SIZES[-1]:
        return 1 << (n - 1).bit_length()
    return int(_FFT_SIZES[np.searchsorted(_FFT_SIZES, n)])


def mul_mid(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Coefficients lo..hi-1 of the product of the series a and b.

    A product whose shorter factor has at most ``FFT_CROSSOVER``
    coefficients is taken directly by ``np.convolve``.  When the window
    lies where every output sums ``short`` products (lo > 0,
    short - 1 <= lo, hi <= the longer size), that is the "valid"
    convolution, which forms no coefficient of the two ramps: a middle
    product (Hanrot, Quercia & Zimmermann, AAECC 2004).  numpy makes the
    same dot call per output in "full" and "valid" mode, so the window is
    bit for bit that of the full product; the argument order is kept,
    because with equal sizes the sum runs in the order of the first one.
    Other windows are cut from the full product.  A longer product is a
    cyclic convolution by FFT, of the smallest 5-smooth length that holds
    coefficients lo..hi-1 clear of the wrapped ones: length L takes index
    k >= L to k - L, below lo when L >= len(a) + len(b) - 1 - lo.  The
    FFT's rounding is relative to the norms of its operands, so their
    constant terms are split off and added back exactly,
    a0 b + b0 a - a0 b0: for the series 1 + (small) of a premise solve at
    large beta each coefficient's error then follows the small part.
    """
    a, b = a[:hi], b[:hi]
    short = min(a.size, b.size)
    if short <= FFT_CROSSOVER:
        if 0 < lo and short - 1 <= lo and hi <= max(a.size, b.size):
            return np.convolve(a, b, mode="valid")[lo - short + 1 : hi - short + 1]
        return _window(np.convolve(a, b), lo, hi)
    size = _fft_len(max(hi, a.size + b.size - 1 - lo))
    a0, b0 = a[0], b[0]
    a, b = a.copy(), b.copy()
    a[0] = b[0] = 0.0
    out = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[lo:hi]
    out += a0 * _window(b, lo, hi) + b0 * _window(a, lo, hi)
    if lo == 0:
        out[0] = a0 * b0
    return out


def _window(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x_lo..x_{hi-1}, zero beyond the end of x."""
    out = x[lo:hi]
    if out.size < hi - lo:
        out = np.concatenate([out, np.zeros(hi - lo - out.size, dtype=x.dtype)])
    return out


def mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of a b."""
    return mul_mid(a, b, 0, n)


def newton_ladder(n: int) -> list:
    """The precisions 1 < ... < n of a Newton solve to n coefficients."""
    out = [n]
    while out[-1] > 1:
        out.append((out[-1] + 1) // 2)
    return out[::-1]


def newton_steps(done: int, n: int) -> list:
    """The steps (lo, hi) that extend a result of ``done`` coefficients to
    n; from 1 when ``done`` is not on the ladder to n."""
    ladder = newton_ladder(n)
    start = ladder.index(done) if done in ladder else 0
    return list(zip(ladder[start:-1], ladder[start + 1:]))


def newton_arrays(n: int, count: int = 2) -> list:
    """``count`` arrays of n coefficients with constant term 1."""
    out = [np.zeros(n, dtype=complex) for _ in range(count)]
    for arr in out:
        arr[0] = 1.0
    return out


def recip_step(b: np.ndarray, g: np.ndarray, lo: int, hi: int) -> None:
    """Set g_lo..g_{hi-1} of g = 1/b: g + g (1 - b g)."""
    if hi <= lo:
        return
    e = mul_mid(b, g[:lo], lo, hi)
    g[lo:hi] = -mul(g, e, hi - lo)


def divide_step(a: np.ndarray, b: np.ndarray, q: np.ndarray, h: np.ndarray,
                lo: int, hi: int) -> None:
    """Set q_lo..q_{hi-1} of q = a/b, h = 1/b: q + h (a - b q)."""
    recip_step(b, h, (lo + 1) // 2, lo)
    r = a[lo:hi] - mul_mid(b, q[:lo], lo, hi)
    q[lo:hi] = mul(h, r, hi - lo)


def sqrt_step(a: np.ndarray, s: np.ndarray, h: np.ndarray, lo: int,
              hi: int) -> None:
    """Set s_lo..s_{hi-1} of s = sqrt(a), h = 1/s: s + h (a - s^2)/2."""
    recip_step(s, h, (lo + 1) // 2, lo)
    r = a[lo:hi] - mul_mid(s[:lo], s[:lo], lo, hi)
    s[lo:hi] = mul(h, r, hi - lo) / 2.0


def exp_step(zf: np.ndarray, e: np.ndarray, h: np.ndarray, lo: int,
             hi: int) -> None:
    """Set e_lo..e_{hi-1} of e = exp(f), h = 1/e, from zf = z f'.

    e + e (f - log e): with t = z e' - e z f', which vanishes below lo,
    z (log e)' = z f' + h t, so (f - log e)_n = -(h t)_n / n.
    """
    recip_step(e, h, (lo + 1) // 2, lo)
    exp_update(zf, e, h, lo, hi)


def exp_update(zf: np.ndarray, e: np.ndarray, h: np.ndarray, lo: int,
               hi: int) -> None:
    """``exp_step`` for a caller that already holds h to hi - lo
    coefficients."""
    t = mul_mid(e[:lo], zf, lo, hi)          # -t above lo: e z f' alone
    d = mul(h, t, hi - lo) / np.arange(lo, hi)
    e[lo:hi] = mul(e, d, hi - lo)


def divide_of(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """n coefficients of a/b; needs b_0 away from 0."""
    _require_pivot(b)
    q, h = newton_arrays(n)
    q[0], h[0] = a[0] / b[0], 1.0 / b[0]
    for lo, hi in newton_steps(1, n):
        divide_step(a, b, q, h, lo, hi)
    return q


def exp_of(zf: np.ndarray) -> np.ndarray:
    """exp(f) to the length of zf = z f'."""
    e, h = newton_arrays(zf.size)
    for lo, hi in newton_steps(1, zf.size):
        exp_step(zf, e, h, lo, hi)
    return e
