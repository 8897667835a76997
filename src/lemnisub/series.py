"""Truncated Taylor series of analytic functions on the unit disk.

A :class:`PowerSeries` stores complex coefficients ``c[0] .. c[N]`` of

    p(z) = c0 + c1*z + c2*z**2 + ... + cN*z**N

and supports the calculus needed by the verification engine: Cauchy
products, division, real powers, ``sqrt``/``log``/``exp``, the operator
``z d/dz`` and evaluation.  The arithmetic is computed
by O(N^2) coefficient recursions, which is ample at the default order
N = 64 and keeps each step numerically transparent.  Arbitrary points
are evaluated by Horner's rule, O(N) per point; the M equispaced points
of a circle are one inverse FFT of the coefficients folded modulo M
(``eval_on_circle``), O(N + M log M) in place of O(N M).

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
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            full = np.convolve(self._c[: n + 1], other._c[: n + 1])
            return PowerSeries(full[: n + 1])
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
        """p**a for real a, by the Euler coefficient recursion; needs c0 = 1."""
        _require_constant_one(self._c)
        a = float(exponent)
        jc = self._c * np.arange(self._c.size)
        u = np.zeros(self._c.size, dtype=complex)
        ku = np.zeros(self._c.size, dtype=complex)
        u[0] = 1.0
        for n in range(1, u.size):
            euler_power_step(a, self._c, jc, u, ku, n)
        return PowerSeries(u)

    def sqrt(self) -> "PowerSeries":
        """Square root with value 1 at the origin; needs c0 = 1."""
        s = np.zeros(self._c.size, dtype=complex)
        sqrt_fill(self._c, s, 0, s.size)
        return PowerSeries(s)

    def log(self) -> "PowerSeries":
        """Logarithm vanishing at the origin; needs c0 = 1."""
        _require_constant_one(self._c)
        d = _divide(self.zderiv(), self)
        out = np.zeros(self.order + 1, dtype=complex)
        ns = np.arange(1, self.order + 1)
        out[1:] = d._c[1:] / ns
        return PowerSeries(out)

    def exp(self) -> "PowerSeries":
        """Exponential; needs c0 = 0."""
        if abs(self._c[0]) > DEFAULTS.coeff_tol:
            raise ConstantTermNotZero(f"constant term is {self._c[0]!r}, expected 0")
        n = self.order
        e = np.zeros(n + 1, dtype=complex)
        e[0] = 1.0
        zp = self._c * np.arange(n + 1)  # coefficients of z p'
        for m in range(1, n + 1):
            e[m] = np.dot(zp[1 : m + 1], e[m - 1 :: -1][: m]) / m
        return PowerSeries(e)

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
        of the coefficients c_n (-radius)^n folded modulo ``samples``.
        """
        scaled = self._c * (-float(radius)) ** np.arange(self._c.size)
        k = np.arange(self._c.size) % samples
        folded = (np.bincount(k, weights=scaled.real, minlength=samples)
                  + 1j * np.bincount(k, weights=scaled.imag, minlength=samples))
        return samples * np.fft.ifft(folded)

    def tail_bound(self, radius: float) -> float:
        """Crude geometric tail certificate |c_N| r^N / (1 - r)."""
        if radius >= 1.0:
            return float("inf")
        return float(abs(self._c[-1]) * radius ** self.order / (1.0 - radius))

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self._c)))


def euler_power_step(a: float, c: np.ndarray, jc: np.ndarray, u: np.ndarray,
                     ku: np.ndarray, n: int) -> None:
    """Set u_n and ku_n = n u_n of u = p**a; needs c_0 = 1.

    Reads c_1..c_n of p with jc_j = j c_j, and u_0..u_{n-1} with
    ku_k = k u_k.  Euler's recursion reads p z u' = a u z p'
    coefficientwise, n u_n = sum_{j=1}^{n} (a j - (n - j)) c_j u_{n-j},
    which splits into two dot products over the running arrays:
    n u_n = a sum_j jc_j u_{n-j} - sum_j c_j ku_{n-j}.
    """
    u[n] = (a * np.dot(jc[1 : n + 1], u[n - 1 :: -1])
            - np.dot(c[1 : n + 1], ku[n - 1 :: -1])) / n
    ku[n] = n * u[n]


def _require_constant_one(c: np.ndarray) -> None:
    if abs(c[0] - 1.0) > DEFAULTS.coeff_tol:
        raise ConstantTermNotOne(f"constant term is {c[0]!r}, expected 1")


def _divide(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    out = np.zeros(min(a.order, b.order) + 1, dtype=complex)
    divide_fill(a._c, b._c, out, 0, out.size)
    return PowerSeries(out)


# The recursions below set the coefficients lo..hi-1 of their result in
# place from the lower ones, so a caller may extend a result it already
# holds to a higher order without recomputing it: each coefficient reads
# the same values whichever order the result is built to.  A fill from
# lo = 0 checks the constant term and sets the result's.

def sqrt_fill(a: np.ndarray, s: np.ndarray, lo: int, hi: int) -> None:
    """Set s_lo..s_{hi-1} of s = sqrt(a), the root with s_0 = 1; needs a_0 = 1.

    Squaring reads a_m = 2 s_m + sum_{j=1}^{m-1} s_j s_{m-j} for m >= 1.
    """
    if lo == 0:
        _require_constant_one(a)
        s[0] = 1.0
        lo = 1
    for m in range(lo, hi):
        acc = np.dot(s[1:m], s[m - 1 : 0 : -1]) if m > 1 else 0.0
        s[m] = (a[m] - acc) / 2.0


def divide_fill(a: np.ndarray, b: np.ndarray, out: np.ndarray, lo: int,
                hi: int) -> None:
    """Set out_lo..out_{hi-1} of out = a/b; needs b_0 away from 0.

    Multiplying back reads a_m = sum_{j=0}^{m} out_j b_{m-j}.
    """
    if lo == 0:
        if abs(b[0]) < _DIV_PIVOT_TOL:
            raise DivisionByZeroConstantTerm(
                f"denominator constant term {b[0]!r} below {_DIV_PIVOT_TOL}"
            )
        out[0] = a[0] / b[0]
        lo = 1
    for m in range(lo, hi):
        acc = np.dot(out[:m], b[m:0:-1])
        out[m] = (a[m] - acc) / b[0]
