"""Target regions, membership tests and inverse maps.

Two families of univalent targets q with q(0) = 1 are supported:

* ``SqrtLemniscate``: q(z) = sqrt(1+z), whose disk image is the right
  half of the lemniscate |w^2 - 1| < 1.  Inverse map: w -> w^2 - 1.
* ``Janowski(A, B)``: q(z) = (1+Az)/(1+Bz) with -1 <= B < A <= 1.
  Inverse map: w -> (w - 1)/(A - B w).

Membership is decided through the inverse map: w lies in q(D) exactly
when |inverse(w)| < 1, which handles half-plane images (|B| = 1)
uniformly without special-cased geometry.  The ``margin`` reported is
1 - |inverse(w)|: positive inside, zero on the boundary, negative
outside.  The principal square-root branch (cut along z in (-inf, -1])
is fixed once and exercised by the round-trip tests.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .config import DEFAULTS
from .errors import InverseMapPole, SingularPoint

_POLE_TOL = 1e-14


@dataclass(frozen=True)
class SqrtLemniscate:
    """Right half of the Bernoulli lemniscate, the image of sqrt(1+z)."""


@dataclass(frozen=True)
class Janowski:
    """Image of the Mobius map (1+Az)/(1+Bz), -1 <= B < A <= 1."""

    A: float
    B: float

    def __post_init__(self):
        if not (-1.0 <= self.B < self.A <= 1.0):
            raise ValueError(
                f"Janowski parameters need -1 <= B < A <= 1, got A={self.A}, B={self.B}"
            )


TargetRegion = Union[SqrtLemniscate, Janowski]


class Classification(Enum):
    INSIDE = "Inside"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class Membership:
    margin: float
    classification: Classification


def target_eval(region: TargetRegion, z: complex) -> complex:
    """q(z) for the region's target function; principal branch for sqrt."""
    z = complex(z)
    if isinstance(region, SqrtLemniscate):
        if abs(1.0 + z) < _POLE_TOL:
            raise SingularPoint("sqrt(1+z) branch point at z = -1")
        return cmath.sqrt(1.0 + z)
    den = 1.0 + region.B * z
    if abs(den) < _POLE_TOL:
        raise SingularPoint(f"Janowski pole at z = {-1.0 / region.B!r}")
    return (1.0 + region.A * z) / den


def phi_inverse(region: TargetRegion, w: complex) -> complex:
    """Global inverse of the target map; maps q(D) onto the unit disk."""
    w = complex(w)
    if isinstance(region, SqrtLemniscate):
        return w * w - 1.0
    den = region.A - region.B * w
    if abs(den) < _POLE_TOL:
        raise InverseMapPole(f"A - B*w vanishes at w = {w!r}")
    return (w - 1.0) / den


def membership(region: TargetRegion, w: complex) -> Membership:
    """Signed margin 1 - |phi_inverse(w)|, Boundary within ``DEFAULTS.boundary_band``."""
    w = complex(w)
    try:
        margin = 1.0 - abs(phi_inverse(region, w))
    except InverseMapPole:
        # the pole is the image of infinity, firmly outside q(D)
        return Membership(float("-inf"), Classification.OUTSIDE)
    if abs(margin) <= DEFAULTS.boundary_band:
        cls = Classification.BOUNDARY
    elif margin > 0:
        cls = Classification.INSIDE
    else:
        cls = Classification.OUTSIDE
    return Membership(margin, cls)


def membership_margins(region: TargetRegion, w: np.ndarray) -> np.ndarray:
    """Vectorised membership margin; poles map to -inf."""
    w = np.asarray(w, dtype=complex)
    if isinstance(region, SqrtLemniscate):
        return 1.0 - np.abs(w * w - 1.0)
    den = region.A - region.B * w
    out = np.full(w.shape, float("-inf"))
    ok = np.abs(den) >= _POLE_TOL
    out[ok] = 1.0 - np.abs((w[ok] - 1.0) / den[ok])
    return out


def boundary_curve(region: TargetRegion) -> np.ndarray:
    """1024 samples of the region boundary q(e^{it}), used for plots."""
    t = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
    if isinstance(region, SqrtLemniscate):
        # principal sqrt of 1 + e^{it} in the stable half-angle form
        return np.sqrt(2.0 * np.cos(t / 2.0)) * np.exp(1j * t / 4.0)
    z = np.exp(1j * t)
    den = 1.0 + region.B * z
    keep = np.abs(den) > 1e-9
    return ((1.0 + region.A * z[keep]) / den[keep])
