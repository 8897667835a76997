"""Target regions: the margin of points against them, and their boundaries.

Two families of univalent targets q with q(0) = 1 are supported:

* ``SqrtLemniscate``: q(z) = sqrt(1+z), whose disk image is the right
  half of the lemniscate |w^2 - 1| < 1.  Inverse map: w -> w^2 - 1.
* ``Janowski(A, B)``: q(z) = (1+Az)/(1+Bz) with -1 <= B < A <= 1.
  Inverse map: w -> (w - 1)/(A - B w).

``membership_margins`` is the one test of whether points lie in a
region.  It goes through the inverse map, which handles half-plane
images (|B| = 1) uniformly without special-cased geometry: at each
point w of an array it returns 1 - |inverse(w)|, positive inside, zero
on the boundary and negative outside.  A zero of A - B w is the image of
infinity and gets -inf.  For ``SqrtLemniscate`` the margin is positive
on both lobes of |w^2 - 1| < 1; the left lobe lies outside sqrt(1+z)(D)
all the same.  ``boundary_curve`` samples q on the unit circle, with the
principal square-root branch (cut along z in (-inf, -1]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

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


def membership_margins(region: TargetRegion, w: np.ndarray) -> np.ndarray:
    """1 - |inverse(w)| at every point of w; poles of the inverse map give -inf."""
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
