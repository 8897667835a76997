import math

import numpy as np
import pytest

from lemnisub import Janowski, SqrtLemniscate
from lemnisub.regions import boundary_curve, membership_margins


def random_janowski(rng):
    while True:
        b, a = np.sort(rng.uniform(-1, 1, 2))
        if a - b >= 1e-3:
            return Janowski(float(a), float(b))


# Target and inverse maps written out from the regions module docstring, in
# plain complex arithmetic (principal branch), independent of the package.

def target(region, z):
    if isinstance(region, SqrtLemniscate):
        return np.sqrt(1.0 + z)
    return (1.0 + region.A * z) / (1.0 + region.B * z)


def inverse(region, w):
    if isinstance(region, SqrtLemniscate):
        return w * w - 1.0
    return (w - 1.0) / (region.A - region.B * w)


def test_target_eval_examples():
    # q(0) = 1, sqrt(1 + 0.21) = 1.1 and (1 + 0.3)/(1 + 0) = 1.3 sit at depth 1 - |z|
    for region, w, z in ((SqrtLemniscate(), 1.0, 0.0),
                         (SqrtLemniscate(), 1.1, 0.21),
                         (Janowski(1.0, 0.0), 1.3, 0.3)):
        assert membership_margins(region, [w])[0] == pytest.approx(1.0 - z)


def test_sqrt_principal_branch_nonnegative_real_part():
    curve = boundary_curve(SqrtLemniscate())
    assert curve.real.min() >= 0.0
    assert np.max(np.abs(membership_margins(SqrtLemniscate(), curve))) <= 1e-12


def test_membership_examples():
    m = membership_margins(SqrtLemniscate(), [1.0, math.sqrt(2.0)])
    assert m[0] == pytest.approx(1.0) and abs(m[1]) <= 1e-12
    assert abs(membership_margins(Janowski(1.0, -1.0), [1j])[0]) <= 1e-12


def test_membership_pole_is_outside_sentinel():
    # w at the image of infinity: A - Bw = 0
    m = membership_margins(Janowski(0.5, -0.5), [-1.0, 1.0])
    assert m[0] == float("-inf") and m[1] == pytest.approx(1.0)


def test_phi_inverse_examples():
    # 1 - |inverse(w)| at w with inverse -2, 0.44, 0.5 and -2
    for region, w, margin in ((SqrtLemniscate(), 1j, -1.0),
                              (SqrtLemniscate(), 1.2, 0.56),
                              (Janowski(1.0, 0.0), 1.5, 0.5),
                              (Janowski(0.5, -0.5), 0.0, -1.0)):
        assert membership_margins(region, [w])[0] == pytest.approx(margin, abs=1e-15)


def test_janowski_validation():
    with pytest.raises(ValueError):
        Janowski(0.0, 0.5)
    with pytest.raises(ValueError):
        Janowski(1.5, 0.0)


def test_round_trip_inverse_of_eval(rng):
    z = 0.99 * np.sqrt(rng.uniform(0, 1, 1000)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 1000))
    for region, zs in ((SqrtLemniscate(), z[:500]), (random_janowski(rng), z[500:])):
        depth = membership_margins(region, target(region, zs))
        assert np.max(np.abs(depth - (1.0 - np.abs(zs)))) <= 1e-10


def test_membership_inverse_coherence(rng):
    w = rng.uniform(-2, 2, 1000) + 1j * rng.uniform(-2, 2, 1000)
    for reg in (SqrtLemniscate(), random_janowski(rng)):
        inv = inverse(reg, w)
        m = membership_margins(reg, w)
        assert np.all(((m > 0) == (np.abs(inv) < 1.0)) | (np.abs(m) <= 1e-12))


def test_conjugation_symmetry(rng):
    w = rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300)
    for reg in (SqrtLemniscate(), random_janowski(rng)):
        assert np.max(np.abs(membership_margins(reg, np.conj(w))
                             - membership_margins(reg, w))) <= 1e-13


def test_sqrt_region_convexity_witness(rng):
    # midpoints of inside pairs stay inside
    reg = SqrtLemniscate()
    found = 0
    while found < 500:
        w = rng.uniform(0, 1.5, 2) + 1j * rng.uniform(-0.7, 0.7, 2)
        if np.all(membership_margins(reg, w) > 0):
            found += 1
            assert membership_margins(reg, [0.5 * (w[0] + w[1])])[0] > 0
