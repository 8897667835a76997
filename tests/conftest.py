import numpy as np
import pytest

from lemnisub import LemmaId, LemmaParams, closed_form_threshold
from lemnisub.catalog import ThresholdStatus


def draw_valid_params(lemma: LemmaId, rng: np.random.Generator) -> LemmaParams:
    """Uniform draw over the lemma's parameter domain.

    Pairs are redrawn until the gap exceeds 1e-3 to keep thresholds
    finitely conditioned; this removes a measure-zero sliver only.
    """
    def pair():
        while True:
            lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2))
            if hi - lo >= 1e-3:
                return float(hi), float(lo)

    A = B = D = E = k = None
    if lemma is LemmaId.L1:
        while True:
            A, B = pair()
            if B > -1.0 + 1e-6:
                break
        k = float(rng.uniform(-0.999, 3.0))
    elif lemma in (LemmaId.L2, LemmaId.L3, LemmaId.L4, LemmaId.L8):
        A, B = pair()
    elif lemma in (LemmaId.L9, LemmaId.L10, LemmaId.L11):
        A, B = pair()
        D, E = pair()
    return LemmaParams(A=A, B=B, D=D, E=E, k=k)


def feasible_draws(lemma: LemmaId, seed: int, count: int) -> list:
    """``count`` seeded draws whose closed-form threshold is feasible."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        params = draw_valid_params(lemma, rng)
        if closed_form_threshold(lemma, params).status is ThresholdStatus.FEASIBLE:
            out.append(params)
    return out


def decaying_series_coeffs(rng: np.random.Generator, order: int,
                           ratio: float = 0.55, magnitude: float = 0.3,
                           unit_constant: bool = True):
    """Random coefficients of a function analytic past the unit circle.

    The decay keeps |s - 1| < 1 on a disk of radius ~1.2, so sqrt/log/div
    round-trips are well conditioned (the identities presume a zero-free
    function, and ill-conditioned draws would only measure that).
    """
    mags = magnitude * ratio ** np.arange(order + 1)
    c = (rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)) * mags
    if unit_constant:
        c[0] = 1.0
    return c


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
