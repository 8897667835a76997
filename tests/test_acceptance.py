"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines.

Criterion 4 sweeps the closed-form thresholds of the margin-criterion
catalog entries over seeded random parameter draws.  The catalog
transcribes the stated bounds verbatim; for entries L3, L4 and L8 those
bounds do **not** uniformly imply the boundary criterion (the minimum
boundary margin at beta* drops far below 1 on large parameter regions,
e.g. L3 at A=0.5, B=0 has margin 0.94 and L8 at A=0.2, B=-0.8 has margin
0.02).  The sweep asserts the criterion as stated and therefore fails
honestly for those three entries; the remaining entries pass.

Criterion 2 asserts the binding angle of the L2 boundary margin
beta*|2 + beta e^{it}| at A=1, B=0 and beta* = 1 + sqrt(2).  At t = 0 the
margin is beta*(beta+2) = 4 + 3*sqrt(2), its maximum; at t = +-pi it is
beta*(beta-2) = 1, its minimum.  The argmin clause therefore asks for
|t| = pi.
"""

import math
import time

import numpy as np
import pytest

from lemnisub import (
    AdmissibilityQuantity,
    Janowski,
    LemmaId,
    LemmaParams,
    PowerSeries,
    SqrtLemniscate,
    boundary_margin_profile,
    closed_form_threshold,
    feasibility_check,
    implication_trial,
    numeric_threshold,
    random_schwarz,
    subordination_check,
)
from lemnisub.catalog import ThresholdStatus, _affine_bound_terms
from lemnisub.cli import main as cli_main
from lemnisub.generate import compose_target

from conftest import decaying_series_coeffs, draw_valid_params
from support import data_section_bytes

SQRT2 = math.sqrt(2.0)

SWEEP_LEMMAS = [LemmaId.L1, LemmaId.L2, LemmaId.L3, LemmaId.L4,
                LemmaId.L8, LemmaId.L9, LemmaId.L10, LemmaId.L11]

# canonical parameter points for the trial campaigns (criterion 7)
CANONICAL = {
    LemmaId.L1: LemmaParams(A=1.0, B=0.0, k=1.0),
    LemmaId.L2: LemmaParams(A=1.0, B=0.0),
    LemmaId.L3: LemmaParams(A=1.0, B=0.0),
    LemmaId.L4: LemmaParams(A=1.0, B=0.0),
    LemmaId.L5: LemmaParams(),
    LemmaId.L6: LemmaParams(),
    LemmaId.L7: LemmaParams(),
    LemmaId.L8: LemmaParams(A=1.0, B=0.0),
    LemmaId.L9: LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0),
    LemmaId.L10: LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0),
    LemmaId.L11: LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0),
}

_sweep_clock = {"elapsed": 0.0}


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> bool:
    mark = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {mark}{tail}")
    return ok


# --- 1: L1 exact thresholds at B = 0 -----------------------------------------

@pytest.mark.parametrize("k", [0.0, 1.0, 2.0, 3.0])
def test_criterion_01_l1_b0_thresholds(k):
    params = LemmaParams(A=1.0, B=0.0, k=k)
    t0 = time.perf_counter()
    numeric = numeric_threshold(LemmaId.L1, params)
    elapsed = time.perf_counter() - t0
    expect = 2.0 ** ((k + 3.0) / 2.0)
    ok = abs(numeric - expect) / expect <= 1e-4 and elapsed < 1.0
    assert _verdict(1, f"L1 B=0 threshold k={k:g}", ok,
                    f"numeric {numeric:.8f}, expect {expect:.8f}, {elapsed:.2f}s")


# --- 2: L2 exact point --------------------------------------------------------

def test_criterion_02_l2_exact_point():
    params = LemmaParams(A=1.0, B=0.0)
    closed = closed_form_threshold(LemmaId.L2, params).beta_star
    numeric = numeric_threshold(LemmaId.L2, params)
    profile = boundary_margin_profile(LemmaId.L2,
                                      params.with_beta(closed))
    ok_closed = abs(closed - (1.0 + SQRT2)) <= 1e-9
    ok_numeric = abs(numeric - (1.0 + SQRT2)) <= 1e-4
    ok_margin = abs(profile.min_margin - 1.0) <= 1e-6
    # binding angle t = +-pi (see module docstring); angles lie in
    # [-pi, pi), so t = pi is reported as -pi
    ok_argmin = abs(abs(profile.argmin_t) - math.pi) <= 1e-6
    ok = ok_closed and ok_numeric and ok_margin and ok_argmin
    assert _verdict(2, "L2 exact point", ok,
                    f"beta* {closed:.9f}, numeric {numeric:.9f}, "
                    f"min margin {profile.min_margin:.9f}, "
                    f"argmin {profile.argmin_t:.6f}")


# --- 3: L9 degenerate point -----------------------------------------------------

def test_criterion_03_l9_degenerate_point():
    base = LemmaParams(A=1.0, B=0.0, D=1.0, E=0.0)
    oks = []
    for beta in (0.5, 1.0, 2.0):
        profile = boundary_margin_profile(LemmaId.L9, base.with_beta(beta))
        oks.append(profile.is_constant()
                   and abs(profile.min_margin - beta) <= 1e-9
                   and profile.argmin_t == 0.0)
    numeric = numeric_threshold(LemmaId.L9, base)
    oks.append(abs(numeric - 1.0) <= 1e-6)
    ok = all(oks)
    assert _verdict(3, "L9 degenerate point", ok,
                    f"numeric {numeric:.9f}, profiles constant {oks[:3]}")


# --- 4: sufficiency sweep --------------------------------------------------------

@pytest.mark.parametrize("lemma", SWEEP_LEMMAS)
def test_criterion_04_sufficiency_sweep(lemma):
    rng = np.random.default_rng(777_000 + list(LemmaId).index(lemma))
    t0 = time.perf_counter()
    margin_bad = []
    numeric_bad = []
    draws = 0
    while draws < 200:
        params = draw_valid_params(lemma, rng)
        thr = closed_form_threshold(lemma, params)
        if thr.status is not ThresholdStatus.FEASIBLE:
            continue
        draws += 1
        m = boundary_margin_profile(lemma, params.with_beta(thr.beta_star),
                                    1024).min_margin
        if m < 1.0 - 1e-7:
            margin_bad.append((params, m))
        try:
            nt = numeric_threshold(lemma, params, grid_size=512)
            if nt > thr.beta_star * (1.0 + 1e-6):
                numeric_bad.append((params, nt, thr.beta_star))
        except Exception as exc:             # scan errors count as failures
            numeric_bad.append((params, repr(exc), thr.beta_star))
    _sweep_clock["elapsed"] += time.perf_counter() - t0
    ok = not margin_bad and not numeric_bad
    detail = f"200 draws, margin fails {len(margin_bad)}, " \
             f"numeric fails {len(numeric_bad)}"
    _verdict(4, f"sufficiency sweep {lemma.value}", ok, detail)
    if margin_bad:
        p, m = margin_bad[0]
        detail += (f"; first margin counterexample A={p.A:.4f} B={p.B:.4f} "
                   f"D={p.D} E={p.E} k={p.k}: min margin {m:.4f} < 1")
    assert ok, detail


def test_criterion_04_time_budget():
    ok = _sweep_clock["elapsed"] < 300.0
    assert _verdict(4, "sufficiency sweep time budget", ok,
                    f"total {_sweep_clock['elapsed']:.1f}s < 300s")


# --- 5: admissibility constants ---------------------------------------------------

def test_criterion_05_admissibility_constants():
    from lemnisub import admissibility_min
    expects = {LemmaId.L5: 0.75, LemmaId.L6: 0.50, LemmaId.L7: 0.25}
    measured = {}
    ok = True
    for lemma, expect in expects.items():
        m = admissibility_min(lemma, LemmaParams(beta=1.0),
                              AdmissibilityQuantity.RE_ZQP_OVER_Q,
                              radius=1.0)
        measured[lemma.value] = m
        ok = ok and abs(m - expect) <= 1e-9
    assert _verdict(5, "admissibility constants 3/4, 1/2, 1/4", ok,
                    str({k: f"{v:.12f}" for k, v in measured.items()}))


# --- 6: series engine round-trips ---------------------------------------------------

def test_criterion_06_series_roundtrips():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(55_000 + seed)
        s = PowerSeries(decaying_series_coeffs(rng, 64))
        b = PowerSeries(decaying_series_coeffs(rng, 64))
        worst = max(worst,
                    ((s.sqrt() * s.sqrt()) - s).max_abs_coeff(),
                    (s.log().exp() - s).max_abs_coeff(),
                    (((s * b) / b) - s).max_abs_coeff())
    ok = worst <= 1e-12
    assert _verdict(6, "series round-trips at N=64", ok,
                    f"worst coefficient error {worst:.3e}")


# --- 7: implication trials ------------------------------------------------------------

@pytest.mark.parametrize("lemma", list(LemmaId))
def test_criterion_07_implication_trials(lemma):
    params = CANONICAL[lemma]
    thr = closed_form_threshold(lemma, params)
    beta = 1.0 if thr.beta_star is None else 1.05 * thr.beta_star
    rng = np.random.default_rng(880_000 + list(LemmaId).index(lemma))
    worst_residual = 0.0
    worst_margin = math.inf
    for _ in range(50):
        w = random_schwarz(rng)
        trial = implication_trial(lemma, params.with_beta(beta), w)
        worst_residual = max(worst_residual, trial.premise_residual)
        worst_margin = min(worst_margin, trial.conclusion_margin)
    ok = worst_residual <= 1e-9 and worst_margin >= -1e-9
    assert _verdict(7, f"implication trials {lemma.value}", ok,
                    f"50 draws at beta={beta:.6g}, max residual "
                    f"{worst_residual:.2e}, min margin {worst_margin:.6f}")


# --- 8: Schwarz sanity -------------------------------------------------------------------

@pytest.mark.parametrize("region,tag", [
    (SqrtLemniscate(), "sqrt-lemniscate"),
    (Janowski(0.75, -0.25), "janowski(0.75,-0.25)"),
])
def test_criterion_08_schwarz_sanity(region, tag):
    rng = np.random.default_rng(990_001 if tag.startswith("sqrt") else 990_002)
    worst = math.inf
    for _ in range(50):
        w = random_schwarz(rng)
        p = compose_target(region, w)
        r = subordination_check(p, region)
        worst = min(worst, r.margin)
    ok = worst > 0.0
    assert _verdict(8, f"Schwarz sanity {tag}", ok,
                    f"50 draws, worst margin {worst:.3e}")


# --- 9: L11 beta=1 consistency over a parameter grid ---------------------------------------

def test_criterion_09_l11_beta1_consistency():
    # 5 axis values give exactly C(5,2)^2 = 100 ordered (A,B),(D,E) pairs
    vals = np.linspace(-0.9, 0.9, 5)
    mismatches = 0
    count = 0
    for A in vals:
        for B in vals:
            if not B < A:
                continue
            for D in vals:
                for E in vals:
                    if not E < D or count >= 100:
                        continue
                    count += 1
                    params = LemmaParams(A=float(A), B=float(B),
                                         D=float(D), E=float(E), beta=1.0)
                    got = feasibility_check(LemmaId.L11, params)
                    # independent transcription of the stated inequality
                    P, c = _affine_bound_terms(LemmaId.L11, params)
                    direct = (abs(1.0) * (A - B)
                              >= P + abs(c - E * 1.0 * (A - B)) - 1e-9)
                    if got != direct:
                        mismatches += 1
    ok = mismatches == 0 and count == 100
    assert _verdict(9, "L11 beta=1 grid consistency", ok,
                    f"{count} grid points, {mismatches} mismatches")


# --- 10: determinism -------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    import json

    def data_bytes(args, path):
        assert cli_main(args + ["--json", str(path)]) in (0, 1)
        return data_section_bytes(json.loads(path.read_text()))

    ok = True
    a = data_bytes(["verify", "--lemma", "L2", "--A", "1", "--B", "0",
                    "--beta", "3", "--seed", "5"], tmp_path / "v1.json")
    b = data_bytes(["verify", "--lemma", "L2", "--A", "1", "--B", "0",
                    "--beta", "3", "--seed", "5"], tmp_path / "v2.json")
    ok = ok and a == b
    a = data_bytes(["falsify", "--lemma", "L9", "--A", "1", "--B", "0",
                    "--D", "1", "--E", "0", "--beta", "1.5", "--trials", "5",
                    "--seed", "5"], tmp_path / "f1.json")
    b = data_bytes(["falsify", "--lemma", "L9", "--A", "1", "--B", "0",
                    "--D", "1", "--E", "0", "--beta", "1.5", "--trials", "5",
                    "--seed", "5"], tmp_path / "f2.json")
    ok = ok and a == b
    for name in ("t1.csv", "t2.csv"):
        assert cli_main(["threshold", "--lemma", "L1", "--A", "1", "--B", "0",
                         "--k", "0,1", "--csv", str(tmp_path / name)]) == 0
    ok = ok and (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    assert _verdict(10, "determinism of data sections", ok)
