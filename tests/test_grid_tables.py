"""The shared grid tables, bit for bit against the code they replaced.

``verify._punctured_grid`` and ``verify._grid_points`` build each angular
grid and its points e^{it} once per (grid size, punctures);
``boundary_margin_profile`` splices its sorted refined minima into the
sorted grid; ``verify._radial_curve`` evaluates an affine rule's curve
once, at beta = 1, and ``verify._convective_curve`` L8's from the grid's
points.  The oracles in ``tests/oracles.py`` rebuild the grid and e^{it}
on every call, sort the concatenated samples and evaluate every affine
curve at beta = 0 too.  Every cached table in ``src/`` is read-only and shared, and every
sample of a margin profile is ``margin_on_circle`` at its stored angle.
"""

import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import lemnisub
from lemnisub import (CATALOG, LemmaId, LemmaParams, boundary_margin_profile,
                      closed_form_threshold, numeric_threshold, verify)
from lemnisub.catalog import margin_on_circle, premise_region, singular_angles
from lemnisub.errors import LemnisubError
from lemnisub.regions import Janowski

import oracles
from conftest import feasible_draws

MARGIN_LEMMAS = [l for l in LemmaId if CATALOG[l].margin_criterion]
GRIDS = [64, 999, 4096]
SINGS = [(), (0.0,), (math.pi,), (0.0, math.pi)]

# points whose grids are punctured at t = 0, at t = pi or at both
PUNCTURED = [
    (LemmaId.L1, LemmaParams(A=0.6, B=-0.3, k=1.4)),               # pi
    (LemmaId.L2, LemmaParams(A=0.4, B=-1.0)),                      # 0
    (LemmaId.L3, LemmaParams(A=1.0, B=-1.0)),                      # 0 and pi
    (LemmaId.L9, LemmaParams(A=0.5, B=-1.0, D=0.3, E=-0.2)),       # 0
]
# a constant margin (h - 1 = beta A z over D): every sample is a local
# minimum, and the refined minima land in neighbouring gaps of the grid
CONSTANT = [(LemmaId.L9, LemmaParams(A=0.5, B=0.0, D=0.3, E=0.0))]


def _points(lemma, count=3):
    """Seeded draws of a rule, plus the punctured points, each at beta just
    below, at and above its closed-form threshold."""
    seed = 30_000 + list(LemmaId).index(lemma)
    draws = feasible_draws(lemma, seed, count)
    draws += [p for l, p in PUNCTURED + CONSTANT if l is lemma]
    out = []
    for params in draws:
        star = closed_form_threshold(lemma, params).beta_star
        out.extend(params.with_beta(f * star) for f in (0.8, 1.0, 1.3))
    return out


# --- every cached table ---------------------------------------------------------

# a call of each table in src/, and whether its key comes from user input
TABLES = {
    "series._circle_scale": ((0.999, 513), True),
    "series._circle_fold": ((2049, 2048), True),
    "verify._punctured_grid": ((999, (math.pi,)), True),
    "verify._grid_points": ((999, (0.0, math.pi)), True),
    "verify._root_table": ((), False),
}
# cached functions that return no table
NOT_TABLES = {"cli.build_parser"}


def _cached_tables():
    found = {}
    for info in pkgutil.iter_modules(lemnisub.__path__):
        module = importlib.import_module(f"lemnisub.{info.name}")
        for name, fn in vars(module).items():
            if (inspect.isfunction(getattr(fn, "__wrapped__", None))
                    and hasattr(fn, "cache_info") and fn.__module__ == module.__name__):
                found[f"{info.name}.{name}"] = fn
    return found


def test_every_cached_table_is_read_only_and_shared():
    tables = _cached_tables()
    assert sorted(tables) == sorted(set(TABLES) | NOT_TABLES)
    for name in TABLES:
        fn = tables[name]
        args, user_keyed = TABLES[name]
        first = fn(*args)
        assert isinstance(first, np.ndarray), name
        assert not first.flags.writeable, name
        with pytest.raises(ValueError):
            first[0] = first[0]
        assert fn(*args) is first, name
        if user_keyed:
            assert fn.cache_parameters()["maxsize"] is not None, name


@pytest.mark.parametrize("sing", SINGS)
@pytest.mark.parametrize("grid_size", GRIDS)
def test_grid_tables_match_fresh_grids(grid_size, sing):
    t = oracles.fresh_grid(grid_size, sing)
    assert verify._punctured_grid(grid_size, sing).tobytes() == t.tobytes()
    assert verify._grid_points(grid_size, sing).tobytes() == np.exp(1j * t).tobytes()


def test_grid_tables_are_built_on_first_use():
    # importing the package in a fresh interpreter builds no table
    src = os.path.dirname(os.path.dirname(lemnisub.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import lemnisub; from lemnisub import verify; "
            "print(verify._punctured_grid.cache_info().currsize, "
            "verify._grid_points.cache_info().currsize, "
            "verify._root_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["0", "0", "0"]


# --- the margin profile -----------------------------------------------------------

@pytest.mark.parametrize("grid_size", GRIDS)
@pytest.mark.parametrize("lemma", MARGIN_LEMMAS)
def test_profile_matches_argsort_assembly(lemma, grid_size):
    for params in _points(lemma):
        profile = boundary_margin_profile(lemma, params, grid_size)
        t, m, min_margin, argmin_t, refined = oracles.argsort_margin_profile(
            lemma, params, grid_size)
        assert profile.t_samples.tobytes() == t.tobytes(), params
        assert profile.margins.tobytes() == m.tobytes(), params
        assert profile.refined is refined
        assert profile.min_margin == min_margin
        if not profile.is_constant():
            assert profile.argmin_t == argmin_t


# refined minima at t = -0.0031447373909809784 and beside it, which a wrap
# of every refined angle into [-pi, pi) once moved by one ulp away from
# the angle its margin was taken at
WRAPPED = (LemmaId.L9, LemmaParams(A=0.5, B=-1.0, D=0.3, E=-0.2, beta=10.0 / 9.0), 999)


@pytest.mark.parametrize("grid_size", GRIDS)
@pytest.mark.parametrize("lemma", MARGIN_LEMMAS)
def test_every_profile_sample_is_the_margin_at_its_angle(lemma, grid_size):
    cases = [(lemma, params, grid_size) for params in _points(lemma)]
    if lemma is WRAPPED[0]:
        cases.append(WRAPPED)
    refined = 0
    for lemma, params, size in cases:
        profile = boundary_margin_profile(lemma, params, size)
        again = margin_on_circle(lemma, params, profile.t_samples)
        assert profile.margins.tobytes() == again.tobytes(), params
        assert np.all((profile.t_samples >= -math.pi) & (profile.t_samples < math.pi))
        grid = verify._punctured_grid(size, singular_angles(lemma, params))
        refined += profile.t_samples.size - grid.size
    assert refined


def test_refined_angles_keep_their_bits_inside_the_circle():
    lemma, params, size = WRAPPED
    profile = boundary_margin_profile(lemma, params, size)
    t = -0.0031447373909809784
    at = np.flatnonzero(profile.t_samples == t)
    assert at.size == 1
    assert profile.margins[at[0]] == margin_on_circle(lemma, params, np.array([t]))[0]


@pytest.mark.parametrize("grid_size", GRIDS)
@pytest.mark.parametrize("lemma", MARGIN_LEMMAS)
def test_margin_on_grid_points_matches_margin_from_angles(lemma, grid_size):
    for params in _points(lemma):
        sing = singular_angles(lemma, params)
        t = verify._punctured_grid(grid_size, sing)
        with_table = margin_on_circle(lemma, params, t, verify._grid_points(grid_size, sing))
        assert with_table.tobytes() == margin_on_circle(lemma, params, t).tobytes()


# --- the threshold solve's polynomials and thresholds ---------------------------

def _mobius(lemma, params):
    return isinstance(premise_region(lemma, params), Janowski)


@pytest.mark.parametrize("grid_size", GRIDS)
@pytest.mark.parametrize("lemma", MARGIN_LEMMAS)
def test_margin_polynomials_match_two_evaluations(lemma, grid_size):
    # the per-angle terms of the threshold solve: an affine rule's radial
    # size g of its curve b (b may differ in the sign of a zero, g may
    # not), and L8's a and b from the grid's points and from t alone, and
    # its g from both
    draws = _points(lemma) + [p.with_beta(None) for p in _extreme(lemma)]
    for params in draws:
        sing = singular_angles(lemma, params)
        t = verify._punctured_grid(grid_size, sing)
        z = verify._grid_points(grid_size, sing)
        if CATALOG[lemma].ode_style == "affine":
            g = verify._radial_size(premise_region(lemma, params))
            old = g(oracles.two_evaluation_radial_curve(lemma, params)(t))
            b = verify._radial_curve(lemma, params)
            for new in (g(b(t)), g(b(t, z))):
                assert new.tobytes() == old.tobytes(), params
            continue
        curve = verify._convective_curve(lemma, params)
        old, new = curve(t), curve(t, z)
        assert all(o.tobytes() == n.tobytes() for o, n in zip(old, new)), params
        for g_old, g_new in zip(verify._cassini_sizes(*old), verify._cassini_sizes(*new)):
            assert g_old.tobytes() == g_new.tobytes(), params


def _extreme(lemma):
    """Points where A - B or D - E is so small that the scales are not 1."""
    return {
        LemmaId.L1: [LemmaParams(A=1e-250, B=0.0, k=0.5, beta=1.0)],
        LemmaId.L2: [LemmaParams(A=0.3, B=0.3 - 1e-280, beta=1.0)],
        LemmaId.L9: [LemmaParams(A=1e-250, B=0.0, D=0.5, E=-0.5, beta=1.0)],
        LemmaId.L11: [LemmaParams(A=0.5, B=-0.5, D=1e-260, E=0.0, beta=1.0)],
    }.get(lemma, [])


def _outcome(lemma, params, grid_size):
    try:
        return numeric_threshold(lemma, params, grid_size).hex()
    except LemnisubError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("grid_size", GRIDS)
@pytest.mark.parametrize("lemma", MARGIN_LEMMAS)
def test_thresholds_match_two_evaluations(monkeypatch, lemma, grid_size):
    seed = 31_000 + list(LemmaId).index(lemma)
    draws = feasible_draws(lemma, seed, 3) + [p for l, p in PUNCTURED if l is lemma]
    draws += [p.with_beta(None) for p in _extreme(lemma)]
    fast = [_outcome(lemma, p, grid_size) for p in draws]
    monkeypatch.setattr(verify, "_convective_curve", oracles.fresh_convective_curve)
    monkeypatch.setattr(verify, "_radial_curve", oracles.two_evaluation_radial_curve)
    monkeypatch.setattr(verify, "_punctured_grid", oracles.fresh_grid)
    monkeypatch.setattr(verify, "_grid_points",
                        lambda n, sing: np.exp(1j * oracles.fresh_grid(n, sing)))
    assert fast == [_outcome(lemma, p, grid_size) for p in draws]
