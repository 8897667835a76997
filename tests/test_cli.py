import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lemnisub
from lemnisub.cli import main
from lemnisub import report

from support import data_section_bytes, load_schema


def run(argv):
    return main(argv)


def fresh_python(args):
    """Run `python args` in a new interpreter that imports this lemnisub."""
    src = str(Path(lemnisub.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


# --- exit-code contract ---------------------------------------------------------

def test_verify_exit_zero_on_verified(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["verify", "--lemma", "L2", "--A", "1", "--B", "0",
                "--beta", "3", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Verified" in text
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema())
    assert doc["verdict"] == "Verified"
    assert doc["results"]["margin"]["min_margin"] == pytest.approx(3.0, abs=1e-9)


def test_verify_reports_the_positive_angle_of_a_mirrored_minimum(tmp_path):
    # the two refined minima at +-2.31525 differ in |t| by less than the
    # refinement's resolution; the report names t >= 0
    out = tmp_path / "r.json"
    assert run(["verify", "--lemma", "L2", "--A=-0.14290866977824024",
                "--B=-0.7140064561127962", "--beta=7.680523771793103",
                "--json", str(out)]) == 1
    margin = json.loads(out.read_text())["results"]["margin"]
    assert margin["argmin_t"] > 0.0
    assert margin["min_margin"] == pytest.approx(0.6335479386102942, rel=1e-12)


@pytest.mark.parametrize("tol", [None, "0.5"])
def test_report_echoes_the_margin_tolerance_applied(tmp_path, tol):
    out = tmp_path / "r.json"
    argv = ["verify", "--lemma", "L2", "--A", "1", "--B", "0", "--beta", "3",
            "--json", str(out)]
    assert run(argv + (["--tol", tol] if tol else [])) == 0
    doc = json.loads(out.read_text())
    applied = float(tol) if tol else lemnisub.DEFAULTS.margin_tol
    assert doc["metadata"]["config"]["tol"] == applied
    assert doc["metadata"]["tolerances"]["margin"] == applied


def test_verify_exit_one_on_hypothesis_failure(tmp_path):
    assert run(["verify", "--lemma", "L2", "--A", "1", "--B", "0",
                "--beta", "1"]) == 1


def test_verify_exit_one_on_criterion_failure():
    assert run(["verify", "--lemma", "L2", "--A", "1", "--B", "0",
                "--beta", "2"]) == 1


def _bench_reference():
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# valid points with A - B or beta near rounding, where a central difference
# of Q or h cancels and cannot check the closed forms; the minima are
# checked against the benchmark's reference mathematics instead
NEAR_ROUNDING = [
    ["--lemma", "L8", "--A=-0.21031164214643394", "--B=-0.21031164314643394",
     "--beta=1e-08"],
    ["--lemma", "L8", "--A=0", "--B=-1e-300", "--beta=1000"],
    ["--lemma", "L2", "--A=0", "--B=-1e-300", "--beta=1e-15"],
    ["--lemma", "L11", "--A=0", "--B=-1e-300", "--D=-0.02986284092505742",
     "--E=-0.9999999", "--beta=1.8065012347400875e-15"],
]


@pytest.mark.parametrize("params", NEAR_ROUNDING, ids=lambda p: p[1])
def test_near_rounding_point_fails_the_criterion_quietly(tmp_path, params):
    out = tmp_path / "r.json"
    # a fresh interpreter shows numpy's RuntimeWarnings, which pytest would capture
    proc = fresh_python(["-m", "lemnisub.cli", "verify", *params, "--json", str(out)])
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "CriterionFails" in proc.stdout
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "CriterionFails"
    point = dict(arg.lstrip("-").split("=") for arg in params[2:])
    point = {name: float(value) for name, value in point.items()}
    reference = _bench_reference()
    for key, value in doc["results"]["admissibility"].items():
        want = reference.admissibility_min(params[1], point, key)
        assert abs(value - want) <= 1e-7 * max(1.0, abs(want)), (key, value, want)


def test_verify_l5_admissibility_route(tmp_path):
    out = tmp_path / "l5.json"
    assert run(["verify", "--lemma", "L5", "--beta", "0.5",
                "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["admissibility"]["ReZQprimeOverQ"] == pytest.approx(
        0.75, abs=1e-6)


def test_invalid_config_exit_two_aggregated(tmp_path, capsys):
    assert run(["verify", "--lemma", "L9", "--beta", "1"]) == 2
    err = capsys.readouterr().err
    # all four missing parameters reported at once
    assert err.count("requires parameter") == 4
    assert run(["verify", "--lemma", "LX", "--beta", "1"]) == 2
    assert run(["verify", "--lemma", "L2", "--A", "x", "--B", "0",
                "--beta", "1"]) == 2
    capsys.readouterr()
    # --grid, --radii, --order, --tol and --seed are checked on every
    # subcommand, whether it uses them or not, together with the rest
    out = tmp_path / "r.json"
    radii_numbers = "--radii must be comma-separated numbers"
    for argv, expected in [
        (["verify", "--lemma", "L2", "--A", "1", "--B", "0", "--beta", "3",
          "--radii", "5,x", "--order", "-4", "--json", str(out)],
         [radii_numbers, "--order must be at least 1, got -4"]),
        (["threshold", "--lemma", "L2", "--A", "1", "--B", "0",
          "--radii", "x", "--order", "-1"],
         [radii_numbers, "--order must be at least 1, got -1"]),
        # at order 0 the truncated solution is the constant 1, which
        # would pass every trial
        (["falsify", "--lemma", "L3", "--A=-0.305", "--B=-0.547",
          "--beta", "3.4555", "--trials", "3", "--seed", "3", "--order", "0"],
         ["--order must be at least 1, got 0"]),
        (["falsify", "--lemma", "L5", "--beta", "1", "--trials", "1",
          "--order", "8", "--grid", "3"],
         ["--grid must be at least 64, got 3"]),
        (["falsify", "--lemma", "L5", "--beta", "1", "--trials", "0",
          "--radii", "2"],
         ["--trials must be at least 1", "--radii must lie in (0, 1)"]),
        # values this large used to reach numpy's allocator and end in a
        # MemoryError traceback; they are rejected before any allocation
        (["falsify", "--lemma", "L5", "--beta", "1", "--order", "1000000000000"],
         ["--order must be at most 16384, got 1000000000000"]),
        (["verify", "--lemma", "L2", "--A", "1", "--B", "0", "--beta", "3",
          "--grid", "1000000000000", "--json", str(out)],
         ["--grid must be at most 1048576, got 1000000000000"]),
        (["plot", "--lemma", "L5", "--beta", "1", "--order", "16385",
          "--grid", "1048577", "--tol", "2"],
         ["--order must be at most 16384, got 16385",
          "--grid must be at most 1048576, got 1048577", "--tol must lie in"]),
    ]:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(msg in captured.err for msg in expected), captured.err
        assert "Traceback" not in captured.err
    assert not out.exists()


# edge values of every parameter: the domain ends, just inside them, zero,
# tiny and non-finite, or the parameter left out; next to uniform draws
_EDGE_VALUES = [1.0, -1.0, 1.0 - 1e-7, -(1.0 - 1e-7), 0.0, 1e-300, -1e-300,
                math.nan, math.inf, -math.inf, None]


def _fuzz_value(bound):
    return st.sampled_from(_EDGE_VALUES) | st.floats(-bound, bound)


_LEMMAS = st.sampled_from([f"L{i}" for i in range(1, 12)])
_POINTS = st.fixed_dictionaries({**{name: _fuzz_value(1.0) for name in
                                    ("A", "B", "D", "E")},
                                 "k": _fuzz_value(3.0),
                                 "beta": _fuzz_value(20.0)})


@st.composite
def _ordered_points(draw):
    """``_POINTS``, with A >= B, D >= E and beta >= 0 in half the draws, so
    that more of the trial and plot commands get past validation."""
    values = draw(_POINTS)
    if draw(st.booleans()):
        for upper, lower in (("A", "B"), ("D", "E")):
            pair = (values[upper], values[lower])
            if None not in pair and not any(map(math.isnan, pair)):
                values[upper], values[lower] = max(pair), min(pair)
        if values["beta"] is not None:
            values["beta"] = abs(values["beta"])
    return values


_SCHEMA = load_schema()
_REPORT_VALIDATOR = jsonschema.validators.validator_for(_SCHEMA)(_SCHEMA)


def _fuzz_argv(command, lemma, values):
    argv = [command, "--lemma", lemma]
    for name, value in values.items():
        if value is not None:
            argv += [f"--{name}", repr(value)]
    return argv


def _exits_cleanly(argv):
    """Exit code of one command run in process, checked to be 0, 1 or 2
    with no traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:   # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    return code


def _fresh(tmp_path_factory, name):
    """An output path, emptied for each example."""
    path = tmp_path_factory.getbasetemp() / name
    path.unlink(missing_ok=True)
    return path


def _check_report(path, code, argv):
    """A report is written unless the command exits 2, and it fits the schema."""
    assert path.exists() == (code != 2), (argv, code)
    if code != 2:
        _REPORT_VALIDATOR.validate(json.loads(path.read_text()))
        path.unlink()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(lemma=_LEMMAS, values=_POINTS)
def test_verify_fuzz_exits_cleanly(tmp_path_factory, lemma, values):
    out = _fresh(tmp_path_factory, "verify-fuzz-r.json")
    argv = _fuzz_argv("verify", lemma, values) + ["--json", str(out)]
    _check_report(out, _exits_cleanly(argv), argv)


# --trials and --order stay small: the fuzz is after exit codes, not work
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(lemma=_LEMMAS, values=_ordered_points(), trials=st.integers(1, 2),
       order=st.sampled_from([None, 1, 8, 64]), seed=st.integers(0, 2**32))
def test_falsify_fuzz_exits_cleanly(tmp_path_factory, lemma, values, trials,
                                    order, seed):
    out = _fresh(tmp_path_factory, "falsify-fuzz-f.json")
    argv = _fuzz_argv("falsify", lemma, values) + [
        "--trials", str(trials), "--seed", str(seed), "--json", str(out)]
    if order is not None:
        argv += ["--order", str(order)]
    _check_report(out, _exits_cleanly(argv), argv)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(lemma=_LEMMAS, values=_ordered_points(),
       order=st.sampled_from([None, 1, 8, 64]))
def test_plot_fuzz_exits_cleanly(tmp_path_factory, lemma, values, order):
    out = _fresh(tmp_path_factory, "plot-fuzz-p.svg")
    argv = _fuzz_argv("plot", lemma, values) + ["--svg", str(out)]
    if order is not None:
        argv += ["--order", str(order)]
    code = _exits_cleanly(argv)
    assert out.exists() == (code == 0), (argv, code)


# threshold sweeps: one or two values per axis.  A and D are 1, just
# inside +-1, the anchors' 0, +-1/2 or uniform; B and E sit below the
# least of them by a share of the room down to -1 (1/2, all of it, 1e-7,
# none, or uniform up to 1.05 of it), so most sweeps are valid, some reach
# B = -1 or E = -1 and some leave the domain.  k takes the integer and
# half-integer exponents, just inside -1, or a uniform value in [-1, 3].
_UPPER = st.sampled_from([1.0, 1.0 - 1e-7, -(1.0 - 1e-7), 0.0, 0.5, -0.5]) \
    | st.floats(-1.0, 1.0)
_SHARE = st.sampled_from([0.5, 1.0, 1e-7, 0.0]) | st.floats(0.0, 1.05)
_K = st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, -(1.0 - 1e-7)]) \
    | st.floats(-1.0, 3.0)


def _joined(values):
    return ",".join(map(repr, values))


@st.composite
def _sweeps(draw):
    out = {}
    for upper, lower, most in (("A", "B", 2), ("D", "E", 1)):
        tops = draw(st.lists(_UPPER, min_size=1, max_size=most))
        shares = draw(st.lists(_SHARE, min_size=1, max_size=most))
        out[upper] = _joined(tops)
        out[lower] = _joined(min(tops) - share * (min(tops) + 1.0) for share in shares)
    out["k"] = _joined(draw(st.lists(_K, min_size=1, max_size=2)))
    return out


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(lemma=st.sampled_from([f"L{i}" for i in range(1, 12)]), sweeps=_sweeps())
# the degenerate L9 anchor, where F = beta^2 - 1 does not depend on x
@example(lemma="L9", sweeps={"A": "1.0", "B": "0.0", "D": "1.0", "E": "0.0", "k": "1.0"})
@example(lemma="L1", sweeps={"A": "1.0", "B": "0.0", "D": "0.0", "E": "0.0",
                             "k": "0.0,1.0,1.5,3.0"})
def test_threshold_fuzz_exits_cleanly(lemma, sweeps):
    argv = ["threshold", "--lemma", lemma]
    for name, value in sweeps.items():
        argv += [f"--{name}", value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:   # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def test_grid_help_states_the_threshold_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["threshold", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "min(--grid, 2048)" in help_text and "(default: 4096)" in help_text


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_parameters(capsys, value):
    assert run(["verify", "--lemma", "L2", "--A", "1", "--B", "0",
                f"--beta={value}"]) == 2
    err = capsys.readouterr().err
    assert "needs a finite beta" in err and "Traceback" not in err


def test_small_grid_rejected_with_every_problem_listed(capsys):
    assert run(["verify", "--lemma", "L2", "--A", "1", "--B", "0",
                "--beta", "nan", "--grid", "10"]) == 2
    err = capsys.readouterr().err
    assert "--grid must be at least 64" in err and "finite beta" in err
    assert run(["threshold", "--lemma", "L2", "--A", "1,nan", "--B", "0",
                "--grid", "10"]) == 2
    err = capsys.readouterr().err
    assert "--grid must be at least 64" in err and "finite A" in err
    assert run(["verify", "--lemma", "L2", "--A", "1", "--B", "0",
                "--beta", "3", "--grid", "64"]) == 0


@pytest.mark.parametrize("value", ["-inf", "-nan"])
def test_spaced_value_starting_with_minus_is_a_value(capsys, value):
    assert run(["verify", "--lemma", "L2", "--A", "1", "--B", "0",
                "--beta", value]) == 2
    err = capsys.readouterr().err
    assert "needs a finite beta" in err and "expected one argument" not in err


def test_spaced_negative_sweep_list(capsys):
    assert run(["threshold", "--lemma", "L1", "--A", "1", "--B", "-0.5,0",
                "--k", "1"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["B"] for r in rows] == ["-0.5", "0"]
    assert float(rows[0]["beta_star_closed"]) == pytest.approx(12.0)
    assert float(rows[1]["beta_star_closed"]) == pytest.approx(4.0)


L4_CRITERION_FAILS = ["verify", "--lemma", "L4", "--A", "0", "--B=-0.5",
                      "--beta", "2.8284271247461903"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6", "1"])
def test_tol_outside_unit_interval_rejected_with_every_problem_listed(capsys, tol):
    # min_margin < 1 - tol is False for these tols, which would turn this
    # CriterionFails point into Verified
    assert run(L4_CRITERION_FAILS) == 1
    capsys.readouterr()
    assert run([*L4_CRITERION_FAILS, f"--tol={tol}", "--grid", "10"]) == 2
    err = capsys.readouterr().err
    assert "--tol must lie in [0, 1)" in err
    assert "--grid must be at least 64" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    L4_CRITERION_FAILS,
    ["threshold", "--lemma", "L1", "--A", "1", "--B", "0", "--k", "1"],
    ["falsify", "--lemma", "L5", "--beta", "1", "--trials", "1"],
    ["plot", "--lemma", "L5", "--beta", "1", "--svg", "unused.svg"],
])
def test_negative_seed_rejected_on_every_subcommand(tmp_path, monkeypatch,
                                                    capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--seed must be non-negative, got -1" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_option_after_option_still_needs_its_value():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--lemma", "L2", "--A", "1", "--B", "--beta", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("beta", ["1e308", "-1e101"])
def test_huge_beta_rejected(capsys, beta):
    assert run(["verify", "--lemma", "L2", "--A", "1", "--B", "0",
                f"--beta={beta}", "--grid", "10"]) == 2
    err = capsys.readouterr().err
    assert "needs |beta| <= 1e+100" in err and "--grid must be at least 64" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("lemma,params", [
    ("L2", ["--A", "1", "--B", "-1"]),          # pole of h on the circle
    ("L8", ["--A", "1", "--B", "-1"]),
    ("L1", ["--A", "1", "--B", "0", "--k", "3"]),
    ("L5", []),
])
def test_largest_allowed_beta_runs(lemma, params):
    assert run(["verify", "--lemma", lemma, *params, "--beta", "1e100"]) in (0, 1)


@pytest.mark.parametrize("command", ["falsify", "plot"])
def test_negative_order_rejected_with_every_problem_listed(tmp_path, capsys,
                                                           command):
    output = ["--svg", str(tmp_path / "p.svg")] if command == "plot" else []
    for order in ("-3", "0"):
        assert run([command, "--lemma", "L5", "--beta", "-1", "--order", order,
                    *output]) == 2
        err = capsys.readouterr().err
        assert f"--order must be at least 1, got {order}" in err
        assert "needs beta > 0" in err and "Traceback" not in err
    assert not (tmp_path / "p.svg").exists()


# --- threshold sweeps -------------------------------------------------------------

def test_threshold_k_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["threshold", "--lemma", "L1", "--A", "1", "--B", "0",
                "--k", "0,1,2,3", "--csv", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["k"] for r in rows] == ["0", "1", "2", "3"]
    expected = [2.0 ** 1.5, 4.0, 2.0 ** 2.5, 8.0]
    for row, exp in zip(rows, expected):
        # beta columns carry 9 significant digits
        assert float(row["beta_star_closed"]) == pytest.approx(exp, rel=1e-8)
        assert float(row["beta_numeric"]) == pytest.approx(exp, rel=1e-4)
        assert abs(float(row["gap"])) <= 1e-4 * exp
        assert row["status"] == "Feasible"


def test_threshold_infeasible_row_kept(tmp_path):
    out = tmp_path / "inf.csv"
    assert run(["threshold", "--lemma", "L10", "--A", "1", "--B", "-1",
                "--D", "1", "--E", "-1", "--csv", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0]["status"] == "Infeasible"
    assert rows[0]["beta_star_closed"] == "" and rows[0]["beta_numeric"] == ""


def test_threshold_l9_degenerate_row(tmp_path):
    out = tmp_path / "l9.csv"
    assert run(["threshold", "--lemma", "L9", "--A", "1", "--B", "0",
                "--D", "1", "--E", "0", "--csv", str(out)]) == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert float(row["beta_star_closed"]) == pytest.approx(1.0)
    assert float(row["beta_numeric"]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("extra", [["--lemma", "L1", "--k", "1"],
                                   ["--lemma", "L9", "--D", "0.5", "--E", "0.2"]])
def test_threshold_with_a_tiny_a_minus_b_is_feasible(tmp_path, extra):
    # |N1|^2 and |(A - B) D|^2 once underflowed to 0 here
    out = tmp_path / "tiny.csv"
    assert run(["threshold", "--A", "0", "--B=-4.386647895761767e-236", *extra,
                "--csv", str(out)]) == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert row["status"] == "Feasible"
    assert float(row["beta_numeric"]) == pytest.approx(float(row["beta_star_closed"]),
                                                       rel=1e-8)


def test_threshold_l1_near_b_one_row_is_feasible(tmp_path):
    # 1 - |B| = 5e-10, yet A - B <= 1 - B keeps beta* = 4 finite
    out = tmp_path / "l1.csv"
    assert run(["threshold", "--lemma", "L1", "--A", "1", "--B", "0.9999999995",
                "--k", "1", "--csv", str(out)]) == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert row["status"] == "Feasible"
    assert float(row["beta_star_closed"]) == pytest.approx(4.0, rel=1e-6)


# A - B so small that 10 beta* overflows (lemniscate premise) or that
# (X - Y) / min g does (Mobius premise): no finite threshold is claimed.
# L3 at B = 1e-310 takes a Newton step that overflows; it is replaced by
# the bracket's midpoint, so the row is right and nothing is printed.
@pytest.mark.parametrize("argv,status", [
    (["--lemma", "L8", "--A=1e-308", "--B=0"], "NoThresholdInBracket"),
    (["--lemma", "L2", "--A=1e-320", "--B=0"], "NoThresholdInBracket"),
    (["--lemma", "L4", "--A=1e-320", "--B=0"], "NoThresholdInBracket"),
    (["--lemma", "L9", "--A=1e-320", "--B=0", "--D=0.5", "--E=0"], "NoThresholdInBracket"),
    (["--lemma", "L10", "--A=1e-320", "--B=0", "--D=0.5", "--E=0"], "NoThresholdInBracket"),
    (["--lemma", "L9", "--A=1e-308", "--B=0", "--D=0.5", "--E=0"], "Feasible"),
    (["--lemma", "L3", "--A=1", "--B=1e-310"], "Feasible"),
])
def test_threshold_at_a_tiny_scale_claims_only_finite_values(tmp_path, capsys, argv, status):
    out = tmp_path / "tiny.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["threshold", *argv, "--csv", str(out)]) == 0
    assert capsys.readouterr().err == ""
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert row["status"] == status
    if status == "Feasible":
        numeric = float(row["beta_numeric"])
        assert math.isfinite(numeric) and math.isfinite(float(row["gap"]))
        assert numeric == pytest.approx(float(row["beta_star_closed"]), rel=1e-8)
    else:
        assert row["beta_numeric"] == "" and row["gap"] == ""


def test_threshold_requires_sweep_axes():
    assert run(["threshold", "--lemma", "L1", "--A", "1"]) == 2


# --- falsify -----------------------------------------------------------------------

def test_falsify_report_and_schema(tmp_path):
    out = tmp_path / "f.json"
    assert run(["falsify", "--lemma", "L9", "--A", "1", "--B", "0",
                "--D", "1", "--E", "0", "--beta", "1", "--trials", "3",
                "--seed", "11", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema())
    trials = doc["results"]["trials"]
    assert len(trials) == 3
    assert all(t["premise_residual"] <= 1e-9 for t in trials)
    assert doc["results"]["summary"]["min_conclusion_margin"] >= -1e-9


def test_falsify_exploratory_below_threshold(tmp_path):
    out = tmp_path / "fx.json"
    assert run(["falsify", "--lemma", "L2", "--A", "1", "--B", "0",
                "--beta", "0.5", "--trials", "2", "--seed", "1",
                "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "evidence" in doc["results"]["note"]


OVERFLOWING_SOLVES = [
    ["--lemma", "L4", "--A", "0.5", "--B", "0", "--beta", "0.01"],
    ["--lemma", "L1", "--A", "1", "--B", "0", "--k", "2", "--beta", "1e-13"],
    # a non-integer exponent overflows through Euler's power step
    ["--lemma", "L1", "--A", "1", "--B", "0", "--k", "0.5", "--beta", "1e-13"],
]


@pytest.mark.parametrize("params", [
    # the adaptive L4 solve stops at order 64 with a finite residual, so its
    # NaN is reached at a fixed order
    OVERFLOWING_SOLVES[0] + ["--order", "512"],
    OVERFLOWING_SOLVES[1],
])
def test_falsify_non_finite_residual_exits_two(tmp_path, capsys, params):
    # the recursion overflows; a NaN residual must not pass as success
    out = tmp_path / "f.json"
    with np.errstate(all="ignore"):
        code = run(["falsify", *params, "--trials", "3", "--json", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "premise residual nan" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("params", OVERFLOWING_SOLVES)
def test_falsify_overflowing_solve_prints_only_the_error(params):
    # a fresh interpreter shows numpy's RuntimeWarnings, which pytest would capture
    proc = fresh_python(["-m", "lemnisub.cli", "falsify", *params, "--trials", "3"])
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: premise residual ")
    assert lines[0].endswith(" at order 64")


# --- output flags ------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["threshold", "--lemma", "L1", "--A", "1", "--B", "0", "--k", "1", "--json"],
    ["threshold", "--lemma", "L1", "--A", "1", "--B", "0", "--k", "1", "--svg"],
    ["verify", "--lemma", "L5", "--beta", "1", "--csv"],
    ["verify", "--lemma", "L5", "--beta", "1", "--svg"],
    ["falsify", "--lemma", "L5", "--beta", "1", "--trials", "1", "--csv"],
    ["falsify", "--lemma", "L5", "--beta", "1", "--trials", "1", "--svg"],
    ["plot", "--lemma", "L5", "--beta", "1", "--json"],
    ["plot", "--lemma", "L5", "--beta", "1", "--csv"],
])
def test_output_flag_of_another_subcommand_rejected(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([*argv, str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# --- plot -------------------------------------------------------------------------

def test_plot_svg_valid_and_labelled(tmp_path):
    out = tmp_path / "fig.svg"
    assert run(["plot", "--lemma", "L2", "--A", "1", "--B", "0",
                "--beta", "3", "--svg", str(out)]) == 0
    tree = ET.parse(out)
    text = out.read_text()
    assert "conclusion boundary" in text
    assert "premise boundary" in text
    assert 'width="800"' in text and 'height="800"' in text


def test_plot_requires_svg_path():
    assert run(["plot", "--lemma", "L2", "--A", "1", "--B", "0",
                "--beta", "3"]) == 2


def test_plot_admissibility_lemma_uses_solution_curve(tmp_path):
    out = tmp_path / "l5.svg"
    assert run(["plot", "--lemma", "L5", "--beta", "0.7",
                "--svg", str(out)]) == 0
    assert "p(0.999" in out.read_text()


# --- one process, many commands ----------------------------------------------------

def test_cached_parser_keeps_no_state(tmp_path, capsys):
    verify = ["verify", "--lemma", "L2", "--A", "1", "--B", "0", "--beta", "2",
              "--seed", "5", "--json"]
    first, second = tmp_path / "1.json", tmp_path / "2.json"
    assert run([*verify, str(first)]) == 1
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--lemma", "L5", "--beta", "1", "--csv",
             str(tmp_path / "x")])
    assert exc.value.code == 2
    assert run(["threshold", "--lemma", "L1", "--A", "1", "--B", "0",
                "--k", "2", "--grid", "128"]) == 0
    assert run([*verify, str(second)]) == 1
    capsys.readouterr()
    assert (data_section_bytes(json.loads(first.read_text()))
            == data_section_bytes(json.loads(second.read_text())))


def test_report_self_check_kept():
    # build_document does not validate; the schema refuses a verdict or a
    # command the CLI does not have
    def document(command, verdict):
        return report.build_document(command, {"lemma": "L2"}, {}, seed=0,
                                     verdict=verdict)

    jsonschema.validate(document("verify", "Verified"), _SCHEMA)
    for doc in (document("verify", "Proven"), document("prove", None)):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, _SCHEMA)


# the report kinds no other test validates: the two negative verdicts, and
# a rule decided by admissibility alone, whose report has no margin section
@pytest.mark.parametrize("argv,code,verdict", [
    (["--lemma", "L2", "--A", "1", "--B", "0", "--beta", "2"], 1, "CriterionFails"),
    (["--lemma", "L2", "--A", "1", "--B", "0", "--beta", "1"], 1, "HypothesisFails"),
    (["--lemma", "L6", "--beta", "0.5"], 0, "Verified"),
])
def test_every_verdict_report_fits_the_schema(tmp_path, argv, code, verdict):
    out = tmp_path / "r.json"
    assert run(["verify", *argv, "--json", str(out)]) == code
    doc = json.loads(out.read_text())
    _REPORT_VALIDATOR.validate(doc)
    assert doc["verdict"] == verdict


def test_cli_import_skips_jsonschema_and_svg(tmp_path):
    # neither importing the CLI nor writing verify and falsify reports
    # loads jsonschema or the SVG writer
    verify = ["verify", "--lemma", "L2", "--A", "1", "--B", "0", "--beta", "3",
              "--json", str(tmp_path / "v.json")]
    falsify = ["falsify", "--lemma", "L2", "--A", "1", "--B", "0", "--beta", "3",
               "--trials", "1", "--json", str(tmp_path / "f.json")]
    script = textwrap.dedent(f"""
        import sys
        from lemnisub import cli
        def loaded():
            print("loaded", sorted(m for m in sys.modules if m == "lemnisub.svg"
                                   or m.split(".")[0] == "jsonschema"))
        loaded()
        assert cli.main({verify!r}) == 0
        assert cli.main({falsify!r}) == 0
        loaded()
    """)
    proc = fresh_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("loaded")]
    assert lines == ["loaded []", "loaded []"]
    assert (tmp_path / "v.json").exists() and (tmp_path / "f.json").exists()


# --- determinism --------------------------------------------------------------------

def test_verify_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["verify", "--lemma", "L2", "--A", "1", "--B", "0",
                    "--beta", "3", "--seed", "9", "--json", str(path)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert data_section_bytes(da) == data_section_bytes(db)


def test_falsify_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["falsify", "--lemma", "L2", "--A", "1", "--B", "0",
                    "--beta", "3", "--trials", "4", "--seed", "21",
                    "--json", str(path)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert data_section_bytes(da) == data_section_bytes(db)


def test_threshold_and_plot_byte_determinism(tmp_path):
    c1, c2 = tmp_path / "1.csv", tmp_path / "2.csv"
    s1, s2 = tmp_path / "1.svg", tmp_path / "2.svg"
    for c, s in ((c1, s1), (c2, s2)):
        assert run(["threshold", "--lemma", "L2", "--A", "1,0.5", "--B", "0",
                    "--csv", str(c)]) == 0
        assert run(["plot", "--lemma", "L2", "--A", "1", "--B", "0",
                    "--beta", "3", "--svg", str(s)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()
