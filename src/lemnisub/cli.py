"""Command-line front end.

Subcommands:

* ``verify``    one lemma at one parameter point -> verdict + JSON report
* ``threshold`` closed-form and numeric thresholds, sweepable -> CSV
* ``falsify``   seeded premise-exact trial campaigns -> JSON report
* ``plot``      region boundaries and dominant curves -> SVG

Exit codes: 0 on success (``verify``: verdict Verified), 1 when a
verification verdict is negative, 2 on invalid configuration.  Identical
configuration and seed give byte-identical data sections.

``main`` may be called many times in one process: the parser is built on
the first call, ``jsonschema`` is imported with the first JSON report and
``svg`` with the first figure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys

import numpy as np

from . import report as report_mod
from .catalog import (
    CATALOG,
    LemmaId,
    LemmaParams,
    closed_form_threshold,
    conclusion_region,
    h_minus_one_on_circle,
    premise_region,
    validation_errors,
)
from .config import DEFAULTS
from .errors import LemnisubError, NoThresholdInBracket, NonMonotoneMargin
from .generate import monomial, random_schwarz, solve_premise
from .regions import boundary_curve
from .verify import (
    Verdict,
    check_superordination,
    implication_trial,
    numeric_threshold,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lemma", required=True, help="catalog id, L1..L11")
    for name in ("A", "B", "D", "E", "k", "beta"):
        p.add_argument(f"--{name}", default=None,
                       help=f"parameter {name} (threshold: comma list sweeps)")
    p.add_argument("--grid", type=int, default=DEFAULTS.margin_grid,
                   help="angular grid size. verify samples the boundary "
                        "margin on it and refines its local minima by "
                        "parabolic steps; threshold uses min(--grid, 2048) "
                        "angles, which seed its solve")
    p.add_argument("--radii", default=",".join(str(r) for r in DEFAULTS.radii),
                   help="subordination radius schedule")
    p.add_argument("--order", type=int, default=None,
                   help="series truncation order (default: adaptive, cap 512)")
    p.add_argument("--tol", type=float, default=DEFAULTS.margin_tol,
                   help="margin criterion tolerance")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It keeps no state between
    commands: ``parse_args`` returns a fresh namespace, and argparse looks
    up ``sys.stdout``/``sys.stderr`` only when it prints."""
    top = argparse.ArgumentParser(
        prog="lemnisub",
        description="numerical verification of disk subordination implications")
    sub = top.add_subparsers(dest="command", required=True)
    for name, helptext, output in (
        ("verify", "verify one lemma at one parameter point", "json"),
        ("threshold", "closed-form vs numeric beta thresholds (sweepable)", "csv"),
        ("falsify", "premise-exact trial campaign at a chosen beta", "json"),
        ("plot", "emit an SVG figure of regions and the dominant curve", "svg"),
    ):
        p = sub.add_parser(name, help=helptext,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        _add_common(p)
        p.add_argument(f"--{output}", dest=f"{output}_path", default=None,
                       help=f"{output.upper()} output path")
        if name == "falsify":
            p.add_argument("--trials", type=int, default=50,
                           help="number of Schwarz draws")
    return top


def _parse_lemma(value: str, errors: list) -> LemmaId | None:
    try:
        return LemmaId(value)
    except ValueError:
        errors.append(f"unknown lemma id {value!r}; expected L1..L11")
        return None


def _parse_float(name: str, raw, errors: list):
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        errors.append(f"--{name} must be a number, got {raw!r}")
        return None


def _parse_float_list(name: str, raw, errors: list):
    if raw is None:
        return [None]
    out = []
    for piece in str(raw).split(","):
        try:
            out.append(float(piece))
        except ValueError:
            errors.append(f"--{name} must be numbers, got {piece!r}")
    return out or [None]


def _parse_radii(raw: str, errors: list) -> tuple:
    try:
        radii = tuple(float(x) for x in str(raw).split(","))
    except ValueError:
        errors.append(f"--radii must be comma-separated numbers, got {raw!r}")
        return DEFAULTS.radii
    if any(not (0.0 < r < 1.0) for r in radii):
        errors.append("--radii must lie in (0, 1)")
    return radii


_MAX_GRID = 2 ** 20


def _check_options(args, errors: list) -> tuple:
    """Append the problems with --grid, --radii, --order, --tol and --seed,
    which every subcommand takes and checks even where it does not use
    them, and with falsify's --trials; return the parsed radii."""
    # the upper bounds keep a huge value from reaching numpy's allocator
    if args.grid < 64:
        errors.append(f"--grid must be at least 64, got {args.grid}")
    if args.grid > _MAX_GRID:
        errors.append(f"--grid must be at most {_MAX_GRID}, got {args.grid}")
    radii = _parse_radii(args.radii, errors)
    if args.order is not None and args.order < 1:
        errors.append(f"--order must be at least 1, got {args.order}")
    if args.order is not None and args.order > DEFAULTS.max_order:
        errors.append(f"--order must be at most {DEFAULTS.max_order}, got {args.order}")
    # the criterion is min_margin >= 1 - tol, and margins are moduli, so a
    # tol of 1 or more (or NaN) passes every point
    if not 0.0 <= args.tol < 1.0:
        errors.append(f"--tol must lie in [0, 1), got {args.tol}")
    if args.seed < 0:
        errors.append(f"--seed must be non-negative, got {args.seed}")
    if getattr(args, "trials", 1) < 1:
        errors.append("--trials must be at least 1")
    return radii


def _reject(errors: list) -> int:
    print("invalid configuration:", file=sys.stderr)
    for msg in errors:
        print(f"  - {msg}", file=sys.stderr)
    return 2


def _params_from_args(args, errors: list) -> LemmaParams:
    return LemmaParams(
        A=_parse_float("A", args.A, errors),
        B=_parse_float("B", args.B, errors),
        D=_parse_float("D", args.D, errors),
        E=_parse_float("E", args.E, errors),
        k=_parse_float("k", args.k, errors),
        beta=_parse_float("beta", args.beta, errors),
    )


def _parse_point(args) -> tuple:
    """Lemma, parameters and radii of a one-point command (verify, falsify,
    plot), and every configuration error found in them."""
    errors: list = []
    lemma = _parse_lemma(args.lemma, errors)
    params = _params_from_args(args, errors)
    radii = _check_options(args, errors)
    if lemma is not None:
        errors.extend(validation_errors(lemma, params))
    return lemma, params, radii, errors


def _config_echo(args) -> dict:
    keys = ("command", "lemma", "A", "B", "D", "E", "k", "beta", "grid",
            "radii", "order", "tol", "seed", "trials")
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


# --- verify -----------------------------------------------------------------

def cmd_verify(args) -> int:
    lemma, params, _, errors = _parse_point(args)
    if errors:
        return _reject(errors)

    rep = check_superordination(lemma, params, grid_size=args.grid,
                                margin_tol=args.tol)
    results = {
        "lemma": lemma.value,
        "statement": CATALOG[lemma].statement,
        "feasible": rep.feasible,
        "admissibility": rep.admissibility,
        "notes": list(rep.notes),
    }
    if rep.margin is not None:
        results["margin"] = {
            "min_margin": rep.margin.min_margin,
            "argmin_t": rep.margin.argmin_t,
            "grid_size": args.grid,
            "punctures": list(rep.margin.punctures),
            "den_winding": rep.den_winding,
            "pole_inside": rep.pole_inside,
            "refined": rep.margin.refined,
        }
    doc = report_mod.build_document("verify", _config_echo(args), results,
                                    seed=args.seed, verdict=rep.verdict.value,
                                    margin_tol=args.tol)
    if args.json_path:
        report_mod.write_json(args.json_path, doc)
    print(f"{lemma.value}: {rep.verdict.value}")
    if rep.margin is not None:
        print(f"  min margin  {rep.margin.min_margin:.9g} at t = "
              f"{rep.margin.argmin_t:.9g}")
    for name, value in rep.admissibility.items():
        print(f"  adm {name}  {value:.9g}")
    for note in rep.notes:
        print(f"  note: {note}")
    return 0 if rep.verdict is Verdict.VERIFIED else 1


# --- threshold ---------------------------------------------------------------

def _threshold_row(lemma: LemmaId, combo: dict, grid: int) -> dict:
    params = LemmaParams(**combo)
    closed = closed_form_threshold(lemma, params)
    row = {"lemma": lemma.value, **combo,
           "beta_star_closed": None, "beta_numeric": None,
           "gap": None, "status": closed.status.value}
    if closed.beta_star is None:
        return row
    row["beta_star_closed"] = closed.beta_star
    if CATALOG[lemma].margin_criterion:
        try:
            numeric = numeric_threshold(lemma, params, grid_size=min(grid, 2048))
            row["beta_numeric"] = numeric
            row["gap"] = closed.beta_star - numeric
        except (NonMonotoneMargin, NoThresholdInBracket) as exc:
            row["status"] = type(exc).__name__
    return row


def cmd_threshold(args) -> int:
    errors: list = []
    _check_options(args, errors)
    lemma = _parse_lemma(args.lemma, errors)
    names = ["A", "B", "D", "E", "k"]
    axes = {name: _parse_float_list(name, getattr(args, name), errors)
            for name in names}
    combos = [dict(zip(names, values))
              for values in itertools.product(*(axes[n] for n in names))]
    if lemma is not None:
        needed = CATALOG[lemma].uses - {"beta"}
        missing = [n for n in sorted(needed) if axes[n] == [None]]
        errors.extend(f"{lemma.value} sweep requires --{n}" for n in missing)
        if not missing:
            errors.extend(sorted({msg for combo in combos
                                  for msg in validation_errors(
                                      lemma, LemmaParams(**combo),
                                      require_beta=False)}))
    if errors:
        return _reject(errors)

    rows = [_threshold_row(lemma, c, args.grid) for c in combos]

    text = report_mod.sweep_rows_to_csv(rows)
    if args.csv_path:
        with open(args.csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --- falsify -----------------------------------------------------------------

def cmd_falsify(args) -> int:
    lemma, params, radii, errors = _parse_point(args)
    if errors:
        return _reject(errors)

    rng = np.random.default_rng(args.seed)
    draws = [random_schwarz(rng, args.order or DEFAULTS.series_order)
             for _ in range(args.trials)]

    def run(w):
        trial = implication_trial(lemma, params, w, order=args.order,
                                  radii=radii)
        return {
            "schwarz": trial.schwarz,
            "order": trial.order,
            "premise_residual": trial.premise_residual,
            "conclusion_margin": trial.conclusion_margin,
            "tail_certified": trial.tail_certified,
        }

    trials = [run(w) for w in draws]

    results = {
        "lemma": lemma.value,
        "beta": params.beta,
        "trials": trials,
        "summary": {
            "min_conclusion_margin": min(t["conclusion_margin"] for t in trials),
            "max_premise_residual": max(t["premise_residual"] for t in trials),
            "negative_margins": sum(t["conclusion_margin"] < 0 for t in trials),
        },
        "note": "sampled evidence only; a negative margin refutes nothing "
                "beyond the sampled exhaustion",
    }
    doc = report_mod.build_document("falsify", _config_echo(args), results,
                                    seed=args.seed)
    if args.json_path:
        report_mod.write_json(args.json_path, doc)
    s = results["summary"]
    print(f"{lemma.value} beta={params.beta}: {args.trials} trials, "
          f"min margin {s['min_conclusion_margin']:.3e}, "
          f"max residual {s['max_premise_residual']:.3e}")
    return 0


# --- plot --------------------------------------------------------------------

def cmd_plot(args) -> int:
    from .svg import Figure

    lemma, params, _, errors = _parse_point(args)
    if args.svg_path is None:
        errors.append("plot requires --svg <path>")
    if errors:
        return _reject(errors)

    t = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
    fig = Figure(f"{lemma.value}: {CATALOG[lemma].statement}")
    fig.add_curve("conclusion boundary",
                  boundary_curve(conclusion_region(lemma, params)))
    fig.add_curve("premise boundary",
                  boundary_curve(premise_region(lemma, params)))
    if CATALOG[lemma].margin_criterion:
        from .catalog import singular_angles
        keep = np.ones(t.shape, dtype=bool)
        for s in singular_angles(lemma, params):
            keep &= np.abs(np.abs(t) - abs(s)) > 1e-3
        fig.add_curve("h(e^{it})",
                      1.0 + h_minus_one_on_circle(lemma, params, t[keep]))
    else:
        sol = solve_premise(lemma, params, monomial(1, DEFAULTS.series_order),
                            order=args.order)
        fig.add_curve("p(0.999 e^{it})", sol.p.eval_on_circle(0.999, t.size))
    fig.write(args.svg_path)
    print(f"wrote {args.svg_path}")
    return 0


# a value such as -0.5,0 or -inf that argparse would take for an option
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _join_negative_values(argv: list) -> list:
    """Write `--B -0.5,0` as `--B=-0.5,0` so the value is not read as an option."""
    out = []
    for token in argv:
        if (out and _NEGATIVE_VALUE.match(token) and out[-1].startswith("--")
                and "=" not in out[-1]):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_negative_values(argv))
    handlers = {"verify": cmd_verify, "threshold": cmd_threshold,
                "falsify": cmd_falsify, "plot": cmd_plot}
    try:
        return handlers[args.command](args)
    except LemnisubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
