"""Report documents: JSON in the ``report-v1.json`` layout and fixed-order CSV.

The JSON layout separates a ``metadata`` block (timestamp, seed, config
echo) from the ``results`` block; byte-for-byte comparisons of two runs
are meaningful on everything outside ``metadata.timestamp``.  The
commands hand over plain Python values only (``json`` writes tuples as
arrays).  CSV cells are formatted per column: beta values to 9
significant digits, parameters to 6.

Documents are not validated when they are built: the test suite
validates a document of every kind the CLI writes against the schema.
"""

from __future__ import annotations

import csv
import io
import json
import time

from .config import DEFAULTS

SCHEMA_VERSION = "1"


def build_document(command: str, config: dict, results: dict,
                   seed: int | None = None, verdict: str | None = None,
                   margin_tol: float = DEFAULTS.margin_tol) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "metadata": {
            "seed": seed,
            "config": config,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            # tolerance annotations for every numeric field downstream
            "tolerances": {
                "margin": margin_tol,   # the one the verdict applied
                "residual": DEFAULTS.residual_tol,
                "coefficient": DEFAULTS.coeff_tol,
                "evaluation": DEFAULTS.eval_tol,
                "tail": DEFAULTS.tail_tol,
            },
        },
        "results": results,
        "verdict": verdict,
    }
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def format_beta(x) -> str:
    return "" if x is None else f"{float(x):.9g}"


def _format_param(x) -> str:
    return "" if x is None else f"{float(x):.6g}"


# each CSV column and the formatter of its cell, in output order
_CSV_CELLS = {"lemma": str, "A": _format_param, "B": _format_param,
              "D": _format_param, "E": _format_param, "k": _format_param,
              "beta_star_closed": format_beta, "beta_numeric": format_beta,
              "gap": format_beta, "status": str}
CSV_COLUMNS = list(_CSV_CELLS)


def sweep_rows_to_csv(rows: list) -> str:
    """Rows are dicts keyed by CSV_COLUMNS; deterministic text output."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([cell(row.get(name)) for name, cell in _CSV_CELLS.items()]
                     for row in rows)
    return buf.getvalue()
