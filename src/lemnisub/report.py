"""Report documents: JSON in the ``report-v1.json`` layout and fixed-order CSV.

The JSON layout separates a ``metadata`` block (timestamp, seed, config
echo) from the ``results`` block; byte-for-byte comparisons of two runs
are meaningful on everything outside ``metadata.timestamp``.  All
numbers are converted to plain Python types before serialisation and
beta values are rounded to 9 significant digits at the formatting layer.

Documents are not validated when they are built: the test suite
validates a document of every kind the CLI writes against the schema.
"""

from __future__ import annotations

import csv
import io
import json
import time

import numpy as np

from .config import DEFAULTS

SCHEMA_VERSION = "1"

CSV_COLUMNS = ["lemma", "A", "B", "D", "E", "k",
               "beta_star_closed", "beta_numeric", "gap", "status"]


def jsonable(value):
    """Recursively convert numpy scalars/arrays and tuples to JSON types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def build_document(command: str, config: dict, results: dict,
                   seed: int | None = None, verdict: str | None = None,
                   margin_tol: float = DEFAULTS.margin_tol) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "metadata": {
            "seed": seed,
            "config": jsonable(config),
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
        "results": jsonable(results),
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


def sweep_rows_to_csv(rows: list) -> str:
    """Rows are dicts keyed by CSV_COLUMNS; deterministic text output."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row["lemma"],
            _format_param(row.get("A")),
            _format_param(row.get("B")),
            _format_param(row.get("D")),
            _format_param(row.get("E")),
            _format_param(row.get("k")),
            format_beta(row.get("beta_star_closed")),
            format_beta(row.get("beta_numeric")),
            format_beta(row.get("gap")),
            row["status"],
        ])
    return buf.getvalue()
