"""Helpers that only the tests use, kept out of ``src/``.

``dominant_Q_on_circle`` evaluates the catalog's Q, which the derivative
oracle (``oracles.derivative_cross_check``) and the catalog tests
compare with; no command needs Q alone.  ``load_schema`` and
``data_section_bytes`` read the report schema and compare two reports
outside ``metadata.timestamp``; no command validates or compares
reports.
"""

import json
from importlib import resources

from lemnisub.catalog import _curve, _dominant_Q, _on_circle
from lemnisub.report import dumps


def dominant_Q_on_circle(lemma, params, t, r=1.0):
    """Q on |z| = r, through the stable circle forms when r = 1."""
    return _dominant_Q(_curve(lemma, params), params.beta, *_on_circle(t, r))


def load_schema() -> dict:
    """A fresh copy of the report schema, ``report-v1.json``."""
    text = resources.files("lemnisub.schemas").joinpath("report-v1.json").read_text()
    return json.loads(text)


def data_section_bytes(doc: dict) -> bytes:
    """Deterministic bytes of everything outside metadata.timestamp."""
    clone = json.loads(dumps(doc))
    clone.get("metadata", {}).pop("timestamp", None)
    return (json.dumps(clone, indent=2, sort_keys=True) + "\n").encode()
