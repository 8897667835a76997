"""``report.dumps`` against ``json.dumps(doc, indent=2, sort_keys=True)``.

``dumps`` writes a report by a direct recursive writer instead of the
``json`` module's encoder; its bytes must be the encoder's, plus a
newline, on every document kind the CLI writes and on planted documents
with every value ``json`` treats apart.
"""

import json
import math
from collections import OrderedDict

import numpy as np
import pytest

from lemnisub import report
from lemnisub.cli import main


def as_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# one command line per kind of document: the verify verdicts, with and
# without a margin section, with a puncture and a pole inside the disk
# (punctured-pole), and falsify
CLI_DOCUMENTS = {
    "verified": ["verify", "--lemma", "L2", "--A=1", "--B=0", "--beta=3"],
    "criterion-fails": ["verify", "--lemma", "L2", "--A=1", "--B=0", "--beta=2"],
    "hypothesis-fails": ["verify", "--lemma", "L2", "--A=1", "--B=0", "--beta=1"],
    "admissibility-only": ["verify", "--lemma", "L6", "--beta=0.5"],
    "convective": ["verify", "--lemma", "L8", "--A=0.2", "--B=-0.8", "--beta=3"],
    "mobius-premise": ["verify", "--lemma", "L9", "--A", "0.5", "--B", "-0.3",
                       "--D", "0.4", "--E", "-0.2", "--beta", "2.5"],
    "punctured-pole": ["verify", "--lemma", "L1", "--A=0.7", "--B=-0.4", "--k=1.5",
                       "--beta=4"],
    "falsify": ["falsify", "--lemma", "L9", "--A", "1", "--B", "0", "--D", "1",
                "--E", "0", "--beta", "1", "--trials", "3", "--seed", "11"],
    "falsify-l3": ["falsify", "--lemma", "L3", "--A=-0.305", "--B=-0.547",
                   "--beta", "3.4555", "--trials", "2", "--seed", "3"],
}


@pytest.mark.parametrize("argv", CLI_DOCUMENTS.values(), ids=CLI_DOCUMENTS)
def test_cli_documents(tmp_path, monkeypatch, capsys, argv):
    docs = []
    dumps = report.dumps

    def spy(doc):
        docs.append(doc)
        return dumps(doc)

    monkeypatch.setattr(report, "dumps", spy)
    out = tmp_path / "doc.json"
    assert main([*argv, "--json", str(out)]) in (0, 1)
    capsys.readouterr()
    assert len(docs) == 1
    assert out.read_text(encoding="utf-8") == as_json(docs[0]) == dumps(docs[0])


class Count(int):
    pass


class Share(float):
    pass


class Name(str):
    pass


PLANTED = {
    "empty dict": {},
    "empty list": [],
    "empty containers": {"a": {}, "b": [], "c": [[], {}], "d": [[[]]]},
    "scalars": {"t": True, "f": False, "n": None, "i": -3, "x": 2.5, "s": "s"},
    "non-finite": {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                   "list": [math.nan, -math.inf, 0.0, -0.0]},
    "extreme numbers": {"big": 1e308, "tiny": 5e-324, "huge int": 10 ** 40,
                        "repr": [0.1, 1 / 3, 1e16, 1e-7, 123456789.0]},
    "strings": {"quote": '"\\', "control": "\n\t\x00\x1f", "latin": "é",
                "astral": "\U0001f600", "snowman ☃": "key"},
    "tuples": {"pair": (1, 2.0), "nested": ((), ([],))},
    "subclasses": {"count": Count(7), "share": Share(0.25), "name": Name("n"),
                   "np": np.float64(0.1), "np inf": np.float64(-np.inf),
                   "ordered": OrderedDict([("z", 1), ("a", 2)])},
    "number keys": {1: "int", 2.5: "float", -math.inf: "inf", math.nan: "nan",
                    Count(3): "subclass"},
    "bool keys": {True: "t", False: "f"},
    "null key": {None: "none"},
    "deep": {"l": [{"m": [1, {"n": [None]}]}]},
    "top string": "just a string",
    "top number": 1e-9,
    "top null": None,
}


@pytest.mark.parametrize("doc", PLANTED.values(), ids=PLANTED)
def test_planted_documents(doc):
    assert report.dumps(doc) == as_json(doc)


@pytest.mark.parametrize("doc", [
    {"a": {1, 2}}, {"a": b"x"}, {"a": np.int64(1)}, {"a": np.bool_(True)},
    [object()], {(1, 2): "tuple key"}, {"a": 1, 2: "mixed keys"},
], ids=["set", "bytes", "np.int64", "np.bool_", "object", "tuple-key",
        "unsortable-keys"])
def test_refused_values_raise_as_json_does(doc):
    with pytest.raises(TypeError) as ours:
        report.dumps(doc)
    with pytest.raises(TypeError) as theirs:
        as_json(doc)
    assert str(ours.value) == str(theirs.value)
