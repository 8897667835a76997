"""``threshold --csv`` bytes pinned on 60 fixed commands.

The data sections of the CSV stay byte-identical unless a correctness
fix changes a number (ROADMAP), so a faster threshold solve must leave
these files as they were.  The commands are the six exact anchors of
acceptance criteria 1-3, four seeded draws of each of the eight margin
rules (exact path, and L1's grid path at non-integer k), one explicit
L1 point at k = 1.7, the point where A - B = 4.4e-236 once
underflowed, and 20 edge points of L1's grid path: A - B down to 1e-3,
B down to -0.999999, k at both ends of (-1, 3), some on the 64-point
grid.

``data/threshold_golden.json`` holds each command with its CSV text.
Rebuild it only from a commit whose numbers are trusted:

    PYTHONPATH=src python tests/test_threshold_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from lemnisub import CATALOG, LemmaId
from lemnisub.cli import main

GOLDEN = Path(__file__).parent / "data" / "threshold_golden.json"

ANCHORS = [
    *(["--lemma", "L1", "--A=1.0", "--B=0.0", f"--k={k!r}"]
      for k in (0.0, 1.0, 2.0, 3.0)),
    ["--lemma", "L2", "--A=1.0", "--B=0.0"],
    ["--lemma", "L9", "--A=1.0", "--B=0.0", "--D=1.0", "--E=0.0"],
]
EXTRA = [
    ["--lemma", "L1", "--A=0.5", "--B=-0.3", "--k=1.7"],
    ["--lemma", "L1", "--A=0", "--B=-4.386647895761767e-236", "--k=1"],
]
# L1 grid-path edge points (A, B, k, --grid); None keeps the default grid
EDGES = [
    (1.0, -0.999999, -0.999, None), (1.0, -0.999999, 2.999, None),
    (1.0, -0.999999, 0.5, 64), (1.0, 0.999, -0.999, None),
    (1.0, 0.999, 2.999, 64), (1.0, 0.5, 0.0, None),
    (0.9, -0.999999, 1.5, None), (0.9, -0.999999, 2.5, 64),
    (0.9, 0.899, 0.25, None), (0.9, -0.9, 2.0, None), (0.9, -0.9, 2.0, 64),
    (0.0, -0.999999, -0.999, None), (0.0, -0.999999, 2.999, 64),
    (0.0, -0.001, 1.2, None), (0.0, -0.5, -0.5, 64),
    (-0.5, -0.999999, 0.0, None), (-0.5, -0.999999, 2.999, None),
    (-0.5, -0.501, -0.999, 64), (-0.5, -0.9, 1.9999, None),
    (-0.5, -0.75, 0.75, 64),
]
DRAWS_PER_RULE = 4


def commands():
    """The pinned argument lists, drawn as ``conftest.draw_valid_params`` does."""
    from conftest import draw_valid_params
    rng = np.random.default_rng(26_026)
    out = [["threshold", *a] for a in ANCHORS]
    for lemma in (l for l in LemmaId if CATALOG[l].margin_criterion):
        for _ in range(DRAWS_PER_RULE):
            p = draw_valid_params(lemma, rng)
            out.append(["threshold", "--lemma", lemma.value]
                       + [f"--{n}={v!r}" for n, v in
                          (("A", p.A), ("B", p.B), ("D", p.D), ("E", p.E), ("k", p.k))
                          if v is not None])
    out += [["threshold", *a] for a in EXTRA]
    return out + [["threshold", "--lemma", "L1", f"--A={A!r}", f"--B={B!r}",
                   f"--k={k!r}", *([f"--grid={grid}"] if grid else [])]
                  for A, B, k, grid in EDGES]


def csv_bytes(argv, path):
    assert main([*argv, "--csv", str(path)]) == 0
    return path.read_bytes()


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_pinned_commands():
    cases = _golden()
    assert len(cases) == 60
    assert [c["argv"] for c in cases] == commands()
    statuses = {c["csv"].splitlines()[1].split(",")[-1] for c in cases}
    assert "Feasible" in statuses


# the file's presence is asserted above; only a rebuild runs without it
@pytest.mark.parametrize("case", _golden() if GOLDEN.exists() else [],
                         ids=lambda c: " ".join(c["argv"][2:]))
def test_threshold_csv_bytes_are_pinned(tmp_path, case):
    assert csv_bytes(case["argv"], tmp_path / "t.csv").decode() == case["csv"]


if __name__ == "__main__":
    import tempfile
    sys.path.insert(0, str(Path(__file__).parent))
    with tempfile.TemporaryDirectory() as tmp:
        cases = [{"argv": argv, "csv": csv_bytes(argv, Path(tmp) / "t.csv").decode()}
                 for argv in commands()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")
    print(f"wrote {len(cases)} commands to {GOLDEN}")
