"""Self-test of the benchmark's checks: each must reject a planted fault.

    python3 bench/selftest.py

Runs a few seeded operations of each workload through ``lemnisub.cli``,
confirms that ``checks.py`` accepts the true outputs, then plants one
fault per output and confirms the checks reject every one:

* threshold: ``beta_numeric`` scaled by 1 + 1e-3 (``gap`` kept consistent);
* verify: ``min_margin`` raised by 1e-6; the verdict flipped together with
  the exit code;
* falsify: one trial's conclusion margin moved by 1e-6 (summary kept
  consistent).

A check that cannot fail shows up here.  Exit code 0 when every planted
fault is caught.  The name keeps pytest from collecting it.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import checks
import worker
import workloads

SEED = 20240601


def _run(cli, op, directory: Path, name: str):
    path = directory / name
    code, _, err = worker.run_op(cli, op.argv + [worker.OUTPUT_FLAG[op.kind], str(path)])
    return code, (path.read_text(encoding="utf-8") if path.exists() else ""), err


def _mutate_threshold(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    row = dict(zip(checks.CSV_COLUMNS, rows[1]))
    if row["status"] != "Feasible":
        return None
    num = float(row["beta_numeric"]) * (1.0 + 1e-3)
    row["beta_numeric"] = f"{num:.9g}"
    row["gap"] = f"{float(row['beta_star_closed']) - num:.9g}"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [checks.CSV_COLUMNS, [row[c] for c in checks.CSV_COLUMNS]])
    return buf.getvalue()


def _raise_margin(doc: dict):
    if "margin" not in doc["results"]:
        return None
    doc = json.loads(json.dumps(doc))
    doc["results"]["margin"]["min_margin"] += 1e-6
    return json.dumps(doc)


def _flip_verdict(doc: dict):
    doc = json.loads(json.dumps(doc))
    flipped = {"Verified": "CriterionFails", "CriterionFails": "Verified",
               "HypothesisFails": "Verified"}[doc["verdict"]]
    doc["verdict"] = flipped
    return json.dumps(doc), 0 if flipped == "Verified" else 1


def _move_conclusion(doc: dict):
    doc = json.loads(json.dumps(doc))
    trials = doc["results"]["trials"]
    trials[0]["conclusion_margin"] += 1e-6
    doc["results"]["summary"]["min_conclusion_margin"] = min(
        t["conclusion_margin"] for t in trials)
    return json.dumps(doc)


def main() -> int:
    cli = worker.import_lemnisub()
    caught = missed = 0
    failures = []

    def expect(found: list, planted: bool, what: str) -> None:
        nonlocal caught, missed
        if planted and found:
            caught += 1
        elif planted:
            missed += 1
            failures.append(f"not rejected: {what}")
        elif found:
            failures.append(f"true output rejected: {what}: {found}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ops = next(workloads.rounds("threshold-sweep", SEED))[:22]
        for i, op in enumerate(ops):
            code, text, _ = _run(cli, op, tmp, f"t{i}.csv")
            expect(checks.check_threshold(op, code, text), False, " ".join(op.argv))
            bad = _mutate_threshold(text)
            if bad is not None:
                expect(checks.check_threshold(op, code, bad), True,
                       "beta_numeric * (1 + 1e-3): " + " ".join(op.argv))

        ops = [op for op in next(workloads.rounds("verify-batch", SEED))[:60]
               if not op.fault]
        for i, op in enumerate(ops):
            code, text, _ = _run(cli, op, tmp, f"v{i}.json")
            expect(checks.check_verify(op, code, text), False, " ".join(op.argv))
            doc = json.loads(text)
            bad = _raise_margin(doc)
            if bad is not None:
                expect(checks.check_verify(op, code, bad), True,
                       "min_margin + 1e-6: " + " ".join(op.argv))
            bad, bad_code = _flip_verdict(doc)
            expect(checks.check_verify(op, bad_code, bad), True,
                   "flipped verdict: " + " ".join(op.argv))

        for name, count in (("falsify-campaign", 22), ("falsify-deep", 3)):
            for i, op in enumerate(next(workloads.rounds(name, SEED))[:count]):
                code, text, _ = _run(cli, op, tmp, f"f{i}.json")
                expect(checks.check_falsify(op, code, text)
                       + checks.rebuild_falsify(op, text), False,
                       " ".join(op.argv))
                bad = _move_conclusion(json.loads(text))
                expect(checks.check_falsify(op, code, bad)
                       + checks.rebuild_falsify(op, bad), True,
                       "conclusion margin + 1e-6: " + " ".join(op.argv))

    for line in failures:
        print(line)
    print(f"planted faults caught: {caught}, missed: {missed}; "
          f"true outputs rejected: {len(failures) - missed}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
