"""One workload run in a fresh process: set up, run the operations, check.

Started by ``run.py``; not meant to be run by hand.  The process imports
lemnisub from the checkout's ``src`` and builds the first seeded round;
set-up ends there.  It then times the host-speed probe SETUP_PROBES
times (``hostspeed.py``).  Unless ``--setup-only`` is given it then calls
``lemnisub.cli.main`` once per operation, one after another (a closed
loop with one caller), writing each command's output file to a
temporary directory, round after round until ``--seconds`` have passed
and at least MIN_OPS operations were attempted (traced: TRACE_ROUNDS
rounds); the probe runs right before each operation and once after the
last.  It reads its peak resident set and checks every output against
``checks.py``.  The last line of its standard output is one
JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

OUTPUT_FLAG = {"threshold": "--csv", "verify": "--json", "falsify": "--json"}


def import_lemnisub():
    src = ROOT / "src"
    if not (src / "lemnisub" / "__init__.py").is_file():
        raise SystemExit(f"no lemnisub sources under {src}")
    sys.path.insert(0, str(src))
    from lemnisub import cli
    if Path(cli.__file__).resolve().parent != (src / "lemnisub").resolve():
        raise SystemExit(f"imported lemnisub from {cli.__file__}, not {src}")
    return cli


def run_op(cli, argv):
    """(exit code or None when it raised, seconds, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:       # an operation that raises counts as failed
        code = None
        err.write(traceback.format_exc())
    return code, time.perf_counter() - start, err.getvalue()


def check_all(ops, codes, paths) -> tuple:
    """(number of failed operations, problems found in the others)."""
    import checks

    failed, problems = 0, []
    for i, op in enumerate(ops):
        code = codes[i]
        if code is None or code == 2:
            failed += 1
            continue
        text = paths[i].read_text(encoding="utf-8") if paths[i].exists() else ""
        if op.kind == "threshold":
            found = checks.check_threshold(op, code, text)
        elif op.kind == "verify":
            found = checks.check_verify(op, code, text)
            if not found and op.repeat_of is not None:
                found = checks.check_repeat(
                    text, paths[op.repeat_of].read_text(encoding="utf-8"))
        else:
            found = checks.check_falsify(op, code, text)
            if not found and op.deep_check:
                found = checks.rebuild_falsify(op, text)
        problems.extend(f"op {i} ({' '.join(op.argv)}): {p}" for p in found)
    return failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_lemnisub()
    import workloads
    pending = workloads.rounds(args.workload, args.seed)
    batch = next(pending)
    ready = time.monotonic()
    ready_probes = [hostspeed.probe() for _ in range(hostspeed.SETUP_PROBES)]
    if args.setup_only:
        print(json.dumps({"ready": ready, "ready_probes": ready_probes}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ops-", dir=OUT_DIR))
    try:
        ops, codes, latencies, paths, probes = [], [], [], [], []
        rounds = 0
        loop_start = time.perf_counter()
        while True:
            offset = len(ops)
            for op in batch:
                i = len(ops)
                if op.repeat_of is not None:
                    op.repeat_of += offset
                path = scratch / f"{i}.out"
                if tracer is not None:
                    tracer.current_op = i
                probes.append(hostspeed.probe())
                code, seconds, err = run_op(cli, op.argv + [OUTPUT_FLAG[op.kind], str(path)])
                ops.append(op)
                codes.append(code)
                latencies.append(seconds)
                paths.append(path)
                if (code is None or code == 2) and not op.fault:
                    print(f"op {i} failed: {' '.join(op.argv)}\n{err}", file=sys.stderr)
            rounds += 1
            if tracer is not None:
                if rounds == workloads.TRACE_ROUNDS[args.workload]:
                    break
            elif (len(ops) >= workloads.MIN_OPS
                  and time.perf_counter() - loop_start >= args.seconds):
                break
            batch = next(pending)
        probes.append(hostspeed.probe())
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
        check_start = time.perf_counter()
        failed, problems = check_all(ops, codes, paths)
        check_seconds = time.perf_counter() - check_start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    scaled = hostspeed.scale(latencies, probes)
    done = [c in (0, 1) for c in codes]
    result = {"ready": ready, "ready_probes": ready_probes,
              "attempted": len(ops), "failed": failed, "correct": not problems,
              "check_seconds": check_seconds,
              "latencies": [s for s, ok in zip(scaled, done) if ok],
              "wall_latencies": [s for s, ok in zip(latencies, done) if ok],
              "peak_rss_kb": peak_rss_kb}
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        name = f"trace-{args.workload}-{args.seed}.npz"
        tracer.save(OUT_DIR / name)
        result["trace_file"] = str(Path(OUT_DIR.name) / name)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
