"""lemnisub benchmark: one workload per run, checked, with its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads: threshold-sweep,
verify-batch, falsify-campaign, falsify-deep (see README.md).  The run
starts SETUP_SAMPLES processes that only set up (interpreter start,
``import lemnisub`` from ``src``, the first seeded round), then one fresh
single-threaded process that sets up, runs the workload and checks every
output, then SETUP_SAMPLES more set-up processes.  ``setup_s`` is the
median of all those set-ups.  Every timing is scaled by the host-speed
probe timed in the same process (``hostspeed.py``), so that the host's
slow and fast phases divide out; the unscaled wall-clock figures go to
standard error.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from
spans with ``--trace 1``.  The same line is kept in ``.bench_out/``.
Exit code 0 when the run completed and every check passed, 1 when a
check failed, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 3      # set-up-only processes before and after the run
TIMEOUT_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LEMNISUB_WORKERS", None)       # the default single worker
    env.pop("PYTHONPATH", None)             # lemnisub comes from src only
    env.update({name: "1" for name in SINGLE_THREAD})
    return env


def start_worker(args, deadline: float, setup_only: bool):
    """Run one worker; returns (its JSON result, its set-up time in wall
    seconds and scaled by the probe times that followed it)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(2)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        raise SystemExit(2)
    result = json.loads(lines[-1])
    wall = result["ready"] - started
    return result, (wall, wall * hostspeed.speed_factor(result["ready_probes"]))


UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}


def timings(latencies, setups) -> dict:
    """The timed end-to-end metrics from operation latencies and set-up
    times, both in seconds."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setups),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lemnisub" / "__init__.py").is_file():
        print(f"no lemnisub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # set-up samples before and after the run, so that they span the
    # host's slow and fast phases rather than one of them
    deadline = time.monotonic() + TIMEOUT_S
    setups = [start_worker(args, deadline, True)[1] for _ in range(SETUP_SAMPLES)]
    result, setup = start_worker(args, deadline, False)
    setups.append(setup)
    setups += [start_worker(args, deadline, True)[1] for _ in range(SETUP_SAMPLES)]

    scaled = timings(result["latencies"], [s for _, s in setups])
    wall = timings(result["wall_latencies"], [w for w, _ in setups])
    print("wall clock, unscaled: " + ", ".join(f"{k} {v:.4g}" for k, v in wall.items()),
          file=sys.stderr)
    if args.trace:
        metrics = result["per_layer"]
        print(f"traced ops_per_s {scaled['ops_per_s']:.4g}; "
              f"spans in {result['trace_file']}", file=sys.stderr)
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in scaled.items()}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"}
        metrics = {name: metrics[name] for name in UNITS}
    line = json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
