"""Host-speed probe: the timings in host-independent form.

On a shared host the speed of the cores changes in phases of seconds to
minutes (README, "Host drift"): the same operation list can run 1.8x
slower in one minute than in the next, with process CPU time tracking
wall time, so longer runs alone do not average the phases out.  The
benchmark therefore times a fixed probe kernel of its own right before
every operation (and once after the last one), and scales each
operation's wall time by the probe's local speed:

    scaled = wall * REFERENCE_PROBE_S / (median of the nearby probe times)

A scaled time reads as the operation's time on a host on which the probe
takes REFERENCE_PROBE_S.  The probe is the benchmark's own code, so a
change to lemnisub moves every scaled time by the same factor as the
wall time; only the host's phase is divided out.  The raw wall-clock
figures are printed next to the scaled ones on standard error.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the probe's median time on the reference host (README), so that scaled
# times there read close to wall times
REFERENCE_PROBE_S = 0.5e-3
WINDOW = 2          # probes on each side of an operation's own two
SETUP_PROBES = 21   # probes after set-up, to scale the set-up time

_Z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1024))


def probe() -> float:
    """Seconds for one run of the fixed probe kernel: the kind of work
    lemnisub does, small complex numpy arrays and a pure-Python loop."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(6):
        w = (1.0 + 0.3 * _Z) / (1.0 - 0.5 * _Z)
        acc += float(np.min(np.abs(w * w - 1.0)))
    x = 0
    for i in range(3000):
        x += (i * i) % 7
    return time.perf_counter() - start


def speed_factor(probes) -> float:
    """REFERENCE_PROBE_S over the median probe time."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def scale(latencies, probes) -> list:
    """Scaled latencies; ``probes[i]`` ran right before operation i and
    ``probes[-1]`` after the last one, so ``len(probes) == len(latencies) + 1``."""
    if len(probes) != len(latencies) + 1:
        raise ValueError("one probe before each operation and one after the last")
    return [wall * speed_factor(probes[max(0, i - WINDOW):i + WINDOW + 2])
            for i, wall in enumerate(latencies)]
