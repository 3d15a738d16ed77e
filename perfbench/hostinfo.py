"""Host record stored with every run: CPU, cores, load and a calibration.

Nothing here gates a run.  The calibration kernel lets a reader of two
results tell a slower host from slower code, and the pure-Python loop,
timed between the studies of a run, scales the run's times to a reference
host speed.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# Seconds the pure-Python loop takes on the reference host that reported
# times are scaled to (about its median on a 2-core Xeon VM, Python 3.11).
REFERENCE_LOOP_S = 0.070


def _python_loop() -> int:
    total = 0
    for i in range(1_000_000):
        total += i * i
    return total


def python_loop_seconds() -> float:
    start = time.perf_counter()
    _python_loop()
    return time.perf_counter() - start


def calibrate(repeats: int = 3) -> dict:
    """Median seconds of one pure-Python loop and one numpy sort."""
    values = np.random.default_rng(0).random(1_000_000)
    loop, sort = [], []
    for _ in range(repeats):
        loop.append(python_loop_seconds())
        start = time.perf_counter()
        np.sort(values)
        sort.append(time.perf_counter() - start)
    return {"python_loop_s": statistics.median(loop),
            "numpy_sort_s": statistics.median(sort)}


def host_record() -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_before": list(os.getloadavg()),
        "calibration": calibrate(),
    }
