"""Bad fixture for BATCH004 (path mirrors repro/sim/).

A driver re-inlining the tail-drop queue scan instead of calling the one
kernel in sim/queue.py.  Never imported.
"""

from . import queue
from .queue import _drop_free_threshold        # BATCH004


def scan(times, sizes, buffer_bytes, rate_Bps):
    thr = _drop_free_threshold(buffer_bytes, 1500, rate_Bps)    # BATCH004
    alt = queue._drop_free_threshold(buffer_bytes, 64, rate_Bps)  # BATCH004
    return thr, alt, queue.tapped_scan                          # clean
