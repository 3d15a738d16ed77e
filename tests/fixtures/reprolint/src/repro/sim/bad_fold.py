"""Bad fixture for BATCH004 (path mirrors repro/sim/).

A sim module folding busy periods with the FIFO kernel's helper instead of
offering through FifoQueue.offer_batch / tapped_scan.  Never imported.
"""

from . import queue
from .queue import _busy_periods                # BATCH004


def departures(times, svc, free_at):
    fa = _busy_periods(times, svc, free_at)     # BATCH004
    return fa, queue._busy_periods, queue.FifoQueue  # BATCH004 (FifoQueue clean)
