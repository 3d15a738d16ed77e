"""Bad fixture for BATCH006 (path mirrors repro/core/).

A receiver folding flow samples with the grouped Welford primitive and
building its own per-flow accumulators instead of folding into the one
columnar flow table in core/flowstats.py.  Never imported.
"""

from . import flowstats
from .flowstats import welford_grouped                          # BATCH006


def fold(values, starts, ends):
    own = welford_grouped(values, starts, ends)                  # BATCH006
    alt = flowstats.welford_grouped(values, starts, ends)        # BATCH006
    return own, alt, flowstats.fold_flow_samples                 # clean
