"""Bad fixture for BATCH005 (path mirrors repro/core/).

A receiver re-inlining the per-stream estimate half instead of calling
the one estimate kernel in core/interpolation.py.  Never imported.
"""

from . import interpolation
from .interpolation import interpolate_batch                    # BATCH005


def estimate(times, ref_t, ref_d, intervals):
    own = interpolate_batch(times, ref_t, ref_d, intervals=intervals)  # BATCH005
    alt = interpolation.interpolate_batch(times, ref_t, ref_d)    # BATCH005
    return own, alt, interpolation.estimate_streams              # clean
