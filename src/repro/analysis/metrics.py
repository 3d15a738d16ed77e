"""Error metrics joining estimated and true per-flow statistics.

"A performance metric is the relative error" (paper Section 4): for each
flow, |estimate − truth| / truth, computed over per-flow means
(Figure 4(a,c)) and standard deviations (Figure 4(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.flowstats import FlowColumns, FlowStatsTable, same_bits

__all__ = [
    "relative_error",
    "flow_mean_errors",
    "flow_std_errors",
    "FlowErrorJoin",
]


def relative_error(estimate: float, truth: float) -> float:
    """|estimate − truth| / truth (truth must be positive)."""
    if truth <= 0:
        raise ValueError(f"relative error undefined for truth={truth}")
    return abs(estimate - truth) / truth


@dataclass(eq=False)
class FlowErrorJoin:
    """Join of estimated and true tables with coverage accounting.

    A plain value object (picklable, comparable bit for bit) so condition
    summaries carrying it can cross process boundaries and be asserted
    byte-identical by the determinism suite.  ``errors`` holds one
    ``float64`` relative error per joined flow, in the true table's order.
    """

    errors: np.ndarray
    joined: int
    skipped_missing: int  # flows with no estimate
    skipped_zero: int  # flows where truth makes RE undefined

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowErrorJoin):
            return NotImplemented
        return (same_bits(self.errors, other.errors)
                and (self.joined, self.skipped_missing, self.skipped_zero)
                == (other.joined, other.skipped_missing, other.skipped_zero))

    def __repr__(self) -> str:
        return (
            f"FlowErrorJoin(joined={self.joined}, missing={self.skipped_missing}, "
            f"undefined={self.skipped_zero})"
        )


def _flow_errors(
    estimated: FlowStatsTable,
    true: FlowStatsTable,
    value_of: Callable[[FlowColumns], np.ndarray],
    min_count: int = 1,
) -> FlowErrorJoin:
    """Join the two tables' columns on flow rows, in *true*'s order.

    Flows of *true* with fewer than *min_count* samples are left out; the
    rest are missing (no estimate), undefined (truth <= 0) or joined with
    ``|e - t| / t`` — each op correctly rounded, the scalar formula's bits.
    """
    truth = true.columns()
    counted = truth.count >= min_count
    rows = estimated.rows_of(truth.keys)
    found = counted & (rows >= 0)
    t = value_of(truth)[found]
    undefined = t <= 0
    t = t[~undefined]
    e = value_of(estimated.columns())[rows[found][~undefined]]
    errors = np.abs(e - t) / t
    return FlowErrorJoin(errors, len(errors),
                         int(np.count_nonzero(counted)) - int(np.count_nonzero(found)),
                         int(np.count_nonzero(undefined)))


def flow_mean_errors(estimated: FlowStatsTable, true: FlowStatsTable) -> FlowErrorJoin:
    """Per-flow relative errors of mean latency (Figure 4(a,c) metric)."""
    return _flow_errors(estimated, true, lambda cols: cols.mean)


def flow_std_errors(estimated: FlowStatsTable, true: FlowStatsTable) -> FlowErrorJoin:
    """Per-flow relative errors of latency standard deviation
    (Figure 4(b) metric).  Restricted to flows with >= 2 packets and
    positive true deviation, where the metric is defined."""
    return _flow_errors(estimated, true, FlowColumns.std, min_count=2)
