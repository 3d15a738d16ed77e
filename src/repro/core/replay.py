"""Replay of recorded receiver observations.

A receiver created with an ``observation_log`` (a columnar
:class:`~repro.core.obslog.ObservationColumns`) records its post-demux
event stream during one sequential simulation;
:func:`replay_observations` then rebuilds the per-flow estimated and true
tables from the log's columns in one pass.  Estimation is the same kernel
the live receiver runs after demux
(:func:`~repro.core.interpolation.estimate_streams`).
"""

from __future__ import annotations

import numpy as np

from .flowstats import FlowStatsTable, flow_ids, fold_flow_samples
from .interpolation import estimate_streams
from .obslog import ObservationColumns
from .receiver import REF_OBS, REG_OBS

__all__ = ["ReplayTables", "replay_observations"]


class ReplayTables:
    """Per-flow tables rebuilt from one log replay."""

    def __init__(self, estimated: FlowStatsTable, true: FlowStatsTable,
                 unestimated: int):
        self.estimated = estimated
        self.true = true
        self.unestimated = unestimated


def replay_observations(
    log: ObservationColumns,
    estimator: str = "linear",
) -> ReplayTables:
    """Rebuild per-flow estimated/true tables from an observation log.

    Reference rows define the interpolation intervals; every regular row
    is folded into the true table and estimated against its stream's
    references.
    """
    columns = log.arrays()
    tags = columns["tag"]
    is_ref = tags == REF_OBS
    unknown = np.flatnonzero(~is_ref & (tags != REG_OBS))
    if len(unknown):
        row = int(unknown[0])
        raise ValueError(
            f"unknown observation event tag {int(tags[row])!r} at log row {row}")
    streams, times, values, keys = (columns["stream"], columns["time"],
                                    columns["value"], columns["key"])
    ref_rows = np.flatnonzero(is_ref)
    rows = np.flatnonzero(~is_ref)
    ids, flow_keys = flow_ids(keys, rows)
    true = FlowStatsTable()
    fold_flow_samples(true, None, ids, flow_keys, values[rows])
    order, est, unestimated = estimate_streams(
        ref_rows, streams[ref_rows], times[ref_rows], values[ref_rows],
        rows, times[rows], streams[rows], estimator=estimator)
    estimated = FlowStatsTable()
    fold_flow_samples(estimated, None, ids[order], flow_keys, est)
    return ReplayTables(estimated, true, unestimated)
