"""Shardable replay of recorded receiver observations.

The estimation stage of an RLI receiver is per-flow work: a regular
packet's interpolated estimate depends only on the reference delays that
bracket it — never on other flows' regular packets (see
:class:`~repro.core.interpolation.InterpolationBuffer`).  That makes the
stage embarrassingly parallel *by flow* even though the simulation that
produced the observations is strictly sequential.

This module exploits that: a receiver created with an ``observation_log``
(a columnar :class:`~repro.core.obslog.ObservationColumns`) records its
post-demux event stream during one (sequential, memoized) simulation;
:func:`replay_observations` then rebuilds the per-flow tables from the
log's columns — optionally restricted to one flow shard (every shard keeps
all reference rows but only its own flows' regular rows) — and
:func:`merge_shard_tables` reassembles the shards in sorted-key order.
:func:`replay_observations_multi` replays a *chunk* of shards from one
read of the log (the dispatch unit of the distributed backend) with
bitwise-identical per-shard output.  Estimation is the same kernel the
live receiver runs after demux
(:func:`~repro.core.interpolation.estimate_streams`).

Because shard membership is a pure function of the flow key
(:func:`~repro.traffic.divider.flow_shard`) and each flow's samples are
processed in original log order, the merged tables are **bitwise identical**
for any shard count, which the determinism suite asserts.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from ..traffic.divider import flow_shard
from .flowstats import FlowStatsTable, flow_ids, fold_flow_samples
from .interpolation import estimate_streams
from .obslog import ObservationColumns
from .receiver import REF_OBS, REG_OBS

__all__ = ["ReplayTables", "replay_observations", "replay_observations_multi",
           "merge_shard_tables"]


class ReplayTables:
    """Per-flow tables rebuilt from one (possibly sharded) log replay."""

    def __init__(self, estimated: FlowStatsTable, true: FlowStatsTable,
                 unestimated: int):
        self.estimated = estimated
        self.true = true
        self.unestimated = unestimated


def replay_observations(
    log: ObservationColumns,
    estimator: str = "linear",
    shard: int = 0,
    n_shards: int = 1,
) -> ReplayTables:
    """Rebuild per-flow estimated/true tables from an observation log.

    With ``n_shards > 1`` only regular rows whose flow hashes to *shard*
    are replayed; reference rows always are (they define the
    interpolation intervals every flow estimates against), so each flow's
    estimates come out identical to an unsharded replay.
    """
    return replay_observations_multi(log, estimator, (shard,), n_shards)[shard]


def replay_observations_multi(
    log: ObservationColumns,
    estimator: str = "linear",
    shards: Sequence[int] = (0,),
    n_shards: int = 1,
) -> Dict[int, ReplayTables]:
    """Replay several flow shards from **one read** of the log.

    The shard-chunk envelope of the distributed backend: the log's rows
    are split and every flow's shard is evaluated once, then each shard
    keeps all reference rows and its own flows' regular rows and runs the
    estimate kernel on them — exactly the rows :func:`replay_observations`
    would keep for it, so every per-shard result is **bitwise identical**
    to an individual replay, which the distributed determinism suite
    asserts.
    """
    shards = tuple(shards)
    if len(set(shards)) != len(shards):
        raise ValueError(f"duplicate shards in chunk: {shards}")
    for shard in shards:
        if not 0 <= shard < n_shards:
            raise ValueError(f"shard must be in [0, {n_shards}): {shard}")
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
    refs = (ref_rows, streams[ref_rows], times[ref_rows], values[ref_rows])
    reg_rows = np.flatnonzero(~is_ref)
    ids, flow_keys = flow_ids(keys, reg_rows)
    if n_shards > 1:
        owner = np.array([flow_shard(key, n_shards) for key in flow_keys],
                         dtype=np.int64)[ids]
    out: Dict[int, ReplayTables] = {}
    for shard in shards:
        kept = slice(None) if n_shards == 1 else np.flatnonzero(owner == shard)
        rows = reg_rows[kept]
        true = FlowStatsTable()
        fold_flow_samples(true, None, ids[kept], flow_keys, values[rows])
        order, est, unestimated = estimate_streams(
            *refs, rows, times[rows], streams[rows], estimator=estimator)
        estimated = FlowStatsTable()
        fold_flow_samples(estimated, None, ids[kept][order], flow_keys, est)
        out[shard] = ReplayTables(estimated, true, unestimated)
    return out


def merge_shard_tables(tables: Iterable[FlowStatsTable]) -> FlowStatsTable:
    """Union flow-disjoint shard tables into one, in sorted-key order.

    Sorting makes the merged table's layout (and every float computed by
    iterating it) independent of shard count and completion order — the
    property the byte-identical determinism guarantee rests on.  Keys
    appearing in more than one shard are merged, but the shard split
    guarantees that never happens.
    """
    merged = FlowStatsTable()
    for table in tables:
        merged.merge(table)
    return merged.sorted_by_key()
