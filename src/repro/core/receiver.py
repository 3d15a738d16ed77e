"""RLI receiver: per-stream interpolation and per-flow aggregation.

"The RLI receiver then easily obtains true delays of these special packets
based on the local clock.  The delay samples can then be used to approximate
the latency of regular packets" (paper Section 2).

The RLIR receiver extends this with one interpolation buffer *per stream*
(per associated sender / path class), selected by a demultiplexer — the fix
for traffic multiplexing across routers (Section 3.1).  Interpolating a
packet against a reference that took a different path would violate delay
locality; the demux guarantees every estimate uses references that shared
the packet's path segment.

Ground truth: the simulator stamps each packet's segment entry time
(``tap_time``) at the sender's interface; the receiver records
``arrival − tap_time`` as the packet's true delay next to its estimate, so
per-flow relative errors are computed against exact truth, as in the
paper's evaluation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..net.packet import Packet, PacketKind
from ..sim.clock import Clock, PerfectClock
from .demux import Demux
from .flowstats import BoundedFlowStatsTable, FlowStatsTable, flow_ids, fold_flow_samples
from .interpolation import Estimate, InterpolationBuffer, estimate_streams
from .quantiles import FlowQuantileTable

if TYPE_CHECKING:
    from .obslog import ObservationColumns

__all__ = ["RliReceiver", "REF_OBS", "REG_OBS"]

# observation-log event tags (see repro.core.replay)
REF_OBS = 0  # (REF_OBS, stream, arrival, reference delay)
REG_OBS = 1  # (REG_OBS, stream, arrival, flow key, true delay)


class RliReceiver:
    """One RLI receiver instance on one interface.

    Parameters
    ----------
    demux:
        Stream demultiplexer (see :mod:`repro.core.demux`).
    clock:
        Local clock used to timestamp reference arrivals; sync error vs the
        senders' clocks biases delay samples (ablation knob).
    estimator:
        Interpolation strategy (``"linear"`` is the paper's).
    collect_estimates:
        If True, keep every per-packet :class:`Estimate` for packet-level
        analysis (memory-heavy; per-flow tables are always kept).
    max_flows:
        Optional flow-table memory bound; when set, both the estimated and
        true tables become LRU-evicting
        :class:`~repro.core.flowstats.BoundedFlowStatsTable` instances,
        modelling a hardware instance's fixed-size flow cache.
    quantiles:
        Optional sequence of quantiles (e.g. ``(0.5, 0.95, 0.99)``).  When
        set, the receiver additionally maintains streaming P² per-flow
        quantile estimates of both estimated and true delays
        (:attr:`flow_estimated_quantiles` / :attr:`flow_true_quantiles`) —
        the tail view mean/σ cannot give.
    observation_log:
        Optional :class:`~repro.core.obslog.ObservationColumns` the
        receiver writes its post-demux observation events to (see
        :mod:`repro.core.replay`).  A recording receiver skips the live
        estimation work (interpolation buffers and flow tables stay
        empty): the log is its only output, and replaying it rebuilds the
        per-flow tables a live receiver would hold without re-running the
        simulation.  Demux classification, clocking, and the
        tap/measurement accounting are the same as a live receiver's.
    """

    def __init__(
        self,
        demux: Demux,
        clock: Optional[Clock] = None,
        estimator: str = "linear",
        collect_estimates: bool = False,
        max_flows: Optional[int] = None,
        quantiles: Optional[Sequence[float]] = None,
        observation_log: Optional["ObservationColumns"] = None,
    ):
        self.demux = demux
        self.observation_log = observation_log
        self.clock = clock or PerfectClock()
        self.estimator = estimator
        self.collect_estimates = collect_estimates
        self.estimates: List[Estimate] = []
        self._buffers: Dict[int, InterpolationBuffer] = {}
        if max_flows is None:
            self.flow_estimated = FlowStatsTable()
            self.flow_true = FlowStatsTable()
        else:
            self.flow_estimated = BoundedFlowStatsTable(max_flows)
            self.flow_true = BoundedFlowStatsTable(max_flows)
        self.flow_estimated_quantiles: Optional[FlowQuantileTable] = None
        self.flow_true_quantiles: Optional[FlowQuantileTable] = None
        if quantiles is not None:
            self.flow_estimated_quantiles = FlowQuantileTable(quantiles)
            self.flow_true_quantiles = FlowQuantileTable(quantiles)
        self.regulars_measured = 0
        self.regulars_ignored = 0
        self.references_accepted = 0
        self.references_ignored = 0
        self.missing_tap = 0
        self.unestimated = 0
        self._finalized = False

    # ------------------------------------------------------------------

    def observe(self, packet: Packet, now: float) -> None:
        """Feed one packet arriving at this receiver's interface."""
        if self._finalized:
            raise RuntimeError("receiver already finalized")
        if packet.is_reference:
            stream = self.demux.classify_reference(packet)
            if stream is None:
                self.references_ignored += 1
                return
            self.references_accepted += 1
            delay = self.clock.now(now) - packet.ref_timestamp
            if self.observation_log is not None:
                self.observation_log.append((REF_OBS, stream, now, delay))
                return
            for estimate in self._buffer(stream).add_reference(now, delay):
                self._record(estimate)
        elif packet.is_regular:
            stream = self.demux.classify_regular(packet)
            if stream is None:
                self.regulars_ignored += 1
                return
            if packet.tap_time is None:
                # never crossed the associated sender's interface: cannot
                # have a ground-truth segment delay, so don't measure it
                self.missing_tap += 1
                return
            self.regulars_measured += 1
            truth = now - packet.tap_time
            if self.observation_log is not None:
                self.observation_log.append(
                    (REG_OBS, stream, now, packet.flow_key, truth))
                return
            self.flow_true.add(packet.flow_key, truth)
            if self.flow_true_quantiles is not None:
                self.flow_true_quantiles.add(packet.flow_key, truth)
            self._buffer(stream).add_regular(now, packet.flow_key, truth)

    # ------------------------------------------------------------------
    # columnar fast path

    @property
    def batch_capable(self) -> bool:
        """True when :meth:`observe_batch` reproduces :meth:`observe` exactly.

        Requires a demux with a vectorized regular classifier
        (``classify_regular_batch`` plus a truthy ``batch_capable`` flag —
        a path-classifier demux only advertises it when its classifier is
        vectorizable).  Observation logs are recorded on the fast path too
        — bulk-appended in observation order, byte-identical to per-event
        appends.
        """
        return bool(getattr(self.demux, "batch_capable", False)) and hasattr(
            self.demux, "classify_regular_batch"
        )

    def observe_batch(
        self,
        times: np.ndarray,
        kinds: np.ndarray,
        headers,
        header_index: np.ndarray,
        taps: np.ndarray,
        ref_packets: Sequence[Packet],
    ) -> None:
        """Feed one interface's *entire* observation stream at once.

        The vectorized equivalent of calling :meth:`observe` per packet in
        stream order and then flushing the one-sided tails: reference
        packets (few, stateful) take a per-object loop, while regular
        packets are classified and grouped with array operations and
        estimated by :func:`~repro.core.interpolation.estimate_streams`
        (the estimate kernel log replay shares), whose per-element float
        ops match the scalar path —
        every counter, flow-table entry (including dict insertion order)
        and estimate is bitwise-identical, which the equivalence suite
        asserts.  One-shot: it covers the stream's tail flush, so a
        subsequent :meth:`finalize` is a no-op.

        Parameters
        ----------
        times:
            Observation (arrival) times, strictly increasing.
        kinds:
            Packet kind per observation (:class:`PacketKind` values;
            CROSS must already be filtered out by the caller, as the
            pipeline never shows cross traffic to a receiver).
        headers:
            A :class:`~repro.traffic.batch.PacketBatch` holding the header
            columns of the *regular* traffic.
        header_index:
            Per-observation row index into *headers* (-1 for references).
        taps:
            Per-observation measurement-tap times (NaN where unknown;
            references ignore this column).  ``None`` means every
            regular's tap is its trace timestamp ``headers.ts`` — the
            feed-forward pipeline's semantics — which skips building the
            full-width column.
        ref_packets:
            The reference :class:`Packet` objects, in observation order —
            one per REFERENCE row of *kinds*.
        """
        if self._finalized:
            raise RuntimeError("receiver already finalized")
        times = np.asarray(times, dtype=np.float64)
        kinds = np.asarray(kinds)
        header_index = np.asarray(header_index)
        if taps is not None:
            taps = np.asarray(taps, dtype=np.float64)
        n_obs = len(times)
        pos = np.arange(n_obs)
        is_ref = kinds == int(PacketKind.REFERENCE)
        is_reg = kinds == int(PacketKind.REGULAR)
        if int(np.count_nonzero(is_ref)) != len(ref_packets):
            raise ValueError("ref_packets must align with REFERENCE rows")

        # --- references: per-object, in observation order (small stream)
        ref_cols: List[list] = [[], [], [], []]  # accepted: pos, stream, t, delay
        clock_now = self.clock.now
        for p_obs, t, pkt in zip(
            pos[is_ref].tolist(), times[is_ref].tolist(), ref_packets
        ):
            stream = self.demux.classify_reference(pkt)
            if stream is None:
                self.references_ignored += 1
                continue
            self.references_accepted += 1
            ref_cols[0].append(p_obs)
            ref_cols[1].append(stream)
            ref_cols[2].append(t)
            ref_cols[3].append(clock_now(t) - pkt.ref_timestamp)
        ref_pos, ref_streams = (np.asarray(c, dtype=np.int64) for c in ref_cols[:2])
        ref_t, ref_d = (np.asarray(c, dtype=np.float64) for c in ref_cols[2:])

        # --- regulars: vectorized classify / tap check / ground truth
        reg_pos = pos[is_reg]
        reg_times = times[is_reg]
        reg_hidx = header_index[is_reg]
        if len(reg_pos):
            streams = self.demux.classify_regular_batch(headers, reg_hidx)
        else:
            streams = np.empty(0, dtype=np.int64)
        ignored = streams < 0
        self.regulars_ignored += int(np.count_nonzero(ignored))
        if taps is None:
            keep = ~ignored
        else:
            reg_taps = taps[is_reg]
            tapped = ~np.isnan(reg_taps)
            self.missing_tap += int(np.count_nonzero(~ignored & ~tapped))
            keep = ~ignored & tapped
        mpos = reg_pos[keep]
        mtimes = reg_times[keep]
        mstreams = streams[keep]
        mhidx = reg_hidx[keep]
        self.regulars_measured += len(mpos)
        mtaps = headers.ts[mhidx] if taps is None else reg_taps[keep]
        truth = mtimes - mtaps  # same op as scalar `now - tap_time`
        keys = (headers.src, headers.dst, headers.sport, headers.dport,
                headers.proto)

        if self.observation_log is not None:
            self._log_batch((ref_pos, ref_streams, ref_t, ref_d),
                            (mpos, mstreams, mtimes, truth), keys, mhidx)
            return

        ids, flow_keys = flow_ids(keys, mhidx)
        fold_flow_samples(self.flow_true, self.flow_true_quantiles, ids,
                          flow_keys, truth)
        order, est, unestimated = estimate_streams(
            ref_pos, ref_streams, ref_t, ref_d, mpos, mtimes, mstreams,
            estimator=self.estimator)
        self.unestimated += unestimated
        est_ids = ids[order]
        fold_flow_samples(self.flow_estimated, self.flow_estimated_quantiles,
                          est_ids, flow_keys, est)
        if self.collect_estimates:
            self.estimates.extend(
                Estimate(flow_keys[f], t, e, tr)
                for f, t, e, tr in zip(
                    est_ids.tolist(), mtimes[order].tolist(), est.tolist(),
                    truth[order].tolist(),
                )
            )

    def _log_batch(self, refs, regulars, keys, rows) -> None:
        """Write one batch's observation events to the log, in stream order.

        *refs* are the accepted references' (positions, streams, times,
        delays) and *regulars* the measured regulars' (positions, streams,
        times, truths), whose flow keys sit at *rows* of the five *keys*
        columns.  Both event classes are scattered into their merged
        observation-order slots, so the bulk append leaves the log
        byte-identical to the scalar path's per-event appends.
        """
        n_ref = len(refs[0])
        total = n_ref + len(regulars[0])
        if not total:
            return
        pos_all = np.concatenate([refs[0], regulars[0]])
        rank = np.empty(total, dtype=np.intp)
        rank[np.argsort(pos_all, kind="stable")] = np.arange(total)
        ref_rank = rank[:n_ref]
        reg_rank = rank[n_ref:]
        tags = np.empty(total, dtype=np.int8)
        tags[ref_rank] = REF_OBS
        tags[reg_rank] = REG_OBS
        columns = []
        for dtype, ref_col, reg_col in zip(
                (np.int64, np.float64, np.float64), refs[1:], regulars[1:]):
            column = np.empty(total, dtype=dtype)
            column[ref_rank] = ref_col
            column[reg_rank] = reg_col
            columns.append(column)
        key_cols = []
        for key in keys:
            column = np.zeros(total, dtype=np.int64)
            column[reg_rank] = key[rows]
            key_cols.append(column)
        self.observation_log.extend_batch(tags, *columns, key_cols)

    def finalize(self) -> None:
        """Flush the one-sided tails of every stream buffer (idempotent)."""
        if self._finalized:
            return
        for buffer in self._buffers.values():
            for estimate in buffer.flush():
                self._record(estimate)
            self.unestimated += buffer.unestimated
        self._finalized = True

    # ------------------------------------------------------------------

    def _buffer(self, stream: int) -> InterpolationBuffer:
        buffer = self._buffers.get(stream)
        if buffer is None:
            buffer = InterpolationBuffer(self.estimator)
            self._buffers[stream] = buffer
        return buffer

    def _record(self, estimate: Estimate) -> None:
        self.flow_estimated.add(estimate.key, estimate.estimated)
        if self.flow_estimated_quantiles is not None:
            self.flow_estimated_quantiles.add(estimate.key, estimate.estimated)
        if self.collect_estimates:
            self.estimates.append(estimate)

    # ------------------------------------------------------------------

    @property
    def stream_count(self) -> int:
        return len(self._buffers)

    def __repr__(self) -> str:
        return (
            f"RliReceiver(streams={self.stream_count}, measured={self.regulars_measured}, "
            f"refs={self.references_accepted}, estimator={self.estimator!r})"
        )
