"""N-switch chain pipeline: the Figure-3 environment across multiple hops.

The paper's simulator "lets packets from the trace experience processing and
queueing delays across multiple queues (equivalently, multiple
routers/switches)" and evaluates RLIR "in the presence of cross traffic
across multiple hops".  :class:`SwitchChain` generalizes
:class:`~repro.sim.pipeline.TwoSwitchPipeline` to a chain of N switches with
independent per-hop cross traffic: cross traffic for hop i joins just before
switch i's queue and leaves after it (classic single-hop interfering load),
while regular traffic (and the RLI reference stream) rides the whole chain.

The RLI sender taps the entry of switch 1; the receiver observes departures
from switch N.  The measured segment therefore spans all N queues — the
multi-router segment an RLIR deployment measures between two instrumented
interfaces.

Like the two-switch pipeline, the chain has a columnar fast path
(:meth:`SwitchChain.run_batch`).  Every hop merges the through-stream with
its cross columns (replicating ``heapq.merge`` ties) and scans the merged
rows once: the first hop through the shared sender-tapped scan
(:func:`~repro.sim.queue.tapped_scan`, cross rows untapped), the others
through :meth:`~repro.sim.queue.FifoQueue.offer_batch`.  The receiver
consumes the final departure stream through
:meth:`~repro.core.receiver.RliReceiver.observe_batch` — **bitwise
identical** to the per-object path (:meth:`SwitchChain.run`), which it
falls back to when a component cannot be driven columnar.  The two-switch
pipeline's fast path is built from the same hop helpers.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..net.packet import Packet, PacketKind
from ..obs import metrics as obs_metrics
from ..traffic.batch import PacketBatch
from .queue import FifoQueue, tapped_scan

__all__ = ["ChainConfig", "ChainResult", "SwitchChain"]

_REGULAR = int(PacketKind.REGULAR)
_CROSS = int(PacketKind.CROSS)


class ChainConfig:
    """Physical parameters of an N-switch chain (uniform by default)."""

    def __init__(
        self,
        n_hops: int = 3,
        rate_bps: float = 1e9,
        buffer_bytes: Optional[int] = 256 * 1024,
        proc_delay: float = 1e-6,
        rates_bps: Optional[Sequence[float]] = None,
    ):
        if n_hops < 1:
            raise ValueError(f"need at least one hop: {n_hops}")
        self.n_hops = n_hops
        self.rates_bps = list(rates_bps) if rates_bps is not None else [rate_bps] * n_hops
        if len(self.rates_bps) != n_hops:
            raise ValueError(
                f"rates_bps has {len(self.rates_bps)} entries for {n_hops} hops"
            )
        self.buffer_bytes = buffer_bytes
        self.proc_delay = proc_delay


class ChainResult:
    """Counters and per-hop queue statistics from one chain run."""

    def __init__(self, queues: List[FifoQueue], duration: float):
        self.queues = queues
        self.duration = duration
        self.refs_injected = 0
        self.regular_in = 0
        self.regular_out = 0

    def utilization(self, hop: int) -> float:
        return self.queues[hop].utilization(self.duration)

    @property
    def regular_loss_rate(self) -> float:
        return 1.0 - self.regular_out / self.regular_in if self.regular_in else 0.0


class SwitchChain:
    """Drive one run of the N-hop environment.

    ``cross_per_hop`` maps hop index → sorted ``(arrival, packet)`` cross
    arrivals for that hop (missing hops get none).  Sender and receiver
    follow the same protocols as :class:`TwoSwitchPipeline`.  On the
    columnar path, ``cross_per_hop`` values are
    :class:`~repro.traffic.batch.PacketBatch` columns instead (``ts`` is
    the hop arrival time — the output of a cross model's
    ``arrivals_batch``).
    """

    def __init__(self, config: ChainConfig):
        self.config = config

    def run(
        self,
        regular: Iterable[Packet],
        cross_per_hop: Optional[Dict[int, List[Tuple[float, Packet]]]] = None,
        sender=None,
        receiver=None,
        duration: Optional[float] = None,
    ) -> ChainResult:
        """Run the chain on per-object packets: the reference path.

        Experiments enter through :meth:`run_batch`, which lands here only
        when its blocker names a reason the columnar scans cannot apply.
        """
        cfg = self.config
        cross_per_hop = cross_per_hop or {}
        unknown = set(cross_per_hop) - set(range(cfg.n_hops))
        if unknown:
            raise ValueError(f"cross traffic for nonexistent hops: {sorted(unknown)}")
        queues = [
            FifoQueue(cfg.rates_bps[i], cfg.buffer_bytes, cfg.proc_delay, name=f"hop{i}")
            for i in range(cfg.n_hops)
        ]
        result = ChainResult(queues, duration or 0.0)

        # hop 0: regular traffic + sender tap + hop-0 cross traffic
        stream = self._first_hop(regular, queues[0], sender, cross_per_hop.get(0, []), result)

        # hops 1..N-1: merge the surviving through-stream with local cross
        for hop in range(1, cfg.n_hops):
            stream = self._middle_hop(stream, queues[hop], cross_per_hop.get(hop, []))

        last = 0.0
        for arrival, packet in stream:
            last = arrival
            if packet.kind == PacketKind.CROSS:
                continue
            if packet.is_regular:
                result.regular_out += 1
            if receiver is not None:
                receiver.observe(packet, arrival)
        if duration is None:
            result.duration = max(last, max(q.stats.last_departure for q in queues))
        return result

    # ------------------------------------------------------------------

    def _first_hop(self, regular, queue, sender, cross, result) -> List[Tuple[float, Packet]]:
        through: List[Tuple[float, Packet]] = []

        def regular_stream():
            for packet in regular:
                result.regular_in += 1
                yield packet.ts, packet

        out: List[Tuple[float, Packet]] = []
        merged = heapq.merge(regular_stream(), cross, key=lambda item: item[0])
        for arrival, packet in merged:
            departure = queue.offer(packet, arrival)
            if departure is None:
                continue
            if packet.kind == PacketKind.CROSS:
                continue  # hop-local cross exits after its hop
            packet.tap_time = arrival
            out.append((departure, packet))
            if sender is not None and packet.is_regular:
                refs = sender.on_regular(packet, arrival)
                if refs:
                    for ref in refs:
                        result.refs_injected += 1
                        ref_departure = queue.offer(ref, arrival)
                        if ref_departure is not None:
                            out.append((ref_departure, ref))
        out.sort(key=lambda item: item[0])  # refs interleave with regulars
        return out

    def _middle_hop(self, stream, queue, cross) -> List[Tuple[float, Packet]]:
        out: List[Tuple[float, Packet]] = []
        merged = heapq.merge(stream, cross, key=lambda item: item[0])
        for arrival, packet in merged:
            departure = queue.offer(packet, arrival)
            if departure is None or packet.kind == PacketKind.CROSS:
                continue
            out.append((departure, packet))
        return out

    # ------------------------------------------------------------------
    # columnar fast path

    def _coerce_cross(self, cross_per_hop) -> Dict[int, PacketBatch]:
        """Per-hop cross traffic as batches (``None`` or ``[]``: none)."""
        out: Dict[int, PacketBatch] = {}
        for hop, cross in (cross_per_hop or {}).items():
            empty = cross is None or (isinstance(cross, (list, tuple)) and not cross)
            out[hop] = PacketBatch.empty() if empty else PacketBatch.coerce(cross)
        return out

    def run_batch(
        self,
        regular,
        cross_per_hop=None,
        sender=None,
        receiver=None,
        duration: Optional[float] = None,
    ) -> ChainResult:
        """Run the chain on columnar packet batches.

        Accepts a time-sorted :class:`~repro.traffic.batch.PacketBatch` (or
        a :class:`~repro.traffic.trace.Trace`, whose batch it reads) of
        regular traffic and a ``hop -> PacketBatch`` map of cross traffic
        whose ``ts`` column is the hop arrival time.  Results are
        **bitwise-identical** to :meth:`run` on the materialized packets:
        every hop applies the same per-packet float operations in the same
        order (the first hop's scan interleaves cross arrivals and the
        sender's algebra exactly as the object path's sorted merge does),
        and the receiver folds the final departure stream with
        identical estimates, tables, counters and observation-log events.

        The fast path needs a batch-capable sender (or none) and receiver
        (or none); anything else falls back to :meth:`run` with identical
        numbers, and ``_fast_path_blocker``'s reason is counted under
        ``batch.fallback``.
        """
        reg = PacketBatch.coerce(regular)
        cross = self._coerce_cross(cross_per_hop)
        cfg = self.config
        unknown = set(cross) - set(range(cfg.n_hops))
        if unknown:
            raise ValueError(f"cross traffic for nonexistent hops: {sorted(unknown)}")
        blocker = self._fast_path_blocker(sender, receiver, reg, cross)
        if blocker is not None:
            obs_metrics.fallback("chain.run_batch", blocker)
            cross_pairs = {
                hop: [(p.ts, p) for p in batch.to_packets()]
                for hop, batch in cross.items()
            }
            return self.run(reg.to_packets(), cross_pairs, sender=sender,
                            receiver=receiver, duration=duration)
        obs_metrics.taken("chain.run_batch")

        queues = [
            FifoQueue(cfg.rates_bps[i], cfg.buffer_bytes, cfg.proc_delay, name=f"hop{i}")
            for i in range(cfg.n_hops)
        ]
        result = ChainResult(queues, duration or 0.0)
        result.regular_in = len(reg)

        stream, result.refs_injected = _hop(
            _regular_stream(reg), cross.get(0), queues[0], sender)
        for hop in range(1, cfg.n_hops):
            stream, _ = _hop(stream, cross.get(hop), queues[hop])
        time_s, size_s, kind_s, hidx_s, refslot_s, ref_objs = stream

        result.regular_out = int(np.count_nonzero(kind_s == _REGULAR))
        last = float(time_s[-1]) if len(time_s) else 0.0
        if receiver is not None:
            _observe(receiver, reg, time_s, kind_s, hidx_s, refslot_s, ref_objs)
        if duration is None:
            result.duration = max(last, max(q.stats.last_departure for q in queues))
        return result

    def _fast_path_blocker(self, sender, receiver, reg, cross) -> Optional[str]:
        """Why the run can't be driven columnar — ``None`` when it can.

        The reason string feeds the ``batch.fallback`` counter and the
        ``--verbose`` once-per-sweep note.
        """
        return _component_blocker(sender, receiver, reg, cross.values())


# ----------------------------------------------------------------------
# columnar hops, shared with the two-switch pipeline's fast path.  A
# stream is ``(time, size, kind, hidx, refslot, ref_objs)``: parallel
# time-sorted arrays (``hidx`` indexes the regular batch, -1 elsewhere;
# ``refslot`` indexes ``ref_objs``, -1 elsewhere) plus the reference
# Packet objects it carries.


def _component_blocker(sender, receiver, reg: PacketBatch,
                       crosses: Iterable[PacketBatch]) -> Optional[str]:
    """The fallback reason a sender, receiver or stream forces on a
    pipeline or chain run — ``None`` when they can all be driven
    columnar."""
    if sender is not None and not (
        getattr(sender, "batch_capable", False)
        and hasattr(sender, "fast_scan_state")
    ):
        return "sender-not-batch-capable"
    if receiver is not None and not (
        getattr(receiver, "batch_capable", False)
        and hasattr(receiver, "observe_batch")
    ):
        return "receiver-not-batch-capable"
    # the fast path hard-codes kinds: regular stream all REGULAR
    # (references are injected, not replayed), cross streams all CROSS
    # (anything else would reach the receiver)
    if len(reg) and not np.all(reg.kind == _REGULAR):
        return "mixed-regular-kinds"
    for crs in crosses:
        if len(crs) and not np.all(crs.kind == _CROSS):
            return "mixed-cross-kinds"
    return None


def _regular_stream(reg: PacketBatch) -> tuple:
    """The regular batch as a stream: every row a header, no references."""
    n = len(reg)
    return (reg.ts, reg.size, np.full(n, _REGULAR, dtype=np.int64),
            np.arange(n, dtype=np.int64), np.full(n, -1, dtype=np.int64), [])


def _merge_with_cross(time_s, size_s, kind_s, hidx_s, refslot_s,
                      crs: Optional[PacketBatch]):
    """Sorted-merge a stream's columns with one hop's cross columns.

    Both inputs are time-sorted; two ``searchsorted`` passes give each
    element its merged position with ``heapq.merge``'s tie rule (the
    stream is the earlier iterable, so its entries precede coincident
    cross arrivals; original order within each stream).  Cross rows get
    kind CROSS and no header or reference slot.
    """
    if crs is None or not len(crs):
        return time_s, size_s, kind_s, hidx_s, refslot_s
    n = len(time_s)
    m = len(crs)
    pos_s = np.arange(n) + np.searchsorted(crs.ts, time_s, side="left")
    pos_c = np.arange(m) + np.searchsorted(time_s, crs.ts, side="right")
    merged = []
    for col, cross_col, dtype in ((time_s, crs.ts, np.float64),
                                  (size_s, crs.size, np.int64),
                                  (kind_s, _CROSS, np.int64),
                                  (hidx_s, -1, np.int64),
                                  (refslot_s, -1, np.int64)):
        out = np.empty(n + m, dtype=dtype)
        out[pos_s] = col
        out[pos_c] = cross_col
        merged.append(out)
    return tuple(merged)


def _offer(stream: tuple, crs: Optional[PacketBatch], queue: FifoQueue):
    """Merge *stream* with a hop's cross columns and offer every merged
    row to *queue*.

    Returns the merged columns, the departures and the acceptance mask;
    the references the queue dropped are flagged, as per-object offers
    flag them.
    """
    *cols, ref_objs = stream
    merged = _merge_with_cross(*cols, crs)
    departures, accepted = queue.offer_batch(merged[0], merged[1])
    if ref_objs:
        refslot = merged[4]
        for slot in refslot[(refslot >= 0) & ~accepted].tolist():
            ref_objs[slot].dropped = True
    return merged, departures, accepted


def _observe(receiver, reg: PacketBatch, time, kind, hidx, refslot,
             ref_objs: List[Packet]) -> None:
    """Hand the receiver the stream's rows that reach it."""
    refs = [ref_objs[s] for s in refslot[refslot >= 0].tolist()]
    receiver.observe_batch(time, kind, reg, hidx, None, refs)


def _hop(stream: tuple, crs: Optional[PacketBatch], queue: FifoQueue,
         sender=None) -> Tuple[tuple, int]:
    """One columnar hop: merge with the hop's cross traffic, scan, and
    return the surviving through-stream (cross rows leave after their
    hop) with the number of references *sender* built.

    With a sender the hop runs the shared tapped scan — the regular rows
    in class 0, every other row untapped — and commits the sender's
    state at once; without one it is a plain ``offer_batch`` pass.
    Queue state and statistics end bitwise-identical to per-packet
    offers.
    """
    if sender is None:
        merged, departures, accepted = _offer(stream, crs, queue)
        size_m, kind_m, hidx_m, refslot_m = merged[1:]
        keep = accepted & (kind_m != _CROSS)
        return (departures[keep], size_m[keep], kind_m[keep], hidx_m[keep],
                refslot_m[keep], stream[-1]), 0
    *cols, ref_objs = stream
    time_m, size_m, kind_m, hidx_m, refslot_m = _merge_with_cross(*cols, crs)
    scan = tapped_scan(queue, time_m, size_m,
                       np.where(kind_m == _REGULAR, 0, -2), sender)
    sender.fast_scan_commit(*scan.state)
    kind_a, hidx_a, refslot_a = scan.columns(kind_m, hidx_m, refslot_m,
                                             len(ref_objs))
    keep = kind_a != _CROSS
    return (scan.departures[keep], scan.sizes[keep], kind_a[keep],
            hidx_a[keep], refslot_a[keep], ref_objs + scan.refs), scan.refs_built
