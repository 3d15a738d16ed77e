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
(:meth:`SwitchChain.run_batch`): every hop is driven by the exact
running-``free_at`` queue scan
(:meth:`~repro.sim.queue.FifoQueue.offer_batch`), the first hop inlines the
sender's EWMA/1-and-n algebra (the
:meth:`~repro.core.sender.RliSender.fast_scan_state` contract) with the
hop's cross traffic interleaved into the same scan, and the receiver
consumes the final departure stream through
:meth:`~repro.core.receiver.RliReceiver.observe_batch` — **bitwise
identical** to the per-object path (:meth:`SwitchChain.run`), which it
falls back to when a component cannot be driven columnar.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..net.packet import Packet, PacketKind
from ..obs import metrics as obs_metrics
from ..traffic.batch import PacketBatch
from .queue import FifoQueue, _drop_free_threshold, _scatter_merge

__all__ = ["ChainConfig", "ChainResult", "SwitchChain"]


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

    def _coerce_cross(self, cross_per_hop) -> Optional[Dict[int, PacketBatch]]:
        """Per-hop cross traffic as batches, or None if any hop cannot."""
        out: Dict[int, PacketBatch] = {}
        for hop, cross in (cross_per_hop or {}).items():
            if cross is None or (isinstance(cross, (list, tuple)) and not cross):
                out[hop] = PacketBatch.empty()
                continue
            batch = PacketBatch.coerce(cross)
            if batch is None:
                return None
            out[hop] = batch
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
        batch-backed :class:`~repro.traffic.trace.Trace`) of regular
        traffic and a ``hop -> PacketBatch`` map of cross traffic whose
        ``ts`` column is the hop arrival time.  Results are
        **bitwise-identical** to :meth:`run` on the materialized packets:
        every hop applies the same per-packet float operations in the same
        order (the first hop's scan interleaves cross arrivals and the
        inlined sender algebra exactly as the object path's sorted merge
        does), and the receiver folds the final departure stream with
        identical estimates, tables, counters and observation-log events.

        The fast path needs a batch-capable sender (or none) and receiver
        (or none); anything else falls back to :meth:`run` with identical
        numbers, and ``_fast_path_blocker``'s reason is counted under
        ``batch.fallback``.
        """
        reg = PacketBatch.coerce(regular)
        if reg is None:
            raise TypeError(
                f"run_batch needs a PacketBatch or batch-backed Trace, got "
                f"{type(regular).__name__}")
        cross = self._coerce_cross(cross_per_hop)
        if cross is None:
            raise TypeError("cross_per_hop values must be PacketBatch columns")
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

        stream = self._first_hop_batch(reg, cross.get(0), queues[0], sender,
                                       result)
        for hop in range(1, cfg.n_hops):
            stream = self._middle_hop_batch(stream, cross.get(hop),
                                            queues[hop])
        time_s, size_s, kind_s, hidx_s, refslot_s, ref_objs = stream

        result.regular_out = int(np.count_nonzero(
            kind_s == int(PacketKind.REGULAR)))
        last = float(time_s[-1]) if len(time_s) else 0.0
        if receiver is not None:
            out_refs = [ref_objs[s] for s in refslot_s[refslot_s >= 0].tolist()]
            receiver.observe_batch(time_s, kind_s, reg, hidx_s, None, out_refs)
        if duration is None:
            result.duration = max(last, max(q.stats.last_departure for q in queues))
        return result

    def _fast_path_blocker(self, sender, receiver, reg, cross) -> Optional[str]:
        """Why the run can't be driven columnar — ``None`` when it can.

        The reason string feeds the ``batch.fallback`` counter and the
        ``--verbose`` once-per-sweep note.
        """
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
        # the fast path hard-codes kinds: regular stream all REGULAR,
        # cross streams all CROSS (anything else would reach the receiver)
        if len(reg) and not np.all(reg.kind == int(PacketKind.REGULAR)):
            return "mixed-regular-kinds"
        for batch in cross.values():
            if len(batch) and not np.all(batch.kind == int(PacketKind.CROSS)):
                return "mixed-cross-kinds"
        return None

    def _merge_with_cross(self, time_s, size_s, kind_s, hidx_s, refslot_s,
                          crs: Optional[PacketBatch]):
        """Sorted-merge a through-stream with one hop's cross columns.

        Both inputs are time-sorted; two ``searchsorted`` passes give each
        element its merged position with ``heapq.merge``'s tie rule (the
        through-stream is the earlier iterable, so its entries precede
        coincident cross arrivals; original order within each stream).
        """
        if crs is None or not len(crs):
            return time_s, size_s, kind_s, hidx_s, refslot_s
        n = len(time_s)
        m = len(crs)
        pos_s = np.arange(n) + np.searchsorted(crs.ts, time_s, side="left")
        pos_c = np.arange(m) + np.searchsorted(time_s, crs.ts, side="right")
        time_m = _scatter_merge(time_s, crs.ts, pos_s, pos_c, np.float64)
        size_m = _scatter_merge(size_s, crs.size, pos_s, pos_c, np.int64)
        total = n + m
        kind_m = np.full(total, int(PacketKind.CROSS), dtype=np.int64)
        kind_m[pos_s] = kind_s
        hidx_m = np.full(total, -1, dtype=np.int64)
        hidx_m[pos_s] = hidx_s
        refslot_m = np.full(total, -1, dtype=np.int64)
        refslot_m[pos_s] = refslot_s
        return time_m, size_m, kind_m, hidx_m, refslot_m

    def _first_hop_batch(self, reg: PacketBatch, crs: Optional[PacketBatch],
                         queue: FifoQueue, sender, result):
        """Columnar first hop: queue scan + inline reference injection.

        The scan walks the sorted merge of the regular and cross columns,
        applying the exact float-op sequence of :meth:`FifoQueue.offer` per
        row — with the sender's EWMA/1-and-n algebra inlined for regular
        rows only, exactly like per-packet ``on_regular`` calls — and folds
        the same queue statistics in the same interleaved order, so
        ``queue`` ends bitwise-identical to the per-object hop.  Returns
        the through-stream (departure-time-sorted parallel arrays) with
        cross rows removed.
        """
        n = len(reg)
        hidx0 = np.arange(n, dtype=np.int64)
        refslot0 = np.full(n, -1, dtype=np.int64)
        kind0 = np.full(n, int(PacketKind.REGULAR), dtype=np.int64)
        time_m, size_m, kind_m, hidx_m, refslot_m = self._merge_with_cross(
            reg.ts, reg.size, kind0, hidx0, refslot0, crs)
        total_m = len(time_m)

        if sender is None:
            departures, accepted = queue.offer_batch(time_m, size_m)
            keep = accepted & (kind_m != int(PacketKind.CROSS))
            return (departures[keep], size_m[keep], kind_m[keep],
                    hidx_m[keep], refslot_m[keep], [])

        proc = queue.proc_delay
        rate_Bps = queue.rate_Bps
        buffer_bytes = queue.buffer_bytes
        ts_l = time_m.tolist()
        t_l = (time_m + proc).tolist()
        svc_l = (size_m / rate_Bps).tolist()
        size_l = size_m.tolist()
        iscross_l = (kind_m == int(PacketKind.CROSS)).tolist()

        # scan state: the free_at recurrence + the inlined sender scalars
        # (see TwoSwitchPipeline._stage1_batch — same contract, plus the
        # interleaved cross rows that advance the queue but not the sender)
        fa = queue._free_at
        ref_dropped = 0
        bytes_drop = 0
        ref_arrivals = 0
        ref_bytes_in = 0
        refs_injected = 0

        drop_idx: List[int] = []
        acc_dep: List[float] = []
        n_acc = 0
        ref_pos: List[int] = []
        ref_dep: List[float] = []
        ref_objs: List[Packet] = []
        dep_append = acc_dep.append

        utilization = sender.utilization
        seen_any, wstart, wbytes, estimate, count, has_class0 = sender.fast_scan_state()
        window = utilization.window
        alpha = utilization.alpha
        capacity = utilization._capacity_per_window
        policy_gap = sender.policy.gap
        make_reference = sender.make_reference
        gap = policy_gap(estimate)
        regulars_seen = 0

        if buffer_bytes is None:
            threshold = math.inf  # no tail drop: every arrival is safe
        else:
            threshold = _drop_free_threshold(
                buffer_bytes, int(size_m.max()) if total_m else 0, rate_Bps)
        for i, (now, t, svc, size) in enumerate(zip(ts_l, t_l, svc_l, size_l)):
            # same float ops as FifoQueue.offer (see offer_batch's arms)
            backlog = fa - t
            if backlog > threshold:
                clamped = backlog * rate_Bps if backlog > 0.0 else 0.0
                if clamped + size > buffer_bytes:
                    drop_idx.append(i)
                    bytes_drop += size
                    continue
                fa = (t if t > fa else fa) + svc
            elif backlog > 0.0:
                fa = fa + svc
            else:
                fa = t + svc
            n_acc += 1
            dep_append(fa)
            if iscross_l[i]:
                continue  # cross advances the queue but not the sender
            # --- inlined sender observation (utilization EWMA + 1-and-n)
            if not seen_any:
                wstart = now - (now % window)
                seen_any = True
            wend = wstart + window
            if now >= wend:
                while True:
                    sample = wbytes / capacity
                    if sample > 1.0:
                        sample = 1.0  # min(1.0, sample)
                    estimate += alpha * (sample - estimate)
                    wbytes = 0
                    wstart = wend
                    wend = wstart + window
                    if now < wend:
                        break
                gap = policy_gap(estimate)
            wbytes += size
            if not has_class0:
                continue
            regulars_seen += 1
            count += 1
            if count < gap:
                continue
            count = 0
            ref = make_reference(0, now)
            # inject right behind the trigger: same queue float ops
            refs_injected += 1
            rsize = ref.size
            ref_arrivals += 1
            ref_bytes_in += rsize
            rt = now + proc
            if buffer_bytes is not None:
                backlog = fa - rt
                backlog = backlog * rate_Bps if backlog > 0.0 else 0.0
                if backlog + rsize > buffer_bytes:
                    ref_dropped += 1
                    bytes_drop += rsize
                    ref.dropped = True
                    continue
            fa = (rt if rt > fa else fa) + rsize / rate_Bps
            ref.hops += 1
            ref_pos.append(n_acc + len(ref_objs))
            ref_dep.append(fa)
            ref_objs.append(ref)

        sender.fast_scan_commit(seen_any, wstart, wbytes, estimate, count,
                                regulars_seen)
        result.refs_injected = refs_injected
        queue._free_at = fa
        stats = queue.stats
        dropped = len(drop_idx) + ref_dropped
        bytes_in = (int(size_m.sum()) if total_m else 0) + ref_bytes_in  # reprolint: disable=BATCH003 -- int64 byte counter; integer addition is exact in any order
        arrivals = total_m + ref_arrivals
        stats.arrivals += arrivals
        stats.bytes_in += bytes_in
        stats.accepted += arrivals - dropped
        stats.dropped += dropped
        stats.bytes_accepted += bytes_in - bytes_drop
        stats.bytes_dropped += bytes_drop

        # assemble the acceptance-order arrays (merged survivors with the
        # accepted references spliced in at their recorded positions)
        n_ref = len(ref_objs)
        total = n_acc + n_ref
        is_ref = np.zeros(total, dtype=bool)
        if n_ref:
            is_ref[np.asarray(ref_pos, dtype=np.intp)] = True
        is_row = ~is_ref
        if drop_idx:
            acc_rows = np.delete(np.arange(total_m, dtype=np.int64), drop_idx)
        else:
            acc_rows = np.arange(total_m, dtype=np.int64)
        time_a = np.empty(total, dtype=np.float64)
        size_a = np.empty(total, dtype=np.int64)
        kind_a = np.empty(total, dtype=np.int64)
        hidx_a = np.full(total, -1, dtype=np.int64)
        refslot_a = np.full(total, -1, dtype=np.int64)
        time_a[is_row] = acc_dep
        size_a[is_row] = size_m[acc_rows]
        kind_a[is_row] = kind_m[acc_rows]
        hidx_a[is_row] = hidx_m[acc_rows]
        if n_ref:
            time_a[is_ref] = ref_dep
            size_a[is_ref] = [r.size for r in ref_objs]
            kind_a[is_ref] = int(PacketKind.REFERENCE)
            refslot_a[is_ref] = np.arange(n_ref, dtype=np.int64)

        # fold the delay statistics in acceptance order, exactly as
        # per-packet offers would have (explicit loop: see offer_batch)
        if total:
            arr_a = np.empty(total, dtype=np.float64)
            arr_a[is_row] = time_m[acc_rows]
            if n_ref:
                arr_a[is_ref] = [r.ts for r in ref_objs]
            delay_l = (time_a - arr_a).tolist()
            total_delay = stats.total_delay
            for delay in delay_l:
                total_delay += delay
            stats.total_delay = total_delay
            peak = max(delay_l)
            if peak > stats.max_delay:
                stats.max_delay = peak
            stats.last_departure = float(time_a[-1])

        keep = kind_a != int(PacketKind.CROSS)
        return (time_a[keep], size_a[keep], kind_a[keep], hidx_a[keep],
                refslot_a[keep], ref_objs)

    def _middle_hop_batch(self, stream, crs: Optional[PacketBatch],
                          queue: FifoQueue):
        """Columnar middle hop: merge with local cross, scan, strip cross.

        ``offer_batch`` applies the identical per-row float ops and stats
        folds, so each hop's queue ends bitwise-identical to per-packet
        offers; reference-packet bookkeeping (``hops``/``dropped``) is
        applied to the few reference objects from the acceptance mask.
        """
        time_s, size_s, kind_s, hidx_s, refslot_s, ref_objs = stream
        time_m, size_m, kind_m, hidx_m, refslot_m = self._merge_with_cross(
            time_s, size_s, kind_s, hidx_s, refslot_s, crs)
        departures, accepted = queue.offer_batch(time_m, size_m)
        if ref_objs:
            ref_rows = np.flatnonzero(refslot_m >= 0)
            for slot, ok in zip(refslot_m[ref_rows].tolist(),
                                accepted[ref_rows].tolist()):
                if ok:
                    ref_objs[slot].hops += 1
                else:
                    ref_objs[slot].dropped = True
        keep = accepted & (kind_m != int(PacketKind.CROSS))
        return (departures[keep], size_m[keep], kind_m[keep], hidx_m[keep],
                refslot_m[keep], ref_objs)
