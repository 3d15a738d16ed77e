"""The paper's simulation environment (Figure 3): a two-switch pipeline.

    Packet trace ──► Traffic divider ──► [Switch 1] ──► [Switch 2] ──► sink
                          │  cross           ▲ RLI sender    ▲ bottleneck
                          └──────────► Cross-traffic injector   RLI receiver

Regular traffic traverses Switch 1 (where the RLI sender taps the egress
queue and injects reference packets) and then Switch 2.  Cross traffic skips
Switch 1 and joins at Switch 2, whose utilization is controlled by the
cross-traffic injection model.  The RLI receiver observes packets departing
Switch 2 and produces per-flow latency estimates of the regular traffic.

Because the pipeline is feed-forward, it can be driven by a single sorted
merge instead of an event calendar — the analytic queues make each packet
O(1) — which lets the benches run 10^5–10^6-packet traces in seconds.  The
queues and semantics are identical to the event engine's.

The pipeline is deliberately decoupled from :mod:`repro.core`: the sender
and receiver are any objects implementing the small protocols below, so the
same environment also drives baselines (LDA, Multiflow) and ablations.

Sender protocol
    ``on_regular(packet, now) -> Optional[List[Packet]]`` — called for every
    regular packet entering Switch 1's egress queue; may return reference
    packets to inject right behind it.

Receiver protocol
    ``observe(packet, now)`` — called for every non-cross packet departing
    Switch 2.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..net.packet import Packet, PacketKind
from ..obs import metrics as obs_metrics
from ..traffic.batch import PacketBatch
from .queue import FifoQueue, _drop_free_threshold, _scatter_merge

__all__ = ["PipelineConfig", "PipelineResult", "TwoSwitchPipeline"]


class PipelineConfig:
    """Physical parameters of the two switches.

    Defaults model 1 Gb/s links with 256 KB tail-drop buffers and 1 µs of
    per-packet processing, giving the tens-of-µs congested delays the paper
    reports.
    """

    __slots__ = ("rate1_bps", "rate2_bps", "buffer1_bytes", "buffer2_bytes",
                 "proc_delay", "queue_factory")

    def __init__(
        self,
        rate1_bps: float = 1e9,
        rate2_bps: float = 1e9,
        buffer1_bytes: Optional[int] = 256 * 1024,
        buffer2_bytes: Optional[int] = 256 * 1024,
        proc_delay: float = 1e-6,
        queue_factory=None,
    ):
        self.rate1_bps = rate1_bps
        self.rate2_bps = rate2_bps
        self.buffer1_bytes = buffer1_bytes
        self.buffer2_bytes = buffer2_bytes
        self.proc_delay = proc_delay
        # queue_factory(rate_bps, buffer_bytes, proc_delay, name) -> queue;
        # defaults to the tail-drop FifoQueue, override e.g. with RedQueue
        self.queue_factory = queue_factory or FifoQueue


class PipelineResult:
    """Counters and queue statistics from one pipeline run."""

    def __init__(self, queue1: FifoQueue, queue2: FifoQueue, duration: float):
        self.queue1 = queue1
        self.queue2 = queue2
        self.duration = duration
        # per-kind arrival/drop counters at switch 2
        self.arrivals2: Dict[PacketKind, int] = {k: 0 for k in PacketKind}
        self.drops2: Dict[PacketKind, int] = {k: 0 for k in PacketKind}
        self.refs_injected = 0

    @property
    def utilization2(self) -> float:
        """Measured utilization of the bottleneck (Switch 2) link."""
        return self.queue2.utilization(self.duration)

    @property
    def utilization1(self) -> float:
        return self.queue1.utilization(self.duration)

    def loss_rate(self, kind: PacketKind = PacketKind.REGULAR) -> float:
        """Loss rate of *kind* packets at the bottleneck switch."""
        arrivals = self.arrivals2[kind]
        return self.drops2[kind] / arrivals if arrivals else 0.0


class TwoSwitchPipeline:
    """Drive one run of the Figure-3 environment."""

    def __init__(self, config: Optional[PipelineConfig] = None):
        self.config = config or PipelineConfig()

    def run(
        self,
        regular: Iterable[Packet],
        cross: Iterable[Tuple[float, Packet]],
        sender=None,
        receiver=None,
        duration: Optional[float] = None,
    ) -> PipelineResult:
        """Run the pipeline on per-object packets: the reference path.

        Experiments enter through :meth:`run_batch`, which lands here only
        when its blocker names a reason the columnar scan cannot apply.

        Parameters
        ----------
        regular:
            Regular-traffic packets sorted by ``ts`` (arrival at Switch 1).
        cross:
            ``(arrival_time, packet)`` pairs sorted by time — the output of a
            cross-traffic injection model; these arrive directly at Switch 2.
        sender:
            Optional RLI sender (see module docstring).  ``None`` disables
            reference injection (the paper's "without references" runs for
            Figure 5).
        receiver:
            Optional RLI receiver observing Switch-2 departures.
        duration:
            Trace span in seconds used for utilization accounting; inferred
            from the last departure if omitted.
        """
        cfg = self.config
        queue1 = cfg.queue_factory(cfg.rate1_bps, cfg.buffer1_bytes, cfg.proc_delay, "switch1")
        queue2 = cfg.queue_factory(cfg.rate2_bps, cfg.buffer2_bytes, cfg.proc_delay, "switch2")

        stage2_inputs = self._stage1(regular, queue1, sender)
        result = PipelineResult(queue1, queue2, duration or 0.0)
        result.refs_injected = self._refs_injected

        merged = heapq.merge(stage2_inputs, cross, key=lambda item: item[0])
        arrivals2 = result.arrivals2
        drops2 = result.drops2
        for arrival, packet in merged:
            arrivals2[packet.kind] += 1
            departure = queue2.offer(packet, arrival)
            if departure is None:
                drops2[packet.kind] += 1
                continue
            if receiver is not None and packet.kind != PacketKind.CROSS:
                receiver.observe(packet, departure)

        if duration is None:
            result.duration = max(queue1.stats.last_departure, queue2.stats.last_departure)
        return result

    # ------------------------------------------------------------------
    # columnar fast path

    def run_batch(
        self,
        regular,
        cross=None,
        sender=None,
        receiver=None,
        duration: Optional[float] = None,
    ) -> PipelineResult:
        """Run the pipeline on columnar packet batches.

        Accepts a :class:`~repro.traffic.batch.PacketBatch` (or a
        batch-backed :class:`~repro.traffic.trace.Trace`) of time-sorted
        regular traffic, and one of cross traffic whose ``ts`` column is the
        Switch-2 arrival time (the output of a cross model's
        ``arrivals_batch``).  Results are **bitwise-identical** to
        :meth:`run` on the materialized packets — the queue scans apply the
        same per-packet float operations (``max(t, free_at) + size/rate``)
        in the same order, the merge replicates ``heapq.merge`` stability,
        and the stateful sender/receiver callbacks stay exact (references —
        the small stream — remain per-object Packets throughout).

        The fast path requires plain tail-drop :class:`FifoQueue` switches,
        a batch-capable sender (or none) and a batch-capable receiver (or
        none); any other combination falls back to :meth:`run` with
        identical numbers, and ``_fast_path_blocker``'s reason is counted
        under ``batch.fallback``.
        """
        reg = PacketBatch.coerce(regular)
        if reg is None:
            raise TypeError(f"run_batch needs a PacketBatch or batch-backed Trace, got {type(regular).__name__}")
        crs = PacketBatch.coerce(cross) if cross is not None else PacketBatch.empty()
        if crs is None:
            raise TypeError(f"cross must be a PacketBatch or batch-backed Trace, got {type(cross).__name__}")
        cfg = self.config
        queue1 = cfg.queue_factory(cfg.rate1_bps, cfg.buffer1_bytes, cfg.proc_delay, "switch1")
        queue2 = cfg.queue_factory(cfg.rate2_bps, cfg.buffer2_bytes, cfg.proc_delay, "switch2")
        blocker = self._fast_path_blocker(queue1, queue2, sender, receiver, reg, crs)
        if blocker is not None:
            obs_metrics.fallback("pipeline.run_batch", blocker)
            cross_pairs = [(p.ts, p) for p in crs.to_packets()]
            return self.run(reg.to_packets(), cross_pairs, sender=sender,
                            receiver=receiver, duration=duration)
        obs_metrics.taken("pipeline.run_batch")

        stage2 = self._stage1_batch(reg, queue1, sender)
        time2, size2, kind2, hdr2, refslot2, ref_objs = stage2
        result = PipelineResult(queue1, queue2, duration or 0.0)
        result.refs_injected = self._refs_injected

        # sorted merge of stage-1 departures with cross arrivals.  Both
        # streams are already sorted, so two searchsorted passes give each
        # element its merged position directly — with heapq.merge's tie
        # rule (earlier iterable first: stage-1 entries precede coincident
        # cross arrivals, original order within each stream)
        m = len(crs)
        if m:
            n1 = len(time2)
            total2 = n1 + m
            pos_stage = np.arange(n1) + np.searchsorted(crs.ts, time2, side="left")
            pos_cross = np.arange(m) + np.searchsorted(time2, crs.ts, side="right")
            time2 = _scatter_merge(time2, crs.ts, pos_stage, pos_cross, np.float64)
            size2 = _scatter_merge(size2, crs.size, pos_stage, pos_cross, np.int64)
            # cross rows carry constants (kind CROSS — certified by
            # _fast_path_ok — and no header/ref slots): fill once, scatter
            # only the stage-1 side
            merged = np.full(total2, int(PacketKind.CROSS), dtype=np.int64)
            merged[pos_stage] = kind2
            kind2 = merged
            merged = np.full(total2, -1, dtype=np.int64)
            merged[pos_stage] = hdr2
            hdr2 = merged
            merged = np.full(total2, -1, dtype=np.int64)
            merged[pos_stage] = refslot2
            refslot2 = merged

        departures, accepted2 = queue2.offer_batch(time2, size2)

        kind_counts = np.bincount(kind2, minlength=len(PacketKind))
        drop_counts = np.bincount(kind2[~accepted2], minlength=len(PacketKind))
        for kind in PacketKind:
            result.arrivals2[kind] = int(kind_counts[kind])
            result.drops2[kind] = int(drop_counts[kind])

        # per-object bookkeeping for the (few) reference packets
        if ref_objs:
            ref_rows = np.flatnonzero(refslot2 >= 0)
            for slot, ok in zip(refslot2[ref_rows].tolist(),
                                accepted2[ref_rows].tolist()):
                if ok:
                    ref_objs[slot].hops += 1
                else:
                    ref_objs[slot].dropped = True

        if receiver is not None:
            observed = accepted2 & (kind2 != int(PacketKind.CROSS))
            obs_kind = kind2[observed]
            obs_hidx = hdr2[observed]
            obs_slots = refslot2[observed]
            obs_refs = [ref_objs[s] for s in obs_slots[obs_slots >= 0].tolist()]
            receiver.observe_batch(
                departures[observed], obs_kind, reg, obs_hidx, None, obs_refs,
            )

        if duration is None:
            result.duration = max(queue1.stats.last_departure, queue2.stats.last_departure)
        return result

    def _fast_path_blocker(self, queue1, queue2, sender, receiver, reg, crs) -> Optional[str]:
        """Why the run can't be driven columnar — ``None`` when it can.

        The reason string feeds the ``batch.fallback`` counter and the
        ``--verbose`` once-per-sweep note, so a user can tell a nominal
        fast-path run was actually falling back and why.
        """
        if type(queue1) is not FifoQueue or type(queue2) is not FifoQueue:
            return "custom-queue"
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
        # kinds the fast path hard-codes: the regular stream must be all
        # REGULAR (references are injected, not replayed) and the cross
        # stream all CROSS (anything else would be shown to the receiver)
        if len(reg) and not np.all(reg.kind == int(PacketKind.REGULAR)):
            return "mixed-regular-kinds"
        if len(crs) and not np.all(crs.kind == int(PacketKind.CROSS)):
            return "mixed-cross-kinds"
        return None

    def _stage1_batch(self, reg: PacketBatch, queue1: FifoQueue, sender):
        """Columnar Switch-1 pass: queue scan + inline reference injection.

        Returns the stage-2 input stream as parallel arrays (arrival time =
        Switch-1 departure, size, kind, regular-batch row or -1, reference
        slot or -1) plus the injected reference Packet objects.

        The scan applies the exact float-op sequence of
        :meth:`FifoQueue.offer` — including for the reference packets the
        sender splices into the queue right behind their trigger — and
        folds the same statistics in the same (interleaved) order, so
        ``queue1`` ends bitwise-identical to the per-object stage.
        """
        n = len(reg)
        if sender is None:
            # pure queue pass: the generic scan is already exact
            departures, accepted_mask = queue1.offer_batch(reg.ts, reg.size)
            self._refs_injected = 0
            acc_idx_arr = np.flatnonzero(accepted_mask)
            total = len(acc_idx_arr)
            time2 = departures[acc_idx_arr]
            size2 = reg.size[acc_idx_arr]
            kind2 = np.full(total, int(PacketKind.REGULAR), dtype=np.int64)
            refslot2 = np.full(total, -1, dtype=np.int64)
            return time2, size2, kind2, acc_idx_arr.astype(np.int64), refslot2, []

        proc = queue1.proc_delay
        rate_Bps = queue1.rate_Bps
        buffer_bytes = queue1.buffer_bytes
        ts_l = reg.ts.tolist()
        t_l = (reg.ts + proc).tolist()
        svc_l = (reg.size / rate_Bps).tolist()
        size_l = reg.size.tolist()

        # the scan carries only the recurrence (free_at, drop test) and the
        # inlined sender arithmetic; counters and delay statistics are
        # folded in afterwards from the assembled arrays, with identical
        # results.  The sender block implements exactly the update algebra
        # of RliSender.on_regular with the default classifier (see the
        # fast_scan_state contract): fold EWMA windows the arrival crossed,
        # account the bytes, bump the 1-and-n counter, inject on trigger —
        # the gap only needs re-evaluating after a window fold, because the
        # utilization estimate is constant in between.
        fa = queue1._free_at
        ref_dropped = 0
        bytes_drop = 0
        ref_arrivals = 0
        ref_bytes_in = 0
        self._refs_injected = 0

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
                buffer_bytes, int(reg.size.max()) if n else 0, rate_Bps)
        for i, (now, t, svc, size) in enumerate(zip(ts_l, t_l, svc_l, size_l)):
            # same float ops as FifoQueue.offer; a backlog at or below the
            # certified threshold cannot drop, so only near-full arrivals
            # pay for the drop test (max() resolved by the branch taken)
            backlog = fa - t
            if backlog > threshold:
                clamped = backlog * rate_Bps if backlog > 0.0 else 0.0
                if clamped + size > buffer_bytes:
                    drop_idx.append(i)
                    bytes_drop += size
                    continue  # dropped at switch 1: never passed the interface
                fa = (t if t > fa else fa) + svc
            elif backlog > 0.0:
                fa = fa + svc
            else:
                fa = t + svc
            n_acc += 1
            dep_append(fa)
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
            self._refs_injected += 1
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
        queue1._free_at = fa
        stats = queue1.stats
        dropped = len(drop_idx) + ref_dropped
        bytes_in = (int(reg.size.sum()) if n else 0) + ref_bytes_in  # reprolint: disable=BATCH003 -- int64 byte counter; integer addition is exact in any order
        arrivals = n + ref_arrivals
        stats.arrivals += arrivals
        stats.bytes_in += bytes_in
        stats.accepted += arrivals - dropped
        stats.dropped += dropped
        stats.bytes_accepted += bytes_in - bytes_drop
        stats.bytes_dropped += bytes_drop

        # assemble the interleaved stage-2 arrays
        n_reg = n_acc
        n_ref = len(ref_objs)
        total = n_reg + n_ref
        is_ref = np.zeros(total, dtype=bool)
        if n_ref:
            is_ref[np.asarray(ref_pos, dtype=np.intp)] = True
        is_reg_slot = ~is_ref
        time2 = np.empty(total, dtype=np.float64)
        size2 = np.empty(total, dtype=np.int64)
        kind2 = np.empty(total, dtype=np.int64)
        hdr2 = np.full(total, -1, dtype=np.int64)
        refslot2 = np.full(total, -1, dtype=np.int64)
        if drop_idx:
            idx_arr = np.delete(np.arange(n, dtype=np.int64), drop_idx)
        else:
            idx_arr = np.arange(n, dtype=np.int64)
        time2[is_reg_slot] = acc_dep
        size2[is_reg_slot] = reg.size[idx_arr]
        kind2[is_reg_slot] = int(PacketKind.REGULAR)
        hdr2[is_reg_slot] = idx_arr
        if n_ref:
            time2[is_ref] = ref_dep
            size2[is_ref] = [r.size for r in ref_objs]
            kind2[is_ref] = int(PacketKind.REFERENCE)
            refslot2[is_ref] = np.arange(n_ref, dtype=np.int64)

        # fold the delay statistics in emission (acceptance) order, exactly
        # as per-packet offers would have: delay = departure - arrival with
        # the same operands, accumulated left-to-right (an explicit loop:
        # builtin sum() compensates rounding on 3.12+ and would drift)
        if total:
            arr_all = np.empty(total, dtype=np.float64)
            arr_all[is_reg_slot] = reg.ts[idx_arr]
            if n_ref:
                arr_all[is_ref] = [r.ts for r in ref_objs]
            delay_l = (time2 - arr_all).tolist()
            total_delay = stats.total_delay
            for delay in delay_l:
                total_delay += delay
            stats.total_delay = total_delay
            peak = max(delay_l)
            if peak > stats.max_delay:
                stats.max_delay = peak
            stats.last_departure = float(time2[-1])
        return time2, size2, kind2, hdr2, refslot2, ref_objs

    # ------------------------------------------------------------------

    def _stage1(self, regular: Iterable[Packet], queue1: FifoQueue, sender) -> List[Tuple[float, Packet]]:
        """Pass regular traffic (plus injected references) through Switch 1.

        Returns (departure, packet) pairs; FIFO service keeps them sorted.
        Sets each packet's ``tap_time`` — the instant it passed the sender's
        interface, which defines the measured segment's entry point.
        """
        out: List[Tuple[float, Packet]] = []
        self._refs_injected = 0
        for packet in regular:
            now = packet.ts
            departure = queue1.offer(packet, now)
            if departure is None:
                continue  # dropped at switch 1: never passed the interface
            packet.tap_time = now
            out.append((departure, packet))
            if sender is None:
                continue
            refs = sender.on_regular(packet, now)
            if refs:
                for ref in refs:
                    self._refs_injected += 1
                    ref_departure = queue1.offer(ref, now)
                    if ref_departure is not None:
                        out.append((ref_departure, ref))
        return out
