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
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..net.packet import Packet, PacketKind
from ..obs import metrics as obs_metrics
from ..traffic.batch import PacketBatch
from .chain import _component_blocker, _hop, _observe, _offer, _regular_stream
from .queue import FifoQueue

__all__ = ["PipelineConfig", "PipelineResult", "Switch1", "TwoSwitchPipeline"]


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


class Switch1:
    """Everything that leaves Switch 1 on the columnar path, as a value.

    Cross traffic joins at Switch 2, so Switch 1 sees the regular trace
    alone: its departures, the references the sender injects, queue 1's
    statistics and the sender's final state depend only on that trace,
    the Switch-1 parameters and the sender.  Runs that differ downstream
    (load, cross model, run seed, receiver) can share one value through
    :meth:`TwoSwitchPipeline.run_batch`'s ``switch1``.  Sharing is exact
    because nothing downstream writes it: the stream's arrays are
    read-only, switch 2 and the receiver only read the references, and
    :meth:`commit` copies the sender's state instead of handing the
    sender out.

    ``stream`` is the columnar stream ``(time, size, kind, hidx, refslot,
    refs)`` of Switch-1 departures (see :mod:`repro.sim.chain`);
    ``refs_injected`` counts the references the sender built.
    """

    __slots__ = ("stream", "queue1", "sender", "refs_injected")

    def __init__(self, reg: PacketBatch, queue1: FifoQueue, sender=None):
        stream, self.refs_injected = _hop(_regular_stream(reg), None, queue1,
                                          sender)
        *cols, refs = stream
        for col in cols:
            col.flags.writeable = False
        self.stream = (*cols, tuple(refs))
        self.queue1 = queue1
        self.sender = sender

    def commit(self, sender) -> None:
        """Leave *sender*, built like this value's sender and not yet run,
        in the state Switch 1 left that sender."""
        done = self.sender
        sender.fast_scan_commit(*done.fast_scan_state(), done.regulars_seen,
                                done.refs_injected)


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
        switch1: Optional[Callable[[], Switch1]] = None,
    ) -> PipelineResult:
        """Run the pipeline on columnar packet batches.

        Accepts a :class:`~repro.traffic.batch.PacketBatch` (or a
        :class:`~repro.traffic.trace.Trace`, whose batch it reads) of
        time-sorted regular traffic, and one of cross traffic whose ``ts``
        column is the Switch-2 arrival time (the output of a cross model's
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

        ``switch1`` lets runs that share their first hop share its work:
        a zero-argument callable returning the :class:`Switch1` that
        :meth:`switch1` computes for *regular* and a fresh sender built
        like *sender* (a caller's memo).  It is called only once the
        blocker admits the columnar path, so a run that falls back never
        reads nor builds it; the run then scans switch 2 alone and leaves
        *sender* in the state switch 1 left the memo's sender.
        """
        reg = PacketBatch.coerce(regular)
        crs = PacketBatch.coerce(cross) if cross is not None else PacketBatch.empty()
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

        if switch1 is None:
            first = Switch1(reg, queue1, sender)
        else:
            first = switch1()
            if sender is not None:
                first.commit(sender)
        result = PipelineResult(first.queue1, queue2, duration or 0.0)
        result.refs_injected = first.refs_injected

        # switch 2: stage-1 departures merged with the cross arrivals.
        # _offer gets no reference objects, so it flags none that switch 2
        # drops: no caller holds them past the run, and a shared Switch1's
        # packets stay untouched.
        *stage1, refs = first.stream
        merged, departures, accepted2 = _offer((*stage1, ()), crs, queue2)
        kind2, hdr2, refslot2 = merged[2:]

        kind_counts = np.bincount(kind2, minlength=len(PacketKind))
        drop_counts = np.bincount(kind2[~accepted2], minlength=len(PacketKind))
        for kind in PacketKind:
            result.arrivals2[kind] = int(kind_counts[kind])
            result.drops2[kind] = int(drop_counts[kind])

        if receiver is not None:
            observed = accepted2 & (kind2 != int(PacketKind.CROSS))
            _observe(receiver, reg, departures[observed], kind2[observed],
                     hdr2[observed], refslot2[observed], refs)

        if duration is None:
            result.duration = max(first.queue1.stats.last_departure,
                                  queue2.stats.last_departure)
        return result

    def switch1(self, regular, sender=None) -> Switch1:
        """Run switch 1 alone on the columnar path (see :class:`Switch1`).

        For a caller that shares one first hop among runs through
        :meth:`run_batch`'s ``switch1``; *regular* and *sender* must be
        ones that :meth:`run_batch`'s blocker admits.
        """
        cfg = self.config
        return Switch1(
            PacketBatch.coerce(regular),
            cfg.queue_factory(cfg.rate1_bps, cfg.buffer1_bytes, cfg.proc_delay, "switch1"),
            sender)

    def _fast_path_blocker(self, queue1, queue2, sender, receiver, reg, crs) -> Optional[str]:
        """Why the run can't be driven columnar — ``None`` when it can.

        The reason string feeds the ``batch.fallback`` counter and the
        ``--verbose`` once-per-sweep note, so a user can tell a nominal
        fast-path run was actually falling back and why.
        """
        if type(queue1) is not FifoQueue or type(queue2) is not FifoQueue:
            return "custom-queue"
        return _component_blocker(sender, receiver, reg, [crs])

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
