"""Analytic work-conserving FIFO queue with a finite buffer.

This is the core of the paper's simulator: packets "experience processing and
queueing delays across multiple queues (equivalently, multiple
routers/switches)" (Section 4.1), where delays "are governed by queue size
and packet processing time".

Because service is FIFO at a deterministic link rate, the queue can be
simulated exactly in O(1) per packet without an event calendar:

* ``free_at`` is the time the transmitter finishes the last accepted packet;
* the backlog (in bytes) seen by an arrival at time ``t`` is exactly
  ``(free_at - t) * rate`` when ``free_at > t``, else 0;
* an arrival is dropped (tail drop) iff backlog + its size exceeds the
  buffer;
* otherwise its departure time is ``max(t, free_at) + size/rate``.

Arrivals must be offered in non-decreasing time order — both the fast
pipeline driver and the event engine guarantee this; the queue asserts it.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..net.packet import Packet, PacketKind

__all__ = ["FifoQueue", "QueueStats", "TappedScan", "tapped_scan"]


def _drop_free_threshold(buffer_bytes: int, max_size: int, rate_Bps: float) -> float:
    """Largest certified drop-free backlog time for a batch of arrivals.

    Returns a value ``thr`` such that any arrival seeing ``free_at - t <=
    thr`` provably survives the tail-drop test for every packet size up to
    *max_size* — letting the batch scans skip the per-packet drop
    arithmetic away from buffer-full territory.  The certificate is exact:
    float multiplication/addition by positive values are monotone, so
    verifying the test expression at ``(thr, max_size)`` bounds it for all
    smaller backlogs and sizes; ``thr`` is nudged down by ulps until the
    verification passes.  Returns ``-inf`` when no positive threshold can
    be certified (buffer close to or below the packet size), which sends
    every packet down the exact test.
    """
    thr = (buffer_bytes - max_size) / rate_Bps
    while thr > 0.0 and thr * rate_Bps + max_size > buffer_bytes:
        thr = math.nextafter(thr, -math.inf)
    return thr if thr > 0.0 else -math.inf


def _fold_stats(stats: QueueStats, arrivals: int, bytes_in: int,
                dropped: int, bytes_dropped: int, departures: np.ndarray,
                arrived: np.ndarray) -> None:
    """Fold one scan's counters and delays into *stats*, as offers would.

    *departures* and *arrived* are the accepted rows' departure and
    arrival times in acceptance order.  ``delay = departure - arrival``
    elementwise has the scalar path's operands, and a 1-D
    ``np.add.accumulate`` is a strict left fold, so ``total_delay`` gets
    the bits of the sequential ``total_delay += delay`` (``np.sum`` is
    pairwise and would not).
    """
    stats.arrivals += arrivals
    stats.bytes_in += bytes_in
    stats.accepted += arrivals - dropped
    stats.dropped += dropped
    stats.bytes_accepted += bytes_in - bytes_dropped
    stats.bytes_dropped += bytes_dropped
    if len(departures):
        delays = departures - arrived
        stats.total_delay = float(np.add.accumulate(
            np.concatenate(([stats.total_delay], delays)))[-1])
        peak = float(delays.max())
        if peak > stats.max_delay:
            stats.max_delay = peak
        stats.last_departure = float(departures[-1])


class QueueStats:
    """Counters accumulated by a :class:`FifoQueue`."""

    __slots__ = (
        "arrivals",
        "accepted",
        "dropped",
        "bytes_in",
        "bytes_accepted",
        "bytes_dropped",
        "total_delay",
        "max_delay",
        "last_departure",
    )

    def __init__(self) -> None:
        self.arrivals = 0
        self.accepted = 0
        self.dropped = 0
        self.bytes_in = 0
        self.bytes_accepted = 0
        self.bytes_dropped = 0
        self.total_delay = 0.0
        self.max_delay = 0.0
        self.last_departure = 0.0

    @property
    def loss_rate(self) -> float:
        """Fraction of arrivals dropped (0 if no arrivals)."""
        return self.dropped / self.arrivals if self.arrivals else 0.0

    @property
    def mean_delay(self) -> float:
        """Mean total delay (processing + waiting + transmission) of
        accepted packets."""
        return self.total_delay / self.accepted if self.accepted else 0.0


class FifoQueue:
    """Work-conserving FIFO queue draining at a fixed link rate.

    Parameters
    ----------
    rate_bps:
        Link rate in bits per second.
    buffer_bytes:
        Tail-drop buffer size in bytes.  An arrival that would push the
        backlog past this limit is dropped.  ``None`` means infinite.
    proc_delay:
        Fixed per-packet processing (pipeline) delay applied before the
        packet reaches the buffer, in seconds.
    name:
        Optional label used in reprs and drop diagnostics.
    """

    __slots__ = ("rate_Bps", "buffer_bytes", "proc_delay", "name", "_free_at", "stats")

    def __init__(
        self,
        rate_bps: float,
        buffer_bytes: Optional[int] = None,
        proc_delay: float = 0.0,
        name: str = "",
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive: {rate_bps}")
        if buffer_bytes is not None and buffer_bytes <= 0:
            raise ValueError(f"buffer must be positive or None: {buffer_bytes}")
        if proc_delay < 0:
            raise ValueError(f"processing delay must be non-negative: {proc_delay}")
        self.rate_Bps = rate_bps / 8.0
        self.buffer_bytes = buffer_bytes
        self.proc_delay = proc_delay
        self.name = name
        self._free_at = 0.0
        self.stats = QueueStats()

    # ------------------------------------------------------------------

    def backlog_bytes(self, now: float) -> float:
        """Bytes queued (including the packet in service) at time *now*."""
        return max(0.0, self._free_at - now) * self.rate_Bps

    def transmission_time(self, size_bytes: int) -> float:
        """Seconds to serialize *size_bytes* onto the link."""
        return size_bytes / self.rate_Bps

    def offer(self, packet: Packet, arrival: float) -> Optional[float]:
        """Offer *packet* at time *arrival*; return its departure time.

        Returns ``None`` and marks ``packet.dropped`` if the buffer
        overflows.  Arrivals must be non-decreasing in time.
        """
        stats = self.stats
        stats.arrivals += 1
        stats.bytes_in += packet.size
        t = arrival + self.proc_delay
        backlog = max(0.0, self._free_at - t) * self.rate_Bps
        if self.buffer_bytes is not None and backlog + packet.size > self.buffer_bytes:
            stats.dropped += 1
            stats.bytes_dropped += packet.size
            packet.dropped = True
            return None
        departure = max(t, self._free_at) + packet.size / self.rate_Bps
        self._free_at = departure
        delay = departure - arrival
        stats.accepted += 1
        stats.bytes_accepted += packet.size
        stats.total_delay += delay
        if delay > stats.max_delay:
            stats.max_delay = delay
        stats.last_departure = departure
        return departure

    def offer_batch(
        self, arrivals: np.ndarray, sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Offer a whole sorted arrival array: every untapped queue's scan.

        Parameters are parallel arrays: arrival times (non-decreasing) and
        wire sizes in bytes.  Returns ``(departures, accepted)`` — departure
        times (``NaN`` where dropped) and a boolean acceptance mask.

        The scan applies *exactly* the per-packet float operations of
        :meth:`offer` (``max(t, free_at) + size/rate`` with the identical
        tail-drop test) over a running ``free_at``, and folds the same
        statistics in the same order, so interleaving ``offer`` and
        ``offer_batch`` calls is bitwise-indistinguishable from offering
        every packet individually.  Only the per-``Packet`` ``dropped``
        flag is absent — there are no objects.

        Only valid on the tail-drop base class: subclasses with their own
        drop logic (e.g. RED) must not inherit this scan.
        """
        if type(self).offer is not FifoQueue.offer:
            raise NotImplementedError(
                f"{type(self).__name__} overrides offer(); the vectorized "
                f"scan only reproduces tail-drop FifoQueue semantics"
            )
        arrivals = np.asarray(arrivals, dtype=np.float64)
        sizes = np.asarray(sizes)
        n = len(arrivals)
        # vectorized per-element precomputation: identical IEEE ops to the
        # scalar `arrival + proc_delay` and `size / rate_Bps` in offer()
        t_l = (arrivals + self.proc_delay).tolist()
        svc_l = (sizes / self.rate_Bps).tolist()

        # the scan itself carries only what the recurrence needs (free_at
        # and the drop test); counters and delay statistics are folded in
        # afterwards from the departure array, with identical results
        fa = self._free_at
        rate_Bps = self.rate_Bps
        buffer_bytes = self.buffer_bytes
        dropped = 0
        bytes_drop = 0
        nan = float("nan")
        dep_l: list = []
        dep_append = dep_l.append
        if buffer_bytes is None:
            for t, svc in zip(t_l, svc_l):
                fa = (t if t > fa else fa) + svc
                dep_append(fa)
        else:
            size_l = sizes.tolist()
            threshold = _drop_free_threshold(
                buffer_bytes, int(sizes.max()) if n else 0, rate_Bps)
            # three arms: a backlog at or below the certified threshold
            # cannot drop any packet of this batch, so the common case skips
            # the drop arithmetic entirely; the rare near-full arm and the
            # idle arm apply the exact offer() float ops (max() resolved by
            # the branch already taken)
            for i, (t, svc) in enumerate(zip(t_l, svc_l)):
                backlog = fa - t
                if backlog > threshold:
                    size = size_l[i]
                    clamped = backlog * rate_Bps if backlog > 0.0 else 0.0
                    if clamped + size > buffer_bytes:
                        dropped += 1
                        bytes_drop += size
                        dep_append(nan)
                        continue
                    fa = (t if t > fa else fa) + svc
                elif backlog > 0.0:
                    fa = fa + svc
                else:
                    fa = t + svc
                dep_append(fa)

        self._free_at = fa
        departures = np.array(dep_l, dtype=np.float64) if n else np.empty(0)
        accepted_mask = (
            ~np.isnan(departures) if dropped else np.ones(n, dtype=bool)
        )
        bytes_in = int(sizes.sum()) if n else 0  # reprolint: disable=BATCH003 -- int64 byte counter; integer addition is exact in any order
        _fold_stats(self.stats, n, bytes_in, dropped, bytes_drop,
                    departures[accepted_mask] if dropped else departures,
                    arrivals[accepted_mask] if dropped else arrivals)
        return departures, accepted_mask

    def utilization(self, duration: float) -> float:
        """Offered-load utilization of the link over *duration* seconds:
        accepted bytes / (rate × duration)."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return self.stats.bytes_accepted / (self.rate_Bps * duration)

    def set_rate(self, rate_bps: float) -> None:
        """Change the drain rate (e.g. to model a degraded link).

        Only valid between runs / before the queue has backlog — the
        analytic model assumes a constant rate while work is queued.
        """
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive: {rate_bps}")
        self.rate_Bps = rate_bps / 8.0

    def reset(self) -> None:
        """Clear state and statistics for a fresh run."""
        self._free_at = 0.0
        self.stats = QueueStats()

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"FifoQueue({label and label.strip()} rate={self.rate_Bps * 8:.3g}bps "
            f"buffer={self.buffer_bytes} proc={self.proc_delay})"
        )


class TappedScan(NamedTuple):
    """Output of :func:`tapped_scan`, in acceptance order.

    ``rows`` gives each output row's input row; a reference carries its
    trigger's row (the row whose ancestry and arrival it shares).
    """

    departures: np.ndarray
    sizes: np.ndarray
    rows: np.ndarray
    is_ref: np.ndarray
    refs: List[Packet]  # the accepted references, in output order
    state: tuple  # the advanced sender state, for fast_scan_commit

    @property
    def refs_built(self) -> int:
        """References the sender built, the queue's drops included."""
        return self.state[-1]

    def columns(self, kind: np.ndarray, hidx: np.ndarray,
                refslot: np.ndarray, slot0: int = 0):
        """The input's kind/header/reference-slot columns carried to the
        output; reference rows get kind REFERENCE, no header, and slots
        ``slot0, slot0 + 1, …``."""
        is_ref = self.is_ref
        rows = self.rows
        kind_o = np.where(is_ref, int(PacketKind.REFERENCE), kind[rows])
        hidx_o = np.where(is_ref, -1, hidx[rows])
        refslot_o = refslot[rows]
        refslot_o[is_ref] = np.arange(slot0, slot0 + len(self.refs))
        return kind_o, hidx_o, refslot_o


def tapped_scan(queue: FifoQueue, times: np.ndarray, sizes: np.ndarray,
                classes: np.ndarray, sender) -> TappedScan:
    """Offer a sorted stream to a queue whose egress an RLI sender taps.

    The one sender-tapped FIFO scan of the columnar paths.  Per row it
    applies exactly :meth:`FifoQueue.offer`'s float ops; per accepted
    tapped row, exactly :meth:`~repro.core.sender.RliSender.on_regular`'s
    algebra (fold the EWMA windows the arrival crossed, add its bytes,
    bump its class's 1-and-n counter against ``policy.gap(estimate)``,
    which only changes at a fold); and on a trigger it offers the
    sender's reference right behind the row with the same queue ops.

    ``classes`` is the raw path class per row: ``-2`` for an untapped row
    (cross traffic: it advances the queue but not the sender), ``-1`` for
    a tapped row of no class, else the class.  It is mapped before the
    loop onto slots of a plain int list of counters (``-1`` for a class
    the sender has no counter for).  References are built with
    ``sender.build_reference`` in scan order, so clocks are read in
    order; the sender itself is not touched — the caller hands
    ``state`` to ``sender.fast_scan_commit`` when it commits.
    """
    times = np.asarray(times, dtype=np.float64)
    sizes = np.asarray(sizes)
    n = len(times)
    seen_any, wstart, wbytes, estimate, counters = sender.fast_scan_state()
    keys = sorted(counters)
    count_l = [counters[key] for key in keys]
    slots = np.where(classes == -2, -2, -1)
    for slot, key in enumerate(keys):
        slots[classes == key] = slot

    proc = queue.proc_delay
    rate_Bps = queue.rate_Bps
    buffer_bytes = queue.buffer_bytes
    ts_l = times.tolist()
    t_l = (times + proc).tolist()
    svc_l = (sizes / rate_Bps).tolist()
    size_l = sizes.tolist()
    if buffer_bytes is None:
        threshold = math.inf  # no tail drop: every arrival is safe
    else:
        threshold = _drop_free_threshold(
            buffer_bytes, int(sizes.max()) if n else 0, rate_Bps)

    utilization = sender.utilization
    window = utilization.window
    alpha = utilization.alpha
    capacity = utilization._capacity_per_window
    policy_gap = sender.policy.gap
    build_reference = sender.build_reference
    gap = policy_gap(estimate)
    regulars_seen = 0
    refs_built = 0
    ref_bytes_in = 0
    ref_dropped = 0
    bytes_drop = 0
    fa = queue._free_at
    drop_idx: List[int] = []
    dep_l: List[float] = []
    dep_append = dep_l.append
    ref_pos: List[int] = []
    ref_trig: List[int] = []
    refs: List[Packet] = []

    for i, (now, t, svc, size, slot) in enumerate(
            zip(ts_l, t_l, svc_l, size_l, slots.tolist())):
        # FifoQueue.offer's float ops: a backlog at or below the certified
        # threshold cannot drop, so only near-full arrivals pay for the
        # drop test (max() resolved by the branch already taken)
        backlog = fa - t
        if backlog > threshold:
            clamped = backlog * rate_Bps if backlog > 0.0 else 0.0
            if clamped + size > buffer_bytes:
                drop_idx.append(i)
                bytes_drop += size
                continue  # dropped: never passed the tap
            fa = (t if t > fa else fa) + svc
        elif backlog > 0.0:
            fa = fa + svc
        else:
            fa = t + svc
        dep_append(fa)
        if slot == -2:
            continue
        # RliSender.on_regular: utilization first, always
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
        if slot < 0:
            continue
        regulars_seen += 1
        count = count_l[slot] + 1
        if count < gap:
            count_l[slot] = count
            continue
        count_l[slot] = 0
        ref = build_reference(keys[slot], now)
        refs_built += 1
        # offered right behind its trigger: FifoQueue.offer's float ops
        rsize = ref.size
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
        ref_pos.append(len(dep_l))
        dep_append(fa)
        ref_trig.append(i)
        refs.append(ref)

    queue._free_at = fa
    departures = np.array(dep_l, dtype=np.float64)
    is_ref = np.zeros(len(dep_l), dtype=bool)
    is_ref[ref_pos] = True
    rows = np.empty(len(dep_l), dtype=np.int64)
    rows[~is_ref] = (np.delete(np.arange(n), drop_idx) if drop_idx
                     else np.arange(n))
    rows[is_ref] = ref_trig
    sizes_o = sizes[rows].astype(np.int64, copy=False)
    sizes_o[is_ref] = [ref.size for ref in refs]
    bytes_in = (int(sizes.sum()) if n else 0) + ref_bytes_in  # reprolint: disable=BATCH003 -- int64 byte counter; integer addition is exact in any order
    _fold_stats(queue.stats, n + refs_built, bytes_in,
                len(drop_idx) + ref_dropped, bytes_drop, departures,
                times[rows])
    state = (seen_any, wstart, wbytes, estimate, dict(zip(keys, count_l)),
             regulars_seen, refs_built)
    return TappedScan(departures, sizes_o, rows, is_ref, refs, state)
