"""The Figure-3 environment across N switches: the one line-topology driver.

The paper's simulator "lets packets from the trace experience processing and
queueing delays across multiple queues (equivalently, multiple
routers/switches)" and evaluates RLIR "in the presence of cross traffic
across multiple hops".  :class:`SwitchChain` drives a chain of N switches
with independent per-hop cross traffic: cross traffic for hop i joins just
before switch i's queue and leaves after it (classic single-hop interfering
load), while regular traffic (and the RLI reference stream) rides the whole
chain.  The paper's two-switch pipeline is the two-hop chain with cross
traffic at hop 1 (:class:`~repro.sim.pipeline.TwoSwitchPipeline`).

The RLI sender taps the entry of switch 1; the receiver observes departures
from switch N.  The measured segment therefore spans all N queues — the
multi-router segment an RLIR deployment measures between two instrumented
interfaces.

Because the chain is feed-forward, it is driven by one sorted merge per hop
instead of an event calendar.  The sender and receiver are any objects
implementing the small protocols below, so the same environment also
drives baselines (LDA, Multiflow) and ablations.

Sender protocol
    ``on_regular(packet, now) -> Optional[List[Packet]]`` — called for every
    regular packet entering switch 1's egress queue; may return reference
    packets to inject right behind it.

Receiver protocol
    ``observe(packet, now)`` — called for every non-cross packet departing
    switch N.

The columnar fast path (:meth:`SwitchChain.run_batch`) merges, at every
hop, the through-stream with the hop's cross columns (replicating
``heapq.merge`` ties) and scans the merged rows once: the first hop through
the shared sender-tapped scan (:func:`~repro.sim.queue.tapped_scan`, cross
rows untapped), the others through
:meth:`~repro.sim.queue.FifoQueue.offer_batch`.  The receiver consumes the
final departure stream through
:meth:`~repro.core.receiver.RliReceiver.observe_batch` — **bitwise
identical** to the per-object path (:meth:`SwitchChain.run`), which it
falls back to when a component cannot be driven columnar.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..net.packet import Packet, PacketKind
from ..obs import metrics as obs_metrics
from ..traffic.batch import PacketBatch
from .queue import FifoQueue, tapped_scan

__all__ = ["ChainConfig", "ChainResult", "FirstHop", "SwitchChain"]

_REGULAR = int(PacketKind.REGULAR)
_REFERENCE = int(PacketKind.REFERENCE)
_CROSS = int(PacketKind.CROSS)
_KINDS = len(PacketKind)


class ChainConfig:
    """Physical parameters of an N-switch chain; every hop alike.

    Defaults model 1 Gb/s links with 256 KB tail-drop buffers and 1 µs of
    per-packet processing, giving the tens-of-µs congested delays the paper
    reports.  ``queue_factory(rate_bps, buffer_bytes, proc_delay, name)``
    builds each hop's queue, named ``switch1`` … ``switchN``; it defaults
    to the tail-drop :class:`~repro.sim.queue.FifoQueue` (override e.g.
    with :class:`~repro.sim.red.RedQueue`).
    """

    def __init__(
        self,
        n_hops: int = 3,
        rate_bps: float = 1e9,
        buffer_bytes: Optional[int] = 256 * 1024,
        proc_delay: float = 1e-6,
        queue_factory=None,
    ):
        if n_hops < 1:
            raise ValueError(f"need at least one hop: {n_hops}")
        self.n_hops = n_hops
        self.rate_bps = rate_bps
        self.buffer_bytes = buffer_bytes
        self.proc_delay = proc_delay
        self.queue_factory = queue_factory or FifoQueue

    def queue(self, hop: int):
        """A fresh queue for *hop* (0-based)."""
        return self.queue_factory(self.rate_bps, self.buffer_bytes,
                                  self.proc_delay, f"switch{hop + 1}")


class ChainResult:
    """Counters and per-hop queue statistics from one chain run.

    ``arrivals`` and ``drops`` count each packet kind at the last hop (the
    bottleneck switch of the two-switch pipeline).
    """

    def __init__(self, queues: List[FifoQueue], duration: float):
        self.queues = queues
        self.duration = duration
        self.refs_injected = 0
        self.regular_in = 0
        self.regular_out = 0
        self.arrivals: Dict[PacketKind, int] = dict.fromkeys(PacketKind, 0)
        self.drops: Dict[PacketKind, int] = dict.fromkeys(PacketKind, 0)

    def utilization(self, hop: int) -> float:
        return self.queues[hop].utilization(self.duration)

    def loss_rate(self, kind: PacketKind = PacketKind.REGULAR) -> float:
        """Loss rate of *kind* packets at the last hop."""
        arrivals = self.arrivals[kind]
        return self.drops[kind] / arrivals if arrivals else 0.0

    @property
    def regular_loss_rate(self) -> float:
        """End-to-end loss rate of regular packets."""
        return 1.0 - self.regular_out / self.regular_in if self.regular_in else 0.0


class FirstHop:
    """Everything that leaves a chain's first hop on the columnar path, as
    a value.

    With no cross traffic at hop 0, the first hop sees the regular trace
    alone: its departures, the references the sender injects, the queue's
    statistics and the sender's final state depend only on that trace,
    the chain's parameters and the sender.  Runs that differ downstream
    (load, cross model, run seed, receiver) can share one value through
    :meth:`SwitchChain.run_batch`'s ``first_hop``.  Sharing is exact
    because nothing downstream writes it: the stream's arrays are
    read-only, later hops and the receiver only read the references, and
    :meth:`commit` copies the sender's state instead of handing the
    sender out.

    ``stream`` is the columnar stream of first-hop departures (see
    :func:`_hop`); ``refs_injected`` counts the references the sender
    built; ``arrivals``/``drops`` count the hop's packets per kind.
    """

    __slots__ = ("stream", "queue", "sender", "refs_injected", "arrivals", "drops")

    def __init__(self, reg: PacketBatch, queue: FifoQueue, sender=None,
                 crs: Optional[PacketBatch] = None):
        rows, keep, self.refs_injected, self.arrivals, self.drops = _hop(
            _regular_stream(reg), crs, queue, sender)
        *cols, refs = _through(rows, keep)
        for col in cols:
            col.flags.writeable = False
        self.stream = (*cols, tuple(refs))
        self.queue = queue
        self.sender = sender

    def commit(self, sender) -> None:
        """Leave *sender*, built like this value's sender and not yet run,
        in the state the first hop left that sender."""
        done = self.sender
        sender.fast_scan_commit(*done.fast_scan_state(), done.regulars_seen,
                                done.refs_injected)


class SwitchChain:
    """Drive one run of the N-hop environment.

    ``cross_per_hop`` maps hop index → sorted ``(arrival, packet)`` cross
    arrivals for that hop (missing hops get none).  On the columnar path,
    ``cross_per_hop`` values are :class:`~repro.traffic.batch.PacketBatch`
    columns instead (``ts`` is the hop arrival time — the output of a
    cross model's ``arrivals_batch``).
    """

    def __init__(self, config: ChainConfig):
        self.config = config

    def run(
        self,
        regular: Iterable[Packet],
        cross_per_hop: Optional[Dict[int, Iterable[Tuple[float, Packet]]]] = None,
        sender=None,
        receiver=None,
        duration: Optional[float] = None,
    ) -> ChainResult:
        """Run the chain on per-object packets: the reference path.

        Experiments enter through :meth:`run_batch`, which lands here only
        when its blocker names a reason the columnar scans cannot apply.
        Each packet's ``tap_time`` is set where it passed the sender's
        interface, which defines the measured segment's entry point.
        ``duration`` is the trace span used for utilization accounting;
        it is inferred from the last departure if omitted.
        """
        cfg = self.config
        cross_per_hop = cross_per_hop or {}
        _check_hops(cross_per_hop, cfg.n_hops)
        queues = [cfg.queue(hop) for hop in range(cfg.n_hops)]
        result = ChainResult(queues, duration or 0.0)

        def regular_stream():
            for packet in regular:
                result.regular_in += 1
                yield packet.ts, packet

        stream: Iterable[Tuple[float, Packet]] = regular_stream()
        for hop, queue in enumerate(queues):
            stream = _hop_objects(stream, cross_per_hop.get(hop, ()), queue,
                                  result, hop == 0, sender)

        for arrival, packet in stream:
            if packet.is_regular:
                result.regular_out += 1
            if receiver is not None:
                receiver.observe(packet, arrival)
        if duration is None:
            result.duration = max(q.stats.last_departure for q in queues)
        return result

    # ------------------------------------------------------------------
    # columnar fast path

    def run_batch(
        self,
        regular,
        cross_per_hop=None,
        sender=None,
        receiver=None,
        duration: Optional[float] = None,
        first_hop: Optional[Callable[[], FirstHop]] = None,
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

        The fast path needs plain tail-drop :class:`FifoQueue` hops, a
        batch-capable sender (or none) and receiver (or none); anything
        else falls back to :meth:`run` with identical numbers, and
        ``_fast_path_blocker``'s reason is counted under
        ``batch.fallback``.

        ``first_hop`` lets runs with no cross traffic at hop 0 share their
        first hop: a zero-argument callable returning the
        :class:`FirstHop` that :meth:`first_hop` computes for *regular* and
        a fresh sender built like *sender* (a caller's memo).  It is
        called only once the blocker admits the columnar path, so a run
        that falls back never reads nor builds it; the run then scans the
        later hops alone and leaves *sender* in the state the first hop
        left the memo's sender.
        """
        return _run_columnar(self, "chain.run_batch", regular, cross_per_hop,
                             sender, receiver, duration, first_hop)

    def first_hop(self, regular, sender=None) -> FirstHop:
        """Run the first hop alone on the columnar path, with no cross
        traffic (see :class:`FirstHop`).

        For a caller that shares one first hop among runs through
        :meth:`run_batch`'s ``first_hop``; *regular* and *sender* must be
        ones that :meth:`run_batch`'s blocker admits.
        """
        return FirstHop(PacketBatch.coerce(regular), self.config.queue(0), sender)

    def _fast_path_blocker(self, queues, sender, receiver, reg: PacketBatch,
                           cross: Dict[int, PacketBatch]) -> Optional[str]:
        """Why the run can't be driven columnar — ``None`` when it can.

        The reason string feeds the ``batch.fallback`` counter and the
        ``--verbose`` once-per-sweep note, so a user can tell a nominal
        fast-path run was actually falling back and why.
        """
        if any(type(queue) is not FifoQueue for queue in queues):
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
        # the fast path hard-codes kinds: regular stream all REGULAR
        # (references are injected, not replayed), cross streams all CROSS
        # (anything else would reach the receiver)
        if len(reg) and not np.all(reg.kind == _REGULAR):
            return "mixed-regular-kinds"
        for crs in cross.values():
            if len(crs) and not np.all(crs.kind == _CROSS):
                return "mixed-cross-kinds"
        return None


def _check_hops(cross_per_hop, n_hops: int) -> None:
    unknown = set(cross_per_hop) - set(range(n_hops))
    if unknown:
        raise ValueError(f"cross traffic for nonexistent hops: {sorted(unknown)}")


def _hop_objects(stream, cross, queue, result: ChainResult, first: bool,
                 sender) -> List[Tuple[float, Packet]]:
    """Offer one hop's merged arrivals; the surviving through-stream.

    Counts the hop's arrivals and drops per kind into *result* (the last
    hop's counts stay).  The *first* hop is the sender's interface.
    """
    arrivals = result.arrivals = dict.fromkeys(PacketKind, 0)
    drops = result.drops = dict.fromkeys(PacketKind, 0)
    out: List[Tuple[float, Packet]] = []
    for arrival, packet in heapq.merge(stream, cross, key=lambda item: item[0]):
        arrivals[packet.kind] += 1
        departure = queue.offer(packet, arrival)
        if departure is None:
            drops[packet.kind] += 1
            continue
        if packet.kind == PacketKind.CROSS:
            continue  # hop-local cross exits after its hop
        if first:
            packet.tap_time = arrival
        out.append((departure, packet))
        if not first or sender is None or not packet.is_regular:
            continue
        for ref in sender.on_regular(packet, arrival) or ():
            result.refs_injected += 1
            arrivals[ref.kind] += 1
            ref_departure = queue.offer(ref, arrival)
            if ref_departure is None:
                drops[ref.kind] += 1
            else:
                out.append((ref_departure, ref))
    if first and sender is not None:
        out.sort(key=lambda item: item[0])  # refs interleave with regulars
    return out


def _run_columnar(chain: SwitchChain, site: str, regular, cross_per_hop,
                  sender, receiver, duration: Optional[float],
                  first_hop: Optional[Callable[[], FirstHop]]) -> ChainResult:
    """:meth:`SwitchChain.run_batch`, counted under *site*.

    Every line-topology driver's ``run_batch`` runs this, each under its
    own name, so the ``batch.fastpath``/``batch.fallback`` counts name
    the driver a run entered through.
    """
    cfg = chain.config
    reg = PacketBatch.coerce(regular)
    cross: Dict[int, PacketBatch] = {}
    for hop, crs in (cross_per_hop or {}).items():
        empty = crs is None or (isinstance(crs, (list, tuple)) and not crs)
        cross[hop] = PacketBatch.empty() if empty else PacketBatch.coerce(crs)
    _check_hops(cross, cfg.n_hops)
    queues = [cfg.queue(hop) for hop in range(cfg.n_hops)]
    blocker = chain._fast_path_blocker(queues, sender, receiver, reg, cross)
    if blocker is not None:
        obs_metrics.fallback(site, blocker)
        cross_pairs = {hop: [(p.ts, p) for p in batch.to_packets()]
                       for hop, batch in cross.items()}
        return SwitchChain.run(chain, reg.to_packets(), cross_pairs, sender=sender,
                               receiver=receiver, duration=duration)
    obs_metrics.taken(site)

    if first_hop is None:
        first = FirstHop(reg, queues[0], sender, cross.get(0))
    else:
        if len(cross.get(0, ())):
            raise ValueError("a shared first hop takes no cross traffic")
        first = first_hop()
        if sender is not None:
            first.commit(sender)
        queues[0] = first.queue
    result = ChainResult(queues, duration or 0.0)
    result.regular_in = len(reg)
    result.refs_injected = first.refs_injected
    rows, keep, arrivals, drops = first.stream, None, first.arrivals, first.drops
    for hop in range(1, cfg.n_hops):
        rows, keep, _, arrivals, drops = _hop(_through(rows, keep), cross.get(hop),
                                              queues[hop])
    result.arrivals = {kind: int(arrivals[kind]) for kind in PacketKind}
    result.drops = {kind: int(drops[kind]) for kind in PacketKind}
    result.regular_out = int(arrivals[_REGULAR] - drops[_REGULAR])
    if receiver is not None:
        time_s, _, kind_s, hidx_s, refslot_s, ref_objs = _through(rows, keep)
        refs = [ref_objs[s] for s in refslot_s[refslot_s >= 0].tolist()]
        receiver.observe_batch(time_s, kind_s, reg, hidx_s, None, refs)
    if duration is None:
        result.duration = max(q.stats.last_departure for q in queues)
    return result


# ----------------------------------------------------------------------
# columnar hops.  A stream is ``(time, size, kind, hidx, refslot,
# ref_objs)``: parallel time-sorted arrays (``hidx`` indexes the regular
# batch, -1 elsewhere; ``refslot`` indexes ``ref_objs``, -1 elsewhere) plus
# the reference Packet objects it carries.


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


def _hop(stream: tuple, crs: Optional[PacketBatch], queue: FifoQueue,
         sender=None) -> Tuple[tuple, np.ndarray, int, np.ndarray, np.ndarray]:
    """One columnar hop: merge with the hop's cross traffic and scan.

    Returns the hop's output rows (a stream whose ``time`` is the
    departure), the mask of the rows that go on (:func:`_through`; cross
    rows leave after their hop), the number of references *sender* built,
    and the hop's arrivals and drops per kind.

    With a sender the hop runs the shared tapped scan — the regular rows
    in class 0, every other row untapped — and commits the sender's
    state at once; without one it is a plain ``offer_batch`` pass.
    Queue state and statistics end bitwise-identical to per-packet
    offers.  References are never written: a shared first hop's stay as
    they are.
    """
    *cols, ref_objs = stream
    time_m, size_m, kind_m, hidx_m, refslot_m = _merge_with_cross(*cols, crs)
    arrivals = np.bincount(kind_m, minlength=_KINDS)
    if sender is None:
        departures, accepted = queue.offer_batch(time_m, size_m)
        drops = np.bincount(kind_m[~accepted], minlength=_KINDS)
        return ((departures, size_m, kind_m, hidx_m, refslot_m, ref_objs),
                accepted & (kind_m != _CROSS), 0, arrivals, drops)
    scan = tapped_scan(queue, time_m, size_m,
                       np.where(kind_m == _REGULAR, 0, -2), sender)
    sender.fast_scan_commit(*scan.state)
    kind_a, hidx_a, refslot_a = scan.columns(kind_m, hidx_m, refslot_m,
                                             len(ref_objs))
    arrivals[_REFERENCE] += scan.refs_built
    drops = arrivals - np.bincount(kind_a, minlength=_KINDS)
    return ((scan.departures, scan.sizes, kind_a, hidx_a, refslot_a,
             ref_objs + scan.refs), kind_a != _CROSS, scan.refs_built,
            arrivals, drops)


def _through(rows: tuple, keep: Optional[np.ndarray]) -> tuple:
    """The stream of a hop's output *rows* that go on to the next hop or
    the receiver: those *keep* marks (all of them for ``None``).  Built
    only where read, so a last hop no receiver reads is never sliced."""
    if keep is None:
        return rows
    *cols, ref_objs = rows
    return (*(col[keep] for col in cols), ref_objs)
