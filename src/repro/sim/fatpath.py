"""Layered columnar execution of instrumented fat-tree runs.

The event engine (:mod:`repro.sim.engine`) drives a fat-tree one packet
arrival at a time: heap pop, tap fan-out, LPM + ECMP route, analytic queue
offer, heap push.  At the 10^5–10^6 packets of the mesh and localization
studies the heap and the per-packet Python dispatch dominate the runtime,
exactly as the per-object two-switch pipeline did before PR 3's columnar
fast path.

A three-tier fat-tree is *feed-forward*: every packet's queue sequence is

    edge uplink  →  agg up-port  →  core down-port  →  agg down-port

(truncated for intra-pod / intra-ToR traffic), and each queue's state
depends only on its own arrival stream.  :class:`FatTreeFastPath` exploits
this to replace the event calendar with one pass per *layer*: routing
choices are recomputed vectorized (the switches' own
:meth:`~repro.sim.ecmp.EcmpHasher.choose_batch`), each queue is driven by
the exact running-``free_at`` scan of
:meth:`~repro.sim.queue.FifoQueue.offer_batch` (sender-tapped ports run
the shared :func:`~repro.sim.queue.tapped_scan`, with each row's path
class recomputed vectorized from the wiring's classify spec), and
each receiver consumes its complete merged observation stream through
:meth:`~repro.core.receiver.RliReceiver.observe_batch` — **bitwise
identical** to the engine, with the same float-op order at every step.

Event-order fidelity
--------------------
The engine processes events in ``(time, insertion seq)`` order.  Within one
queue's output, departure order *is* insertion order, so per-stream order is
free; order between streams only matters where streams contend — a shared
queue, or a shared receiver.  The driver therefore merges streams exactly at
contention points, by arrival time — and recovers the engine's
insertion-sequence tie-break *exactly* from event provenance: a scheduled
event's seq order equals its parent event's processing order, so recursing
down the ancestry, engine order is lexicographic on the reversed chain of
ancestor event times, bottoming out at trace-injection order (initial
events, scheduled before the run starts, precede every scheduled event —
their missing ancestors are ``-inf``).  A three-tier fat-tree path touches
at most five switches, so four ancestor levels plus the injection index
make the merge key ``(time, t⁻¹, t⁻², t⁻³, t⁻⁴, origin)`` a *total* order
identical to the calendar's — no tie can force a fallback (see
:func:`_merged_order`).  The compute phase is side-effect-free — queues are
scanned as fresh clones, sender state advances in locals, and reference
packets are built without touching the sender — so a pre-flight fallback
leaves every simulation object exactly as wired.

What the fast path does not reproduce (by design, same as the pipeline's):
per-``Packet`` bookkeeping for regular traffic (``path``,
``tap_time`` on the objects — ground-truth taps ride a column instead),
``Switch.local_sink`` contents, and the engine's ``delivered`` /
``processed_events`` counters.  Everything a study reads — receiver tables
and counters, observation logs, queue statistics — is bit-exact, which
``tests/test_batch_equivalence_multihop.py`` asserts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..net.packet import Packet, PacketKind
from ..obs import metrics as obs_metrics
from ..traffic.batch import PacketBatch
from .clock import DriftingClock, OffsetClock, PerfectClock
from .queue import FifoQueue, tapped_scan
from .topology import FatTree

__all__ = ["FastPathUnavailable", "FatTreeFastPath", "spec_classifier",
           "try_fast_path"]

_REGULAR = int(PacketKind.REGULAR)

#: Classify-spec kinds whose references the layers route: a ``hash``
#: sender sits on a ToR uplink and its references climb to a core, a
#: ``tor_map`` sender on a core egress and its references descend to a ToR.
_ROUTED_SPECS = ("hash", "tor_map")


class FastPathUnavailable(Exception):
    """The layered columnar pass cannot reproduce this run bit-exactly.

    Raised during pre-flight — a receiver at an aggregation switch, a
    sender classify spec with no layered route, a non-batchable component
    (exotic queue or observation log, custom policy, jittered clock),
    prior queue state, or a trace outside the fabric's host blocks.  The
    compute phase mutates nothing, so catching this and re-running on the
    event engine is always safe.

    ``reason`` is a short stable slug for the ``batch.fallback`` counter
    (the human-readable detail stays in the exception message).
    """

    def __init__(self, message: str, reason: str = "unavailable") -> None:
        super().__init__(message)
        self.reason = reason


def try_fast_path(fattree: FatTree, sender_taps: Dict, receiver_taps: Dict,
                  traces: Sequence, until: Optional[float] = None) -> bool:
    """Attempt one layered columnar run of *traces*; ``True`` on success.

    The fat-tree deployments' one dispatch
    (:meth:`repro.core.rlir.FatTreeDeployment.run`, shared by RLIR, the
    mesh and full RLI): refuses a truncated run (``until`` needs the
    calendar), reads every trace's columns, and treats
    :class:`FastPathUnavailable` as a clean miss — the compute phase
    mutates nothing, so the caller simply proceeds with the event engine
    against untouched simulation objects.
    """
    if until is not None:
        obs_metrics.fallback("fatpath", "until-unsupported")
        return False
    batches = [PacketBatch.coerce(t) for t in traces]
    try:
        FatTreeFastPath(fattree, sender_taps, receiver_taps).run(batches)
    except FastPathUnavailable as exc:
        obs_metrics.fallback("fatpath", exc.reason)
        return False
    obs_metrics.taken("fatpath")
    return True


def _clock_is_pure(clock) -> bool:
    """True when ``clock.now`` is a pure function of its argument."""
    if type(clock) in (PerfectClock, OffsetClock):
        return True
    return type(clock) is DriftingClock and clock.jitter_std == 0.0


def _clone_queue(queue: FifoQueue) -> FifoQueue:
    """A fresh scan target with *queue*'s physical parameters."""
    clone = FifoQueue(8.0, queue.buffer_bytes, queue.proc_delay, queue.name)
    clone.rate_Bps = queue.rate_Bps  # honors set_rate() exactly
    return clone


#: Ancestor event-time levels carried per packet.  A three-tier fat-tree
#: path visits at most five switches (edge → agg → core → agg → edge), so
#: an event has at most four ancestors — depth 4 makes the merge key exact
#: for every event the driver can produce.
_PROV_DEPTH = 4


def _merged_order(times: List[np.ndarray], provs: List[np.ndarray],
                  origins: List[np.ndarray]) -> np.ndarray:
    """Sort permutation merging per-stream events into exact engine order.

    The engine processes events in ``(time, insertion seq)`` order.
    Within one stream, time order *is* seq order (``lexsort`` is stable).
    Across streams, a coincident event time is resolved by seq — which the
    layered pass reconstructs from provenance: a scheduled event's seq
    order equals its *parent* event's processing order, so recursing down
    the ancestry, engine order is lexicographic on
    ``(time, t⁻¹, …, t⁻⁴, origin)`` where ``t⁻ᵏ`` is the k-th ancestor
    event's time (``-inf`` past the injection — initial events, scheduled
    before the run starts, hold the lowest seqs, which is exactly what
    ``-inf`` encodes at a coincident time) and ``origin`` is the
    trace-injection order, the seq order of the initial events themselves.
    Two distinct packets cannot share the whole key, so this is a total
    order — bit-identical to the calendar's, with no fallback case.

    Coincident times are rare, so one stable sort on ``time`` does most of
    the work, and only the runs of equal time are re-sorted by the rest of
    the key; both sorts are stable, so the permutation is the full
    ``lexsort``'s.
    """
    time = np.concatenate(times)
    order = np.argsort(time, kind="stable")
    t_s = time[order]
    tie = t_s[1:] == t_s[:-1]
    if tie.any():
        prov = np.concatenate(provs)
        origin = np.concatenate(origins)
        run = np.empty(len(order), dtype=np.int64)
        run[:1] = 0
        run[1:] = np.add.accumulate(~tie)
        in_tie = np.zeros(len(order), dtype=bool)
        in_tie[1:] = tie
        in_tie[:-1] |= tie
        pos = np.flatnonzero(in_tie)
        rows = order[pos]
        order[pos] = rows[np.lexsort((origin[rows],) + tuple(
            prov[rows, level] for level in range(_PROV_DEPTH - 1, -1, -1)
        ) + (run[pos],))]
    return order


def _merge_columns(parts, fields: Sequence[str]) -> list:
    """*fields* of *parts* (each with ``time``/``prov``/``origin``) merged
    into exact engine order (:func:`_merged_order`).

    Each output column is filled by scattering every part's rows straight
    to their merged positions, so no column exists twice (concatenated,
    then permuted) at once.
    """
    order = _merged_order([p.time for p in parts], [p.prov for p in parts],
                          [p.origin for p in parts])
    dest = np.empty(len(order), dtype=np.int64)
    dest[order] = np.arange(len(order))
    columns = []
    for name in fields:
        cols = [getattr(p, name) for p in parts]
        out = np.empty((len(order),) + cols[0].shape[1:],
                       dtype=np.result_type(*cols))
        start = 0
        for col in cols:
            out[dest[start:start + len(col)]] = col
            start += len(col)
        columns.append(out)
    return columns


def _next_hop_prov(arrived: np.ndarray, prov: np.ndarray,
                   rows: np.ndarray) -> np.ndarray:
    """Ancestry one hop on for input *rows*: the next hop's parent event is
    this packet's arrival here, so it is prepended and the oldest level
    drops off, built in place (no gathered copy to stack)."""
    out = np.empty((len(rows), _PROV_DEPTH))
    out[:, 0] = arrived[rows]
    for level in range(1, _PROV_DEPTH):
        out[:, level] = prov[rows, level - 1]
    return out


class _Stream:
    """Packets arriving somewhere, as parallel time-sorted arrays.

    ``hidx`` indexes the global header batch (-1 on reference rows);
    ``refslot`` indexes the driver's reference list (-1 on regular rows);
    ``prov`` is the ``(n, _PROV_DEPTH)`` ancestor-event-time matrix —
    column k holds the packet's arrival time k+1 switches ago, ``-inf``
    past its injection — and ``origin`` the trace-injection order (a
    reference inherits its trigger's), which together recover the engine's
    exact tie-break order (see :func:`_merged_order`).
    """

    __slots__ = ("time", "size", "kind", "hidx", "refslot", "prov", "origin")

    def __init__(self, time, size, kind, hidx, refslot, prov, origin):
        self.time = time
        self.size = size
        self.kind = kind
        self.hidx = hidx
        self.refslot = refslot
        self.prov = prov
        self.origin = origin

    @classmethod
    def regular(cls, time, size, hidx) -> "_Stream":
        """An initial-injection stream: no ancestors, origin = heap order."""
        n = len(time)
        return cls(time, size, np.full(n, _REGULAR, dtype=np.int64), hidx,
                   np.full(n, -1, dtype=np.int64),
                   np.full((n, _PROV_DEPTH), -np.inf), hidx)

    def __len__(self) -> int:
        return len(self.time)

    def take(self, rows) -> "_Stream":
        return _Stream(self.time[rows], self.size[rows], self.kind[rows],
                       self.hidx[rows], self.refslot[rows], self.prov[rows],
                       self.origin[rows])

    @staticmethod
    def merge(streams: List["_Stream"]) -> "_Stream":
        streams = [s for s in streams if len(s)]
        if not streams:
            zi = np.empty(0, dtype=np.int64)
            return _Stream(np.empty(0), zi, zi, zi, zi,
                           np.empty((0, _PROV_DEPTH)), zi)
        if len(streams) == 1:
            return streams[0]
        return _Stream(*_merge_columns(streams, _Stream.__slots__))


class _Segment(NamedTuple):
    """A receiver's arrivals from one stream: the columns its merge and
    ``observe_batch`` read, with the ground-truth tap stamps as they stood
    when the segment formed."""

    time: np.ndarray
    kind: np.ndarray
    hidx: np.ndarray
    refslot: np.ndarray
    prov: np.ndarray
    origin: np.ndarray
    taps: np.ndarray


class FatTreeFastPath:
    """One-shot layered columnar run of an instrumented fat-tree.

    Parameters
    ----------
    fattree:
        The fabric.  Queues must be untouched (fresh or reset) — the scan
        clones continue from zero backlog, exactly like a fresh run.
    sender_taps:
        ``(switch, port_index) -> (sender, classify_spec)`` for every
        enqueue-tapped port.  ``classify_spec`` is the one representation
        of the sender's path classifier: the engine runs its scalar form
        (:func:`spec_classifier`), this driver its vectorized form
        (:meth:`_classes`).  Three forms:

        * ``("hash", hasher, n)`` — path class = ``hasher.choose`` of the
          packet 5-tuple over *n* ports (the ToR uplink senders: the
          aggregation switch's core choice);
        * ``("tor_map", ((pod, edge, class), ...))`` — first ToR /24
          prefix containing ``dst`` wins, no match = no class (the core
          egress senders);
        * ``None`` — every packet in class 0 (the sender's single-class
          default).  Pre-flight refuses it: such a sender's references
          follow no route the layers model.
    receiver_taps:
        ``switch -> receiver`` for every arrival-tapped switch.  Only
        cores and edges are snapshot; a receiver at an aggregation switch
        is refused in pre-flight.
    """

    def __init__(self, fattree: FatTree, sender_taps: Dict, receiver_taps: Dict):
        self.ft = fattree
        self.sender_taps = {
            (switch.node_id, port): tap
            for (switch, port), tap in sender_taps.items()
        }
        self.receiver_taps = {
            switch.node_id: rx for switch, rx in receiver_taps.items()
        }
        self._ref_objs: List[Packet] = []
        self._ref_rj: List[int] = []  # ToR refs: the agg's core choice
        self._ref_re: List[int] = []  # core refs: destination edge index
        self._commits: List[Tuple[object, tuple]] = []  # (sender, state)
        self._clones: List[Tuple[FifoQueue, FifoQueue]] = []

    # ------------------------------------------------------------------
    # pre-flight

    def _check(self) -> None:
        at_agg = self.receiver_taps.keys() & {
            agg.node_id for pod in self.ft.aggs for agg in pod}
        if at_agg:
            raise FastPathUnavailable(
                f"receivers at aggregation switches {sorted(at_agg)}: the "
                f"layers never snapshot aggregation arrivals",
                reason="receiver-at-aggregation")
        for tx, spec in self.sender_taps.values():
            kind = None if spec is None else spec[0]
            if kind not in _ROUTED_SPECS:
                raise FastPathUnavailable(
                    f"sender {tx.sender_id}: classify spec {kind!r} has no "
                    f"layered reference route",
                    reason="unknown-classify-spec")
        for rx in self.receiver_taps.values():
            if rx._finalized:
                raise FastPathUnavailable(
                    f"receiver {rx!r} already finalized",
                    reason="receiver-finalized")
            if not rx.batch_capable:
                raise FastPathUnavailable(
                    f"receiver {rx!r} is not batch-capable (demux or "
                    f"observation-log representation)",
                    reason="receiver-not-batch-capable")
        for tx, _spec in self.sender_taps.values():
            if not tx.policy_pure:
                raise FastPathUnavailable(
                    f"sender {tx.sender_id}: custom injection policy",
                    reason="custom-policy")
            if not _clock_is_pure(tx.clock):
                raise FastPathUnavailable(
                    f"sender {tx.sender_id}: stateful (jittered) clock",
                    reason="stateful-clock")

    def _queue(self, switch, port_index: int) -> Tuple[FifoQueue, float]:
        """A fresh scan clone (and prop delay) for one egress port."""
        port = switch.ports[port_index]
        q = port.queue
        if type(q) is not FifoQueue:
            raise FastPathUnavailable(
                f"{q!r} is not a plain tail-drop FifoQueue",
                reason="custom-queue")
        if q._free_at != 0.0 or q.stats.arrivals:
            raise FastPathUnavailable(f"{q!r} carries prior traffic",
                                      reason="queue-prior-traffic")
        clone = _clone_queue(q)
        self._clones.append((q, clone))
        return clone, port.prop_delay

    # ------------------------------------------------------------------

    def run(self, batches: Sequence[PacketBatch]) -> None:
        """Execute the run; commits results only if the whole pass succeeds.

        Raises :class:`FastPathUnavailable` (mutating nothing) when
        pre-flight finds a non-batchable component or an out-of-model
        trace; the caller then re-runs on the event engine.
        """
        self._check()
        # ---- global header batch in the engine's initial heap order ----
        gb = PacketBatch.concat(batches)
        if len(gb):
            gb = gb.take(np.argsort(gb.ts, kind="stable"))
        if len(gb) and not np.all(gb.kind == _REGULAR):
            raise FastPathUnavailable("trace contains non-regular packets",
                                      reason="mixed-regular-kinds")
        rx_segments = self._layers(gb)

        # ---- everything computed and tie-free: commit ----
        for real, clone in self._clones:
            real._free_at = clone._free_at
            real.stats = clone.stats
        for sender, state in self._commits:
            sender.fast_scan_commit(*state)
        # each receiver merges its segments into engine arrival order and
        # observes, then lets them go: the merge is a total order with no
        # failure case, so nothing after the first commit can refuse
        for node_id in sorted(rx_segments):
            segments = [s for s in rx_segments.pop(node_id) if len(s.time)]
            if not segments:
                continue
            seg = (segments[0] if len(segments) == 1
                   else _Segment(*_merge_columns(segments, _Segment._fields)))
            del segments
            refs = [self._ref_objs[s]
                    for s in seg.refslot[seg.refslot >= 0].tolist()]
            self.receiver_taps[node_id].observe_batch(
                seg.time, seg.kind, gb, seg.hidx, seg.taps, refs)
            del seg, refs

    def _layers(self, gb: PacketBatch) -> Dict[int, List[_Segment]]:
        """The compute phase: every queue scanned layer by layer; returns
        each receiver's arrival segments in formation order.  Mutates
        nothing but the driver's own lists, and raises
        :class:`FastPathUnavailable` for a trace or queue out of model.

        Each layer's streams are popped as the next layer reads them, so
        about one layer is live at a time besides the receivers' segments.
        Destination-edge outputs are kept only where a receiver snapshots
        them.
        """
        ft = self.ft
        k = ft.k
        half = k // 2
        src = gb.src
        dst = gb.dst
        spod = (src >> 16) & 0xFF
        sedge = (src >> 8) & 0xFF
        dpod = (dst >> 16) & 0xFF
        dedge = (dst >> 8) & 0xFF
        ok = (
            ((src >> 24) == 10) & ((dst >> 24) == 10)
            & (spod < k) & (sedge < half) & (dpod < k) & (dedge < half)
        )
        if not np.all(ok):
            raise FastPathUnavailable("trace packets outside the host blocks",
                                      reason="trace-outside-fabric")

        cols = (gb.src, gb.dst, gb.sport, gb.dport, gb.proto)
        local = (spod == dpod) & (sedge == dedge)  # intra-ToR: no queue
        n = len(gb)
        # routing recomputation, vectorized with the switches' own hashes:
        # a = the source edge's uplink (ECMP over half aggs), j = the agg's
        # core choice — also the ToR senders' path class
        a_choice = np.zeros(n, dtype=np.int64)
        j_choice = np.zeros(n, dtype=np.int64)
        rows_by_edge: Dict[Tuple[int, int], np.ndarray] = {}
        for p in range(k):
            for e in range(half):
                rows = np.flatnonzero((spod == p) & (sedge == e))
                if not len(rows):
                    continue
                rows_by_edge[(p, e)] = rows
                up = rows[~local[rows]]
                if len(up):
                    a_choice[up] = ft.edges[p][e].hasher.choose_batch(
                        *(c[up] for c in cols), half)
        for p in range(k):
            for a in range(half):
                rows = np.flatnonzero((spod == p) & ~local & (a_choice == a))
                if len(rows):
                    j_choice[rows] = ft.aggs[p][a].hasher.choose_batch(
                        *(c[rows] for c in cols), half)
        del spod, sedge

        # ground-truth tap column (the object path's packet.tap_time);
        # snapshots are taken as each receiver segment forms, so a segment
        # sees exactly the stamps that preceded it
        tap_col = np.full(n, np.nan)
        rx_segments: Dict[int, List[_Segment]] = {
            node: [] for node in self.receiver_taps
        }

        def snapshot(node_id: int, stream: _Stream, taps=None) -> None:
            if taps is None:
                taps = np.where(stream.hidx >= 0,
                                tap_col[np.maximum(stream.hidx, 0)], np.nan)
            rx_segments[node_id].append(_Segment(
                stream.time, stream.kind, stream.hidx, stream.refslot,
                stream.prov, stream.origin, taps))

        # ---- layer 1: edge switches (origination + uplink queues) ----
        edge_up_out: Dict[Tuple[int, int, int], _Stream] = {}
        for (p, e) in sorted(rows_by_edge):
            rows = rows_by_edge.pop((p, e))
            edge = ft.edges[p][e]
            if edge.node_id in rx_segments:
                # arrival taps fire for locally-originating packets too,
                # before any tap could stamp them: all-NaN tap snapshot
                l0 = _Stream.regular(gb.ts[rows], gb.size[rows], rows)
                snapshot(edge.node_id, l0, np.full(len(l0), np.nan))
            up_rows = ~local[rows]
            for a in range(half):
                sub = rows[up_rows & (a_choice[rows] == a)]
                if not len(sub):
                    continue
                port_index = ft.port_toward(edge, ft.aggs[p][a])
                stream = _Stream.regular(gb.ts[sub], gb.size[sub], sub)
                edge_up_out[(p, e, a)] = self._drive_queue(
                    edge, port_index, stream, cols, tap_col)
        del local, a_choice

        # ---- layer 2: aggregation up-ports (toward the cores) ----
        core_in: Dict[Tuple[int, int, int], List[_Stream]] = {}
        down_in: Dict[Tuple[int, int, int], List[_Stream]] = {}
        for (p, e, a) in sorted(edge_up_out):
            stream = edge_up_out.pop((p, e, a))
            is_ref = stream.refslot >= 0
            inter = np.array(is_ref)  # refs (dst = a core) always climb
            reg = ~is_ref
            inter[reg] = dpod[stream.hidx[reg]] != p
            # intra-pod regulars turn down at the agg; their queue offers
            # contend with core down-traffic, so they join layer 4's merge
            intra = reg & ~inter
            if intra.any():
                ecol = np.where(intra, dedge[np.maximum(stream.hidx, 0)], -1)
                for e2 in np.unique(ecol[intra]).tolist():
                    down_in.setdefault((p, a, int(e2)), []).append(
                        stream.take(np.flatnonzero(ecol == e2)))
            if not inter.any():
                continue
            jcol = np.where(inter, self._route_col(stream, j_choice,
                                                   self._ref_rj), -1)
            for j in np.unique(jcol[inter]).tolist():
                j = int(j)
                core_in.setdefault((a, j, p), []).append(
                    stream.take(np.flatnonzero(jcol == j)))
        del j_choice

        agg_up_out: Dict[Tuple[int, int, int], _Stream] = {}
        for (i, j, p) in sorted(core_in):
            agg = ft.aggs[p][i]
            core = ft.cores[i][j]
            merged = _Stream.merge(core_in.pop((i, j, p)))
            agg_up_out[(i, j, p)] = self._drive_queue(
                agg, ft.port_toward(agg, core), merged, cols, tap_col)

        # ---- layer 3: cores (receivers + egress toward the dst pods) ----
        coredown_out: Dict[Tuple[int, int, int], _Stream] = {}
        for i in range(half):
            for j in range(half):
                core = ft.cores[i][j]
                pieces = [agg_up_out.pop((i, j, p)) for p in range(k)
                          if (i, j, p) in agg_up_out]
                if not pieces:
                    continue
                stream = _Stream.merge(pieces)
                del pieces
                if core.node_id in rx_segments:
                    snapshot(core.node_id, stream)
                # references terminate here; regulars route down by pod
                pods = np.where(stream.refslot < 0,
                                dpod[np.maximum(stream.hidx, 0)], -1)
                for p in np.unique(pods[pods >= 0]).tolist():
                    p = int(p)
                    piece = stream.take(np.flatnonzero(pods == p))
                    port_index = ft.port_toward(core, ft.aggs[p][i])
                    coredown_out[(i, j, p)] = self._drive_queue(
                        core, port_index, piece, cols, tap_col)

        # ---- layer 4: aggregation down-ports (toward the edges) ----
        for (i, j, p) in sorted(coredown_out):
            stream = coredown_out.pop((i, j, p))
            ecol = self._route_col(stream, dedge, self._ref_re)
            for e in np.unique(ecol).tolist():
                e = int(e)
                down_in.setdefault((p, i, e), []).append(
                    stream.take(np.flatnonzero(ecol == e)))
        for (p, i, e) in sorted(down_in):
            agg = ft.aggs[p][i]
            edge = ft.edges[p][e]
            merged = _Stream.merge(down_in.pop((p, i, e)))
            out = self._drive_queue(agg, ft.port_toward(agg, edge), merged,
                                    cols, tap_col)
            # ---- layer 5: destination edges (arrival taps only) ----
            # an arrival's stamps are final once it leaves its last queue,
            # so the snapshot sees what it would after the whole layer
            if edge.node_id in rx_segments:
                snapshot(edge.node_id, out)
        return rx_segments

    def _route_col(self, stream: _Stream, table: np.ndarray,
                   ref_table: List[int]) -> np.ndarray:
        """Per-row routing value: *table[hidx]* for regulars, the stored
        per-reference value for reference rows."""
        out = np.where(stream.hidx >= 0,
                       table[np.maximum(stream.hidx, 0)], -1)
        ref_rows = np.flatnonzero(stream.refslot >= 0)
        if len(ref_rows):
            refs = np.asarray(ref_table, dtype=np.int64)
            out[ref_rows] = refs[stream.refslot[ref_rows]]
        return out

    # ------------------------------------------------------------------
    # queue scans

    def _drive_queue(self, switch, port_index: int, stream: _Stream,
                     cols, tap_col) -> _Stream:
        """Offer *stream* to one egress queue; return the next-hop arrivals.

        A port with an RLI sender tap runs the shared tapped scan, its
        class column from the tap's classify spec; any other port runs
        the plain clone scan.  Output times are ``departure +
        prop_delay`` — the same float op the engine's
        ``schedule_arrival(departure + port.prop_delay, …)`` applies.
        """
        tap = self.sender_taps.get((switch.node_id, port_index))
        clone, prop = self._queue(switch, port_index)
        if tap is None:
            departures, accepted = clone.offer_batch(stream.time, stream.size)
            rows = np.flatnonzero(accepted)
            return _Stream(departures[accepted] + prop, stream.size[rows],
                           stream.kind[rows], stream.hidx[rows],
                           stream.refslot[rows],
                           _next_hop_prov(stream.time, stream.prov, rows),
                           stream.origin[rows])
        sender, spec = tap
        scan = tapped_scan(clone, stream.time, stream.size,
                           self._classes(spec, stream.hidx, cols), sender)
        self._commits.append((sender, scan.state))
        # enqueue taps fire on acceptance: the ground-truth stamp
        tapped = scan.rows[~scan.is_ref]
        tap_col[stream.hidx[tapped]] = stream.time[tapped]
        slot0 = len(self._ref_objs)
        self._ref_objs.extend(scan.refs)
        for ref in scan.refs:
            if spec[0] == "hash":
                # the ref climbs at the agg by its own 5-tuple hash (the
                # template's crafted dport steers it to the class's core)
                self._ref_rj.append(spec[1].choose(ref.flow_key, spec[2]))
                self._ref_re.append(-1)
            else:
                self._ref_rj.append(-1)
                self._ref_re.append((ref.dst >> 8) & 0xFF)
        kind, hidx, refslot = scan.columns(stream.kind, stream.hidx,
                                           stream.refslot, slot0)
        # a reference shares its trigger's arrival event (it was built
        # then: ref.ts), so its ancestry and origin are the trigger row's
        return _Stream(scan.departures + prop, scan.sizes, kind, hidx,
                       refslot,
                       _next_hop_prov(stream.time, stream.prov, scan.rows),
                       stream.origin[scan.rows])

    def _classes(self, spec, rows: np.ndarray, cols) -> np.ndarray:
        """Vectorized path classes for *rows* under a classify spec (-1 = None).

        Row for row the same classes as :func:`spec_classifier`'s scalar
        form, on any header values.
        """
        if spec is None:
            return np.zeros(len(rows), dtype=np.int64)
        if spec[0] == "hash":
            _tag, hasher, n_ports = spec
            return hasher.choose_batch(*(c[rows] for c in cols), n_ports)
        dst = cols[1][rows]
        out = np.full(len(rows), -1, dtype=np.int64)
        for pod, e, cls in reversed(spec[1]):  # first match wins
            prefix = self.ft.tor_prefix(pod, e)
            out[(dst & prefix.mask) == prefix.network] = cls
        return out


def spec_classifier(fattree: FatTree, spec
                    ) -> Optional[Callable[[Packet], Optional[int]]]:
    """The engine's per-packet form of a classify spec.

    ``None`` stays ``None`` — the sender's single-class default.  The
    vectorized form is :meth:`FatTreeFastPath._classes`.
    """
    if spec is None:
        return None
    if spec[0] == "hash":
        _tag, hasher, n_ports = spec
        return lambda packet: hasher.choose(packet.flow_key, n_ports)
    if spec[0] == "tor_map":
        prefixes = [(fattree.tor_prefix(pod, e), cls) for pod, e, cls in spec[1]]

        def classify(packet: Packet) -> Optional[int]:
            for prefix, cls in prefixes:
                if prefix.contains(packet.dst):
                    return cls
            return None

        return classify
    raise ValueError(f"unknown classify spec {spec[0]!r}")
