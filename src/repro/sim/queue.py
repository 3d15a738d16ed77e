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
from ..obs import metrics as obs_metrics

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


# The exact vectorized FIFO kernel's tuning constants (no caller sets them).
_FOLD_ROUNDS = 2         # refolds with corrected decisions before a re-split
_CHUNK_ROWS = 4096       # first vectorized chunk of a stretch; doubles per clean chunk
_RESUME_FRACTION = 0.8   # the near-full loop hands back at backlog <= this × threshold
_LOOP_ROWS = 256         # first block of rows the near-full loop converts; doubles


def _fold_periods(t: np.ndarray, svc: np.ndarray, free_at: float,
                  start: np.ndarray, heads: np.ndarray, lengths: np.ndarray,
                  out: np.ndarray) -> None:
    """Fold the busy periods opened at *heads* (*lengths* rows each) into
    *out*.

    A period is one left fold ``[t[s] + svc[s], svc[s+1], …]``; row 0,
    when ``start[0]`` is false, continues from *free_at* instead.  The
    periods are grouped by power-of-two length into one 2-D matrix per
    bucket, each row padded with the rows that follow its period (a
    prefix of a left fold ignores what comes after it), and folded by a
    row-wise ``np.add.accumulate``, which is sequential within each row:
    every value carries the bits of the scalar recurrence.  A bucket of
    width ``2**e`` holds periods longer than ``2**(e-1)``, so the
    matrices hold fewer than ``2n`` values in total.
    """
    n = len(t)
    first = t[heads] + svc[heads]
    if heads[0] == 0 and not start[0]:
        first[0] = free_at + svc[0]
    exps = np.frexp(lengths - 1)[1].astype(np.int8)  # 2**e >= length
    order = np.argsort(exps, kind="stable")
    bounds = np.searchsorted(exps[order], np.arange(exps.max() + 2))
    for e in range(len(bounds) - 1):
        sel = order[bounds[e]:bounds[e + 1]]
        if not len(sel):
            continue
        if e == 0:
            out[heads[sel]] = first[sel]
            continue
        idx = heads[sel][:, None] + np.arange(1 << e)
        np.minimum(idx, n - 1, out=idx)
        vals = svc[idx]
        vals[:, 0] = first[sel]
        np.add.accumulate(vals, axis=1, out=vals)
        valid = np.arange(1 << e) < lengths[sel][:, None]
        out[idx[valid]] = vals[valid]


def _max_plus(t: np.ndarray, svc: np.ndarray, free_at: float) -> np.ndarray:
    """Completion times from the max-plus closed form — a guess.

    In exact arithmetic ``fa[i] = S[i] + max(free_at, max_{s<=i} (t[s] -
    S[s-1]))`` with ``S = np.add.accumulate(svc)``; in floats the sum
    rounds differently from the recurrence, so this only guesses.
    """
    total = np.add.accumulate(svc)
    return total + np.maximum(np.maximum.accumulate(t - (total - svc)), free_at)


def _drops(t: np.ndarray, sizes: np.ndarray, free_at: float, fa: np.ndarray,
           rate_Bps: float, buffer_bytes: int) -> np.ndarray:
    """:meth:`FifoQueue.offer`'s tail-drop test per row, elementwise, on
    the completion times *fa* (``free_at`` before row 0)."""
    backlog = np.concatenate(([free_at], fa[:-1])) - t
    return np.where(backlog > 0.0, backlog * rate_Bps, 0.0) + sizes > buffer_bytes


def _heads(start: np.ndarray) -> np.ndarray:
    """First row of every busy period: the starts, and row 0 regardless."""
    heads = np.flatnonzero(start)
    return heads if start[0] else np.concatenate(([0], heads))


def _busy_periods(t: np.ndarray, svc: np.ndarray, free_at: float) -> np.ndarray:
    """Exact drop-free FIFO completion times: the one FIFO kernel.

    Returns ``fa`` with ``fa[i]`` bitwise equal to the scalar recurrence
    ``fa = (t[i] if t[i] > fa else fa) + svc[i]`` run from *free_at*
    (``t`` already carries the processing delay, ``svc = size / rate``).

    *Guess.*  Row *i* starts a busy period where ``t[i] >= fa[i-1]`` (a
    tie continues the period with the same result); the decisions are
    first taken on the max-plus closed form (:func:`_max_plus`).

    *Fold.*  :func:`_fold_periods` computes every period exactly under
    the guessed decisions.

    *Verify.*  Each decision is checked against the folded values:
    ``start[i] == (t[i] >= fa[i-1])``, with ``fa[-1] = free_at``.  If all
    hold, the result is the loop's, by induction from row 0: the loop's
    ``fa[-1]`` is *free_at*; if ``fa[0..i-1]`` are the loop's, row *i*'s
    decision was checked on the loop's ``fa[i-1]``, so it is the branch
    the loop takes, and the fold applies that branch's float op to the
    loop's operand, giving the loop's ``fa[i]``.

    *Repair.*  Otherwise the corrected decisions are adopted and only the
    periods holding a changed row are folded again (every other period
    is a prefix of one already folded); after ``_FOLD_ROUNDS`` repairs
    the rows before the first mismatch — exact by the same induction —
    are kept, and the rest is guessed afresh from the last of them.  Row
    0's decision is always exact, so every re-split makes progress.
    """
    n = len(t)
    out = np.empty(n)
    lo = 0
    while lo < n:
        t_r, svc_r, fa = t[lo:], svc[lo:], out[lo:]
        guess = _max_plus(t_r, svc_r, free_at)
        start = t_r >= np.concatenate(([free_at], guess[:-1]))
        heads = _heads(start)
        _fold_periods(t_r, svc_r, free_at, start, heads,
                      np.diff(heads, append=len(t_r)), fa)
        for repair in range(_FOLD_ROUNDS + 1):
            decided = t_r >= np.concatenate(([free_at], fa[:-1]))
            wrong = np.flatnonzero(decided != start)
            if not len(wrong):
                return out
            if repair == _FOLD_ROUNDS:
                break
            start = decided
            heads = _heads(start)
            lengths = np.diff(heads, append=len(t_r))
            # the periods holding a changed row (wrong is sorted)
            touched = np.searchsorted(heads, wrong, side="right") - 1
            touched = touched[np.concatenate(([True], touched[1:] != touched[:-1]))]
            _fold_periods(t_r, svc_r, free_at, start, heads[touched],
                          lengths[touched], fa)
        keep = int(wrong[0])  # >= 1: row 0's decision is exact
        free_at = float(fa[keep - 1])
        lo += keep
        obs_metrics.count("queue.scan.resplit")
    return out


def _near_full(t: np.ndarray, svc: np.ndarray, sizes: np.ndarray, pos: int,
               free_at: float, rate_Bps: float, buffer_bytes: int,
               threshold: float, dep: np.ndarray) -> Tuple[int, float]:
    """The exact per-row loop through a near-full stretch from row *pos*.

    Applies :meth:`FifoQueue.offer`'s float ops row by row, writing
    departures (``NaN`` for a drop) into *dep*, and stops before the
    first row whose backlog is at most ``_RESUME_FRACTION`` of the
    certified *threshold* — safely below it, so the vectorized kernel
    does not hand straight back.  Returns the next row and ``free_at``.
    Rows are converted in geometrically growing blocks, so a short
    stretch does not pay for converting the whole remainder.
    """
    n = len(t)
    resume = threshold * _RESUME_FRACTION  # -inf when nothing is certified
    nan = float("nan")
    block = _LOOP_ROWS
    while pos < n:
        end = min(n, pos + block)
        out: List[float] = []
        append = out.append
        for t_i, svc_i, size in zip(t[pos:end].tolist(), svc[pos:end].tolist(),
                                    sizes[pos:end].tolist()):
            backlog = free_at - t_i
            if backlog > threshold:
                # offer()'s drop test; max() resolved by the branch taken
                clamped = backlog * rate_Bps if backlog > 0.0 else 0.0
                if clamped + size > buffer_bytes:
                    append(nan)
                    continue
                free_at = (t_i if t_i > free_at else free_at) + svc_i
            elif backlog > resume:  # certified drop-free, and queued
                free_at = free_at + svc_i
            else:
                break
            append(free_at)
        dep[pos:pos + len(out)] = out
        pos += len(out)
        if pos < end:
            break
        block *= 2
    return pos, free_at


def _scan(t: np.ndarray, svc: np.ndarray, sizes: np.ndarray, free_at: float,
          rate_Bps: float, buffer_bytes: Optional[int]) -> Tuple[np.ndarray, float]:
    """Departures (``NaN`` where dropped) and the final ``free_at`` of one
    tail-drop FIFO scan, bitwise :meth:`FifoQueue.offer`'s.

    The vectorized kernel runs in chunks that double while no row drops.
    :meth:`FifoQueue.offer`'s exact drop test is evaluated elementwise on
    each chunk's verified completion times; the rows before the first
    drop are exact (nothing was dropped before them), and the exact loop
    (:func:`_near_full`) takes over from that row until the backlog is
    safely low again.  Without a buffer nothing drops: one kernel pass.
    """
    n = len(t)
    if buffer_bytes is None:
        dep = _busy_periods(t, svc, free_at)
        obs_metrics.count("queue.scan.rows", n, label="vector")
        return dep, float(dep[-1]) if n else free_at
    threshold = _drop_free_threshold(
        buffer_bytes, int(sizes.max()) if n else 0, rate_Bps)
    dep = np.empty(n)
    pos = 0
    exact = 0
    chunk = _CHUNK_ROWS
    while pos < n:
        end = min(n, pos + chunk)
        fa = _busy_periods(t[pos:end], svc[pos:end], free_at)
        drops = np.flatnonzero(_drops(t[pos:end], sizes[pos:end], free_at, fa,
                                      rate_Bps, buffer_bytes))
        keep = int(drops[0]) if len(drops) else end - pos
        dep[pos:pos + keep] = fa[:keep]
        if keep:
            free_at = float(fa[keep - 1])
        pos += keep
        if not len(drops):
            chunk *= 2
            continue
        stretch = pos
        pos, free_at = _near_full(t, svc, sizes, pos, free_at, rate_Bps,
                                  buffer_bytes, threshold, dep)
        exact += pos - stretch
        chunk = _CHUNK_ROWS
    obs_metrics.count("queue.scan.rows", n - exact, label="vector")
    obs_metrics.count("queue.scan.rows", exact, label="exact")
    return dep, free_at


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

        The scan (:func:`_scan`: the vectorized FIFO kernel, with the
        exact per-row loop through near-full stretches) yields *exactly*
        the per-packet float results of :meth:`offer` (``max(t, free_at) +
        size/rate`` with the identical tail-drop test) over a running
        ``free_at``, and folds the same statistics in the same order, so
        interleaving ``offer`` and ``offer_batch`` calls is
        bitwise-indistinguishable from offering every packet
        individually.  Only the per-``Packet`` ``dropped`` flag is absent
        — there are no objects.

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
        # elementwise, offer()'s `arrival + proc_delay` and `size / rate_Bps`
        departures, self._free_at = _scan(
            arrivals + self.proc_delay, sizes / self.rate_Bps, sizes,
            self._free_at, self.rate_Bps, self.buffer_bytes)
        accepted_mask = ~np.isnan(departures)
        dropped = n - int(np.count_nonzero(accepted_mask))
        bytes_in = int(sizes.sum()) if n else 0  # reprolint: disable=BATCH003 -- int64 byte counter; integer addition is exact in any order
        bytes_drop = int(sizes[~accepted_mask].sum()) if dropped else 0  # reprolint: disable=BATCH003 -- int64 byte counter; integer addition is exact in any order
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


def _class_slots(classes: np.ndarray, keys: List[int]) -> np.ndarray:
    """Raw path classes mapped onto counter slots: ``-2`` untapped, ``-1``
    tapped with no counter, else the index of the class in *keys*."""
    slots = np.where(classes == -2, -2, -1)
    for slot, key in enumerate(keys):
        slots[classes == key] = slot
    return slots


def _sender_triggers(times: np.ndarray, sizes: np.ndarray, slots: np.ndarray,
                     keys: List[int], sender, state: tuple
                     ) -> Tuple[np.ndarray, tuple]:
    """:meth:`~repro.core.sender.RliSender.on_regular`'s algebra over every
    tapped row, all of them accepted: the trigger rows (ascending) and
    the ``fast_scan_commit`` state advanced from *state* (the sender's
    ``fast_scan_state``), reference count included.

    The EWMA folds once per window crossed (``EwmaUtilization``'s ops,
    one scalar step each); each window's gap is ``policy.gap`` of the
    estimate after its folds; within a (class, window) group a row's
    count is its rank plus the counter carried in, so the triggers are
    the ranks ``first, first + step, …`` and the counter carried out is
    what follows the last of them.
    """
    seen_any, wstart, wbytes, estimate, counters = state
    count_l = [counters[key] for key in keys]
    tapped = np.flatnonzero(slots != -2)
    now = times[tapped]
    win = np.zeros(len(tapped), dtype=np.int64)
    gaps = [sender.policy.gap(estimate)]
    if len(tapped):
        utilization = sender.utilization
        window = utilization.window
        if not seen_any:
            first = float(now[0])
            wstart = first - (first % window)
            seen_any = True
        steps = max(1, int((now[-1] - wstart) // window) + 2)
        ends = np.add.accumulate(np.concatenate(([wstart], np.full(steps, window))))
        while ends[-1] <= now[-1]:  # rounding left the last row uncovered
            more = np.add.accumulate(np.concatenate(([ends[-1]], np.full(steps, window))))
            ends = np.concatenate((ends, more[1:]))
        # the folds done before each tapped row: window ends at or before it
        win = np.searchsorted(ends[1:], now, side="right")
        n_folds = int(win[-1])
        per_window = np.bincount(win, minlength=n_folds + 1)
        csum = np.concatenate(([0], np.add.accumulate(sizes[tapped].astype(np.int64))))
        edges = np.add.accumulate(per_window)
        wb = (csum[edges] - csum[edges - per_window]).tolist()
        wb[0] += wbytes
        alpha = utilization.alpha
        capacity = utilization._capacity_per_window
        for k in range(n_folds):  # EwmaUtilization._fold_window
            sample = wb[k] / capacity
            if sample > 1.0:
                sample = 1.0  # min(1.0, sample)
            estimate += alpha * (sample - estimate)
            gaps.append(sender.policy.gap(estimate))
        wstart = float(ends[n_folds])
        wbytes = wb[n_folds]

    # 1-and-n triggers: rank each classed row within its (class, window)
    classed = slots[tapped] >= 0
    rows_c = tapped[classed]
    order = np.argsort(slots[rows_c], kind="stable")  # by class, then time
    slot_s = slots[rows_c][order]
    win_s = win[classed][order]
    m = len(order)
    new = np.ones(m, dtype=bool)
    new[1:] = (slot_s[1:] != slot_s[:-1]) | (win_s[1:] != win_s[:-1])
    heads = np.flatnonzero(new)
    lengths = np.diff(heads, append=m)
    firsts: List[int] = []
    steps_l: List[int] = []
    for slot, k, length in zip(slot_s[heads].tolist(), win_s[heads].tolist(),
                               lengths.tolist()):
        gap = gaps[k]
        count = count_l[slot]
        first = gap - count if gap - count > 1 else 1  # rank of the 1st trigger
        step = gap if gap > 1 else 1
        count_l[slot] = (count + length if first > length
                         else (length - first) % step)
        firsts.append(first)
        steps_l.append(step)
    offset = (np.arange(m) - np.repeat(heads, lengths)
              + 1 - np.repeat(np.asarray(firsts, dtype=np.int64), lengths))
    hit = (offset >= 0) & (offset % np.repeat(np.asarray(steps_l, dtype=np.int64),
                                              lengths) == 0)
    trig = np.sort(rows_c[order[hit]])

    state = (seen_any, wstart, wbytes, estimate, dict(zip(keys, count_l)),
             m, len(trig))
    return trig, state


def tapped_scan(queue: FifoQueue, times: np.ndarray, sizes: np.ndarray,
                classes: np.ndarray, sender) -> TappedScan:
    """Offer a sorted stream to a queue whose egress an RLI sender taps.

    The one sender-tapped FIFO scan of the columnar paths, bitwise equal
    to :func:`_tapped_loop`: per row :meth:`FifoQueue.offer`'s float ops;
    per accepted tapped row :meth:`~repro.core.sender.RliSender.
    on_regular`'s algebra; on a trigger the sender's reference offered
    right behind its row.  ``classes`` is the raw path class per row:
    ``-2`` for an untapped row (cross traffic: it advances the queue but
    not the sender), ``-1`` for a tapped row of no class, else the class
    (a class the sender has no counter for counts as ``-1``).

    When no row drops, every tapped row passes the tap, so the sender's
    algebra does not depend on the queue and leaves the per-row loop:

    * the EWMA folds once per utilization window, whose ends are one
      ``np.add.accumulate`` over ``[wstart, window, window, …]`` — the
      loop's repeated ``wstart + window``, bit for bit;
    * inside a window the policy gap is constant, so each class's 1-and-n
      triggers follow from its rows' ranks in the window and the counter
      carried in from the previous window;
    * the references are spliced in right behind their triggers and the
      whole stream runs through the one FIFO kernel (:func:`_busy_periods`).

    The drop test is then evaluated on the exact completion times; if any
    row would drop (a near-full stretch), the call runs
    :func:`_tapped_loop` instead.  References are built with
    ``sender.build_reference`` in trigger order only once the vectorized
    result stands, so clocks are read in scan order exactly once.  The
    sender itself is not touched — the caller hands ``state`` to
    ``sender.fast_scan_commit`` when it commits.
    """
    times = np.asarray(times, dtype=np.float64)
    sizes = np.asarray(sizes)
    n = len(times)
    rate_Bps = queue.rate_Bps
    buffer_bytes = queue.buffer_bytes
    free_at = queue._free_at
    t_in = times + queue.proc_delay  # offer()'s `arrival + proc_delay`
    svc_in = sizes / rate_Bps
    # a stream that drops without its references drops with them too
    # (added work only delays later rows); judged on the closed-form
    # guess, such a stream skips the vectorized attempt
    if (buffer_bytes is not None
            and _drops(t_in, sizes, free_at, _max_plus(t_in, svc_in, free_at),
                       rate_Bps, buffer_bytes).any()):
        return _tapped_loop(queue, times, sizes, classes, sender)
    state = sender.fast_scan_state()
    keys = sorted(state[-1])
    slots = _class_slots(classes, keys)
    trig, state = _sender_triggers(times, sizes, slots, keys, sender, state)

    # splice each reference in right behind its trigger, then one scan
    n_ref = len(trig)
    is_ref = np.zeros(n + n_ref, dtype=bool)
    is_ref[trig + np.arange(1, n_ref + 1)] = True
    rows = np.empty(n + n_ref, dtype=np.int64)
    rows[~is_ref] = np.arange(n)
    rows[is_ref] = trig
    ref_size = np.asarray([sender.templates[key].size for key in keys],
                          dtype=np.int64)[slots[trig]]
    sizes_o = sizes[rows].astype(np.int64, copy=False)
    sizes_o[is_ref] = ref_size
    t = t_in[rows]  # a reference arrives with its trigger
    svc = svc_in[rows]
    svc[is_ref] = ref_size / rate_Bps
    departures = _busy_periods(t, svc, free_at)
    if (buffer_bytes is not None
            and _drops(t, sizes_o, free_at, departures, rate_Bps, buffer_bytes).any()):
        return _tapped_loop(queue, times, sizes, classes, sender)
    obs_metrics.count("queue.scan.rows", n + n_ref, label="vector")

    build_reference = sender.build_reference
    refs = [build_reference(keys[slot], at)
            for slot, at in zip(slots[trig].tolist(), times[trig].tolist())]
    queue._free_at = float(departures[-1]) if n + n_ref else free_at
    bytes_in = int(sizes_o.sum())  # reprolint: disable=BATCH003 -- int64 byte counter; integer addition is exact in any order
    _fold_stats(queue.stats, n + n_ref, bytes_in, 0, 0, departures, times[rows])
    return TappedScan(departures, sizes_o, rows, is_ref, refs, state)


def _tapped_loop(queue: FifoQueue, times: np.ndarray, sizes: np.ndarray,
                classes: np.ndarray, sender) -> TappedScan:
    """:func:`tapped_scan` as a per-row loop: its near-full fallback.

    Per row it applies exactly :meth:`FifoQueue.offer`'s float ops; per
    accepted tapped row, exactly
    :meth:`~repro.core.sender.RliSender.on_regular`'s algebra (fold the
    EWMA windows the arrival crossed, add its bytes, bump its class's
    1-and-n counter against ``policy.gap(estimate)``, which only changes
    at a fold); and on a trigger it builds the sender's reference and
    offers it right behind the row with the same queue ops.
    """
    times = np.asarray(times, dtype=np.float64)
    sizes = np.asarray(sizes)
    n = len(times)
    obs_metrics.count("queue.scan.fallback", label="near-full")
    obs_metrics.count("queue.scan.rows", n, label="exact")
    seen_any, wstart, wbytes, estimate, counters = sender.fast_scan_state()
    keys = sorted(counters)
    count_l = [counters[key] for key in keys]
    slots = _class_slots(classes, keys)

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
