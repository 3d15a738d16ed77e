"""Reference Latency Interpolation — the estimator core.

"Given the delays of the two reference packets (computed from the
timestamps), and arrival times of the reference and regular packets, RLI
uses linear interpolation to estimate per-packet latency" (paper Section 2).

:class:`InterpolationBuffer` is the receiver-side data structure the paper
calls the *interpolation buffer* (Figure 2): regular-packet arrivals are
buffered until the next reference packet closes the interval, at which point
every buffered packet gets a delay estimate.  :func:`estimate_streams` is
the columnar equivalent for a whole demuxed observation stream — the one
estimate kernel that live batch observation and log replay share.

Estimator strategies (the default is the paper's; the others exist for the
ablation benches):

* ``"linear"`` — linear interpolation between the two straddling references;
* ``"previous"`` — each packet takes the delay of the latest reference
  before it (zero buffering, but ignores the right endpoint);
* ``"nearest"`` — the delay of the reference closest in arrival time.

Edge handling matches RLI: packets that arrive before the first reference
take the first reference's delay; packets after the last reference (stream
tail) take the last reference's delay when the buffer is flushed.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "InterpolationBuffer",
    "Estimate",
    "linear_interpolate",
    "interpolate_batch",
    "estimate_streams",
    "ESTIMATORS",
]

Key = Tuple[int, int, int, int, int]


class Estimate:
    """One per-packet latency estimate emitted by the buffer."""

    __slots__ = ("key", "arrival", "estimated", "true_delay")

    def __init__(self, key: Key, arrival: float, estimated: float, true_delay: float):
        self.key = key
        self.arrival = arrival
        self.estimated = estimated
        self.true_delay = true_delay

    @property
    def abs_error(self) -> float:
        return abs(self.estimated - self.true_delay)

    def __repr__(self) -> str:
        return (
            f"Estimate(key={self.key}, t={self.arrival:.6f}, "
            f"est={self.estimated:.3g}, true={self.true_delay:.3g})"
        )


def linear_interpolate(
    t_prev: float, d_prev: float, t_next: float, d_next: float, t: float
) -> float:
    """Delay at time *t* on the line through the two reference samples.

    Degenerates to the endpoint average if the references arrived at the
    same instant (possible when a reference is injected back-to-back).
    """
    span = t_next - t_prev
    if span <= 0.0:
        return 0.5 * (d_prev + d_next)
    w = (t - t_prev) / span
    return d_prev + w * (d_next - d_prev)


def _estimate_linear(t_prev, d_prev, t_next, d_next, t):
    return linear_interpolate(t_prev, d_prev, t_next, d_next, t)


def _estimate_previous(t_prev, d_prev, t_next, d_next, t):
    return d_prev


def _estimate_nearest(t_prev, d_prev, t_next, d_next, t):
    return d_prev if (t - t_prev) <= (t_next - t) else d_next


ESTIMATORS: dict = {
    "linear": _estimate_linear,
    "previous": _estimate_previous,
    "nearest": _estimate_nearest,
}


def interpolate_batch(  # reprolint: disable=BATCH001 -- scalar twin is the InterpolationBuffer class (stated below), pinned bitwise-identical by the equivalence suite
    arrivals: np.ndarray,
    ref_arrivals: np.ndarray,
    ref_delays: np.ndarray,
    estimator: str = "linear",
    intervals: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batch flush of one reference stream: estimate all regulars at once.

    This is the vectorized equivalent of feeding every regular arrival and
    every reference sample of one stream through an
    :class:`InterpolationBuffer` and concatenating the estimates (including
    the final one-sided :meth:`~InterpolationBuffer.flush`): for each
    regular packet, ``np.searchsorted`` locates the pair of reference
    samples straddling it, and the per-element estimate applies the *same*
    float operations as the scalar estimator — results are bitwise
    identical.

    Parameters
    ----------
    arrivals:
        Regular-packet arrival times.
    ref_arrivals, ref_delays:
        Arrival times and delay samples of the (non-empty) reference
        stream, in arrival order.
    estimator:
        One of :data:`ESTIMATORS`.
    intervals:
        Optional per-regular interval index: the number of references that
        had *arrived* when the regular was buffered (``0`` = before the
        first reference, ``len(refs)`` = after the last).  Callers that
        interleave by observation order (not timestamps) pass it
        explicitly; the default derives it from the arrival times
        (``side="left"``: a regular observed before a coincident reference
        is closed by it).
    """
    if estimator not in ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; choose from {sorted(ESTIMATORS)}"
        )
    arrivals = np.asarray(arrivals, dtype=np.float64)
    ref_t = np.asarray(ref_arrivals, dtype=np.float64)
    ref_d = np.asarray(ref_delays, dtype=np.float64)
    n_refs = len(ref_t)
    if n_refs == 0:
        raise ValueError("interpolate_batch needs at least one reference")
    if intervals is None:
        intervals = np.searchsorted(ref_t, arrivals, side="left")
    else:
        intervals = np.asarray(intervals)

    # straddling samples per element (indices clipped at the edges; the
    # gathered values are ignored there via the np.where selections below)
    i_prev = np.clip(intervals - 1, 0, n_refs - 1)
    i_next = np.clip(intervals, 0, n_refs - 1)
    t_prev, d_prev = ref_t[i_prev], ref_d[i_prev]
    t_next, d_next = ref_t[i_next], ref_d[i_next]

    if estimator == "previous":
        interior = d_prev
    elif estimator == "nearest":
        interior = np.where(
            (arrivals - t_prev) <= (t_next - arrivals), d_prev, d_next
        )
    else:  # linear — same op order as linear_interpolate(), elementwise
        span = t_next - t_prev
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (arrivals - t_prev) / span
            interior = np.where(
                span <= 0.0, 0.5 * (d_prev + d_next), d_prev + w * (d_next - d_prev)
            )
    # edges: before the first reference -> its delay; after the last
    # (the flush tail) -> the last delay
    return np.where(
        intervals <= 0, ref_d[0], np.where(intervals >= n_refs, ref_d[n_refs - 1], interior)
    )


def estimate_streams(
    ref_pos: np.ndarray,
    ref_streams: np.ndarray,
    ref_times: np.ndarray,
    ref_delays: np.ndarray,
    pos: np.ndarray,
    times: np.ndarray,
    streams: np.ndarray,
    estimator: str = "linear",
) -> Tuple[Union[slice, np.ndarray], np.ndarray, int]:
    """Estimate every regular of a demuxed observation stream at once.

    The columnar equivalent of feeding the stream, in observation order,
    through one :class:`InterpolationBuffer` per stream (created at the
    stream's first reference or regular) and flushing the buffers in
    creation order at the end.  ``ref_*`` are the accepted references and
    ``pos``/``times``/``streams`` the measured regulars, each in
    observation order; ``ref_pos`` and ``pos`` are the events' distinct,
    shared observation positions (what the buffers saw first).

    Returns ``(order, estimates, unestimated)``: ``estimates[j]`` belongs
    to regular ``order[j]``, in the order the buffers would emit them (by
    the reference that closes each interval, tails after every reference,
    stream by stream in buffer-creation order).  With one stream the
    emission order is the observation order and ``order`` is a plain
    ``slice``.  ``unestimated`` counts the regulars of streams that never
    saw a reference, which are dropped.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; choose from {sorted(ESTIMATORS)}"
        )
    if len(ref_pos) and bool(np.all(ref_streams == ref_streams[0])) and bool(
            np.all(streams == ref_streams[0])):
        # single stream (the two-switch pipeline): closing positions are
        # non-decreasing in observation order — no sort, no partitioning
        intervals = np.searchsorted(ref_pos, pos)
        return slice(None), interpolate_batch(
            times, ref_times, ref_delays, estimator=estimator,
            intervals=intervals), 0

    # buffer-creation rank: streams by their first observed event
    all_pos = np.concatenate([ref_pos, pos])
    by_pos = np.argsort(all_pos, kind="stable")
    uniq, first = np.unique(np.concatenate([ref_streams, streams])[by_pos],
                            return_index=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    end = int(all_pos.max()) + 1 if len(all_pos) else 0

    unestimated = 0
    closes, members, parts = [], [], []
    # np.unique is sorted: set-iteration order must never be load-bearing
    for stream, stream_rank in zip(uniq.tolist(), rank.tolist()):
        sel = np.flatnonzero(streams == stream)
        refs = ref_streams == stream
        if not refs.any():
            # pending forever: no reference ever closed this stream
            unestimated += len(sel)
            continue
        if not len(sel):
            continue
        s_pos = ref_pos[refs]
        intervals = np.searchsorted(s_pos, pos[sel])
        parts.append(interpolate_batch(
            times[sel], ref_times[refs], ref_delays[refs],
            estimator=estimator, intervals=intervals))
        # estimates surface when their interval closes: at the right-
        # endpoint reference, or at the final flush (after every
        # reference, in buffer-creation order)
        last = len(s_pos) - 1
        closes.append(np.where(intervals <= last,
                               s_pos[np.minimum(intervals, last)],
                               end + stream_rank))
        members.append(sel)
    if not parts:
        return np.empty(0, dtype=np.intp), np.empty(0), unestimated
    # one closing event closes regulars of one stream only, and each
    # stream's members are in observation order: a stable sort suffices
    emit = np.argsort(np.concatenate(closes), kind="stable")
    return (np.concatenate(members)[emit], np.concatenate(parts)[emit],
            unestimated)


class InterpolationBuffer:
    """Receiver-side buffer pairing regular arrivals with reference delays.

    Usage: call :meth:`add_regular` for every regular packet and
    :meth:`add_reference` for every reference packet, in arrival order; each
    reference returns the estimates for the interval it closes.  Call
    :meth:`flush` once at end of stream for the one-sided tail.
    """

    def __init__(self, estimator: str = "linear"):
        try:
            self._estimate: Callable = ESTIMATORS[estimator]
        except KeyError:
            raise ValueError(
                f"unknown estimator {estimator!r}; choose from {sorted(ESTIMATORS)}"
            ) from None
        self.estimator = estimator
        self._pending: List[Tuple[float, Key, float]] = []  # (arrival, key, truth)
        self._last_ref: Optional[Tuple[float, float]] = None  # (arrival, delay)
        self.references_seen = 0
        self.regulars_seen = 0

    # ------------------------------------------------------------------

    def add_regular(self, arrival: float, key: Key, true_delay: float) -> None:
        """Buffer one regular-packet arrival (truth tags the estimate later)."""
        self.regulars_seen += 1
        self._pending.append((arrival, key, true_delay))

    def add_reference(self, arrival: float, delay: float) -> List[Estimate]:
        """Process one reference-packet delay sample; emit closed estimates.

        The first reference ever seen resolves earlier arrivals one-sided
        (they take its delay); later references interpolate linearly against
        the previous one.
        """
        self.references_seen += 1
        pending = self._pending
        out: List[Estimate] = []
        if self._last_ref is None:
            for t, key, truth in pending:
                out.append(Estimate(key, t, delay, truth))
        else:
            t_prev, d_prev = self._last_ref
            estimate = self._estimate
            for t, key, truth in pending:
                est = estimate(t_prev, d_prev, arrival, delay, t)
                out.append(Estimate(key, t, est, truth))
        pending.clear()
        self._last_ref = (arrival, delay)
        return out

    def flush(self) -> List[Estimate]:
        """Resolve the tail one-sided with the last reference's delay.

        If no reference was ever seen, the buffered packets cannot be
        estimated and are discarded (reported via :attr:`unestimated`).
        """
        out: List[Estimate] = []
        if self._last_ref is not None:
            _, d_last = self._last_ref
            for t, key, truth in self._pending:
                out.append(Estimate(key, t, d_last, truth))
            self._pending.clear()
        return out

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def unestimated(self) -> int:
        """Packets that can never be estimated (no reference arrived)."""
        return len(self._pending) if self._last_ref is None else 0
