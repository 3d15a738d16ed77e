"""Streaming per-flow latency aggregation.

RLI turns per-packet latency estimates into per-flow measurements by
aggregation: "Obtaining per-flow measurements now is just a matter of
aggregating latency estimates across packets that share a given flow key"
(paper Section 2).  The two statistics the paper evaluates are the per-flow
**mean** (Figure 4(a)) and **standard deviation** (Figure 4(b)).

:class:`StreamingStats` is a Welford accumulator (numerically stable
one-pass mean/variance, mergeable) and the scalar oracle;
:class:`FlowStatsTable` keeps the same Welford state for every flow in
columns (count, mean, m2, min, max) behind one key→slot index.  Both true
and estimated delays flow through the same code, so estimator error is
never confounded with aggregation error.  :class:`FlowRows` is what a
condition summary keeps of a table: its per-flow (count, mean, std) as
plain columns, keyed by packed key words.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..traffic.batch import pack_flow_keys

__all__ = [
    "StreamingStats",
    "FlowColumns",
    "FlowRows",
    "FlowStatsTable",
    "BoundedFlowStatsTable",
    "welford_grouped",
    "flow_ids",
    "fold_flow_samples",
    "pooled_stats",
    "same_bits",
]

Key = Tuple[int, int, int, int, int]

# a new flow's Welford state: (count, mean, m2, min, max)
_FRESH = (0, 0.0, 0.0, math.inf, -math.inf)

# welford_grouped's rank-wise loop pays ~10 numpy calls per rank whatever
# the number of groups still active; below this many active groups the
# scalar recurrence finishes the survivors faster
_RANK_HANDOFF = 32


class StreamingStats:
    """One-pass count/mean/variance accumulator (Welford)."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample in."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "StreamingStats") -> None:
        """Fold another accumulator in (parallel-merge form of Welford)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than 2 samples)."""
        return self._m2 / self.count if self.count >= 2 else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return f"StreamingStats(n={self.count}, mean={self.mean:.3g}, std={self.std:.3g})"


def _stats(count: int, mean: float, m2: float, lo: float, hi: float) -> StreamingStats:
    """A :class:`StreamingStats` holding the given Welford state."""
    stats = StreamingStats()
    stats.count = count
    stats.mean = mean
    stats._m2 = m2
    stats.min = lo
    stats.max = hi
    return stats


def _welford_run(count, mean, m2, lo, hi, values):
    """Fold an ordered run of samples into one Welford state, one by one.

    The recurrence of :meth:`StreamingStats.add` with the state in locals:
    the same float ops in the same order, so the same bits.
    """
    for value in values:
        count += 1
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
        if value < lo:
            lo = value
        if value > hi:
            hi = value
    return count, mean, m2, lo, hi


def welford_grouped(values: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Welford accumulators for many sample groups at once.

    *values* holds every group's samples contiguously (group g occupies
    ``values[starts[g]:ends[g]]``, in its own observation order).  Returns
    ``(count, mean, m2, min, max)`` arrays, one entry per group,
    **bitwise-identical** to feeding each group through
    :meth:`StreamingStats.add` sample by sample: groups are independent, so
    the recurrence is applied *rank-wise* — one vectorized Welford step for
    every group's k-th sample — which keeps each group's float-op order
    exactly sequential while amortizing the interpreter over all groups.
    The rank-wise loop runs only while at least ``_RANK_HANDOFF`` groups
    are active; the longer groups then finish in the scalar recurrence
    from the state the ranks left them in.
    """
    n_groups = len(starts)
    sizes = np.asarray(ends) - np.asarray(starts)
    counts = sizes.astype(np.int64)
    # process groups in descending size order so each rank's active set is
    # a prefix; un-permute on return
    by_size = np.argsort(-sizes, kind="stable")
    s_starts = np.asarray(starts)[by_size]
    s_sizes = sizes[by_size]
    mean = np.zeros(n_groups)
    m2 = np.zeros(n_groups)
    mn = np.full(n_groups, math.inf)
    mx = np.full(n_groups, -math.inf)
    neg_sizes = -s_sizes
    # rank k has >= _RANK_HANDOFF active groups iff the handoff-th
    # largest group has >= k samples
    ranks = int(s_sizes[_RANK_HANDOFF - 1]) if n_groups >= _RANK_HANDOFF else 0
    actives = np.searchsorted(neg_sizes, -np.arange(1, ranks + 1), side="right")
    for k, active in enumerate(actives.tolist(), 1):
        x = values[s_starts[:active] + (k - 1)]
        mean_a = mean[:active]
        delta = x - mean_a
        mean_a += delta / k
        m2[:active] += delta * (x - mean_a)
        np.minimum(mn[:active], x, out=mn[:active])
        np.maximum(mx[:active], x, out=mx[:active])
    n_long = int(np.searchsorted(neg_sizes, -(ranks + 1), side="right"))
    for j in range(n_long):
        start = int(s_starts[j])
        _, mean[j], m2[j], mn[j], mx[j] = _welford_run(
            ranks, float(mean[j]), float(m2[j]), float(mn[j]), float(mx[j]),
            values[start + ranks:start + int(s_sizes[j])].tolist())
    # un-permute back to the caller's group order
    inverse = np.empty(n_groups, dtype=np.int64)
    inverse[by_size] = np.arange(n_groups)
    return counts, mean[inverse], m2[inverse], mn[inverse], mx[inverse]


def flow_ids(keys, rows: np.ndarray) -> Tuple[np.ndarray, List[Key]]:
    """Number the flows of a run of samples with array ops.

    *keys* are the five flow-key columns (src, dst, sport, dport, proto)
    and ``rows`` each sample's row in them.  Returns ``(ids, flow_keys)``:
    sample i belongs to flow ``ids[i]``, whose 5-tuple key (plain ints) is
    ``flow_keys[ids[i]]``.  Each key tuple is built once, so the tables a
    caller folds these samples into share the key objects.

    Flows are numbered in ``np.lexsort((b, a))`` order of the packed key
    words (see :func:`~repro.traffic.batch.pack_flow_keys`).  The (src,
    dst) word ``a`` alone tells most flows apart, so one stable sort on
    ``a`` does most of the work, and only the runs of equal ``a`` whose
    ``b`` differ are re-sorted by ``b``.
    """
    a, b = pack_flow_keys(*(column[rows] for column in keys))
    order = np.argsort(a, kind="stable")
    a_s = a[order]
    b_s = b[order]
    same_a = a_s[1:] == a_s[:-1]
    split = same_a & (b_s[1:] != b_s[:-1])
    if split.any():
        run = np.empty(len(order), dtype=np.int64)
        run[:1] = 0
        run[1:] = np.add.accumulate(~same_a)
        mixed = np.zeros(int(run[-1]) + 1, dtype=bool)
        mixed[run[1:][split]] = True
        pos = np.flatnonzero(mixed[run])
        # both sorts are stable, so equal keys keep their sample order
        sub = pos[np.lexsort((b_s[pos], run[pos]))]
        order[pos] = order[sub]
        b_s[pos] = b_s[sub]
    boundary = np.empty(len(order), dtype=np.int64)
    boundary[:1] = 1
    boundary[1:] = (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.add.accumulate(boundary) - 1
    first_rows = rows[order[np.flatnonzero(boundary)]]
    return ids, list(zip(*(column[first_rows].tolist() for column in keys)))


def fold_flow_samples(table: "FlowStatsTable", qtable, ids: np.ndarray,
                      flow_keys: List[Key], values: np.ndarray) -> None:
    """Fold (flow, value) samples into *table* (and the quantile *qtable*).

    Sample i belongs to the flow ``flow_keys[ids[i]]`` (see
    :func:`flow_ids`).  Table order (first appearance of each flow) and
    per-flow sample order both match calling ``table.add`` per sample.
    Bounded (LRU) tables depend on the exact cross-flow access sequence and
    quantile estimators are not mergeable, so those take the per-sample
    loop; an unbounded table folds the whole run in columns
    (:meth:`FlowStatsTable.fold_grouped`).
    """
    if len(values) == 0:
        return
    if qtable is not None:
        q_add = qtable.add
        for flow, value in zip(ids.tolist(), values.tolist()):
            q_add(flow_keys[flow], value)
    if isinstance(table, BoundedFlowStatsTable):
        table_add = table.add
        for flow, value in zip(ids.tolist(), values.tolist()):
            table_add(flow_keys[flow], value)
        return
    table.fold_grouped(ids, flow_keys, values)


class FlowColumns(NamedTuple):
    """A flow table's Welford state, one entry per flow in table order.

    A snapshot to read, not to keep: the owning table writes to its
    buffers (or replaces them) on its next update.
    """

    keys: List[Key]
    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray
    min: np.ndarray
    max: np.ndarray

    def std(self) -> np.ndarray:
        """Per-flow population std: :attr:`StreamingStats.std` per entry
        (division and square root are correctly rounded in numpy too)."""
        std = np.zeros(len(self.keys))
        defined = self.count >= 2
        std[defined] = np.sqrt(self.m2[defined] / self.count[defined])
        return std


class FlowStatsTable:
    """Flow key → Welford state, kept in columns.

    One key→slot index and five columns (count, mean, m2, min, max) with
    room to grow.  Slots are handed out in first-touch order, so slot order
    is table order.  :meth:`add` / :meth:`add_many` run the scalar Welford
    recurrence on one slot; :meth:`fold_grouped` folds a whole run of
    samples and installs its new flows in bulk.  Readers take
    :meth:`columns`; :meth:`get` / :meth:`items` build
    :class:`StreamingStats` values on demand.
    """

    def __init__(self) -> None:
        self._slot: Dict[Key, int] = {}
        self._keys: List[Key] = []
        self._count = np.zeros(0, dtype=np.int64)
        self._mean = np.zeros(0)
        self._m2 = np.zeros(0)
        self._min = np.zeros(0)
        self._max = np.zeros(0)

    # -- writes -------------------------------------------------------

    def _append(self, keys: List[Key], count, mean, m2, lo, hi) -> int:
        """Give new flows *keys* the next slots with the given state;
        returns the first slot."""
        base = len(self._keys)
        end = base + len(keys)
        if end > len(self._count):
            capacity = max(end, 2 * len(self._count), 16)
            for name in ("_count", "_mean", "_m2", "_min", "_max"):
                old = getattr(self, name)
                grown = np.empty(capacity, dtype=old.dtype)
                grown[:base] = old[:base]
                setattr(self, name, grown)
        self._count[base:end] = count
        self._mean[base:end] = mean
        self._m2[base:end] = m2
        self._min[base:end] = lo
        self._max[base:end] = hi
        self._keys.extend(keys)
        self._slot.update(zip(keys, range(base, end)))
        return base

    def _slots_of(self, keys: List[Key]) -> np.ndarray:
        """Each key's slot, -1 where the flow is new to this table."""
        return np.fromiter(map(self._slot.get, keys, repeat(-1)),
                           dtype=np.int64, count=len(keys))

    def _slot_for(self, key: Key) -> int:
        slot = self._slot.get(key)
        if slot is None:
            slot = self._append([key], *_FRESH)
        return slot

    def _fold(self, slot: int, values) -> None:
        """The scalar Welford recurrence on one slot."""
        (self._count[slot], self._mean[slot], self._m2[slot], self._min[slot],
         self._max[slot]) = _welford_run(
            int(self._count[slot]), float(self._mean[slot]),
            float(self._m2[slot]), float(self._min[slot]),
            float(self._max[slot]), values)

    def add(self, key: Key, value: float) -> None:
        self._fold(self._slot_for(key), (value,))

    def add_many(self, key: Key, values) -> None:
        """Fold an ordered run of one flow's samples in: the same bits as
        calling :meth:`add` per value."""
        self._fold(self._slot_for(key), values)

    def fold_grouped(self, ids: np.ndarray, flow_keys: List[Key],
                     values: np.ndarray) -> None:
        """Fold samples of many flows in columns (see
        :func:`fold_flow_samples`).

        Samples are grouped by flow with array ops.  A flow already in the
        table continues its own slot through the scalar recurrence (as
        :meth:`add_many` would); the new flows' accumulators come from
        :func:`welford_grouped` and are installed in one bulk append, in
        first-appearance order.
        """
        n = len(values)
        # a stable sort is unique, and numpy radix-sorts 16-bit keys
        narrow = ids.astype(np.uint16) if len(flow_keys) <= 1 << 16 else ids
        order = np.argsort(narrow, kind="stable")
        ids_s = ids[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = ids_s[1:] != ids_s[:-1]
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], n)
        grouped_vals = values[order]
        keys = list(map(flow_keys.__getitem__, ids_s[starts].tolist()))
        slots = self._slots_of(keys) if self._slot else None
        if slots is not None and (slots >= 0).any():
            for g in np.flatnonzero(slots >= 0).tolist():
                self._fold(int(slots[g]), grouped_vals[starts[g]:ends[g]].tolist())
            new = slots < 0
            starts = starts[new]
            ends = ends[new]
            keys = list(compress(keys, new.tolist()))
            if not len(starts):
                return
        # stable sort => order[start] is each flow's first sample
        by_first = np.argsort(order[starts], kind="stable")
        columns = welford_grouped(grouped_vals, starts[by_first], ends[by_first])
        self._append(list(map(keys.__getitem__, by_first.tolist())), *columns)

    def merge_flow(self, key: Key, stats: StreamingStats) -> None:
        """Fold one flow's accumulator into this table."""
        slot = self._slot_for(key)
        mine = self._stats_at(slot)
        mine.merge(stats)
        (self._count[slot], self._mean[slot], self._m2[slot], self._min[slot],
         self._max[slot]) = mine.count, mine.mean, mine._m2, mine.min, mine.max

    def merge(self, other: "FlowStatsTable") -> None:
        """Fold another table in, flow by flow: flows new to this table
        are appended in bulk, in *other*'s order."""
        cols = other.columns()
        fresh = self._slots_of(cols.keys) < 0
        for g in np.flatnonzero(~fresh).tolist():
            self.merge_flow(cols.keys[g], _stats(
                int(cols.count[g]), float(cols.mean[g]), float(cols.m2[g]),
                float(cols.min[g]), float(cols.max[g])))
        self._append(list(compress(cols.keys, fresh.tolist())),
                     *(column[fresh] for column in cols[1:]))

    def sorted_by_key(self) -> "FlowStatsTable":
        """A copy of this table in sorted-key order."""
        cols = self.columns()
        order = sorted(range(len(cols.keys)), key=cols.keys.__getitem__)
        table = FlowStatsTable()
        table._append([cols.keys[i] for i in order],
                      *(column[order] for column in cols[1:]))
        return table

    # -- reads --------------------------------------------------------

    def rows_of(self, keys: List[Key]) -> np.ndarray:
        """Each key's position in :meth:`columns`, -1 where unseen."""
        return self._slots_of(keys)

    def columns(self) -> FlowColumns:
        """Every flow's state, in table order (read-only views)."""
        n = len(self._keys)
        views = [column[:n] for column in (self._count, self._mean, self._m2,
                                           self._min, self._max)]
        for view in views:
            view.flags.writeable = False
        return FlowColumns(self._keys, *views)

    def _stats_at(self, slot: int) -> StreamingStats:
        return _stats(int(self._count[slot]), float(self._mean[slot]),
                      float(self._m2[slot]), float(self._min[slot]),
                      float(self._max[slot]))

    def get(self, key: Key) -> Optional[StreamingStats]:
        """A copy of one flow's accumulator (None if unseen)."""
        slot = self._slot.get(key)
        return None if slot is None else self._stats_at(slot)

    def items(self) -> Iterator[Tuple[Key, StreamingStats]]:
        """(key, accumulator copy) per flow, in table order."""
        cols = self.columns()
        return zip(cols.keys, map(_stats, *(column.tolist() for column in cols[1:])))

    def keys(self):
        return self._slot.keys()

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, key: Key) -> bool:
        return key in self._slot

    def total_samples(self) -> int:
        return int(np.add.reduce(self.columns().count))


def pooled_stats(table: FlowStatsTable) -> StreamingStats:
    """All flows' accumulators pooled by :meth:`StreamingStats.merge`, in
    table order.

    The merge is a float left fold, so the order fixes the bits; pool a
    :meth:`FlowStatsTable.sorted_by_key` copy for a mean that does not
    depend on the order flows first appeared in.  Reads the columns; the
    one accumulator built is the result.
    """
    counts, means, m2s, mins, maxs = (column.tolist() for column in table.columns()[1:])
    count, mean, m2 = 0, 0.0, 0.0
    for n, mu, q in zip(counts, means, m2s):
        if n == 0:
            continue
        if count == 0:
            count, mean, m2 = n, mu, q
            continue
        total = count + n
        delta = mu - mean
        m2 += q + delta * delta * count * n / total
        mean += delta * n / total
        count = total
    # an empty flow's (inf, -inf) never wins, and min/max keep the first
    # of equal values: the fold's min(lo, a) / max(hi, b), run in C
    return _stats(count, mean, m2, min(mins, default=math.inf),
                  max(maxs, default=-math.inf))


class BoundedFlowStatsTable(FlowStatsTable):
    """A flow table with bounded memory and LRU eviction.

    Hardware measurement instances cannot keep state for an unbounded
    number of flows (the paper's trace has 1.45 M flows per minute).  Real
    per-flow engines (NetFlow caches, RLI's own flow table) bound memory
    and evict; this table evicts the least-recently-updated flow when full,
    counting what was lost so accuracy-vs-memory can be quantified (see the
    memory ablation bench).  The evicted flow's slot is reused; table order
    is recency order.  Every update touches one slot, so the columns are
    plain lists here: Python floats read and write several times faster
    than numpy scalars.
    """

    def __init__(self, max_flows: int):
        super().__init__()
        if max_flows < 1:
            raise ValueError(f"max_flows must be >= 1: {max_flows}")
        self.max_flows = max_flows
        self._slot = OrderedDict()  # key -> slot, in recency order
        self._count, self._mean, self._m2, self._min, self._max = [], [], [], [], []
        self.evicted_flows = 0
        self.evicted_samples = 0

    def _append(self, keys: List[Key], count, mean, m2, lo, hi) -> int:
        base = len(self._keys)
        for column, values in zip((self._count, self._mean, self._m2, self._min, self._max),
                                  (count, mean, m2, lo, hi)):
            column.extend(np.broadcast_to(values, len(keys)).tolist())
        self._keys.extend(keys)
        self._slot.update(zip(keys, range(base, base + len(keys))))
        return base

    def add(self, key: Key, value: float) -> None:
        index = self._slot
        slot = index.get(key)
        columns = (self._count, self._mean, self._m2, self._min, self._max)
        if slot is None:
            if len(index) < self.max_flows:
                slot = len(self._keys)
                self._keys.append(key)
                for column, fresh in zip(columns, _FRESH):
                    column.append(fresh)
            else:
                _, slot = index.popitem(last=False)  # least recent
                self.evicted_flows += 1
                self.evicted_samples += self._count[slot]
                self._keys[slot] = key
                for column, fresh in zip(columns, _FRESH):
                    column[slot] = fresh
            index[key] = slot
        else:
            index.move_to_end(key)
        count, mean, m2, lo, hi = columns
        count[slot], mean[slot], m2[slot], lo[slot], hi[slot] = _welford_run(
            count[slot], mean[slot], m2[slot], lo[slot], hi[slot], (value,))

    def add_many(self, key: Key, values) -> None:
        """Per-sample adds: LRU recency/eviction depends on every access,
        so a bounded table cannot take the grouped shortcut."""
        for value in values:
            self.add(key, value)

    def rows_of(self, keys: List[Key]) -> np.ndarray:
        rows = dict(zip(self._slot, range(len(self._slot))))
        return np.fromiter(map(rows.get, keys, repeat(-1)), dtype=np.int64,
                           count=len(keys))

    def columns(self) -> FlowColumns:
        order = np.fromiter(self._slot.values(), dtype=np.int64, count=len(self._slot))
        return FlowColumns(list(self._slot), np.array(self._count, dtype=np.int64)[order],
                           *(np.array(column, dtype=float)[order]
                             for column in (self._mean, self._m2, self._min, self._max)))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _packed_keys(keys: List[Key]) -> Tuple[np.ndarray, np.ndarray]:
    """5-tuple keys as the two words of :func:`pack_flow_keys`."""
    flat = np.fromiter(chain.from_iterable(keys), dtype=np.int64, count=5 * len(keys))
    return pack_flow_keys(*flat.reshape(len(keys), 5).T)


@dataclass(frozen=True, eq=False)
class FlowRows:
    """One flow table's per-flow (count, mean, std), as plain columns.

    What a condition summary keeps of a flow table: one entry per flow
    in table order, the flow key as the two ``uint64`` words of
    :func:`~repro.traffic.batch.pack_flow_keys`, ``count`` as ``int64``
    and ``mean`` and ``std`` as ``float64`` — the bits of
    :meth:`FlowStatsTable.columns` and :meth:`FlowColumns.std`.  A value:
    it pickles as five arrays, with no per-flow Python object, and ``==``
    compares bits.
    """

    key_a: np.ndarray
    key_b: np.ndarray
    count: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def of(cls, table: FlowStatsTable) -> "FlowRows":
        cols = table.columns()
        # copies: the columns are views of buffers the table keeps writing
        return cls(*_packed_keys(cols.keys), np.array(cols.count),
                   np.array(cols.mean), cols.std())

    @classmethod
    def empty(cls) -> "FlowRows":
        return cls.of(FlowStatsTable())

    def __len__(self) -> int:
        return len(self.count)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowRows):
            return NotImplemented
        return all(same_bits(getattr(self, name), getattr(other, name))
                   for name in ("key_a", "key_b", "count", "mean", "std"))

    def rows_of(self, keys: List[Key]) -> np.ndarray:
        """Each 5-tuple key's row, -1 where the flow is absent."""
        row = dict(zip(zip(self.key_a.tolist(), self.key_b.tolist()), range(len(self))))
        a, b = _packed_keys(keys)
        return np.fromiter(map(row.get, zip(a.tolist(), b.tolist()), repeat(-1)),
                           dtype=np.int64, count=len(keys))
