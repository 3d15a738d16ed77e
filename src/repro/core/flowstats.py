"""Streaming per-flow latency aggregation.

RLI turns per-packet latency estimates into per-flow measurements by
aggregation: "Obtaining per-flow measurements now is just a matter of
aggregating latency estimates across packets that share a given flow key"
(paper Section 2).  The two statistics the paper evaluates are the per-flow
**mean** (Figure 4(a)) and **standard deviation** (Figure 4(b)).

:class:`StreamingStats` is a Welford accumulator (numerically stable
one-pass mean/variance, mergeable); :class:`FlowStatsTable` maps flow keys
to accumulators.  Both true and estimated delays flow through the same code,
so estimator error is never confounded with aggregation error.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..traffic.batch import pack_flow_keys

__all__ = [
    "StreamingStats",
    "FlowStatsTable",
    "BoundedFlowStatsTable",
    "welford_grouped",
    "flow_ids",
    "fold_flow_samples",
]

Key = Tuple[int, int, int, int, int]


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

    def add_many(self, values) -> None:
        """Fold an ordered sample sequence in, one by one.

        Bitwise-identical to calling :meth:`add` per value (same Welford
        recurrence, same float-op order) but ~3x faster on long runs: the
        loop keeps the accumulator state in locals instead of touching
        attributes per sample.  The batch receiver path feeds each flow's
        samples through this after grouping them with array ops.
        """
        count = self.count
        mean = self.mean
        m2 = self._m2
        lo = self.min
        hi = self.max
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        self.count = count
        self.mean = mean
        self._m2 = m2
        self.min = lo
        self.max = hi

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


def welford_grouped(values: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                    rank_cutoff: int = 128):
    """Welford accumulators for many sample groups at once.

    *values* holds every group's samples contiguously (group g occupies
    ``values[starts[g]:ends[g]]``, in its own observation order).  Returns
    ``(count, mean, m2, min, max)`` arrays, one entry per group,
    **bitwise-identical** to feeding each group through
    :meth:`StreamingStats.add` sample by sample: groups are independent, so
    the recurrence is applied *rank-wise* — one vectorized Welford step for
    every group's k-th sample — which keeps each group's float-op order
    exactly sequential while amortizing the interpreter over all groups.
    Groups longer than *rank_cutoff* finish in a scalar tail loop (the rank
    population thins out, so late ranks stop paying for vectorization).
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
    max_rank = int(s_sizes[0]) if n_groups else 0
    neg_sizes = -s_sizes
    for k in range(1, min(max_rank, rank_cutoff) + 1):
        active = int(np.searchsorted(neg_sizes, -k, side="right"))
        x = values[s_starts[:active] + (k - 1)]
        mean_a = mean[:active]
        delta = x - mean_a
        mean_a += delta / k
        m2[:active] += delta * (x - mean_a)
        np.minimum(mn[:active], x, out=mn[:active])
        np.maximum(mx[:active], x, out=mx[:active])
    if max_rank > rank_cutoff:
        n_long = int(np.searchsorted(neg_sizes, -(rank_cutoff + 1), side="right"))
        for j in range(n_long):
            start = int(s_starts[j])
            size = int(s_sizes[j])
            count = rank_cutoff
            g_mean = float(mean[j])
            g_m2 = float(m2[j])
            g_mn = float(mn[j])
            g_mx = float(mx[j])
            for value in values[start + rank_cutoff:start + size].tolist():
                count += 1
                delta = value - g_mean
                g_mean += delta / count
                g_m2 += delta * (value - g_mean)
                if value < g_mn:
                    g_mn = value
                if value > g_mx:
                    g_mx = value
            mean[j] = g_mean
            m2[j] = g_m2
            mn[j] = g_mn
            mx[j] = g_mx
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
    """
    a, b = pack_flow_keys(*(column[rows] for column in keys))
    order = np.lexsort((b, a))
    a_s = a[order]
    b_s = b[order]
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
    :func:`flow_ids`).  Dict insertion order (first appearance of each
    flow) and per-flow sample order both match calling ``table.add`` per
    sample.  Bounded (LRU) tables and quantile tracking depend on the exact
    cross-flow access sequence, so they take the per-sample loop; the
    common unbounded case groups samples by flow with array ops and folds
    each run through the Welford accumulator in one call.
    """
    n = len(values)
    if n == 0:
        return
    if isinstance(table, BoundedFlowStatsTable) or qtable is not None:
        table_add = table.add
        q_add = qtable.add if qtable is not None else None
        for flow, value in zip(ids.tolist(), values.tolist()):
            key = flow_keys[flow]
            table_add(key, value)
            if q_add is not None:
                q_add(key, value)
        return
    order = np.argsort(ids, kind="stable")
    ids_s = ids[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = ids_s[1:] != ids_s[:-1]
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], n)
    firsts = order[starts]  # stable sort => min original index per flow
    grouped_vals = values[order]
    counts, means, m2s, mins, maxs = welford_grouped(grouped_vals, starts, ends)
    # per-flow scalars as plain Python values, extracted in bulk
    group_flows = ids_s[starts].tolist()
    counts_l = counts.tolist()
    means_l = means.tolist()
    m2_l = m2s.tolist()
    mins_l = mins.tolist()
    maxs_l = maxs.tolist()
    vals_list = None
    adopt = table.adopt
    for g in np.argsort(firsts, kind="stable").tolist():
        key = flow_keys[group_flows[g]]
        if key in table:
            # fold into the existing accumulator sample by sample —
            # the precomputed one assumed a fresh start
            if vals_list is None:
                vals_list = grouped_vals.tolist()
            table.add_many(key, vals_list[int(starts[g]):int(ends[g])])
            continue
        stats = StreamingStats()
        stats.count = counts_l[g]
        stats.mean = means_l[g]
        stats._m2 = m2_l[g]
        stats.min = mins_l[g]
        stats.max = maxs_l[g]
        adopt(key, stats)


class FlowStatsTable:
    """Flow key → :class:`StreamingStats`."""

    def __init__(self) -> None:
        self._table: Dict[Key, StreamingStats] = {}

    @classmethod
    def from_items(cls, items: Iterable[Tuple[Key, StreamingStats]]) -> "FlowStatsTable":
        """A table holding *items* in the given iteration order.

        Used by the shard-merge path to rebuild tables in sorted-key order,
        so a merged table's layout is independent of shard completion order.
        """
        table = cls()
        table._table = dict(items)
        return table

    def add(self, key: Key, value: float) -> None:
        stats = self._table.get(key)
        if stats is None:
            stats = StreamingStats()
            self._table[key] = stats
        stats.add(value)

    def add_many(self, key: Key, values) -> None:
        """Fold an ordered run of one flow's samples in (see
        :meth:`StreamingStats.add_many`)."""
        stats = self._table.get(key)
        if stats is None:
            stats = StreamingStats()
            self._table[key] = stats
        stats.add_many(values)

    def adopt(self, key: Key, stats: StreamingStats) -> None:
        """Insert a ready-made accumulator for a *new* flow.

        The grouped batch fold computes whole accumulators out-of-table
        (:func:`welford_grouped`) and installs them here; folding into an
        existing accumulator must go through :meth:`add_many` instead, so
        a duplicate key is a programming error.
        """
        if key in self._table:
            raise ValueError(f"flow {key} already present; use add_many")
        self._table[key] = stats

    def get(self, key: Key) -> Optional[StreamingStats]:
        return self._table.get(key)

    def merge_flow(self, key: Key, stats: StreamingStats) -> None:
        """Fold one flow's accumulator into this table."""
        mine = self._table.get(key)
        if mine is None:
            mine = StreamingStats()
            self._table[key] = mine
        mine.merge(stats)

    def merge(self, other: "FlowStatsTable") -> None:
        """Fold another table in, flow by flow."""
        for key, stats in other._table.items():
            self.merge_flow(key, stats)

    def items(self) -> Iterator[Tuple[Key, StreamingStats]]:
        return iter(self._table.items())

    def keys(self):
        return self._table.keys()

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: Key) -> bool:
        return key in self._table

    def total_samples(self) -> int:
        return sum(s.count for s in self._table.values())


class BoundedFlowStatsTable(FlowStatsTable):
    """A flow table with bounded memory and LRU eviction.

    Hardware measurement instances cannot keep state for an unbounded
    number of flows (the paper's trace has 1.45 M flows per minute).  Real
    per-flow engines (NetFlow caches, RLI's own flow table) bound memory
    and evict; this table evicts the least-recently-updated flow when full,
    counting what was lost so accuracy-vs-memory can be quantified (see the
    memory ablation bench).
    """

    def __init__(self, max_flows: int):
        super().__init__()
        if max_flows < 1:
            raise ValueError(f"max_flows must be >= 1: {max_flows}")
        self.max_flows = max_flows
        self._table = OrderedDict()  # preserves recency order
        self.evicted_flows = 0
        self.evicted_samples = 0

    def add(self, key: Key, value: float) -> None:
        table = self._table
        stats = table.get(key)
        if stats is None:
            if len(table) >= self.max_flows:
                _, victim = table.popitem(last=False)  # least recent
                self.evicted_flows += 1
                self.evicted_samples += victim.count
            stats = StreamingStats()
            table[key] = stats
        else:
            table.move_to_end(key)
        stats.add(value)

    def add_many(self, key: Key, values) -> None:
        """Per-sample adds: LRU recency/eviction depends on every access,
        so a bounded table cannot take the grouped shortcut."""
        for value in values:
            self.add(key, value)
