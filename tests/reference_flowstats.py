"""The per-flow-object flow-stats layer, kept as the oracle (tests only).

:class:`repro.core.flowstats.FlowStatsTable` keeps every flow's Welford
state in columns, and the error join, the summary rows and the pooled mean
read those columns.  This module keeps what they replaced: a dict of one
:class:`~repro.core.flowstats.StreamingStats` per flow, filled by the
grouped fold that adopted one accumulator per new flow (over the rank-wise
Welford with its fixed 128-rank cutoff), and the per-flow loops that read
it.  The loops take anything with ``items()`` and ``get()`` — a plain dict
of accumulators or a :class:`FlowStatsTable` — so the differential tests
can run them on the columnar table and the benches on the old layout.
"""

import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.analysis.metrics import FlowErrorJoin
from repro.core.flowstats import FlowRows, StreamingStats
from repro.traffic.batch import pack_flow_keys

Key = Tuple[int, int, int, int, int]


def per_sample_table(samples) -> Dict[Key, StreamingStats]:
    """(key, value) samples folded one by one through ``StreamingStats.add``."""
    table: Dict[Key, StreamingStats] = {}
    for key, value in samples:
        stats = table.get(key)
        if stats is None:
            stats = table[key] = StreamingStats()
        stats.add(value)
    return table


def reference_welford_grouped(values, starts, ends, rank_cutoff=128):
    """Rank-wise Welford over groups, with the fixed 128-rank cutoff."""
    n_groups = len(starts)
    sizes = np.asarray(ends) - np.asarray(starts)
    counts = sizes.astype(np.int64)
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
            stats = StreamingStats()
            stats.count = rank_cutoff
            stats.mean, stats._m2 = float(mean[j]), float(m2[j])
            stats.min, stats.max = float(mn[j]), float(mx[j])
            start = int(s_starts[j])
            for value in values[start + rank_cutoff:start + int(s_sizes[j])].tolist():
                stats.add(value)
            mean[j], m2[j], mn[j], mx[j] = stats.mean, stats._m2, stats.min, stats.max
    inverse = np.empty(n_groups, dtype=np.int64)
    inverse[by_size] = np.arange(n_groups)
    return counts, mean[inverse], m2[inverse], mn[inverse], mx[inverse]


def reference_flow_ids(keys, rows) -> Tuple[np.ndarray, List[Key]]:
    """:func:`repro.core.flowstats.flow_ids` as one two-word lexsort."""
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


def object_fold(table: Dict[Key, StreamingStats], ids, flow_keys, values) -> None:
    """The grouped fold into one ``StreamingStats`` per flow.

    Groups samples by flow with array ops, folds new flows with
    :func:`reference_welford_grouped` and adopts one accumulator per flow
    in first-appearance order; a flow already in *table* continues its
    accumulator sample by sample.
    """
    n = len(values)
    if n == 0:
        return
    order = np.argsort(ids, kind="stable")
    ids_s = ids[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = ids_s[1:] != ids_s[:-1]
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], n)
    firsts = order[starts]
    grouped_vals = values[order]
    counts, means, m2s, mins, maxs = reference_welford_grouped(grouped_vals, starts, ends)
    group_flows = ids_s[starts].tolist()
    counts_l, means_l, m2_l = counts.tolist(), means.tolist(), m2s.tolist()
    mins_l, maxs_l = mins.tolist(), maxs.tolist()
    vals_list = None
    for g in np.argsort(firsts, kind="stable").tolist():
        key = flow_keys[group_flows[g]]
        stats = table.get(key)
        if stats is not None:
            if vals_list is None:
                vals_list = grouped_vals.tolist()
            for value in vals_list[int(starts[g]):int(ends[g])]:
                stats.add(value)
            continue
        stats = StreamingStats()
        stats.count = counts_l[g]
        stats.mean = means_l[g]
        stats._m2 = m2_l[g]
        stats.min = mins_l[g]
        stats.max = maxs_l[g]
        table[key] = stats


def reference_flow_errors(estimated, true, value_of: Callable[[StreamingStats], float],
                          min_count: int = 1) -> FlowErrorJoin:
    """The per-flow join loop over accumulators."""
    errors: List[float] = []
    missing = 0
    zero = 0
    joined = 0
    for key, truth in true.items():
        if truth.count < min_count:
            continue
        est = estimated.get(key)
        if est is None:
            missing += 1
            continue
        t = value_of(truth)
        if t <= 0:
            zero += 1
            continue
        joined += 1
        errors.append(abs(value_of(est) - t) / t)
    return FlowErrorJoin(np.array(errors, dtype=np.float64), joined, missing, zero)


def reference_mean_errors(estimated, true) -> FlowErrorJoin:
    return reference_flow_errors(estimated, true, lambda s: s.mean)


def reference_std_errors(estimated, true) -> FlowErrorJoin:
    return reference_flow_errors(estimated, true, lambda s: s.std, min_count=2)


def reference_table_rows(table) -> Dict[Key, Tuple[int, float, float]]:
    """(count, mean, std) per flow, one accumulator at a time."""
    sqrt = math.sqrt
    return {
        key: (s.count, s.mean, sqrt(s._m2 / s.count) if s.count >= 2 else 0.0)
        for key, s in table.items()
    }


def packed_key(key: Key) -> Tuple[int, int]:
    """A 5-tuple's two key words, by the formula in plain ints."""
    src, dst, sport, dport, proto = key
    return (src << 32) | dst, (sport << 24) | (dport << 8) | proto


def reference_flow_rows(table) -> FlowRows:
    """:meth:`FlowRows.of`, built from :func:`reference_table_rows`."""
    rows = reference_table_rows(table)
    words = [packed_key(key) for key in rows]
    counts, means, stds = zip(*rows.values()) if rows else ((), (), ())
    return FlowRows(np.array([a for a, _ in words], dtype=np.uint64),
                    np.array([b for _, b in words], dtype=np.uint64),
                    np.array(counts, dtype=np.int64), np.array(means, dtype=np.float64),
                    np.array(stds, dtype=np.float64))


def reference_pooled(items) -> StreamingStats:
    """Accumulators of (key, stats) *items* merged in the given order."""
    pooled = StreamingStats()
    for _, stats in items:
        pooled.merge(stats)
    return pooled


def stats_dump(items) -> list:
    """(key, count, and every float field as hex) per flow, in order."""
    return [(key, s.count, s.mean.hex(), s._m2.hex(), s.min.hex(), s.max.hex())
            for key, s in items]


def join_dump(join: FlowErrorJoin) -> tuple:
    """A join's errors as hex plus its counters."""
    return ([e.hex() for e in join.errors], join.joined, join.skipped_missing,
            join.skipped_zero)
