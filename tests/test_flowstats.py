"""Tests for streaming per-flow statistics (Welford accumulators)."""

import dataclasses
import math
import pickle
import pickletools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import flow_mean_errors, flow_std_errors
from repro.core import flowstats
from repro.core.flowstats import (
    BoundedFlowStatsTable,
    FlowRows,
    FlowStatsTable,
    StreamingStats,
    fold_flow_samples,
    pooled_stats,
    welford_grouped,
)
from reference_flowstats import (
    join_dump,
    packed_key,
    per_sample_table,
    reference_flow_ids,
    reference_flow_rows,
    reference_mean_errors,
    reference_pooled,
    reference_std_errors,
    reference_table_rows,
    reference_welford_grouped,
    stats_dump,
)

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestStreamingStats:
    def test_empty(self):
        s = StreamingStats()
        assert s.count == 0
        assert s.variance == 0.0

    def test_single_value(self):
        s = StreamingStats()
        s.add(3.0)
        assert s.mean == 3.0
        assert s.std == 0.0
        assert s.min == s.max == 3.0

    def test_matches_numpy(self):
        values = [1.5, 2.5, -3.0, 4.0, 0.0, 10.0]
        s = StreamingStats()
        for v in values:
            s.add(v)
        assert s.mean == pytest.approx(np.mean(values))
        assert s.variance == pytest.approx(np.var(values))
        assert s.std == pytest.approx(np.std(values))

    def test_min_max(self):
        s = StreamingStats()
        for v in (3.0, -1.0, 7.0):
            s.add(v)
        assert s.min == -1.0 and s.max == 7.0

    @given(st.lists(floats, min_size=1, max_size=100))
    def test_mean_var_property(self, values):
        s = StreamingStats()
        for v in values:
            s.add(v)
        assert s.count == len(values)
        assert s.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(np.var(values), rel=1e-6, abs=1e-6)

    @given(st.lists(floats, min_size=0, max_size=50),
           st.lists(floats, min_size=0, max_size=50))
    def test_merge_equals_concatenation(self, a, b):
        sa, sb, sc = StreamingStats(), StreamingStats(), StreamingStats()
        for v in a:
            sa.add(v)
            sc.add(v)
        for v in b:
            sb.add(v)
            sc.add(v)
        sa.merge(sb)
        assert sa.count == sc.count
        if sc.count:
            assert sa.mean == pytest.approx(sc.mean, rel=1e-9, abs=1e-6)
            assert sa.variance == pytest.approx(sc.variance, rel=1e-6, abs=1e-6)
            assert sa.min == sc.min and sa.max == sc.max

    def test_merge_into_empty(self):
        a, b = StreamingStats(), StreamingStats()
        b.add(2.0)
        b.add(4.0)
        a.merge(b)
        assert a.count == 2 and a.mean == 3.0


KEY1 = (1, 2, 3, 4, 6)
KEY2 = (5, 6, 7, 8, 6)


class TestFlowStatsTable:
    def test_add_and_get(self):
        t = FlowStatsTable()
        t.add(KEY1, 1.0)
        t.add(KEY1, 3.0)
        assert t.get(KEY1).mean == 2.0
        assert t.get(KEY2) is None
        assert KEY1 in t and KEY2 not in t

    def test_len_and_totals(self):
        t = FlowStatsTable()
        t.add(KEY1, 1.0)
        t.add(KEY2, 1.0)
        t.add(KEY2, 2.0)
        assert len(t) == 2
        assert t.total_samples() == 3

    def test_merge_tables(self):
        a, b = FlowStatsTable(), FlowStatsTable()
        a.add(KEY1, 1.0)
        b.add(KEY1, 3.0)
        b.add(KEY2, 5.0)
        a.merge(b)
        assert a.get(KEY1).count == 2
        assert a.get(KEY1).mean == 2.0
        assert a.get(KEY2).mean == 5.0

    def test_items_iteration(self):
        t = FlowStatsTable()
        t.add(KEY1, 1.0)
        assert dict(t.items())[KEY1].count == 1


# ----------------------------------------------------------------------
# the columnar fold against per-sample StreamingStats.add, bit for bit

HANDOFF = flowstats._RANK_HANDOFF


def flow_key(i):
    return (i, 7, 1000 + i, 80, 6)


def run_of(sizes, seed, values=None):
    """(ids, values) of flows with the given sample counts, interleaved in
    a seeded random order; *values* overrides the drawn delays."""
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(ids)
    if values is None:
        values = rng.exponential(20e-6, len(ids))
    return ids.astype(np.int64), np.asarray(values, dtype=float)


def fold_both(runs, n_flows, table=None):
    """Fold *runs* through the columnar table and one by one through
    ``StreamingStats.add``; returns (columnar table, per-sample dict)."""
    keys = [flow_key(i) for i in range(n_flows)]
    table = FlowStatsTable() if table is None else table
    samples = []
    for ids, values in runs:
        fold_flow_samples(table, None, ids, keys, values)
        samples.extend((keys[i], v) for i, v in zip(ids.tolist(), values.tolist()))
    return table, per_sample_table(samples)


def assert_same_stats(table, reference):
    assert stats_dump(table.items()) == stats_dump(reference.items())
    assert list(table.keys()) == list(reference)


class TestColumnarFoldOracle:
    def test_one_sample_flows(self):
        table, ref = fold_both([run_of([1] * 50, 1)], 50)
        assert_same_stats(table, ref)

    @pytest.mark.parametrize("n_groups", [HANDOFF - 1, HANDOFF, HANDOFF + 1, 3 * HANDOFF])
    def test_flows_at_the_handoff_length(self, n_groups):
        sizes = [(HANDOFF - 1, HANDOFF, HANDOFF + 1)[i % 3] for i in range(n_groups)]
        table, ref = fold_both([run_of(sizes, n_groups)], n_groups)
        assert_same_stats(table, ref)

    def test_one_flow_longer_than_every_other(self):
        sizes = [3] * 40 + [500] + [HANDOFF + 1] * 5
        table, ref = fold_both([run_of(sizes, 2)], len(sizes))
        assert_same_stats(table, ref)

    def test_all_equal_values_leave_no_defined_std(self):
        sizes = [1, 2, 5, 40] * 10
        ids, _ = run_of(sizes, 3)
        table, ref = fold_both([(ids, np.full(len(ids), 12.5e-6))], len(sizes))
        assert_same_stats(table, ref)
        assert all(s._m2 == 0.0 for _, s in table.items())
        join = flow_std_errors(table, table)
        assert join.joined == 0
        assert join.skipped_zero == sum(1 for n in sizes if n >= 2)
        assert join_dump(join) == join_dump(reference_std_errors(table, table))

    def test_second_fold_into_an_existing_table(self):
        first = run_of([4, 1, HANDOFF + 3] * 15, 4)
        second_ids, second_values = run_of([2, 0, 7, 1] * 15 + [3] * 10, 5)
        table, ref = fold_both([first, (second_ids, second_values)], 70)
        assert_same_stats(table, ref)

    def test_empty_fold(self):
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0))
        table, ref = fold_both([empty], 3)
        assert len(table) == 0 and table.total_samples() == 0
        table, ref = fold_both([run_of([2, 3], 6), empty], 2)
        assert_same_stats(table, ref)

    def test_welford_grouped_matches_the_fixed_cutoff_loop(self):
        sizes = [1, HANDOFF - 1, HANDOFF, HANDOFF + 1, 129, 300] * 8
        ids, values = run_of(sizes, 7)
        order = np.argsort(ids, kind="stable")
        ends = np.add.accumulate(sizes)
        starts = ends - np.asarray(sizes)
        for got, want in zip(welford_grouped(values[order], starts, ends),
                             reference_welford_grouped(values[order], starts, ends)):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3 * HANDOFF), min_size=1, max_size=90),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=3),
           st.floats(min_value=0.0, max_value=1.0))
    def test_random_multi_flow_runs(self, sizes, seed, n_levels, split):
        """Random flow sizes and interleavings, folded in two runs; with
        *n_levels* > 0 the values come from that many levels (exact ties)."""
        rng = np.random.default_rng(seed)
        ids, values = run_of(sizes, seed)
        if n_levels:
            values = rng.integers(0, n_levels, len(ids)) * 1e-6
        cut = int(len(ids) * split)
        table, ref = fold_both([(ids[:cut], values[:cut]), (ids[cut:], values[cut:])],
                               len(sizes))
        assert_same_stats(table, ref)


# ----------------------------------------------------------------------
# the column readers against the per-flow loops they replaced


def joined_tables(seed, table_factory=FlowStatsTable):
    """True and estimated tables over a shared flow set: the estimate
    misses some flows, some flows have one sample, some a zero truth."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 3 * HANDOFF, 120)
    ids, truth = run_of(sizes, seed)
    truth[np.isin(ids, np.arange(0, 120, 17))] = 0.0
    estimate = truth * rng.normal(1.0, 0.2, len(truth))
    measured = ~np.isin(ids, np.arange(0, 120, 11))
    keys = [flow_key(i) for i in range(120)]
    true, est = table_factory(), table_factory()
    fold_flow_samples(true, None, ids, keys, truth)
    fold_flow_samples(est, None, ids[measured], keys, estimate[measured])
    return est, true


class TestColumnReadersOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_error_joins(self, seed):
        est, true = joined_tables(seed)
        for vectorized, loop in ((flow_mean_errors, reference_mean_errors),
                                 (flow_std_errors, reference_std_errors)):
            join = vectorized(est, true)
            assert join_dump(join) == join_dump(loop(est, true))
            assert join.skipped_missing and join.skipped_zero
            assert join.errors.dtype == np.float64 and join.errors.ndim == 1

    def test_error_joins_on_bounded_tables(self):
        # an LRU table's column order (recency) differs from its slot order
        est, true = joined_tables(3, lambda: BoundedFlowStatsTable(max_flows=60))
        assert est.evicted_flows and list(est.keys()) != sorted(est.keys())
        for vectorized, loop in ((flow_mean_errors, reference_mean_errors),
                                 (flow_std_errors, reference_std_errors)):
            assert join_dump(vectorized(est, true)) == join_dump(loop(est, true))
            assert join_dump(vectorized(true, est)) == join_dump(loop(true, est))

    @pytest.mark.parametrize("bounded", [False, True])
    def test_summary_rows(self, bounded):
        factory = (lambda: BoundedFlowStatsTable(max_flows=60)) if bounded else FlowStatsTable
        for table in joined_tables(4, factory):
            rows = FlowRows.of(table)
            want = reference_table_rows(table)
            assert [column.dtype for column in (rows.key_a, rows.key_b, rows.count,
                                                rows.mean, rows.std)] == \
                [np.uint64, np.uint64, np.int64, np.float64, np.float64]
            assert list(zip(rows.key_a.tolist(), rows.key_b.tolist())) == \
                [packed_key(key) for key in want]
            assert list(zip(rows.count.tolist(), map(float.hex, rows.mean.tolist()),
                            map(float.hex, rows.std.tolist()))) == \
                [(c, m.hex(), s.hex()) for c, m, s in want.values()]
            assert rows == reference_flow_rows(table)
            assert len(rows) == len(table)

    def test_pooled_mean_in_table_and_sorted_order(self):
        est, true = joined_tables(5)
        # flows with far-apart means: the merge's between-flow term dominates m2
        ids, values = run_of([1, 2, 3, 50] * 30, 9)
        spread = FlowStatsTable()
        fold_flow_samples(spread, None, ids, [flow_key(i) for i in range(120)],
                          values + ids * 3e-6)
        for table in (est, true, spread):
            assert stats_dump([(0, pooled_stats(table))]) == \
                stats_dump([(0, reference_pooled(table.items()))])
            in_key_order = sorted(table.items())
            assert stats_dump([(0, pooled_stats(table.sorted_by_key()))]) == \
                stats_dump([(0, reference_pooled(in_key_order))])

    def test_table_merge_matches_accumulator_merges(self):
        a, _ = joined_tables(6)
        b, _ = joined_tables(7)
        want = {key: s for key, s in a.items()}
        for key, stats in b.items():
            if key in want:
                want[key].merge(stats)
            else:
                want[key] = stats
        a.merge(b)
        assert stats_dump(a.items()) == stats_dump(want.items())
        assert stats_dump(a.sorted_by_key().items()) == stats_dump(sorted(want.items()))


def key_columns(n_keys, seed, n_pairs, n_ports):
    """Five flow-key columns whose (src, dst) pairs and ports come from
    small pools, so many flows share a pair and many rows share a key."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, 2**32, size=(max(n_pairs, 1), 2))
    pick = rng.integers(0, len(pairs), size=n_keys)
    return (pairs[pick, 0], pairs[pick, 1],
            rng.integers(0, n_ports, size=n_keys) * 4099 % 65536,
            rng.integers(0, n_ports, size=n_keys) * 7919 % 65536,
            rng.choice(np.array([6, 17]), size=n_keys))


def assert_flow_ids_match(keys, rows):
    ids, flow_keys = flowstats.flow_ids(keys, rows)
    want_ids, want_keys = reference_flow_ids(keys, rows)
    assert ids.dtype == want_ids.dtype
    assert ids.tolist() == want_ids.tolist()
    assert flow_keys == want_keys


class TestFlowIdsOracle:
    """``flow_ids`` sorts on the (src, dst) word and repairs the ties; its
    numbering must equal the two-word lexsort's, whatever the ties."""

    @given(n_keys=st.integers(1, 60), n_rows=st.integers(0, 200),
           seed=st.integers(0, 2**31), n_pairs=st.integers(1, 6),
           n_ports=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_lexsort(self, n_keys, n_rows, seed, n_pairs, n_ports):
        keys = key_columns(n_keys, seed, n_pairs, n_ports)
        rows = np.random.default_rng(seed + 1).integers(0, n_keys, size=n_rows)
        assert_flow_ids_match(keys, rows)

    def test_many_flows_share_one_pair(self):
        keys = key_columns(300, 3, 1, 40)
        rows = np.random.default_rng(4).integers(0, 300, size=2000)
        assert_flow_ids_match(keys, rows)
        assert len(flowstats.flow_ids(keys, rows)[1]) > 100

    def test_every_row_identical(self):
        keys = key_columns(1, 5, 1, 1)
        assert_flow_ids_match(keys, np.zeros(50, dtype=np.int64))

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_empty_and_one_row(self, n_rows):
        assert_flow_ids_match(key_columns(4, 6, 2, 2),
                              np.arange(n_rows, dtype=np.int64))


def test_fig4a_condition_builds_no_per_flow_accumulators(monkeypatch):
    """Between the fold and the summary the flow tables stay in columns:
    the one accumulator a default fig4a condition builds is the pooled
    mean's result."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.workloads import (PipelineWorkload, run_condition,
                                             summarize_condition)

    cfg = ExperimentConfig(scale=0.05)
    workload = PipelineWorkload(cfg)
    created = []
    original = StreamingStats.__init__

    def counting_init(self):
        created.append(1)
        original(self)

    monkeypatch.setattr(StreamingStats, "__init__", counting_init)
    condition = run_condition(workload, "adaptive", "random", max(cfg.fig4ab_utilizations))
    summary = summarize_condition(condition)
    assert len(summary.flow_true) > 100
    assert len(created) == 1


def test_summary_pickles_per_flow_data_as_arrays():
    """A condition summary carries its flows as columns: its pickle grows
    by at most 64 bytes per flow row and by no pickle opcode per flow."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.workloads import (PipelineWorkload, run_condition,
                                             summarize_condition)

    cfg = ExperimentConfig(scale=0.05)
    condition = run_condition(PipelineWorkload(cfg), "adaptive", "random",
                              max(cfg.fig4ab_utilizations))
    summary = summarize_condition(condition)
    flows = len(summary.flow_true) + len(summary.flow_estimated)
    assert len(summary.flow_true) > 100 and len(summary.mean_join.errors) > 100
    no_flows = dataclasses.replace(
        summary, flow_true=FlowRows.empty(), flow_estimated=FlowRows.empty(),
        mean_join=dataclasses.replace(summary.mean_join, errors=np.zeros(0)),
        std_join=dataclasses.replace(summary.std_join, errors=np.zeros(0)))

    def dumped(value):
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    assert len(dumped(summary)) - len(dumped(no_flows)) <= 64 * flows
    opcodes = [sum(1 for _ in pickletools.genops(dumped(value)))
               for value in (summary, no_flows)]
    assert opcodes[0] - opcodes[1] <= 16
    assert pickle.loads(dumped(summary)) == summary


class TestFlowRows:
    """The columnar summary rows are a value: equal by bits, one row
    lookup by key, and pickled as arrays."""

    def test_equality_is_bitwise(self):
        est, true = joined_tables(8)
        rows = FlowRows.of(true)
        assert rows == FlowRows.of(true) and rows != FlowRows.of(est)
        assert (rows == rows) is True
        nan = dataclasses.replace(rows, mean=np.full(len(rows), math.nan))
        assert nan == dataclasses.replace(rows, mean=np.full(len(rows), math.nan))
        zero = dataclasses.replace(rows, std=np.zeros(len(rows)))
        assert zero != dataclasses.replace(rows, std=-np.zeros(len(rows)))
        assert rows != dataclasses.replace(rows, count=rows.count.astype(np.int32))
        assert pickle.loads(pickle.dumps(rows)) == rows
        assert FlowRows.empty() == FlowRows.of(BoundedFlowStatsTable(max_flows=4))
        assert len(FlowRows.empty()) == 0

    def test_join_equality_is_bitwise(self):
        est, true = joined_tables(9)
        join = flow_mean_errors(est, true)
        assert join == flow_mean_errors(est, true)
        assert join != flow_mean_errors(true, est)
        assert join != dataclasses.replace(join, skipped_zero=join.skipped_zero + 1)
        assert join != dataclasses.replace(join, errors=join.errors.astype(np.float32))
        assert join != dataclasses.replace(join, errors=join.errors[:-1])
        assert (join == join) is True

    @pytest.mark.parametrize("bounded", [False, True])
    def test_rows_of_finds_each_flow(self, bounded):
        factory = (lambda: BoundedFlowStatsTable(max_flows=60)) if bounded else FlowStatsTable
        est, true = joined_tables(10, factory)
        rows = FlowRows.of(est)
        keys = [flow_key(i) for i in range(120)] + [(1, 2, 3, 4, 17)]
        found = rows.rows_of(keys)
        assert found.dtype == np.int64
        cols = est.columns()
        for key, row in zip(keys, found.tolist()):
            if key in est:
                assert cols.keys[row] == key
                assert rows.count[row] == est.get(key).count
            else:
                assert row == -1
        assert (found == -1).any() and (found >= 0).any()
        assert rows.rows_of([]).tolist() == []
