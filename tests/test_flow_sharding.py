"""Unit tests for flow-hash sharding and observation-log replay."""

import pytest

import numpy as np

from repro.core.flowstats import FlowStatsTable, StreamingStats, pooled_stats
from repro.core.obslog import ObservationColumns
from repro.core.replay import merge_shard_tables, replay_observations
from repro.core.receiver import REF_OBS, REG_OBS
from repro.traffic.divider import flow_shard
from repro.traffic.synthetic import TraceConfig, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TraceConfig(duration=0.5, n_packets=2000), seed=11)


class TestFlowShard:
    def test_stable_and_in_range(self):
        key = (167837697, 167903233, 4242, 80, 6)
        assert flow_shard(key, 4) == flow_shard(key, 4)
        for n in (1, 2, 3, 7):
            assert 0 <= flow_shard(key, n) < n

    def test_single_shard_is_identity(self):
        assert flow_shard((1, 2, 3, 4, 5), 1) == 0

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            flow_shard((1, 2, 3, 4, 5), 0)

    def test_spreads_flows(self, trace):
        counts = [0, 0, 0, 0]
        for key in {p.flow_key for p in trace}:
            counts[flow_shard(key, 4)] += 1
        assert all(c > 0 for c in counts)
        assert max(counts) < 2 * min(counts) + 10  # roughly balanced

    def test_partitions_a_trace_exhaustively(self, trace):
        """Every flow lands in exactly one shard — a true partition."""
        keys = {p.flow_key for p in trace}
        shards = [{k for k in keys if flow_shard(k, 3) == s} for s in range(3)]
        assert set().union(*shards) == keys
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (shards[i] & shards[j])


def synthetic_log():
    """A two-stream log: refs bracketing regulars from three flows."""
    a, b, c = (1, 9, 1, 1, 6), (2, 9, 2, 2, 6), (3, 9, 3, 3, 6)
    return ObservationColumns([
        (REF_OBS, 0, 0.010, 20e-6),
        (REG_OBS, 0, 0.012, a, 25e-6),
        (REG_OBS, 0, 0.014, b, 28e-6),
        (REF_OBS, 0, 0.020, 30e-6),
        (REG_OBS, 1, 0.021, c, 50e-6),
        (REF_OBS, 1, 0.030, 55e-6),
        (REG_OBS, 0, 0.031, a, 31e-6),  # tail: resolved one-sided at flush
    ])


class TestReplay:
    def test_full_replay_builds_tables(self):
        tables = replay_observations(synthetic_log())
        assert len(tables.true) == 3
        assert len(tables.estimated) == 3
        assert tables.unestimated == 0
        a = tables.estimated.get((1, 9, 1, 1, 6))
        assert a.count == 2  # interpolated + flushed tail

    def test_sharded_union_equals_full(self):
        full = replay_observations(synthetic_log())
        parts = [replay_observations(synthetic_log(), shard=s, n_shards=3)
                 for s in range(3)]
        merged_true = merge_shard_tables(p.true for p in parts)
        merged_est = merge_shard_tables(p.estimated for p in parts)
        for key, stats in full.true.items():
            assert merged_true.get(key).mean == stats.mean
            assert merged_true.get(key).count == stats.count
        for key, stats in full.estimated.items():
            assert merged_est.get(key).mean == stats.mean

    def test_bad_shard_rejected(self):
        with pytest.raises(ValueError):
            replay_observations(synthetic_log(), shard=3, n_shards=3)

    def test_unknown_tag_rejected(self):
        """A log whose tag column holds an unknown tag fails loudly,
        naming the first bad row."""
        log = synthetic_log()
        log.extend_batch(np.array([REG_OBS, 7, 9]), np.zeros(3), np.ones(3),
                         np.zeros(3), [np.zeros(3)] * 5)
        with pytest.raises(ValueError, match="tag 7 at log row 8"):
            replay_observations(log)

    def test_receiver_log_replays_to_identical_tables(self, tiny_workload):
        """A recorded pipeline receiver replays to the exact tables the
        live receiver accumulated."""
        from repro.experiments.workloads import run_condition

        log = ObservationColumns()
        sender = tiny_workload.make_sender("static")
        receiver = tiny_workload.make_receiver(observation_log=log)
        from repro.sim.pipeline import TwoSwitchPipeline

        TwoSwitchPipeline(tiny_workload.pipeline_config).run(
            regular=tiny_workload.regular.clone_packets(),
            cross=tiny_workload.cross_arrivals("random", 0.67),
            sender=sender,
            receiver=receiver,
            duration=tiny_workload.cfg.duration,
        )
        receiver.finalize()
        replayed = replay_observations(log)
        assert len(replayed.true) == len(receiver.flow_true)
        for key, stats in receiver.flow_true.items():
            assert replayed.true.get(key).mean == stats.mean
        for key, stats in receiver.flow_estimated.items():
            mine = replayed.estimated.get(key)
            assert mine.count == stats.count
            assert mine.mean == stats.mean


class TestMergeHelpers:
    def test_merge_orders_keys(self):
        t1, t2 = FlowStatsTable(), FlowStatsTable()
        t2.add((1, 0, 0, 0, 0), 1e-6)
        t1.add((2, 0, 0, 0, 0), 2e-6)
        merged = merge_shard_tables([t1, t2])
        assert list(merged.keys()) == [(1, 0, 0, 0, 0), (2, 0, 0, 0, 0)]

    def test_pooled_stats_sorted_fold(self):
        t = FlowStatsTable()
        t.add((5, 0, 0, 0, 0), 10e-6)
        t.add((1, 0, 0, 0, 0), 30e-6)
        pooled = pooled_stats(merge_shard_tables([t]))
        assert pooled.count == 2
        assert pooled.mean == pytest.approx(20e-6)

    def test_merge_folds_duplicate_keys(self):
        t1, t2 = FlowStatsTable(), FlowStatsTable()
        t1.add((1, 0, 0, 0, 0), 1e-6)
        t2.add((1, 0, 0, 0, 0), 3e-6)
        merged = merge_shard_tables([t1, t2])
        assert merged.get((1, 0, 0, 0, 0)).count == 2
