"""Unit tests for observation-log replay and flow-table merging."""

import pytest

import numpy as np

from repro.core.flowstats import FlowStatsTable, pooled_stats
from repro.core.obslog import ObservationColumns
from repro.core.replay import replay_observations
from repro.core.receiver import REF_OBS, REG_OBS


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

    def test_unknown_tag_rejected(self):
        """A log whose tag column holds an unknown tag fails loudly,
        naming the first bad row."""
        log = synthetic_log()
        log.extend_batch(np.array([REG_OBS, 7, 9]), np.zeros(3), np.ones(3),
                         np.zeros(3), [np.zeros(3)] * 5)
        with pytest.raises(ValueError, match="tag 7 at log row 8"):
            replay_observations(log)

    def test_receiver_log_replays_to_identical_tables(self, tiny_workload):
        """A recorded pipeline receiver replays to the exact tables a
        live receiver fed the same stream accumulated."""
        from reference_replay import TeeReceiver
        from repro.sim.pipeline import TwoSwitchPipeline

        log = ObservationColumns()
        sender = tiny_workload.make_sender("static")
        receiver = tiny_workload.make_receiver()
        tee = TeeReceiver(receiver, tiny_workload.make_receiver(observation_log=log))

        TwoSwitchPipeline(tiny_workload.pipeline_config).run(
            regular=tiny_workload.regular.clone_packets(),
            cross=tiny_workload.cross_arrivals("random", 0.67),
            sender=sender,
            receiver=tee,
            duration=tiny_workload.cfg.duration,
        )
        tee.finalize()
        replayed = replay_observations(log)
        assert len(receiver.flow_true) > 0
        assert len(replayed.true) == len(receiver.flow_true)
        for key, stats in receiver.flow_true.items():
            assert replayed.true.get(key).mean == stats.mean
        for key, stats in receiver.flow_estimated.items():
            mine = replayed.estimated.get(key)
            assert mine.count == stats.count
            assert mine.mean == stats.mean


class TestMergeHelpers:
    def test_merge_orders_keys(self):
        """Merging appends new flows in order; ``sorted_by_key`` sorts."""
        t1, t2 = FlowStatsTable(), FlowStatsTable()
        t2.add((1, 0, 0, 0, 0), 1e-6)
        t1.add((2, 0, 0, 0, 0), 2e-6)
        t1.merge(t2)
        assert list(t1.keys()) == [(2, 0, 0, 0, 0), (1, 0, 0, 0, 0)]
        assert list(t1.sorted_by_key().keys()) == [(1, 0, 0, 0, 0),
                                                   (2, 0, 0, 0, 0)]

    def test_pooled_stats_sorted_fold(self):
        t = FlowStatsTable()
        t.add((5, 0, 0, 0, 0), 10e-6)
        t.add((1, 0, 0, 0, 0), 30e-6)
        pooled = pooled_stats(t.sorted_by_key())
        assert pooled.count == 2
        assert pooled.mean == pytest.approx(20e-6)

    def test_merge_folds_duplicate_keys(self):
        t1, t2 = FlowStatsTable(), FlowStatsTable()
        t1.add((1, 0, 0, 0, 0), 1e-6)
        t2.add((1, 0, 0, 0, 0), 3e-6)
        t1.merge(t2)
        assert t1.get((1, 0, 0, 0, 0)).count == 2
