"""Columnar observation logs and their replay.

:class:`~repro.core.obslog.ObservationColumns` is the one log
representation: every event round-trips the typed columns bit-exactly,
and a malformed bulk append or tag column fails loudly.  The columnar
replay (the shared estimate kernel on the log's columns) must rebuild
bitwise the tables of the per-tuple reference replay
(``tests/reference_replay.py``) — values, insertion order and the
unestimated count — for every estimator.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interpolation import ESTIMATORS
from repro.core.obslog import ObservationColumns
from repro.core.receiver import REF_OBS, REG_OBS
from repro.core.replay import replay_observations

from reference_replay import events_of, reference_replay, tables_dump


def synthetic_events():
    a, b = (167837697, 167903233, 4242, 80, 6), (2, 9, 2, 2, 17)
    return [
        (REF_OBS, 0, 0.010, 20e-6),
        (REG_OBS, 0, 0.012, a, 25.3e-6),
        (REG_OBS, 1, 0.014, b, 28.7e-6),
        (REF_OBS, 1, 0.020, 30e-6),
        (REG_OBS, 0, 0.031, a, 31e-6),
    ]


def record_tiny_run(workload):
    """One record-only pipeline run of *workload*; returns its log."""
    from repro.sim.pipeline import TwoSwitchPipeline

    log = ObservationColumns()
    sender = workload.make_sender("static")
    receiver = workload.make_receiver(observation_log=log)
    TwoSwitchPipeline(workload.pipeline_config).run(
        regular=workload.regular.clone_packets(),
        cross=workload.cross_arrivals("random", 0.67),
        sender=sender,
        receiver=receiver,
        duration=workload.cfg.duration,
    )
    receiver.finalize()
    return log


class TestObservationColumns:
    def test_roundtrips_exact_tuples(self):
        events = synthetic_events()
        columns = ObservationColumns(events)
        assert len(columns) == len(events)
        assert events_of(columns) == events

    def test_floats_roundtrip_bitwise(self):
        # values that don't have short decimal representations
        value = 1.0 / 3.0
        now = 2.0 / 7.0
        columns = ObservationColumns([(REF_OBS, 0, now, value)])
        _, _, got_now, got_value = events_of(columns)[0]
        assert (got_now, got_value) == (now, value)
        assert pickle.dumps(got_value) == pickle.dumps(value)

    def test_append_api_matches_list(self):
        as_list, as_columns = [], ObservationColumns()
        for event in synthetic_events():
            as_list.append(event)
            as_columns.append(event)
        assert events_of(as_columns) == as_list

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            ObservationColumns().append((7, 0, 0.0, 0.0))

    def test_pickle_roundtrip(self):
        columns = ObservationColumns(synthetic_events())
        clone = pickle.loads(pickle.dumps(columns))
        assert events_of(clone) == events_of(columns)

    def test_columns_are_smaller_than_tuples(self):
        import sys

        events = synthetic_events() * 200
        columns = ObservationColumns(events)
        tuple_floor = sum(sys.getsizeof(e) for e in events)  # tuples alone
        assert columns.nbytes < tuple_floor

    def test_numpy_views(self):
        columns = ObservationColumns(synthetic_events())
        arrays = columns.arrays()
        assert arrays["tag"].tolist() == [REF_OBS, REG_OBS, REG_OBS,
                                          REF_OBS, REG_OBS]
        assert arrays["time"].tolist() == [e[2] for e in synthetic_events()]
        assert arrays["key"][0][1] == 167837697


    def test_extend_batch_rejects_mismatched_columns(self):
        """A bulk append whose columns disagree in length would misalign
        the log: it raises and appends nothing."""
        columns = ObservationColumns(synthetic_events())
        good = [np.zeros(3)] * 5
        with pytest.raises(ValueError, match="equal-length"):
            columns.extend_batch(np.ones(3), np.zeros(2), np.ones(3),
                                 np.zeros(3), good)
        with pytest.raises(ValueError, match="equal-length"):
            columns.extend_batch(np.ones(3), np.zeros(3), np.ones(3),
                                 np.zeros(3), good[:4] + [np.zeros(4)])
        with pytest.raises(ValueError, match="equal-length"):
            columns.extend_batch(np.ones(3), np.zeros(3), np.ones(3),
                                 np.zeros(3), good[:4])
        assert events_of(columns) == synthetic_events()


class TestReplayEquivalence:
    def test_synthetic_replay_identical(self):
        events = synthetic_events()
        assert tables_dump(replay_observations(ObservationColumns(events))) \
            == tables_dump(reference_replay(events))

    def test_recorded_receiver_replay_identical(self, tiny_workload):
        """A real pipeline run's log replays to the reference tables."""
        log = record_tiny_run(tiny_workload)
        assert tables_dump(replay_observations(log)) \
            == tables_dump(reference_replay(events_of(log)))

    def test_deployment_array_mode_matches_tuple_mode(self):
        """The record_observations knob end to end: every segment log of
        an RLIR deployment is columnar and replays to the tables the
        per-tuple reference replay builds from its events."""
        from repro.core.injection import StaticInjection
        from repro.core.rlir import RlirDeployment
        from repro.sim.topology import FatTree, LinkParams
        from repro.traffic.synthetic import TraceConfig, generate_fattree_trace

        ft = FatTree(4, LinkParams(rate_bps=1e9, buffer_bytes=256 * 1024))
        deployment = RlirDeployment(
            ft, src=(0, 0), dst=(1, 0),
            policy_factory=lambda: StaticInjection(20),
            record_observations=True,
        )
        pairs = [(ft.host_address(0, 0, h), ft.host_address(1, 0, g))
                 for h in range(2) for g in range(2)]
        trace = generate_fattree_trace(
            TraceConfig(duration=1.0, n_packets=1500, mean_flow_pkts=12.0),
            pairs, seed=5)
        deployment.run([trace])
        for name, log in deployment.observation_logs():
            assert isinstance(log, ObservationColumns), name
            assert tables_dump(replay_observations(log)) \
                == tables_dump(reference_replay(events_of(log))), name


# ----------------------------------------------------------------------
# differential oracle: columnar replay vs the per-tuple reference

FLOWS = [(167837697 + i, 167903233 - i, 4000 + 7 * i, 80, 6 if i % 2 else 17)
         for i in range(6)]
A, B, C = FLOWS[:3]


def assert_replays_match_reference(events):
    """Every estimator: columnar replay == per-tuple reference, bit for bit."""
    log = ObservationColumns(events)
    for estimator in ESTIMATORS:
        assert tables_dump(replay_observations(log, estimator)) \
            == tables_dump(reference_replay(events, estimator)), estimator


EDGE_LOGS = {
    "empty": [],
    "references-only": [
        (REF_OBS, 3, 0.001, 10e-6), (REF_OBS, 1, 0.002, 12e-6),
        (REF_OBS, 3, 0.003, 11e-6),
    ],
    "stream-without-reference": [
        (REG_OBS, 4, 0.001, A, 9e-6),     # stream 4 never sees a reference
        (REF_OBS, 0, 0.002, 10e-6),
        (REG_OBS, 0, 0.003, B, 11e-6),
        (REG_OBS, 4, 0.004, C, 12e-6),
        (REF_OBS, 0, 0.005, 13e-6),
    ],
    "equal-times": [
        (REG_OBS, 0, 0.002, A, 9e-6),     # before the first reference
        (REF_OBS, 0, 0.002, 10e-6),
        (REG_OBS, 0, 0.002, B, 11e-6),    # degenerate interval: span 0
        (REF_OBS, 0, 0.002, 14e-6),
        (REG_OBS, 0, 0.002, A, 12e-6),    # tail at the same instant
        (REG_OBS, 0, 0.003, C, 13e-6),
    ],
    "multi-stream-tails": [
        (REG_OBS, 9, 0.001, A, 9e-6),     # creation order 9, 2, 5
        (REF_OBS, 2, 0.002, 10e-6),
        (REF_OBS, 5, 0.003, 20e-6),
        (REF_OBS, 9, 0.004, 30e-6),
        (REG_OBS, 5, 0.005, B, 21e-6),
        (REG_OBS, 2, 0.006, A, 11e-6),
        (REG_OBS, 9, 0.007, C, 31e-6),
        (REF_OBS, 2, 0.008, 12e-6),
        (REG_OBS, 2, 0.009, B, 13e-6),    # every stream ends in a tail
        (REG_OBS, 5, 0.010, A, 22e-6),
        (REG_OBS, 9, 0.011, B, 32e-6),
    ],
    # stream 1 carries references but no regulars
    "stream-without-regulars": [
        (REF_OBS, 0, 0.001, 10e-6), (REF_OBS, 1, 0.001, 50e-6),
        (REG_OBS, 0, 0.002, A, 11e-6),
        (REG_OBS, 0, 0.003, B, 12e-6), (REG_OBS, 0, 0.004, FLOWS[3], 13e-6),
        (REF_OBS, 0, 0.005, 14e-6), (REF_OBS, 1, 0.006, 52e-6),
        (REG_OBS, 0, 0.008, FLOWS[4], 15e-6),
    ],
}


@st.composite
def observation_logs(draw):
    """Random multi-stream logs with exact time ties and repeated flows."""
    streams = draw(st.lists(st.sampled_from([7, 2, 5]), min_size=1,
                            max_size=3, unique=True))
    now = 0.0
    events = []
    for _ in range(draw(st.integers(0, 60))):
        now += draw(st.sampled_from([0.0, 1e-6, 2.5e-6, 1e-5]))
        stream = draw(st.sampled_from(streams))
        value = draw(st.floats(1e-6, 1e-3))
        if draw(st.integers(0, 4)) == 0:
            events.append((REF_OBS, stream, now, value))
        else:
            events.append((REG_OBS, stream, now, draw(st.sampled_from(FLOWS)),
                           value))
    return events


class TestReplayOracle:
    @pytest.mark.parametrize("name", sorted(EDGE_LOGS))
    def test_edge_logs_match_reference(self, name):
        assert_replays_match_reference(EDGE_LOGS[name])

    def test_edge_logs_exercise_their_regimes(self):
        """The named regimes really occur (guards the fixtures above)."""
        assert reference_replay(EDGE_LOGS["stream-without-reference"]).unestimated == 2
        events = EDGE_LOGS["stream-without-regulars"]
        assert {e[1] for e in events if e[0] == REF_OBS} \
            - {e[1] for e in events if e[0] == REG_OBS} == {1}

    def test_unknown_estimator_rejected(self):
        """Even a log with no regular to estimate fails loudly, like the
        reference replay's first buffer."""
        events = EDGE_LOGS["references-only"]
        with pytest.raises(ValueError, match="unknown estimator"):
            reference_replay(events, "spline")
        with pytest.raises(ValueError, match="unknown estimator"):
            replay_observations(ObservationColumns(events), "spline")

    @given(observation_logs())
    @settings(max_examples=60, deadline=None)
    def test_random_logs_match_reference(self, events):
        assert_replays_match_reference(events)
