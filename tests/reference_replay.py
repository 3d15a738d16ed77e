"""The per-tuple observation-log replay, kept as the oracle (tests only).

:func:`repro.core.replay.replay_observations` runs the shared columnar
estimate kernel on a log's columns.  :func:`reference_replay` is the loop
it replaced: every event, in log order, through one
:class:`~repro.core.interpolation.InterpolationBuffer` per stream, with
the tails flushed in buffer-creation order.  The differential tests
require the two to build bitwise-identical tables.
"""

from typing import Dict, List

from repro.core.flowstats import FlowStatsTable
from repro.core.interpolation import InterpolationBuffer
from repro.core.receiver import REF_OBS, REG_OBS
from repro.core.replay import ReplayTables


def events_of(log) -> List[tuple]:
    """The event tuples of an :class:`~repro.core.obslog.ObservationColumns`."""
    columns = log.arrays()
    keys = zip(*(column.tolist() for column in columns["key"]))
    events = []
    for tag, stream, now, value, key in zip(
            columns["tag"].tolist(), columns["stream"].tolist(),
            columns["time"].tolist(), columns["value"].tolist(), keys):
        if tag == REF_OBS:
            events.append((REF_OBS, stream, now, value))
        else:
            events.append((tag, stream, now, key, value))
    return events


class TeeReceiver:
    """One arrival stream fed to a live and a recording receiver.

    A receiver with an observation log records only, so a test that
    checks a log against the live tables it replays to drives both
    receivers from one run through this tee.  Capable of the columnar
    path when both are.
    """

    def __init__(self, live, recording):
        self.live = live
        self.recording = recording

    @property
    def batch_capable(self) -> bool:
        return self.live.batch_capable and self.recording.batch_capable

    def observe(self, packet, now):
        self.live.observe(packet, now)
        self.recording.observe(packet, now)

    def observe_batch(self, *args, **kwargs):
        self.live.observe_batch(*args, **kwargs)
        self.recording.observe_batch(*args, **kwargs)

    def finalize(self):
        self.live.finalize()
        self.recording.finalize()


def reference_replay(events, estimator="linear"):
    """Rebuild per-flow estimated/true tables from event tuples, one by one."""
    buffers: Dict[int, InterpolationBuffer] = {}
    estimated = FlowStatsTable()
    true = FlowStatsTable()
    unestimated = 0
    for event in events:
        tag = event[0]
        if tag == REF_OBS:
            _, stream, now, delay = event
            buffer = buffers.get(stream)
            if buffer is None:
                buffer = buffers[stream] = InterpolationBuffer(estimator)
            for est in buffer.add_reference(now, delay):
                estimated.add(est.key, est.estimated)
        elif tag == REG_OBS:
            _, stream, now, key, truth = event
            buffer = buffers.get(stream)
            if buffer is None:
                buffer = buffers[stream] = InterpolationBuffer(estimator)
            true.add(key, truth)
            buffer.add_regular(now, key, truth)
        else:
            raise ValueError(f"unknown observation event tag: {tag!r}")
    for buffer in buffers.values():
        for est in buffer.flush():
            estimated.add(est.key, est.estimated)
        unestimated += buffer.unestimated
    return ReplayTables(estimated, true, unestimated)


def tables_dump(tables: ReplayTables) -> tuple:
    """Both tables (keys and accumulators bit for bit, in insertion order)
    and the unestimated count, as one comparable value."""

    def dump(table):
        return [(key, s.count, s.mean.hex(), s._m2.hex(), s.min.hex(),
                 s.max.hex()) for key, s in table.items()]

    return dump(tables.estimated), dump(tables.true), tables.unestimated
