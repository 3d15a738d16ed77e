"""Batch/object equivalence: the columnar fast path must be bitwise-exact.

The vectorized pipeline (``TwoSwitchPipeline.run_batch``, the two-hop
``SwitchChain``) promises
**bitwise-identical** results to the per-object reference implementation
— same float-op order (``max(t, free_at) + size/rate``), same merge
stability, same flow-table contents *and dict insertion order*.  These tests pin that promise at every
layer: the queue scan, the interpolation batch flush, whole pipeline runs
over hypothesis-generated workloads, and full experiment conditions
(including every ablation knob and the fallback paths).  Driver- and
job-level comparisons reach the per-object reference through
``tests/reference_path.py``.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.demux import SingleSenderDemux
from repro.core.injection import AdaptiveInjection, StaticInjection
from repro.core.interpolation import ESTIMATORS, InterpolationBuffer, interpolate_batch
from repro.core.receiver import RliReceiver
from repro.core.sender import RefTemplate, RliSender
from repro.net.addressing import Prefix, ip_to_int
from repro.net.packet import Packet, PacketKind
from repro.sim.chain import ChainConfig
from repro.sim.pipeline import TwoSwitchPipeline
from repro.sim.queue import FifoQueue
from repro.sim.red import RedQueue
from repro.experiments.workloads import (PipelineWorkload, run_condition,
                                         summarize_condition)
from repro.traffic.batch import BATCH_COLUMNS
from repro.traffic.crosstraffic import BurstyModel, UniformModel
from repro.traffic.synthetic import TraceConfig, generate_trace
from repro.traffic.trace import Trace

from packet_columns import batch_of
from reference_path import reference_path

REGULAR_PREFIX = Prefix.parse("10.1.0.0/16")


def queue_state(queue):
    """Every observable scalar of a queue, for bitwise comparison."""
    s = queue.stats
    return (s.arrivals, s.accepted, s.dropped, s.bytes_in, s.bytes_accepted,
            s.bytes_dropped, s.total_delay, s.max_delay, s.last_departure,
            queue._free_at)


def flow_table_state(table):
    """(key, full accumulator state) rows in dict insertion order."""
    return [(k, (v.count, v.mean, v._m2, v.min, v.max)) for k, v in table.items()]


def receiver_state(rx):
    state = {
        "counts": (rx.regulars_measured, rx.regulars_ignored,
                   rx.references_accepted, rx.references_ignored,
                   rx.missing_tap, rx.unestimated),
        "true": flow_table_state(rx.flow_true),
        "estimated": flow_table_state(rx.flow_estimated),
    }
    if rx.flow_true_quantiles is not None:
        state["true_q"] = [(k, sorted(q.items())) for k, q in rx.flow_true_quantiles.items()]
        state["est_q"] = [(k, sorted(q.items())) for k, q in rx.flow_estimated_quantiles.items()]
    return state


# ----------------------------------------------------------------------
# queue scan


class TestOfferBatch:
    @given(st.integers(0, 2**31), st.sampled_from([None, 3000, 20000]),
           st.floats(0.0, 1e-5))
    @settings(max_examples=25, deadline=None)
    def test_scan_matches_per_packet_offers(self, seed, buffer_bytes, proc_delay):
        rng = np.random.default_rng(seed)
        n = 200
        arrivals = np.sort(rng.uniform(0, 0.01, n))
        if n >= 2:  # exercise exact arrival ties
            arrivals[1] = arrivals[0]
        sizes = rng.integers(64, 1501, n)
        scalar = FifoQueue(8e6, buffer_bytes, proc_delay)
        batch = FifoQueue(8e6, buffer_bytes, proc_delay)
        expected = []
        for t, size in zip(arrivals.tolist(), sizes.tolist()):
            dep = scalar.offer(Packet(src=1, dst=2, size=size, ts=t), t)
            expected.append(dep)
        departures, accepted = batch.offer_batch(arrivals, sizes)
        assert queue_state(scalar) == queue_state(batch)
        for exp, dep, ok in zip(expected, departures.tolist(), accepted.tolist()):
            if exp is None:
                assert not ok and np.isnan(dep)
            else:
                assert ok and dep == exp  # bitwise: same float op order

    def test_interleaving_offer_and_offer_batch(self):
        """A batch offer continues exactly where scalar offers left off."""
        q1 = FifoQueue(8e6, 5000, 1e-6)
        q2 = FifoQueue(8e6, 5000, 1e-6)
        head = [(0.0, 1000), (0.0001, 1500), (0.0002, 600)]
        tail = [(0.0003, 1500), (0.0004, 900)]
        for t, size in head + tail:
            q1.offer(Packet(src=1, dst=2, size=size, ts=t), t)
        for t, size in head:
            q2.offer(Packet(src=1, dst=2, size=size, ts=t), t)
        q2.offer_batch(np.array([t for t, _ in tail]), np.array([s for _, s in tail]))
        assert queue_state(q1) == queue_state(q2)

    def test_red_queue_refuses_the_scan(self):
        red = RedQueue(8e6, 256 * 1024, seed=1)
        with pytest.raises(NotImplementedError):
            red.offer_batch(np.array([0.0]), np.array([64]))

    def test_empty_batch_is_a_noop(self):
        q = FifoQueue(8e6)
        departures, accepted = q.offer_batch(np.empty(0), np.empty(0, dtype=np.int64))
        assert len(departures) == 0 and len(accepted) == 0
        assert q.stats.arrivals == 0


# ----------------------------------------------------------------------
# interpolation batch flush


class TestInterpolateBatch:
    @given(st.integers(0, 2**31), st.sampled_from(sorted(ESTIMATORS)),
           st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_matches_buffer_stream(self, seed, estimator, n_refs):
        rng = np.random.default_rng(seed)
        n_regs = int(rng.integers(0, 40))
        events = sorted(
            [("reg", t) for t in rng.uniform(0, 1, n_regs)]
            + [("ref", t) for t in rng.uniform(0, 1, n_refs)],
            key=lambda e: e[1],
        )
        buffer = InterpolationBuffer(estimator)
        expected = {}
        reg_times, ref_times, ref_delays, intervals = [], [], [], []
        for kind, t in events:
            if kind == "reg":
                buffer.add_regular(t, key=(1, 2, 3, 4, 6), true_delay=0.0)
                reg_times.append(t)
                intervals.append(len(ref_times))
            else:
                delay = float(rng.uniform(1e-6, 1e-3))
                for est in buffer.add_reference(t, delay):
                    expected[est.arrival] = est.estimated
                ref_times.append(t)
                ref_delays.append(delay)
        for est in buffer.flush():
            expected[est.arrival] = est.estimated
        got = interpolate_batch(np.array(reg_times), np.array(ref_times),
                                np.array(ref_delays), estimator=estimator,
                                intervals=np.array(intervals, dtype=np.int64))
        assert got.tolist() == [expected[t] for t in reg_times]  # bitwise

    def test_coincident_references_use_the_degenerate_midpoint(self):
        # two refs at the same instant: linear degenerates to the average
        got = interpolate_batch(np.array([0.5]), np.array([0.5, 0.5]),
                                np.array([2.0, 4.0]),
                                intervals=np.array([1]))
        assert got.tolist() == [3.0]

    def test_no_references_is_an_error(self):
        with pytest.raises(ValueError):
            interpolate_batch(np.array([0.1]), np.empty(0), np.empty(0))

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            interpolate_batch(np.array([0.1]), np.array([0.2]), np.array([1.0]),
                              estimator="cubic")


# ----------------------------------------------------------------------
# whole-pipeline property: random TraceConfigs, both drivers


def build_traces(seed, n_reg, n_cross, duration, mean_gap):
    reg = generate_trace(
        TraceConfig(duration=duration, n_packets=n_reg, mean_flow_pkts=8.0,
                    mean_gap=mean_gap),
        seed=seed, name="regular")
    cross = generate_trace(
        TraceConfig(duration=duration, n_packets=n_cross, mean_flow_pkts=8.0,
                    src_base="10.9.0.0", dst_base="10.10.0.0"),
        seed=seed + 1, name="cross")
    return reg, cross


def regime_traces(regime, reg, cross, rate, buffer_bytes):
    """One hard-regime variant of a property suite's traces.

    ``"empty"`` keeps the cross traffic but no regular packet.  ``"tied"``
    retimes the cross packets onto the regular stream's departures from a
    sender-less first queue (the suites' ``proc_delay=1e-6``), so cross
    arrivals tie bit for bit with upstream departures and the merges'
    ``heapq.merge`` tie rule orders them.  ``"trace"`` keeps both.
    """
    if regime == "empty":
        return Trace(batch=reg.batch.take(np.empty(0, dtype=np.intp)),
                     name="empty"), cross
    if regime == "tied":
        departures, accepted = FifoQueue(rate, buffer_bytes, 1e-6).offer_batch(
            reg.batch.ts, reg.batch.size)
        times = departures[accepted][:len(cross)]
        tied = cross.batch.take(np.arange(len(times))).replace(ts=times)
        return reg, Trace(batch=tied, name="tied")
    return reg, cross


def make_sender(rate_bps, scheme):
    policy = AdaptiveInjection(5, 60) if scheme == "adaptive" else StaticInjection(25)
    template = RefTemplate(src=ip_to_int("10.1.0.0") + 1,
                           dst=ip_to_int("10.2.255.254"))
    return RliSender(sender_id=1, link_rate_bps=rate_bps, policy=policy,
                     templates={0: template})


class TestPipelineProperty:
    @given(
        seed=st.integers(0, 2**31),
        n_reg=st.integers(300, 1200),
        # up to just past 100 % load on the tapped first hop
        headroom=st.one_of(st.floats(0.25, 0.9), st.floats(0.99, 1.05)),
        buffer_kb=st.sampled_from([2, 8, 64, None]),
        cross_prob=st.sampled_from([0.0, 0.4, 0.9]),
        bursty=st.booleans(),
        scheme=st.sampled_from([None, "static", "adaptive"]),
        regime=st.sampled_from(["trace", "tied"]),
    )
    @example(seed=7, n_reg=600, headroom=0.6, buffer_kb=8, cross_prob=0.9,
             bursty=False, scheme="adaptive", regime="empty")
    @example(seed=8, n_reg=600, headroom=1.02, buffer_kb=64, cross_prob=0.9,
             bursty=False, scheme=None, regime="tied")
    @settings(max_examples=12, deadline=None)
    def test_random_workloads_bitwise_identical(self, seed, n_reg, headroom,
                                                buffer_kb, cross_prob, bursty,
                                                scheme, regime):
        duration = 0.25
        reg, cross = build_traces(seed, n_reg, 2 * n_reg, duration, 1e-3)
        rate = reg.total_bytes * 8.0 / (duration * headroom)
        buffer_bytes = buffer_kb * 1024 if buffer_kb else None
        reg, cross = regime_traces(regime, reg, cross, rate, buffer_bytes)
        if bursty:
            model = BurstyModel(cross_prob, 0.06, 0.12, seed=seed)
        else:
            model = UniformModel(cross_prob, seed=seed)

        def drive(batch):
            cfg = ChainConfig(n_hops=2, rate_bps=rate, buffer_bytes=buffer_bytes,
                              proc_delay=1e-6)
            sender = make_sender(rate, scheme) if scheme else None
            receiver = RliReceiver(
                demux=SingleSenderDemux(1, regular_prefixes=[REGULAR_PREFIX]))
            pipeline = TwoSwitchPipeline(cfg)
            if batch:
                result = pipeline.run_batch(reg, model.arrivals_batch(cross),
                                            sender=sender, receiver=receiver)
            else:
                result = pipeline.run(reg.clone_packets(), model.arrivals(cross),
                                      sender=sender, receiver=receiver)
            receiver.finalize()
            return result, receiver, sender

        res_o, rx_o, tx_o = drive(batch=False)
        res_b, rx_b, tx_b = drive(batch=True)
        assert queue_state(res_o.queues[0]) == queue_state(res_b.queues[0])
        assert queue_state(res_o.queues[1]) == queue_state(res_b.queues[1])
        assert res_o.arrivals == res_b.arrivals
        assert res_o.drops == res_b.drops
        assert res_o.refs_injected == res_b.refs_injected
        assert res_o.duration == res_b.duration
        assert receiver_state(rx_o) == receiver_state(rx_b)
        if scheme:
            assert tx_o.refs_injected == tx_b.refs_injected
            assert tx_o.regulars_seen == tx_b.regulars_seen
            assert tx_o.utilization.estimate == tx_b.utilization.estimate

    def test_collect_estimates_identical_in_emission_order(self):
        reg, cross = build_traces(5, 800, 1600, 0.25, 1e-3)
        rate = reg.total_bytes * 8.0 / (0.25 * 0.5)

        def drive(batch):
            cfg = ChainConfig(n_hops=2, rate_bps=rate, buffer_bytes=64 * 1024,
                              proc_delay=1e-6)
            receiver = RliReceiver(
                demux=SingleSenderDemux(1, regular_prefixes=[REGULAR_PREFIX]),
                collect_estimates=True)
            sender = make_sender(rate, "adaptive")
            pipeline = TwoSwitchPipeline(cfg)
            model = UniformModel(0.5, seed=3)
            if batch:
                pipeline.run_batch(reg, model.arrivals_batch(cross),
                                   sender=sender, receiver=receiver)
            else:
                pipeline.run(reg.clone_packets(), model.arrivals(cross),
                             sender=sender, receiver=receiver)
            receiver.finalize()
            return receiver.estimates

        est_o = drive(batch=False)
        est_b = drive(batch=True)
        assert len(est_o) == len(est_b) > 0
        for a, b in zip(est_o, est_b):
            assert (a.key, a.arrival, a.estimated, a.true_delay) == \
                (b.key, b.arrival, b.estimated, b.true_delay)


# ----------------------------------------------------------------------
# experiment conditions: every knob, plus fallbacks


CONDITION_KNOBS = [
    {},
    {"estimator": "previous"},
    {"estimator": "nearest"},
    {"scheme": "static", "static_n": 13},
    {"clock_offset": 5e-6},
    {"max_flows": 32},
    {"quantiles": (0.5, 0.99)},
    {"scheme": None},
    {"model": "bursty"},
    {"aqm": "red"},  # falls back to the object path inside run_batch
]


class TestConditionEquivalence:
    @pytest.mark.parametrize("knobs", CONDITION_KNOBS,
                             ids=[str(sorted(k.items())) for k in CONDITION_KNOBS])
    def test_summaries_equal(self, tiny_workload, knobs):
        knobs = dict(knobs)
        scheme = knobs.pop("scheme", "adaptive")
        model = knobs.pop("model", "random")
        estimator = knobs.get("estimator", "linear")
        with reference_path() as forced:
            reference = summarize_condition(
                run_condition(tiny_workload, scheme, model, 0.93, **knobs),
                estimator=estimator)
        assert forced["pipeline"] == 1
        columnar = summarize_condition(
            run_condition(tiny_workload, scheme, model, 0.93, **knobs),
            estimator=estimator)
        assert reference == columnar

    def test_batch_summary_survives_cache_round_trip(self, tiny_workload):
        condition = run_condition(tiny_workload, "adaptive", "random", 0.67)
        summary = summarize_condition(condition)
        assert pickle.loads(pickle.dumps(summary)) == summary

    def test_observation_log_recorded_identically_on_fast_path(
            self, tiny_workload):
        """Recording receivers ride the fast path and write the identical
        per-event observation log; a live receiver fed the same stream
        holds identical estimation state on both paths, and the log
        replays to its tables."""
        from repro.core.obslog import ObservationColumns
        from repro.core.replay import replay_observations
        from reference_replay import TeeReceiver, events_of

        logs = []
        receivers = []
        for batch in (False, True):
            log = ObservationColumns()
            receiver = tiny_workload.make_receiver()
            tee = TeeReceiver(receiver,
                              tiny_workload.make_receiver(observation_log=log))
            assert tee.batch_capable
            sender = tiny_workload.make_sender("adaptive")
            pipeline = TwoSwitchPipeline(tiny_workload.pipeline_config)
            cross_b = tiny_workload.cross_arrivals_batch("random", 0.67)
            if batch:
                pipeline.run_batch(tiny_workload.regular, cross_b,
                                   sender=sender, receiver=tee,
                                   duration=tiny_workload.cfg.duration)
            else:
                pipeline.run(tiny_workload.regular.clone_packets(),
                             tiny_workload.cross_arrivals("random", 0.67),
                             sender=sender, receiver=tee,
                             duration=tiny_workload.cfg.duration)
            tee.finalize()
            logs.append(log)
            receivers.append(receiver)
        assert events_of(logs[0]) == events_of(logs[1])
        assert receiver_state(receivers[0]) == receiver_state(receivers[1])
        assert receivers[0].regulars_measured > 0
        for log, receiver in zip(logs, receivers):
            replayed = replay_observations(log)
            assert flow_table_state(replayed.true) == \
                flow_table_state(receiver.flow_true)
            assert flow_table_state(replayed.estimated) == \
                flow_table_state(receiver.flow_estimated)

    def test_custom_classifier_sender_forces_fallback(self, tiny_workload):
        """A sender whose classifier inspects packets keeps exact numbers
        through the per-object fallback."""
        def drive(batch):
            sender = RliSender(
                sender_id=1, link_rate_bps=tiny_workload.rate_bps,
                policy=StaticInjection(40),
                templates={0: RefTemplate(src=1, dst=2)},
                classify=lambda packet: 0 if packet.sport % 2 else None)
            assert not sender.batch_capable
            receiver = tiny_workload.make_receiver()
            pipeline = TwoSwitchPipeline(ChainConfig(
                n_hops=2, rate_bps=tiny_workload.rate_bps,
                proc_delay=tiny_workload.cfg.proc_delay))
            if batch:
                pipeline.run_batch(tiny_workload.regular,
                                   tiny_workload.cross_arrivals_batch("random", 0.67),
                                   sender=sender, receiver=receiver,
                                   duration=tiny_workload.cfg.duration)
            else:
                pipeline.run(tiny_workload.regular.clone_packets(),
                             tiny_workload.cross_arrivals("random", 0.67),
                             sender=sender, receiver=receiver,
                             duration=tiny_workload.cfg.duration)
            receiver.finalize()
            return sender.refs_injected, receiver_state(receiver)

        assert drive(False) == drive(True)


# (scheme, model, target_util, knobs): every scheme, a static_n override on
# two schemes, every receiver knob, both cross models and two run seeds
SHARED_SWITCH1_GRID = [
    (None, "random", 0.93, {}),
    (None, "bursty", 0.67, {"run_seed": 2}),
    ("static", "random", 0.93, {}),
    ("static", "bursty", 0.93, {"estimator": "previous"}),
    ("static", "random", 0.67, {"static_n": 13}),
    ("adaptive", "random", 0.93, {"static_n": 13}),
    ("adaptive", "random", 0.93, {}),
    ("adaptive", "bursty", 0.8, {"clock_offset": 5e-6}),
    ("adaptive", "random", 0.67, {"max_flows": 32, "run_seed": 3}),
    ("adaptive", "random", 0.93, {"quantiles": (0.5, 0.99)}),
    ("adaptive", "bursty", 0.93, {"estimator": "nearest", "run_seed": 1}),
]


def condition_summary(workload, scheme, model, util, knobs):
    condition = run_condition(workload, scheme, model, util, **knobs)
    return summarize_condition(condition, estimator=knobs.get("estimator", "linear"),
                               run_seed=knobs.get("run_seed", 0))


class TestSharedSwitch1:
    """Conditions of one workload share its Switch 1 per (scheme,
    static_n); sharing must change no byte of any summary, whatever order
    the conditions run in."""

    @pytest.mark.parametrize("order_seed", [0, 1])
    def test_shared_grid_matches_fresh_workloads(self, tiny_config, order_seed):
        grid = list(SHARED_SWITCH1_GRID)
        random.Random(order_seed).shuffle(grid)
        shared = PipelineWorkload(tiny_config)
        for scheme, model, util, knobs in grid:
            got = condition_summary(shared, scheme, model, util, knobs)
            # the per-object reference scans both switches afresh
            with reference_path():
                want = condition_summary(PipelineWorkload(tiny_config), scheme,
                                         model, util, knobs)
            assert pickle.dumps(got) == pickle.dumps(want), (scheme, model, util, knobs)
        assert len(shared._switch1) == len(
            {(scheme, knobs.get("static_n")) for scheme, _, _, knobs in grid})

    def test_reference_path_never_reads_a_used_workloads_switch1(
            self, tiny_workload, monkeypatch):
        columnar = condition_summary(tiny_workload, "static", "random", 0.93, {})
        memo = dict(tiny_workload._switch1)

        def unreadable(*args):
            raise AssertionError("a per-object run read the shared Switch 1")

        grid = [("static", {}), (None, {}), ("adaptive", {}),
                ("static", {"static_n": 17})]
        with reference_path() as forced:
            monkeypatch.setattr(tiny_workload, "switch1", unreadable)
            reference = [condition_summary(tiny_workload, scheme, "random",
                                           0.93, knobs)
                         for scheme, knobs in grid]
            monkeypatch.undo()
        assert forced["pipeline"] == len(grid)
        assert tiny_workload._switch1 == memo
        assert reference[0] == columnar

    def test_downstream_drops_leave_the_shared_references_untouched(self):
        reg, cross = build_traces(3, 600, 1200, 0.25, 1e-3)
        rate = reg.total_bytes * 8.0 / (0.25 * 0.6)
        pipeline = TwoSwitchPipeline(ChainConfig(
            n_hops=2, rate_bps=rate, buffer_bytes=4 * 1024, proc_delay=1e-6))
        first = pipeline.first_hop(reg, make_sender(rate, "adaptive"))
        crs = UniformModel(0.9, seed=3).arrivals_batch(cross)
        shared = pipeline.run_batch(reg, crs, sender=make_sender(rate, "adaptive"),
                                    first_hop=lambda: first)
        fresh = pipeline.run_batch(reg, crs, sender=make_sender(rate, "adaptive"))
        assert shared.drops[PacketKind.REFERENCE] > 0
        assert (shared.arrivals, shared.drops) == (fresh.arrivals, fresh.drops)
        assert not any(ref.dropped for ref in first.stream[-1])

    def test_shared_arrays_are_read_only(self, tiny_workload):
        first = tiny_workload.switch1("adaptive", None)
        assert first is tiny_workload.switch1("adaptive", None)
        *columns, refs = first.stream
        assert refs and all(len(column) for column in columns)
        for column in columns:
            with pytest.raises(ValueError):
                column[0] = column[-1]
        with pytest.raises(TypeError):
            refs[0] = None


# (model, target_util, run_seed): the cross selections of TestSharedCrossSelection
CROSS_SELECTIONS = [
    ("random", 0.93, 0),
    ("bursty", 0.8, 0),
    ("random", 0.93, 2),
    ("random", 0.67, 0),
]


class TestSharedCrossSelection:
    """Consecutive conditions with one (model, target_util, run_seed)
    draw the cross selection once; the memo must change no byte of any
    summary, whatever order the conditions run in."""

    @pytest.mark.parametrize("order_seed", [0, 1, 2])
    def test_shuffled_grid_matches_fresh_workloads(self, tiny_config, order_seed,
                                                   monkeypatch):
        grid = [(scheme, selection) for selection in CROSS_SELECTIONS
                for scheme in (None, "static", "adaptive")]
        if order_seed:  # order 0 keeps each selection's schemes adjacent
            random.Random(order_seed).shuffle(grid)
        shared = PipelineWorkload(tiny_config)
        draws = []
        draw = shared._cross_model
        monkeypatch.setattr(shared, "_cross_model",
                            lambda *key: draws.append(key) or draw(*key))
        for scheme, (model, util, run_seed) in grid:
            knobs = {"run_seed": run_seed}
            got = condition_summary(shared, scheme, model, util, knobs)
            want = condition_summary(PipelineWorkload(tiny_config), scheme,
                                     model, util, knobs)
            assert pickle.dumps(got) == pickle.dumps(want), (scheme, model, util)
        runs = 1 + sum(a != b for (_, a), (_, b) in zip(grid, grid[1:]))
        assert len(draws) == runs
        assert shared._cross_batch[0] == grid[-1][1]  # only the last is held

    def test_shared_columns_are_read_only(self, tiny_workload):
        first = tiny_workload.cross_arrivals_batch("random", 0.67)
        assert len(first) and first is tiny_workload.cross_arrivals_batch("random", 0.67)
        for name in BATCH_COLUMNS:
            column = getattr(first, name)
            with pytest.raises(ValueError):
                column[0] = column[-1]
        other = tiny_workload.cross_arrivals_batch("random", 0.67, seed=1)
        assert other is not first
        assert tiny_workload.cross_arrivals_batch("random", 0.67) is not first


class TestBatchJobs:
    def test_batch_jobspec_summary_matches_object_jobspec(self, tiny_config):
        from repro.runner import JobSpec, ParallelRunner

        job = JobSpec.from_config(tiny_config, "adaptive", "random", 0.67)
        with reference_path():
            plain = ParallelRunner().run_one(job)
        batched = ParallelRunner().run_one(job)
        assert plain == batched

    def test_fig4_driver_identical_with_batch(self, tiny_config):
        from repro.experiments.fig4 import run_fig4ab

        with reference_path() as forced:
            plain = run_fig4ab(tiny_config)
        assert forced["pipeline"] == len(plain)
        batched = run_fig4ab(tiny_config)
        for a, b in zip(plain, batched):
            assert a.label == b.label
            assert a.summary == b.summary
            assert a.summary_row() == b.summary_row()

# ----------------------------------------------------------------------
# multi-stream receiver batch partition


class TestMultiStreamBatchEmission:
    """Regression for the receiver's multi-stream batch partition.

    The per-stream loop in ``observe_batch`` unions
    ``refs_by_stream.keys()`` with the set of regular streams; iteration
    over that union is ``sorted`` so set-iteration order can never
    become load-bearing (reprolint DET003).  This pins the batch path
    against the scalar reference on a stream mix chosen to disagree
    with any convenient ordering: stream ids first appear in
    *descending* order, one stream has regulars but no references
    (stays unestimated forever), and one has references but no
    regulars (both union sides contribute streams the other lacks).
    """

    PREFIXES = [
        (Prefix.parse("10.9.0.0/16"), 9),
        (Prefix.parse("10.4.0.0/16"), 4),
        (Prefix.parse("10.2.0.0/16"), 2),
        (Prefix.parse("10.7.0.0/16"), 7),   # references only
    ]

    def _events(self):
        """Fresh ``(now, packet)`` observations in arrival order."""
        dst = ip_to_int("10.200.0.1")

        def reg(stream, host, now, sport):
            p = Packet(src=ip_to_int(f"10.{stream}.0.{host}"), dst=dst,
                       sport=sport, dport=9, size=200, ts=now - 0.0004)
            return now, p

        def ref(sender, now, delay):
            p = Packet(src=ip_to_int(f"10.{sender}.0.250"), dst=dst,
                       size=64, ts=now - delay, kind=PacketKind.REFERENCE,
                       sender_id=sender, ref_timestamp=now - delay)
            return now, p

        return [
            reg(9, 1, 0.001, 1111),
            ref(9, 0.002, 0.00030),
            reg(4, 1, 0.003, 2222),
            reg(9, 2, 0.004, 1112),
            ref(4, 0.005, 0.00040),
            reg(2, 1, 0.006, 3333),         # stream 2: never estimated
            ref(7, 0.007, 0.00020),         # stream 7: references only
            ref(9, 0.008, 0.00035),
            reg(4, 2, 0.009, 2223),
            reg(2, 2, 0.010, 3334),
            ref(4, 0.011, 0.00045),
            reg(9, 1, 0.012, 1111),         # past stream 9's last reference
            reg(4, 1, 0.013, 2222),         # past stream 4's last reference
        ]

    def _receiver(self):
        from repro.core.demux import UpstreamPrefixDemux

        return RliReceiver(UpstreamPrefixDemux(self.PREFIXES),
                           collect_estimates=True)

    def _drive_scalar(self):
        rx = self._receiver()
        for now, pkt in self._events():
            if pkt.is_regular:
                pkt.tap_time = pkt.ts   # matches batch taps=None semantics
            rx.observe(pkt, now)
        rx.finalize()
        return rx

    def _drive_batch(self):
        rx = self._receiver()
        assert rx.batch_capable
        events = self._events()
        times = np.array([now for now, _ in events], dtype=np.float64)
        kinds = np.array([int(p.kind) for _, p in events], dtype=np.int64)
        regulars = [p for _, p in events if p.is_regular]
        refs = [p for _, p in events if p.is_reference]
        header_index = np.full(len(events), -1, dtype=np.int64)
        row = 0
        for i, (_, p) in enumerate(events):
            if p.is_regular:
                header_index[i] = row
                row += 1
        rx.observe_batch(times, kinds, batch_of(regulars),
                         header_index, None, refs)
        rx.finalize()   # documented no-op after the one-shot batch
        return rx

    def test_state_and_emission_identical(self):
        scalar = self._drive_scalar()
        batch = self._drive_batch()
        assert receiver_state(scalar) == receiver_state(batch)
        assert len(scalar.estimates) == len(batch.estimates) > 0
        for a, b in zip(scalar.estimates, batch.estimates):
            assert (a.key, a.arrival, a.estimated, a.true_delay) == \
                (b.key, b.arrival, b.estimated, b.true_delay)

    def test_exercises_both_union_sides(self):
        batch = self._drive_batch()
        # stream 2 (regulars, no refs) must stay unestimated; stream 7
        # (refs, no regulars) must still be counted as accepted
        assert batch.unestimated > 0
        assert batch.references_accepted == 5
        streams = {k for k, _ in receiver_state(batch)["estimated"]}
        assert streams   # streams 9 and 4 produced estimates
