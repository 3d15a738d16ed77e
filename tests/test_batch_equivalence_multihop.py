"""Batch/object equivalence for the multihop chain and fat-tree drivers.

``tests/test_batch_equivalence.py`` pins the two-switch pipeline's columnar
fast path to the per-object reference implementation bit for bit; this
suite does the same for the paths vectorized beyond it:

* :meth:`repro.sim.chain.SwitchChain.run_batch` — multihop segment chains
  with per-hop cross traffic and an inlined first-hop sender scan;
* :class:`repro.sim.fatpath.FatTreeFastPath` — the layered columnar
  replacement for the event calendar that ``RlirMesh.run`` and
  ``RlirDeployment.run`` try first, including its exact reconstruction of
  the engine's ``(time, insertion seq)`` tie-break from event provenance;
* the extension-study jobs that run them through the runner
  (:mod:`repro.experiments.extension_jobs`).

The per-object side of every deployment and job comparison is reached
through ``tests/reference_path.py``.

Every comparison is exact equality on floats — same float-op order, same
dict insertion order, same observation-log bytes — mirroring
``tests/test_batch_equivalence.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.demux import SingleSenderDemux
from repro.core.injection import AdaptiveInjection, StaticInjection
from repro.core.mesh import RlirMesh
from repro.core.obslog import make_observation_log
from repro.core.receiver import RliReceiver
from repro.core.rlir import RlirDeployment
from repro.core.sender import RefTemplate, RliSender
from repro.experiments.config import ExperimentConfig, derive_seed
from repro.net.addressing import Prefix, ip_to_int
from repro.sim.chain import ChainConfig, SwitchChain
from repro.sim.clock import DriftingClock
from repro.sim.fatpath import FastPathUnavailable, FatTreeFastPath
from repro.sim.topology import FatTree, LinkParams
from repro.traffic.batch import PacketBatch
from repro.traffic.crosstraffic import BurstyModel, UniformModel
from repro.traffic.synthetic import TraceConfig, generate_fattree_trace, generate_trace

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
    return {
        "counts": (rx.regulars_measured, rx.regulars_ignored,
                   rx.references_accepted, rx.references_ignored,
                   rx.missing_tap, rx.unestimated),
        "true": flow_table_state(rx.flow_true),
        "estimated": flow_table_state(rx.flow_estimated),
    }


def sender_state(tx):
    u = tx.utilization
    return (tx.refs_injected, tx.regulars_seen, dict(tx._counters),
            u._seen_any, u._window_start, u._window_bytes, u._estimate)


# ----------------------------------------------------------------------
# multihop chain


def build_traces(seed, n_reg, n_cross, duration):
    reg = generate_trace(
        TraceConfig(duration=duration, n_packets=n_reg, mean_flow_pkts=8.0),
        seed=seed, name="regular")
    cross = generate_trace(
        TraceConfig(duration=duration, n_packets=n_cross, mean_flow_pkts=8.0,
                    src_base="10.9.0.0", dst_base="10.10.0.0"),
        seed=seed + 1, name="cross")
    return reg, cross


def make_sender(rate_bps, scheme, classify=None):
    policy = AdaptiveInjection(5, 60) if scheme == "adaptive" else StaticInjection(25)
    template = RefTemplate(src=ip_to_int("10.1.0.0") + 1,
                           dst=ip_to_int("10.2.255.254"))
    return RliSender(sender_id=1, link_rate_bps=rate_bps, policy=policy,
                     templates={0: template}, classify=classify)


def drive_chain(batch, reg, cross, model, n_hops, rate, buffer_bytes,
                scheme, log=None, classify=None):
    """One chain run on either driver; returns (result, receiver, sender)."""
    chain = SwitchChain(ChainConfig(
        n_hops=n_hops, rate_bps=rate, buffer_bytes=buffer_bytes,
        proc_delay=1e-6))
    sender = make_sender(rate, scheme, classify=classify) if scheme else None
    receiver = RliReceiver(
        demux=SingleSenderDemux(1, regular_prefixes=[REGULAR_PREFIX]),
        observation_log=log)
    cross_per_hop = {
        hop: (UniformModel(model.prob, seed=model.seed + hop).arrivals_batch(cross)
              if batch else
              UniformModel(model.prob, seed=model.seed + hop).arrivals(cross))
        for hop in range(n_hops)
    }
    run = chain.run_batch if batch else chain.run
    result = run(reg if batch else reg.clone_packets(), cross_per_hop,
                 sender=sender, receiver=receiver)
    receiver.finalize()
    return result, receiver, sender


class TestChainProperty:
    @given(
        seed=st.integers(0, 2**31),
        n_reg=st.integers(300, 900),
        n_hops=st.sampled_from([1, 2, 3, 5]),
        headroom=st.floats(0.3, 0.9),
        buffer_kb=st.sampled_from([2, 8, 64, None]),
        cross_prob=st.sampled_from([0.0, 0.4, 0.8]),
        scheme=st.sampled_from([None, "static", "adaptive"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_chains_bitwise_identical(self, seed, n_reg, n_hops,
                                             headroom, buffer_kb, cross_prob,
                                             scheme):
        duration = 0.25
        reg, cross = build_traces(seed, n_reg, 2 * n_reg, duration)
        rate = reg.total_bytes * 8.0 / (duration * headroom)
        buffer_bytes = buffer_kb * 1024 if buffer_kb else None
        model = UniformModel(cross_prob, seed=seed)

        res_o, rx_o, tx_o = drive_chain(False, reg, cross, model, n_hops,
                                        rate, buffer_bytes, scheme)
        res_b, rx_b, tx_b = drive_chain(True, reg, cross, model, n_hops,
                                        rate, buffer_bytes, scheme)
        assert len(res_o.queues) == len(res_b.queues) == n_hops
        for q_o, q_b in zip(res_o.queues, res_b.queues):
            assert queue_state(q_o) == queue_state(q_b)
        assert res_o.regular_in == res_b.regular_in
        assert res_o.regular_out == res_b.regular_out
        assert res_o.refs_injected == res_b.refs_injected
        assert res_o.duration == res_b.duration
        assert receiver_state(rx_o) == receiver_state(rx_b)
        if scheme:
            assert sender_state(tx_o) == sender_state(tx_b)

    @pytest.mark.parametrize("log_mode", ["tuple", "array"])
    def test_observation_log_identical(self, log_mode):
        reg, cross = build_traces(11, 600, 1200, 0.25)
        rate = reg.total_bytes * 8.0 / (0.25 * 0.5)
        model = UniformModel(0.5, seed=2)
        logs = []
        for batch in (False, True):
            log = make_observation_log(log_mode)
            drive_chain(batch, reg, cross, model, 3, rate, 32 * 1024,
                        "adaptive", log=log)
            logs.append(log)
        assert list(logs[0]) == list(logs[1])

    def test_custom_classifier_sender_falls_back_identically(self):
        """A packet-inspecting classifier keeps exact numbers through the
        transparent per-object fallback inside run_batch."""
        reg, cross = build_traces(3, 400, 800, 0.25)
        rate = reg.total_bytes * 8.0 / (0.25 * 0.6)
        model = UniformModel(0.3, seed=5)
        classify = lambda packet: 0 if packet.size > 300 else None  # noqa: E731
        res_o, rx_o, tx_o = drive_chain(False, reg, cross, model, 2, rate,
                                        64 * 1024, "static", classify=classify)
        res_b, rx_b, tx_b = drive_chain(True, reg, cross, model, 2, rate,
                                        64 * 1024, "static", classify=classify)
        assert not tx_b.batch_capable
        for q_o, q_b in zip(res_o.queues, res_b.queues):
            assert queue_state(q_o) == queue_state(q_b)
        assert receiver_state(rx_o) == receiver_state(rx_b)
        assert sender_state(tx_o) == sender_state(tx_b)



# ----------------------------------------------------------------------
# fat-tree: mesh and RLIR deployments


PAIRS = (((0, 0), (1, 0)), ((0, 1), (2, 1)), ((3, 0), (1, 1)))


def mesh_traces(ft, n, seed, pairs=PAIRS):
    traces = []
    for i, (src, dst) in enumerate(pairs):
        host_pairs = [(ft.host_address(*src, h), ft.host_address(*dst, g))
                      for h in range(2) for g in range(2)]
        traces.append(generate_fattree_trace(
            TraceConfig(duration=1.0, n_packets=n, mean_flow_pkts=12.0),
            host_pairs, seed=derive_seed(seed, "mesh-trace", i),
            name=f"{src}->{dst}"))
    return traces


def run_mesh(batch, n=2500, seed=0, buffer_bytes=256 * 1024, rate=40e6):
    """One mesh run; ``batch=False`` forces the event-engine reference."""
    ft = FatTree(4, LinkParams(rate_bps=rate, buffer_bytes=buffer_bytes,
                               proc_delay=1e-6, prop_delay=0.5e-6))
    mesh = RlirMesh(ft, list(PAIRS), policy_factory=lambda: StaticInjection(20))
    traces = mesh_traces(ft, n, seed)
    if batch:
        mesh.run(traces)
    else:
        with reference_path():
            mesh.run(traces)
    return ft, mesh


def assert_mesh_equal(m_o, m_b, ft_o, ft_b):
    for sw_o, sw_b in zip(ft_o.switches, ft_b.switches):
        for p_o, p_b in zip(sw_o.ports, sw_b.ports):
            assert queue_state(p_o.queue) == queue_state(p_b.queue), sw_o.name
    for key in m_o.core_receivers:
        assert receiver_state(m_o.core_receivers[key]) == \
            receiver_state(m_b.core_receivers[key]), key
    for key in m_o.dst_receivers:
        assert receiver_state(m_o.dst_receivers[key]) == \
            receiver_state(m_b.dst_receivers[key]), key
    for key in m_o.tor_senders:
        assert sender_state(m_o.tor_senders[key]) == \
            sender_state(m_b.tor_senders[key]), key
    for key in m_o.core_senders:
        assert sender_state(m_o.core_senders[key]) == \
            sender_state(m_b.core_senders[key]), key


class TestMeshEquivalence:
    @pytest.mark.parametrize("kw", [
        {},
        {"seed": 3},
        {"buffer_bytes": 6000, "rate": 20e6},  # drop-heavy tiny buffers
    ], ids=["base", "seed3", "tiny-buffer"])
    def test_mesh_bitwise_identical(self, kw):
        ft_o, m_o = run_mesh(False, **kw)
        ft_b, m_b = run_mesh(True, **kw)
        assert_mesh_equal(m_o, m_b, ft_o, ft_b)
        assert sum(s.refs_injected for s in m_b.tor_senders.values()) > 0

    def test_mesh_fast_path_actually_runs(self, monkeypatch):
        """The batch run must not silently fall back to the calendar."""
        from repro.sim.engine import Engine

        def boom(self, until=None):  # pragma: no cover - failure path
            raise AssertionError("fell back to the event engine")

        monkeypatch.setattr(Engine, "run", boom)
        run_mesh(True)

    def test_coincident_injections_use_trace_order(self, monkeypatch):
        """Two traces injected with bit-equal timestamps and sizes collide
        at shared queues with identical provenance everywhere; the driver
        must reproduce the engine's injection-order tie-break (and not
        fall back — the calendar is disabled under the batch run)."""
        from repro.sim.engine import Engine

        def traces(ft):
            t1 = generate_fattree_trace(
                TraceConfig(duration=1.0, n_packets=400, mean_flow_pkts=6.0),
                [(ft.host_address(0, 0, h), ft.host_address(1, 0, g))
                 for h in range(2) for g in range(2)], seed=5, name="a")
            t2 = generate_fattree_trace(
                TraceConfig(duration=1.0, n_packets=400, mean_flow_pkts=6.0),
                [(ft.host_address(0, 1, h), ft.host_address(1, 0, g))
                 for h in range(2) for g in range(2)], seed=6, name="b")
            # same instants, same sizes, different flows/edges: idle queues
            # propagate bit-equal times and provenance level for level
            m = min(len(t1.batch), len(t2.batch))
            rows = np.arange(m)
            b1 = t1.batch.take(rows)
            b2 = t2.batch.take(rows).replace(ts=b1.ts.copy(),
                                             size=b1.size.copy())
            return [b1, b2]

        states = []
        for batch in (False, True):
            ft = FatTree(4, LinkParams(rate_bps=1e9, buffer_bytes=256 * 1024,
                                       proc_delay=1e-6, prop_delay=0.5e-6))
            dep = RlirDeployment(ft, src=(0, 0), dst=(1, 0),
                                 policy_factory=lambda: StaticInjection(30),
                                 demux_method="reverse-ecmp")
            if batch:
                monkeypatch.setattr(Engine, "run", _engine_disabled)
                dep.run(traces(ft))
            else:
                with reference_path():
                    dep.run(traces(ft))
            states.append((receiver_state(dep.dst_receiver),
                           [receiver_state(rx)
                            for rx in dep.core_receivers.values()]))
        assert states[0] == states[1]


def _engine_disabled(self, until=None):  # pragma: no cover - failure path
    raise AssertionError("fell back to the event engine")


class TestRlirEquivalence:
    def run_rlir(self, batch, n=2500, seed=0, demux="reverse-ecmp",
                 record=False, clock_factory=None, until=None):
        ft = FatTree(4, LinkParams(rate_bps=100e6, buffer_bytes=256 * 1024))
        measured = [(ft.host_address(0, 0, h), ft.host_address(1, 0, g))
                    for h in range(2) for g in range(2)]
        incast = [(ft.host_address(p, e, h), ft.host_address(1, 0, g))
                  for p in (2, 3) for e in range(2) for h in range(2)
                  for g in range(2)]
        t1 = generate_fattree_trace(TraceConfig(duration=1.0, n_packets=n),
                                    measured, seed=derive_seed(seed, "m"))
        t2 = generate_fattree_trace(TraceConfig(duration=1.0, n_packets=3 * n),
                                    incast, seed=derive_seed(seed, "i"))
        dep = RlirDeployment(ft, src=(0, 0), dst=(1, 0),
                             policy_factory=lambda: StaticInjection(50),
                             demux_method=demux,
                             record_observations="array" if record else False,
                             clock_factory=clock_factory)
        if batch:
            dep.run([t1, t2], until=until)
        else:
            with reference_path():
                dep.run([t1, t2], until=until)
        return ft, dep

    def assert_rlir_equal(self, pair_o, pair_b, record=False):
        (ft_o, d_o), (ft_b, d_b) = pair_o, pair_b
        for sw_o, sw_b in zip(ft_o.switches, ft_b.switches):
            for p_o, p_b in zip(sw_o.ports, sw_b.ports):
                assert queue_state(p_o.queue) == queue_state(p_b.queue)
        for key in d_o.core_receivers:
            assert receiver_state(d_o.core_receivers[key]) == \
                receiver_state(d_b.core_receivers[key]), key
        assert receiver_state(d_o.dst_receiver) == receiver_state(d_b.dst_receiver)
        if record:
            for (n1, l1), (n2, l2) in zip(d_o.observation_logs(),
                                          d_b.observation_logs()):
                assert n1 == n2 and list(l1) == list(l2), n1
        for key in d_o.tor_senders:
            assert sender_state(d_o.tor_senders[key]) == \
                sender_state(d_b.tor_senders[key]), key
        for key in d_o.core_senders:
            assert sender_state(d_o.core_senders[key]) == \
                sender_state(d_b.core_senders[key]), key

    def test_reverse_ecmp_bitwise_identical(self):
        self.assert_rlir_equal(self.run_rlir(False), self.run_rlir(True))

    def test_recorded_logs_bitwise_identical(self):
        self.assert_rlir_equal(self.run_rlir(False, record=True),
                               self.run_rlir(True, record=True), record=True)

    def test_marking_demux_falls_back_identically(self):
        """The marking classifier reads per-packet ToS state; the batch
        run must fall back to the engine with identical output."""
        self.assert_rlir_equal(self.run_rlir(False, demux="marking"),
                               self.run_rlir(True, demux="marking"))

    def test_jittered_clock_falls_back_identically(self):
        clock = lambda: DriftingClock(drift_ppm=3.0, jitter_std=1e-7, seed=4)  # noqa: E731
        self.assert_rlir_equal(
            self.run_rlir(False, clock_factory=clock),
            self.run_rlir(True, clock_factory=clock))

    def test_until_bound_falls_back_identically(self):
        self.assert_rlir_equal(self.run_rlir(False, until=0.5),
                               self.run_rlir(True, until=0.5))


# ----------------------------------------------------------------------
# the fast-path driver refuses what it cannot reproduce


class TestFastPathPreflight:
    def test_prior_queue_traffic_is_rejected(self):
        ft = FatTree(4, LinkParams(rate_bps=1e9, buffer_bytes=256 * 1024))
        mesh = RlirMesh(ft, [((0, 0), (1, 0))])
        from repro.sim.engine import Engine
        mesh.wire(Engine())
        from repro.net.packet import Packet
        edge = ft.edges[0][0]
        uplink = edge.ports[ft.port_toward(edge, ft.aggs[0][0])]
        uplink.queue.offer(Packet(src=1, dst=2, size=100, ts=0.0), 0.0)
        fp = FatTreeFastPath(ft, mesh._sender_taps, mesh._receiver_taps)
        with pytest.raises(FastPathUnavailable):
            fp.run([mesh_traces(ft, 50, 0, pairs=[((0, 0), (1, 0))])[0].batch])

    def test_out_of_fabric_trace_is_rejected(self):
        ft = FatTree(4, LinkParams(rate_bps=1e9, buffer_bytes=256 * 1024))
        mesh = RlirMesh(ft, [((0, 0), (1, 0))])
        from repro.sim.engine import Engine
        mesh.wire(Engine())
        trace = generate_trace(TraceConfig(duration=0.1, n_packets=10),
                               seed=1)  # 10.1/10.2 host blocks, not fat-tree
        fp = FatTreeFastPath(ft, mesh._sender_taps, mesh._receiver_taps)
        with pytest.raises(FastPathUnavailable):
            fp.run([trace.batch])


# ----------------------------------------------------------------------
# extension jobs: the fast path composes with sharding and caching


class TestJobEquivalence:
    def test_multihop_shard_job_batch_identical(self):
        from repro.experiments.extension_jobs import MultihopShardJob
        from repro.runner.spec import config_items

        frozen = config_items(ExperimentConfig(scale=0.01, seed=7))
        jobs = [MultihopShardJob(frozen, 3, 0.8, 0, shard, 2)
                for shard in range(2)]

        def run_shards():
            return [
                [(name, flow_table_state(tables.estimated),
                  flow_table_state(tables.true))
                 for name, tables in job.run().segments]
                for job in jobs
            ]

        # reference_path drops the shared recorded simulation on exit, so
        # the columnar run below simulates afresh
        with reference_path() as forced:
            reference = run_shards()
        assert forced["chain"] == 1
        assert reference == run_shards()

    def test_mesh_job_batch_identical(self):
        from repro.experiments.extension_jobs import MeshJob

        job = MeshJob((((0, 0), (1, 0)), ((2, 1), (3, 0))), 2000, 0)
        with reference_path() as forced:
            rows_o = job.run()
        assert forced["fatpath"] == 1
        assert rows_o == job.run()

    def test_no_driver_or_job_selects_the_path(self):
        """The fast path selects itself: no driver, job, config or
        deployment takes a path knob, and no cache identity carries one."""
        import dataclasses
        import inspect

        from repro.experiments import extensions, fig4, fig5
        from repro.experiments.extension_jobs import (
            LocalizationShardJob, MeshJob, MultihopShardJob)
        from repro.experiments.workloads import run_condition
        from repro.runner.spec import JobSpec, SweepSpec, config_items
        from repro.sim.pipeline import PipelineConfig

        callables = [run_condition, fig4.run_fig4ab, fig4.run_fig4c,
                     fig5.run_fig5, PipelineConfig, ChainConfig, RlirMesh,
                     RlirDeployment]
        callables += [getattr(extensions, name) for name in extensions.__all__
                      if name.startswith("run_")]
        for fn in callables:
            assert "batch" not in inspect.signature(fn).parameters, fn
        for cls in (JobSpec, SweepSpec, MultihopShardJob,
                    LocalizationShardJob, MeshJob):
            assert "batch" not in {f.name for f in dataclasses.fields(cls)}, cls
        frozen = config_items(ExperimentConfig(scale=0.01, seed=7))
        for job in (MultihopShardJob(frozen, 2, 0.8), LocalizationShardJob(100),
                    MeshJob(PAIRS, 100),
                    JobSpec(frozen, "adaptive", "random", 0.67)):
            assert "batch" not in job.cache_token(), job
