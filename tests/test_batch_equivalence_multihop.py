"""Batch/object equivalence for the multihop chain and fat-tree drivers.

``tests/test_batch_equivalence.py`` pins the two-switch pipeline's columnar
fast path to the per-object reference implementation bit for bit; this
suite does the same for the paths vectorized beyond it:

* :meth:`repro.sim.chain.SwitchChain.run_batch` — multihop segment chains
  with per-hop cross traffic and a sender-tapped first hop;
* :class:`repro.sim.fatpath.FatTreeFastPath` — the layered columnar
  replacement for the event calendar that the fat-tree deployments' shared
  ``FatTreeDeployment.run`` tries first, including its exact reconstruction
  of the engine's ``(time, insertion seq)`` tie-break from event
  provenance, its pre-flight refusals, and the agreement of a sender's
  classify spec in its engine and vectorized forms;
* the extension-study jobs that run them through the runner
  (:mod:`repro.experiments.extension_jobs`).

The per-object side of every deployment and job comparison is reached
through ``tests/reference_path.py``.

Every comparison is exact equality on floats — same float-op order, same
dict insertion order, same observation-log bytes — mirroring
``tests/test_batch_equivalence.py``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.demux import SingleSenderDemux
from repro.core.full_rli import FullRliDeployment
from repro.core.injection import AdaptiveInjection, StaticInjection
from repro.core.mesh import RlirMesh
from repro.core.obslog import ObservationColumns
from repro.core.receiver import RliReceiver
from repro.core.replay import replay_observations
from repro.core.rlir import RlirDeployment
from repro.core.sender import RefTemplate, RliSender
from repro.experiments.config import ExperimentConfig, derive_seed
from repro.net.addressing import Prefix, ip_to_int
from repro.net.packet import Packet
from repro.sim.chain import ChainConfig, SwitchChain
from repro.sim.clock import DriftingClock
from repro.sim.fatpath import FastPathUnavailable, FatTreeFastPath, spec_classifier
from repro.sim.topology import FatTree, LinkParams
from repro.traffic.batch import PacketBatch
from repro.traffic.crosstraffic import BurstyModel, UniformModel
from repro.traffic.synthetic import TraceConfig, generate_fattree_trace, generate_trace

from reference_path import reference_path
from reference_replay import TeeReceiver, events_of
from test_batch_equivalence import regime_traces

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
    """One chain run on either driver; returns (result, receiver, sender).

    With *log*, a recording receiver writing to it sees the same stream
    as the live receiver returned."""
    chain = SwitchChain(ChainConfig(
        n_hops=n_hops, rate_bps=rate, buffer_bytes=buffer_bytes,
        proc_delay=1e-6))
    sender = make_sender(rate, scheme, classify=classify) if scheme else None
    receiver = RliReceiver(
        demux=SingleSenderDemux(1, regular_prefixes=[REGULAR_PREFIX]))
    tap = receiver if log is None else TeeReceiver(receiver, RliReceiver(
        demux=SingleSenderDemux(1, regular_prefixes=[REGULAR_PREFIX]),
        observation_log=log))
    cross_per_hop = {
        hop: (UniformModel(model.prob, seed=model.seed + hop).arrivals_batch(cross)
              if batch else
              UniformModel(model.prob, seed=model.seed + hop).arrivals(cross))
        for hop in range(n_hops)
    }
    run = chain.run_batch if batch else chain.run
    result = run(reg if batch else reg.clone_packets(), cross_per_hop,
                 sender=sender, receiver=tap)
    tap.finalize()
    return result, receiver, sender


class TestChainProperty:
    @given(
        seed=st.integers(0, 2**31),
        n_reg=st.integers(300, 900),
        n_hops=st.sampled_from([1, 2, 3, 5]),
        # up to just past 100 % load on the tapped first hop
        headroom=st.one_of(st.floats(0.3, 0.9), st.floats(0.99, 1.05)),
        buffer_kb=st.sampled_from([2, 8, 64, None]),
        cross_prob=st.sampled_from([0.0, 0.4, 0.8]),
        scheme=st.sampled_from([None, "static", "adaptive"]),
        regime=st.sampled_from(["trace", "tied"]),
    )
    @example(seed=7, n_reg=500, n_hops=3, headroom=0.6, buffer_kb=8,
             cross_prob=0.8, scheme="adaptive", regime="empty")
    @example(seed=8, n_reg=500, n_hops=3, headroom=1.02, buffer_kb=64,
             cross_prob=0.8, scheme=None, regime="tied")
    @settings(max_examples=10, deadline=None)
    def test_random_chains_bitwise_identical(self, seed, n_reg, n_hops,
                                             headroom, buffer_kb, cross_prob,
                                             scheme, regime):
        duration = 0.25
        reg, cross = build_traces(seed, n_reg, 2 * n_reg, duration)
        rate = reg.total_bytes * 8.0 / (duration * headroom)
        buffer_bytes = buffer_kb * 1024 if buffer_kb else None
        reg, cross = regime_traces(regime, reg, cross, rate, buffer_bytes)
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

    def test_observation_log_identical(self):
        reg, cross = build_traces(11, 600, 1200, 0.25)
        rate = reg.total_bytes * 8.0 / (0.25 * 0.5)
        model = UniformModel(0.5, seed=2)
        logs, live = [], []
        for batch in (False, True):
            log = ObservationColumns()
            _, receiver, _ = drive_chain(batch, reg, cross, model, 3, rate,
                                         32 * 1024, "adaptive", log=log)
            logs.append(log)
            live.append(receiver)
        assert events_of(logs[0]) == events_of(logs[1])
        assert receiver_state(live[0]) == receiver_state(live[1])
        assert live[0].regulars_measured > 0
        replayed = replay_observations(logs[1])
        assert flow_table_state(replayed.true) == flow_table_state(live[1].flow_true)
        assert (flow_table_state(replayed.estimated)
                == flow_table_state(live[1].flow_estimated))

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
                 record=False, clock_factory=None, until=None, rate=100e6,
                 buffer_bytes=256 * 1024):
        ft = FatTree(4, LinkParams(rate_bps=rate, buffer_bytes=buffer_bytes))
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
                             record_observations=record,
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
                assert n1 == n2 and events_of(l1) == events_of(l2), n1
        for key in d_o.tor_senders:
            assert sender_state(d_o.tor_senders[key]) == \
                sender_state(d_b.tor_senders[key]), key
        for key in d_o.core_senders:
            assert sender_state(d_o.core_senders[key]) == \
                sender_state(d_b.core_senders[key]), key

    def test_reverse_ecmp_bitwise_identical(self):
        self.assert_rlir_equal(self.run_rlir(False), self.run_rlir(True))

    def test_drop_heavy_bitwise_identical(self, monkeypatch):
        """10 Mb/s links with 16 KB buffers drop at the sender-tapped
        ports, references included: the multi-class scan's drop arms
        must match the engine."""
        from repro.sim.engine import Engine

        pair_o = self.run_rlir(False, rate=10e6, buffer_bytes=16 * 1024)
        built = []
        build = RliSender.build_reference

        def spy(sender, path_class, now):
            built.append(build(sender, path_class, now))
            return built[-1]

        monkeypatch.setattr(RliSender, "build_reference", spy)
        monkeypatch.setattr(Engine, "run", _engine_disabled)
        pair_b = self.run_rlir(True, rate=10e6, buffer_bytes=16 * 1024)
        self.assert_rlir_equal(pair_o, pair_b)
        ft_b, _ = pair_b
        assert sum(port.queue.stats.dropped for sw in ft_b.switches
                   for port in sw.ports) > 0
        # only the tapped scan marks a dropped reference on the fast path
        assert any(ref.dropped for ref in built)

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

    def test_fast_path_memory_stays_bounded(self, monkeypatch):
        """Memory regression: the driver frees each layer once the next has
        read it and lets each receiver's segments go after it observes, so
        its allocation peak inside ``run`` stays near one layer plus the
        receivers' snapshots.  On this localization fabric (reverse-ECMP,
        3:1 incast) that measured about 450 B per input packet; a driver
        that holds every layer until it returns measured about 1 160 B.
        The bound leaves a 35 % margin over the former.  The traced run
        must still match the event engine exactly."""
        from repro.sim.engine import Engine

        n = 4000
        measured = []
        run = FatTreeFastPath.run

        def traced_run(fp, batches):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run(fp, batches)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            measured.append((peak, sum(len(b) for b in batches)))

        pair_o = self.run_rlir(False, n=n)
        monkeypatch.setattr(FatTreeFastPath, "run", traced_run)
        monkeypatch.setattr(Engine, "run", _engine_disabled)
        pair_b = self.run_rlir(True, n=n)
        self.assert_rlir_equal(pair_o, pair_b)
        (peak, packets), = measured
        assert peak / packets < 610, f"{peak / packets:.0f} B per packet"


# ----------------------------------------------------------------------
# the fast-path driver refuses what it cannot reproduce


class TestFastPathPreflight:
    def test_prior_queue_traffic_is_rejected(self):
        ft = FatTree(4, LinkParams(rate_bps=1e9, buffer_bytes=256 * 1024))
        mesh = RlirMesh(ft, [((0, 0), (1, 0))])
        from repro.sim.engine import Engine
        mesh.wire(Engine())
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

    @pytest.mark.parametrize("spec", [None, ("bogus",)], ids=["none", "bogus"])
    def test_unrouted_classify_spec_is_rejected_up_front(self, spec):
        ft = FatTree(4, LinkParams(rate_bps=1e9, buffer_bytes=256 * 1024))
        mesh = RlirMesh(ft, [((0, 0), (1, 0))])
        from repro.sim.engine import Engine
        mesh.wire(Engine())
        taps = dict(mesh._sender_taps)
        key = next(iter(taps))
        taps[key] = (taps[key][0], spec)
        fp = FatTreeFastPath(ft, taps, mesh._receiver_taps)
        with pytest.raises(FastPathUnavailable) as info:
            fp.run([mesh_traces(ft, 50, 0, pairs=[((0, 0), (1, 0))])[0].batch])
        assert info.value.reason == "unknown-classify-spec"

    def test_receiver_at_aggregation_is_rejected_untouched(self):
        ft = FatTree(4, LinkParams(rate_bps=1e9, buffer_bytes=256 * 1024))
        dep = FullRliDeployment(ft, src=(0, 0), dst=(1, 0))
        from repro.sim.engine import Engine
        dep.wire(Engine())

        def state():
            return ([queue_state(port.queue) for sw in ft.switches
                     for port in sw.ports],
                    {name: sender_state(tx) for name, tx in dep.senders.items()},
                    {name: receiver_state(rx)
                     for name, rx in dep.receivers.items()})

        before = state()
        fp = FatTreeFastPath(ft, dep._sender_taps, dep._receiver_taps)
        with pytest.raises(FastPathUnavailable) as info:
            fp.run([mesh_traces(ft, 200, 0, pairs=[((0, 0), (1, 0))])[0].batch])
        assert info.value.reason == "receiver-at-aggregation"
        assert state() == before

    def test_full_rli_counts_its_fallback(self, counters):
        def run_full(forced):
            ft = FatTree(4, LinkParams(rate_bps=40e6, buffer_bytes=256 * 1024))
            dep = FullRliDeployment(ft, src=(0, 0), dst=(1, 0),
                                    policy_factory=lambda: StaticInjection(20))
            traces = mesh_traces(ft, 1500, 0, pairs=[((0, 0), (1, 0))])
            if forced:
                with reference_path():
                    result = dep.run(traces)
            else:
                result = dep.run(traces)
            return {name: receiver_state(rx)
                    for name, rx in result.receivers.items()}

        default = run_full(False)
        assert counters("batch.fallback[fatpath:receiver-at-aggregation]") == 1
        assert counters("batch.fallback") == 1
        assert counters("batch.fastpath") == 0
        assert all(state["estimated"] for state in default.values())
        assert default == run_full(True)


# ----------------------------------------------------------------------
# one classify spec, two forms: the engine's closure, the driver's columns

SPEC_FT = FatTree(4)
_fabric_addr = st.builds(lambda p, e, h: (10 << 24) | (p << 16) | (e << 8) | h,
                         st.integers(0, 3), st.integers(0, 1),
                         st.integers(0, 255))
_any_addr = st.one_of(_fabric_addr, st.integers(0, 2 ** 32 - 1))
_header_rows = st.lists(
    st.tuples(_any_addr, _any_addr, st.integers(0, 65535),
              st.integers(0, 65535), st.sampled_from([6, 17])),
    min_size=1, max_size=60)


class TestClassifySpecOracle:
    @pytest.mark.parametrize("spec", [
        ("hash", SPEC_FT.aggs[0][1].hasher, 2),
        ("hash", SPEC_FT.aggs[2][0].hasher, 4),
        ("hash", SPEC_FT.edges[3][1].hasher, 2),
        ("hash", SPEC_FT.cores[1][0].hasher, 4),
        ("tor_map", ((1, 0, 0),)),
        # overlapping entries: the first match wins
        ("tor_map", ((2, 1, 3), (1, 0, 1), (2, 1, 0), (1, 0, 2))),
        None,
    ], ids=["hash-agg-2", "hash-agg-4", "hash-edge-2", "hash-core-4",
            "tor-map-one", "tor-map-overlap", "none"])
    @given(rows=_header_rows)
    @settings(max_examples=40, deadline=None)
    def test_scalar_closure_equals_vectorized_classes(self, spec, rows):
        cols = tuple(np.array(col, dtype=np.int64) for col in zip(*rows))
        vectorized = FatTreeFastPath(SPEC_FT, {}, {})._classes(
            spec, np.arange(len(rows)), cols).tolist()
        sender = RliSender(sender_id=1, link_rate_bps=1e9,
                           policy=StaticInjection(10),
                           classify=spec_classifier(SPEC_FT, spec))
        scalar = [sender._classify(Packet(src=s, dst=d, sport=sp, dport=dp,
                                          proto=pr, size=100, ts=0.0))
                  for s, d, sp, dp, pr in rows]
        assert vectorized == [-1 if c is None else c for c in scalar]
        if spec is None:
            assert set(vectorized) == {0}

    def test_tor_map_no_match_is_no_class(self):
        spec = ("tor_map", ((1, 0, 0), (1, 0, 1)))
        dst = SPEC_FT.host_address(2, 1, 0)
        cols = tuple(np.array([v], dtype=np.int64)
                     for v in (SPEC_FT.host_address(0, 0, 0), dst, 1, 2, 6))
        assert FatTreeFastPath(SPEC_FT, {}, {})._classes(
            spec, np.arange(1), cols).tolist() == [-1]
        packet = Packet(src=int(cols[0][0]), dst=dst, sport=1, dport=2, proto=6)
        assert spec_classifier(SPEC_FT, spec)(packet) is None
        match = Packet(src=1, dst=SPEC_FT.host_address(1, 0, 1), sport=1,
                       dport=2, proto=6)
        assert spec_classifier(SPEC_FT, spec)(match) == 0


# ----------------------------------------------------------------------
# extension jobs: the fast path composes with replay and caching


class TestJobEquivalence:
    def test_multihop_job_batch_identical(self):
        from repro.experiments.extension_jobs import MultihopJob
        from repro.runner.spec import config_items

        job = MultihopJob(config_items(ExperimentConfig(scale=0.01, seed=7)),
                          3, 0.8)

        def run_job():
            return [(name, flow_table_state(tables.estimated),
                     flow_table_state(tables.true))
                    for name, tables in job.run().segments]

        with reference_path() as forced:
            reference = run_job()
        assert forced["chain"] == 1
        assert reference == run_job()

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
            LocalizationJob, MeshJob, MultihopJob)
        from repro.experiments.workloads import run_condition
        from repro.runner.spec import JobSpec, SweepSpec, config_items

        callables = [run_condition, fig4.run_fig4ab, fig4.run_fig4c,
                     fig5.run_fig5, ChainConfig, RlirMesh,
                     RlirDeployment]
        callables += [getattr(extensions, name) for name in extensions.__all__
                      if name.startswith("run_")]
        for fn in callables:
            assert "batch" not in inspect.signature(fn).parameters, fn
        for cls in (JobSpec, SweepSpec, MultihopJob,
                    LocalizationJob, MeshJob):
            assert "batch" not in {f.name for f in dataclasses.fields(cls)}, cls
        frozen = config_items(ExperimentConfig(scale=0.01, seed=7))
        for job in (MultihopJob(frozen, 2, 0.8), LocalizationJob(100),
                    MeshJob(PAIRS, 100),
                    JobSpec(frozen, "adaptive", "random", 0.67)):
            assert "batch" not in job.cache_token(), job


# ----------------------------------------------------------------------
# the multihop ablation's shared chain prefixes

ABLATION_HOPS = (1, 2, 4, 8)
ABLATION_KEY = ("static", 0.8, 0)  # run_multihop_ablation's defaults


@pytest.fixture
def fresh_workloads(monkeypatch):
    """An empty workload memo for the test; returns the workload of a
    config, built on first use."""
    from repro.experiments import workloads
    from repro.runner.spec import config_items

    monkeypatch.setattr(workloads, "_workload_cache", {})
    return lambda cfg: workloads.workload_for(config_items(cfg))


def prefix_snapshot(prefix):
    """Every value a prefix holds, copied, for comparing before and after."""
    *columns, refs = prefix.stream
    return ([column.copy() for column in columns],
            [(id(ref), ref.ts, ref.size, ref.ref_timestamp, ref.tap_time,
              ref.dropped) for ref in refs],
            [queue_state(queue) for queue in prefix.queues],
            prefix.refs_injected, prefix.arrivals.tolist(),
            prefix.drops.tolist(), prefix.cross_rows,
            sender_state(prefix.sender))


def assert_snapshots_equal(got, want):
    got_columns, *got_rest = got
    want_columns, *want_rest = want
    for a, b in zip(got_columns, want_columns, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got_rest == want_rest


class TestSharedChainPrefix:
    """Hop h takes the same cross selection in every chain of the
    ablation, so a longer chain continues the workload's prefix of a
    shorter one; sharing must change no byte of any row, whatever order
    the chains run in."""

    def test_rows_match_in_any_order_and_alone(self, tiny_config,
                                               fresh_workloads, monkeypatch):
        from repro.experiments import workloads
        from repro.experiments.extensions import run_multihop_ablation
        from repro.sim.queue import FifoQueue

        scans = []
        offer_batch = FifoQueue.offer_batch

        def counted(queue, *args):
            scans.append(queue.name)
            return offer_batch(queue, *args)

        monkeypatch.setattr(FifoQueue, "offer_batch", counted)

        def rows(hops):
            workloads._workload_cache.clear()
            return run_multihop_ablation(tiny_config, hops=hops)

        ascending = rows(ABLATION_HOPS)
        # hops 2..8 once each: every chain continues the last one
        assert sorted(scans) == sorted(f"switch{h}" for h in range(2, 9))
        descending = rows(ABLATION_HOPS[::-1])
        alone = [rows((n_hops,))[0] for n_hops in ABLATION_HOPS]
        assert ascending == alone == descending[::-1]

    def test_longer_chains_leave_a_shared_prefix_untouched(self, tiny_config,
                                                           fresh_workloads):
        from repro.experiments.extension_jobs import MultihopJob
        from repro.runner.spec import config_items

        workload = fresh_workloads(tiny_config)
        held = []
        for n_hops in ABLATION_HOPS:
            MultihopJob(config_items(tiny_config), n_hops, 0.8).run()
            prefix = workload._prefixes[ABLATION_KEY]
            assert prefix.depth == n_hops
            held.append((prefix, prefix_snapshot(prefix)))
        assert held[-1][0].queues[:1] == held[0][0].queues
        for prefix, snapshot in held:
            assert_snapshots_equal(prefix_snapshot(prefix), snapshot)

    def test_the_memo_holds_one_multihop_prefix(self, tiny_config,
                                                fresh_workloads):
        from repro.experiments.extensions import run_multihop_ablation
        from repro.experiments.workloads import run_condition

        workload = fresh_workloads(tiny_config)
        run_condition(workload, "static", "random", 0.67)
        run_multihop_ablation(tiny_config, hops=(1, 2))
        assert {key: p.depth for key, p in workload._prefixes.items()} == {
            ("static", None): 1, ABLATION_KEY: 2}
        # a shallower chain builds afresh and replaces the deeper prefix
        run_multihop_ablation(tiny_config, hops=(1,))
        assert workload._prefixes[ABLATION_KEY].depth == 1
        # a new selection evicts the held prefix
        run_multihop_ablation(tiny_config, hops=(2,), run_seed=1)
        assert {key: p.depth for key, p in workload._prefixes.items()} == {
            ("static", None): 1, ("static", 0.8, 1): 2}

    def test_reference_path_never_builds_nor_reads_the_memo(
            self, tiny_config, fresh_workloads):
        from repro.experiments.extensions import run_multihop_ablation
        from repro.experiments.workloads import PipelineWorkload

        def unreadable(*args):
            raise AssertionError("a per-object run read the prefix memo")

        workload = fresh_workloads(tiny_config)
        with reference_path() as forced, pytest.MonkeyPatch.context() as patch:
            patch.setattr(PipelineWorkload, "chain_prefix", unreadable)
            reference = run_multihop_ablation(tiny_config, hops=ABLATION_HOPS)
        assert forced["chain"] == len(ABLATION_HOPS)
        assert workload._prefixes == {}
        assert reference == run_multihop_ablation(tiny_config, hops=ABLATION_HOPS)

    def test_no_prefix_outlives_its_workload(self, tiny_config, fresh_workloads):
        import gc
        import weakref

        from repro.experiments import workloads
        from repro.experiments.extensions import run_multihop_ablation

        workload = fresh_workloads(tiny_config)
        workloads.run_condition(workload, "adaptive", "random", 0.67)
        run_multihop_ablation(tiny_config, hops=(1, 2))
        alive = [weakref.ref(prefix) for prefix in workload._prefixes.values()]
        assert len(alive) == 2
        del workload
        workloads._workload_cache.clear()
        gc.collect()
        assert [ref() for ref in alive] == [None, None]
