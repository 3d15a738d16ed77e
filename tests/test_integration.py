"""Cross-driver and determinism integration tests.

The fast two-switch pipeline and the general event engine share the same
queue primitive; these tests prove they implement identical semantics, and
that entire experiments are bit-for-bit reproducible.
"""

import pytest

from repro.net.addressing import Prefix, ip_to_int
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine
from repro.sim.chain import ChainConfig
from repro.sim.pipeline import TwoSwitchPipeline
from repro.sim.switch import LOCAL_DELIVERY
from repro.sim.topology import LinkParams, Topology

RATE = 8e6
BUFFER = 8000
PROC = 1e-6


def build_equivalent_topology():
    """A -> B -> C where A/B egress queues mirror the pipeline's switches."""
    topo = Topology(name="two-switch")
    a = topo.add_switch("A", ip_to_int("10.255.0.1"))
    b = topo.add_switch("B", ip_to_int("10.255.0.2"))
    c = topo.add_switch("C", ip_to_int("10.255.0.3"))
    params = LinkParams(rate_bps=RATE, buffer_bytes=BUFFER,
                        proc_delay=PROC, prop_delay=0.0)
    topo.connect(a, b, params)
    topo.connect(b, c, params)
    everything = Prefix(0, 0)
    a.add_route(everything, topo.port_toward(a, b))
    b.add_route(everything, topo.port_toward(b, c))
    c.add_route(everything, LOCAL_DELIVERY)
    return topo, a, b, c


def workload(n=400, seed_spacing=1.3e-4):
    regs = [Packet(src=ip_to_int("10.1.0.1"), dst=ip_to_int("10.2.0.1"),
                   sport=i % 37, size=400 + (i * 97) % 1100, ts=i * seed_spacing)
            for i in range(n)]
    cross = [Packet(src=ip_to_int("10.9.0.1"), dst=ip_to_int("10.2.0.9"),
                    sport=i % 11, size=1500, ts=i * 4.1e-4,
                    kind=PacketKind.CROSS)
             for i in range(n // 3)]
    return regs, cross


class TestDriverEquivalence:
    def test_pipeline_and_engine_agree_exactly(self):
        regs, cross = workload()

        # pipeline run
        pipe_rx = []

        class Rx:
            def observe(self, p, t):
                pipe_rx.append((p.flow_key, t))

        cfg = ChainConfig(2, RATE, BUFFER, PROC)
        TwoSwitchPipeline(cfg).run(
            [p.clone() for p in regs],
            [(p.ts, p.clone()) for p in cross],
            receiver=Rx(),
        )

        # engine run on the equivalent topology
        topo, a, b, c = build_equivalent_topology()
        engine = Engine()
        for p in regs:
            engine.schedule_arrival(p.ts, a, p.clone())
        for p in cross:
            engine.schedule_arrival(p.ts, b, p.clone())
        engine.run()
        engine_rx = [(p.flow_key, t) for p, t in c.local_sink
                     if p.kind != PacketKind.CROSS]

        pipe_regular = [(k, t) for k, t in pipe_rx]
        assert len(engine_rx) == len(pipe_regular)
        for (k1, t1), (k2, t2) in zip(engine_rx, pipe_regular):
            assert k1 == k2
            assert t1 == pytest.approx(t2, abs=1e-12)

    def test_drop_counts_agree(self):
        regs, cross = workload(n=1200, seed_spacing=0.4e-4)  # overload

        cfg = ChainConfig(2, RATE, BUFFER, PROC)
        result = TwoSwitchPipeline(cfg).run(
            [p.clone() for p in regs],
            [(p.ts, p.clone()) for p in cross],
        )
        pipe_drops = (result.queues[0].stats.dropped + result.drops[PacketKind.REGULAR]
                      + result.drops[PacketKind.CROSS])

        topo, a, b, c = build_equivalent_topology()
        engine = Engine()
        clones = [p.clone() for p in regs] + [p.clone() for p in cross]
        for p in clones[:len(regs)]:
            engine.schedule_arrival(p.ts, a, p)
        for p in clones[len(regs):]:
            engine.schedule_arrival(p.ts, b, p)
        engine.run()
        engine_drops = sum(p.dropped for p in clones)
        assert engine_drops == pipe_drops
        assert pipe_drops > 0  # the workload actually stressed the buffers


class TestDeterminism:
    def test_experiment_runs_identical(self, tiny_workload):
        """Two runs of the same condition produce identical flow tables."""
        from repro.experiments.workloads import run_condition

        a = run_condition(tiny_workload, "adaptive", "random", 0.93)
        b = run_condition(tiny_workload, "adaptive", "random", 0.93)
        ta = {k: (s.count, s.mean) for k, s in a.receiver.flow_estimated.items()}
        tb = {k: (s.count, s.mean) for k, s in b.receiver.flow_estimated.items()}
        assert ta == tb

    def test_fattree_runs_identical(self):
        from repro.core.injection import StaticInjection
        from repro.core.rlir import RlirDeployment
        from repro.sim.topology import FatTree, LinkParams
        from repro.traffic.synthetic import TraceConfig, generate_fattree_trace

        def once():
            ft = FatTree(4, LinkParams(rate_bps=40e6, buffer_bytes=64 * 1024))
            pairs = [(ft.host_address(0, 0, 0), ft.host_address(1, 0, 0))]
            trace = generate_fattree_trace(
                TraceConfig(duration=0.5, n_packets=3000), pairs, seed=3)
            deployment = RlirDeployment(
                ft, (0, 0), (1, 0), policy_factory=lambda: StaticInjection(20))
            result = deployment.run([trace])
            return {k: (s.count, s.mean)
                    for k, s in result.seg2_receiver.flow_estimated.items()}

        assert once() == once()
