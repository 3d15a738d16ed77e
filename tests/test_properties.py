"""System-level property-based tests (conservation laws and invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.lda import Lda
from repro.net.addressing import ip_to_int
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine
from repro.sim.chain import ChainConfig
from repro.sim.pipeline import TwoSwitchPipeline
from repro.sim.topology import FatTree, LinkParams


class TestEngineConservation:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31))
    def test_packets_delivered_or_dropped(self, n_packets, seed):
        """Every injected packet is eventually delivered or dropped —
        nothing is lost by the machinery itself."""
        rng = np.random.default_rng(seed)
        ft = FatTree(4, LinkParams(rate_bps=5e6, buffer_bytes=4000))
        packets = []
        for _ in range(n_packets):
            src_pod, dst_pod = rng.choice(4, size=2, replace=False)
            p = Packet(
                src=ft.host_address(int(src_pod), int(rng.integers(2)), int(rng.integers(2))),
                dst=ft.host_address(int(dst_pod), int(rng.integers(2)), int(rng.integers(2))),
                sport=int(rng.integers(1, 65535)),
                dport=int(rng.integers(1, 65535)),
                size=int(rng.integers(64, 1500)),
                ts=float(rng.uniform(0, 0.01)),
            )
            packets.append(p)
        packets.sort(key=lambda p: p.ts)
        engine = Engine()
        engine.inject_trace(packets, lambda p: ft.edge_of(p.src))
        engine.run()
        dropped = sum(p.dropped for p in packets)
        assert engine.delivered + dropped == n_packets
        assert engine.pending() == 0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_byte_conservation_per_queue(self, seed):
        """bytes_in == bytes_accepted + bytes_dropped at every port."""
        rng = np.random.default_rng(seed)
        ft = FatTree(4, LinkParams(rate_bps=5e6, buffer_bytes=3000))
        packets = [
            Packet(src=ft.host_address(0, 0, 0), dst=ft.host_address(2, 1, 1),
                   sport=int(rng.integers(65535)), size=900, ts=i * 1e-4)
            for i in range(80)
        ]
        engine = Engine()
        engine.inject_trace(packets, lambda p: ft.edge_of(p.src))
        engine.run()
        for sw in ft.switches:
            for port in sw.ports:
                s = port.queue.stats
                assert s.bytes_in == s.bytes_accepted + s.bytes_dropped
                assert s.arrivals == s.accepted + s.dropped


class TestPipelineConservation:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=150),
           st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=2**31))
    def test_arrivals_balance(self, n_regular, n_cross, seed):
        rng = np.random.default_rng(seed)
        regs = [Packet(src=ip_to_int("10.1.0.1"), dst=ip_to_int("10.2.0.1"),
                       sport=i, size=int(rng.integers(64, 1500)),
                       ts=float(i) * 1e-4)
                for i in range(n_regular)]
        cross = sorted(
            (float(rng.uniform(0, n_regular * 1e-4)),
             Packet(src=ip_to_int("10.9.0.1"), dst=ip_to_int("10.10.0.1"),
                    size=1500, kind=PacketKind.CROSS))
            for _ in range(n_cross)
        )
        cfg = ChainConfig(2, 4e6, 4000, 0.0)
        result = TwoSwitchPipeline(cfg).run(regs, cross)
        survived_switch1 = result.queues[0].stats.accepted
        assert result.queues[0].stats.arrivals == n_regular
        assert result.arrivals[PacketKind.REGULAR] == survived_switch1
        assert result.arrivals[PacketKind.CROSS] == n_cross


class TestLdaProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1e-2, allow_nan=False),
                    min_size=1, max_size=300))
    def test_lossless_lda_is_exact(self, delays):
        """With no loss, the p=1.0 bank reconstructs the exact mean delay
        regardless of bucket collisions."""
        lda = Lda(n_buckets=16, bank_probs=(1.0,))
        t = 0.0
        for i, d in enumerate(delays):
            p = Packet(src=1, dst=2, sport=i % 17, dport=i % 5, size=100, ts=t)
            lda.on_tx(p, t)
            lda.on_rx(p, t + d)
            t += 1e-4
        est = lda.estimate()
        assert est.samples == len(delays)
        assert est.mean == pytest.approx(float(np.mean(delays)), rel=1e-6)
