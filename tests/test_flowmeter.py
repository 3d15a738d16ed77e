"""Tests for the YAF-like flow meter."""

import pytest

from repro.net.addressing import ip_to_int
from repro.net.packet import Packet, PacketKind
from traffic_divider import TrafficDivider
from repro.net.addressing import Prefix
from repro.traffic.batch import PacketBatch
from repro.traffic.flowmeter import FlowMeter
from repro.traffic.trace import Trace

from packet_columns import batch_of


def pkt(ts, sport=1, size=100, src="10.1.0.1"):
    return Packet(src=ip_to_int(src), dst=ip_to_int("10.2.0.1"),
                  sport=sport, size=size, ts=ts)


class TestFlowMeter:
    def test_single_flow_record(self):
        m = FlowMeter()
        m.observe_all([pkt(0.0), pkt(0.5), pkt(1.0)])
        (record,) = list(m.records())
        assert record.first_ts == 0.0
        assert record.last_ts == 1.0
        assert record.packets == 3
        assert record.bytes == 300
        assert record.duration == 1.0

    def test_multiple_flows(self):
        m = FlowMeter()
        m.observe_all([pkt(0.0, sport=1), pkt(0.1, sport=2), pkt(0.2, sport=1)])
        assert len(m) == 2
        table = m.table()
        assert table[pkt(0, sport=1).flow_key].packets == 2

    def test_observe_at_explicit_time(self):
        m = FlowMeter()
        p = pkt(0.0)
        m.observe(p, ts=5.0)
        (record,) = list(m.records())
        assert record.first_ts == 5.0

    def test_idle_timeout_splits(self):
        m = FlowMeter(idle_timeout=1.0)
        m.observe_all([pkt(0.0), pkt(0.5), pkt(3.0)])
        records = list(m.records())
        assert len(records) == 2
        assert records[0].packets == 2  # expired record first
        assert records[1].packets == 1

    def test_out_of_order_rejected(self):
        m = FlowMeter()
        m.observe(pkt(1.0))
        with pytest.raises(ValueError):
            m.observe(pkt(0.5))

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            FlowMeter(idle_timeout=0.0)


class TestTrafficDivider:
    def test_split_by_source_prefix(self):
        divider = TrafficDivider([Prefix.parse("10.1.0.0/16")])
        trace = Trace(batch_of(
            [pkt(0.0, src="10.1.0.5"), pkt(0.1, src="10.9.0.5")]))
        regular, cross = divider.split(trace)
        assert len(regular) == 1 and len(cross) == 1
        assert cross[0].is_cross
        assert regular[0].is_regular

    def test_is_regular(self):
        divider = TrafficDivider([Prefix.parse("10.1.0.0/16")])
        assert divider.is_regular(ip_to_int("10.1.2.3"))
        assert not divider.is_regular(ip_to_int("10.2.2.3"))

    def test_requires_prefixes(self):
        with pytest.raises(ValueError):
            TrafficDivider([])

    def test_split_matches_per_packet_prefix_lookup(self):
        """The column mask picks the rows, in order, and the kinds that a
        longest-prefix lookup per packet picks."""
        import numpy as np

        from repro.net.addressing import PrefixTrie
        from repro.traffic.synthetic import TraceConfig, generate_trace

        parts = [
            generate_trace(TraceConfig(duration=0.2, n_packets=400,
                                       src_base=base), seed=seed).batch
            for seed, base in enumerate(("10.1.0.0", "10.9.0.0", "10.1.128.0",
                                         "192.168.0.0"))
        ]
        merged = PacketBatch.concat(parts)
        merged = merged.take(np.argsort(merged.ts, kind="stable"))
        merged = merged.replace(kind=np.arange(len(merged)) % 2)  # mixed kinds
        trace = Trace(merged, name="mix")
        prefixes = [Prefix.parse("10.1.0.0/16"), Prefix.parse("10.1.128.0/17"),
                    Prefix.parse("192.168.0.0/24")]
        trie = PrefixTrie()
        for prefix in prefixes:
            trie.insert(prefix, True)
        want_regular, want_cross = [], []
        for p in trace.packets:
            if trie.lookup(p.src) is not None:
                want_regular.append(p)
            else:
                want_cross.append(p)
        regular, cross = TrafficDivider(prefixes).split(trace)

        def fields(packets):
            return [(p.ts, p.flow_key, p.size, p.kind) for p in packets]

        assert want_regular and want_cross
        assert fields(regular) == fields(want_regular)
        assert [(t, k, s) for t, k, s, _ in fields(cross)] == \
            [(t, k, s) for t, k, s, _ in fields(want_cross)]
        assert all(p.kind == PacketKind.CROSS for p in cross)
        assert (regular.name, cross.name) == ("mix/regular", "mix/cross")

    def test_split_clones(self):
        divider = TrafficDivider([Prefix.parse("10.1.0.0/16")])
        trace = Trace(batch_of([pkt(0.0)]))
        regular, _ = divider.split(trace)
        regular[0].dropped = True
        assert not trace[0].dropped


class TestActiveTimeout:
    def test_active_timeout_splits_long_flow(self):
        m = FlowMeter(active_timeout=1.0)
        m.observe_all([pkt(0.0), pkt(0.5), pkt(0.9), pkt(1.5), pkt(2.6)])
        records = list(m.records())
        assert len(records) == 3  # [0,0.9], [1.5], [2.6]
        assert records[0].packets == 3

    def test_active_and_idle_combined(self):
        m = FlowMeter(idle_timeout=0.4, active_timeout=2.0)
        m.observe_all([pkt(0.0), pkt(0.2), pkt(1.0)])  # idle gap splits
        assert len(m) == 2

    def test_invalid_active_timeout(self):
        with pytest.raises(ValueError):
            FlowMeter(active_timeout=0.0)
