"""Tests for the packet model and flow helpers."""

from repro.net.addressing import ip_to_int
from flow_groups import FlowKey, count_flows, group_by_flow
from repro.net.packet import Packet, PacketKind


def make(src="10.0.0.1", dst="10.0.0.2", **kw):
    return Packet(src=ip_to_int(src), dst=ip_to_int(dst), **kw)


class TestPacket:
    def test_defaults(self):
        p = make()
        assert p.kind == PacketKind.REGULAR
        assert p.is_regular and not p.is_reference and not p.is_cross
        assert p.tap_time is None
        assert not p.dropped

    def test_flow_key_fields(self):
        p = make(sport=1234, dport=80, proto=6)
        assert p.flow_key == (p.src, p.dst, 1234, 80, 6)

    def test_clone_copies_header_resets_bookkeeping(self):
        p = make(sport=5, dport=6, size=100, ts=1.5)
        p.tap_time = 1.0
        p.dropped = True
        q = p.clone()
        assert q.flow_key == p.flow_key
        assert q.size == 100 and q.ts == 1.5
        assert q.tap_time is None and not q.dropped

    def test_clone_preserves_reference_fields(self):
        p = make(kind=PacketKind.REFERENCE, sender_id=42, ref_timestamp=0.125)
        q = p.clone()
        assert q.is_reference and q.sender_id == 42 and q.ref_timestamp == 0.125

    def test_repr_mentions_addresses(self):
        assert "10.0.0.1" in repr(make())


class TestFlowHelpers:
    def test_flowkey_of_and_reversed(self):
        p = make(sport=10, dport=20)
        key = FlowKey.of(p)
        assert key == FlowKey(p.src, p.dst, 10, 20, 6)
        rev = key.reversed()
        assert rev.src == key.dst and rev.sport == key.dport

    def test_group_by_flow_preserves_order(self):
        a1, a2 = make(sport=1), make(sport=1)
        b = make(sport=2)
        groups = group_by_flow([a1, b, a2])
        assert groups[a1.flow_key] == [a1, a2]
        assert groups[b.flow_key] == [b]

    def test_count_flows(self):
        packets = [make(sport=s) for s in (1, 1, 2, 3, 3, 3)]
        assert count_flows(packets) == 3
