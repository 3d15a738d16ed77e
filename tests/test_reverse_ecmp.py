"""Tests for the reverse-ECMP path classifier against actual forwarding."""

import pytest

from repro.core.reverse_ecmp import ReverseEcmpClassifier
from repro.net.packet import Packet
from route_walk import trace_route


def classifier_for(ft):
    core_to_sender = {}
    sender_of_core = {}
    for row in ft.cores:
        for core in row:
            core_to_sender[core.node_id] = 2000 + core.node_id
            sender_of_core[core.name] = 2000 + core.node_id
    return ReverseEcmpClassifier(ft, core_to_sender), sender_of_core


class TestReverseEcmp:
    def test_matches_actual_forwarding(self, fattree8):
        """For hundreds of flows, the receiver-side recomputation names
        exactly the core the packet really traversed."""
        ft = fattree8
        classify, sender_of_core = classifier_for(ft)
        src = ft.host_address(0, 0, 1)
        dst = ft.host_address(3, 2, 0)
        for sport in range(300):
            p = Packet(src=src, dst=dst, sport=sport, dport=80)
            actual_core = trace_route(ft.edges[0][0], p)[2]
            assert classify(p) == sender_of_core[actual_core.name]

    def test_intra_pod_flow_unclassified(self, fattree4):
        ft = fattree4
        classify, _ = classifier_for(ft)
        p = Packet(src=ft.host_address(0, 0, 0), dst=ft.host_address(0, 1, 0))
        assert classify(p) is None

    def test_intra_tor_flow_unclassified(self, fattree4):
        ft = fattree4
        classify, _ = classifier_for(ft)
        p = Packet(src=ft.host_address(0, 0, 0), dst=ft.host_address(0, 0, 1))
        assert classify(p) is None

    def test_uninstrumented_core_returns_none(self, fattree4):
        """If only some cores carry instances, flows through others are
        not classified (partial deployment within partial deployment)."""
        ft = fattree4
        instrumented = ft.cores[0][0]
        classify = ReverseEcmpClassifier(ft, {instrumented.node_id: 2000})
        src = ft.host_address(0, 0, 0)
        dst = ft.host_address(2, 0, 0)
        seen = set()
        for sport in range(100):
            p = Packet(src=src, dst=dst, sport=sport, dport=80)
            seen.add(classify(p))
        assert None in seen  # flows through other cores
        assert 2000 in seen  # flows through the instrumented one

    def test_requires_cores(self, fattree4):
        with pytest.raises(ValueError):
            ReverseEcmpClassifier(fattree4, {})
