"""Tests for the k-ary fat-tree builder: structure, addressing, routing."""

import pytest

from repro.net.packet import Packet
from route_walk import RoutingError, trace_route
from repro.sim.topology import FatTree, LinkParams, Topology


class TestGenericTopology:
    def test_duplicate_name_rejected(self):
        topo = Topology()
        topo.add_switch("a", 1)
        with pytest.raises(ValueError):
            topo.add_switch("a", 2)

    def test_connect_wires_both_directions(self):
        topo = Topology()
        a = topo.add_switch("a", 1)
        b = topo.add_switch("b", 2)
        pa, pb = topo.connect(a, b, LinkParams())
        assert a.ports[pa].neighbor is b
        assert b.ports[pb].neighbor is a
        assert topo.port_toward(a, b) == pa
        assert topo.port_toward(b, a) == pb

    def test_links_enumerated_once(self):
        topo = Topology()
        a, b, c = (topo.add_switch(n, i) for i, n in enumerate("abc"))
        topo.connect(a, b, LinkParams())
        topo.connect(b, c, LinkParams())
        assert len(list(topo.links())) == 2


class TestFatTreeStructure:
    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            FatTree(3)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_switch_counts(self, k):
        ft = FatTree(k)
        half = k // 2
        assert len(ft.switches) == k * k + half * half
        assert sum(len(row) for row in ft.edges) == k * half
        assert sum(len(row) for row in ft.aggs) == k * half
        assert sum(len(row) for row in ft.cores) == half * half

    @pytest.mark.parametrize("k", [4, 8])
    def test_link_counts(self, k):
        ft = FatTree(k)
        # edge-agg: k pods x (k/2)^2; agg-core: (k/2)^2 cores x k pods
        expected = k * (k // 2) ** 2 + (k // 2) ** 2 * k
        assert len(list(ft.links())) == expected

    def test_port_counts(self, fattree4):
        for row in fattree4.edges:
            for sw in row:
                assert len(sw.ports) == 2  # k/2 uplinks (hosts not modeled)
        for row in fattree4.aggs:
            for sw in row:
                assert len(sw.ports) == 4  # k/2 down + k/2 up
        for row in fattree4.cores:
            for sw in row:
                assert len(sw.ports) == 4  # one per pod


class TestAddressing:
    def test_host_addresses_in_tor_prefix(self, fattree4):
        prefix = fattree4.tor_prefix(2, 1)
        for h in range(2):
            assert fattree4.host_address(2, 1, h) in prefix

    def test_host_index_bounds(self, fattree4):
        with pytest.raises(ValueError):
            fattree4.host_address(4, 0, 0)
        with pytest.raises(ValueError):
            fattree4.host_address(0, 2, 0)
        with pytest.raises(ValueError):
            fattree4.host_address(0, 0, 2)

    def test_locate_host_roundtrip(self, fattree4):
        addr = fattree4.host_address(3, 1, 0)
        assert fattree4.locate_host(addr) == (3, 1)
        assert fattree4.edge_of(addr) is fattree4.edges[3][1]

    def test_distinct_switch_addresses(self, fattree8):
        addrs = [sw.address for sw in fattree8.switches]
        assert len(set(addrs)) == len(addrs)

    def test_pod_prefix_contains_tor_prefixes(self, fattree4):
        pod = fattree4.pod_prefix(1)
        assert pod.overlaps(fattree4.tor_prefix(1, 0))
        assert not pod.overlaps(fattree4.tor_prefix(2, 0))


class TestRouting:
    def _pkt(self, ft, src, dst, sport=1000, dport=2000):
        return Packet(src=src, dst=dst, sport=sport, dport=dport)

    def test_interpod_route_climbs_to_core(self, fattree4):
        ft = fattree4
        p = self._pkt(ft, ft.host_address(0, 0, 0), ft.host_address(2, 1, 1))
        path = trace_route(ft.edges[0][0], p)
        names = [sw.name for sw in path]
        assert len(path) == 5  # edge, agg, core, agg, edge
        assert names[0].startswith("edge(p0")
        assert names[2].startswith("core(")
        assert names[-1] == "edge(p2,e1)"

    def test_intrapod_route_bounces_off_agg(self, fattree4):
        ft = fattree4
        p = self._pkt(ft, ft.host_address(1, 0, 0), ft.host_address(1, 1, 0))
        path = trace_route(ft.edges[1][0], p)
        assert len(path) == 3
        assert path[1].name.startswith("agg(p1")
        assert path[2] is ft.edges[1][1]

    def test_intra_tor_delivery(self, fattree4):
        ft = fattree4
        p = self._pkt(ft, ft.host_address(1, 0, 0), ft.host_address(1, 0, 1))
        path = trace_route(ft.edges[1][0], p)
        assert path == [ft.edges[1][0]]

    def test_up_path_matches_trace_route(self, fattree8):
        """The deterministic up_path computation (what reverse ECMP relies
        on) agrees with actual hop-by-hop forwarding for many flows."""
        ft = fattree8
        src = ft.host_address(0, 1, 2)
        dst = ft.host_address(5, 2, 3)
        for sport in range(50):
            p = self._pkt(ft, src, dst, sport=sport, dport=80)
            edge, agg, core = ft.up_path(p.flow_key)
            path = trace_route(ft.edges[0][1], p)
            assert path[0] is edge
            assert path[1] is agg
            assert path[2] is core

    def test_up_path_rejects_local_flows(self, fattree4):
        ft = fattree4
        same_tor = (ft.host_address(0, 0, 0), ft.host_address(0, 0, 1), 1, 2, 6)
        intra_pod = (ft.host_address(0, 0, 0), ft.host_address(0, 1, 0), 1, 2, 6)
        with pytest.raises(ValueError):
            ft.up_path(same_tor)
        with pytest.raises(ValueError):
            ft.up_path(intra_pod)

    def test_flows_spread_over_cores(self, fattree8):
        """ECMP places flows between one host pair across many cores."""
        ft = fattree8
        src = ft.host_address(0, 0, 0)
        dst = ft.host_address(4, 0, 0)
        cores = {ft.core_of((src, dst, sport, 80, 6)).name for sport in range(200)}
        assert len(cores) >= 8  # of 16 possible

    def test_switch_address_routable(self, fattree4):
        """Packets addressed to a core terminate there (reference packets)."""
        ft = fattree4
        core = ft.cores[1][0]
        src = ft.host_address(0, 0, 0)
        # find a flow key whose up-path lands on this core; flows hashed to
        # other cores are unroutable there (no downward route to 10.k.x.y),
        # which is why RLIR senders must craft per-path reference flows
        for sport in range(500):
            p = self._pkt(ft, src, core.address, sport=sport)
            try:
                path = trace_route(ft.edges[0][0], p)
            except RoutingError:
                continue
            if path[-1] is core:
                break
        else:
            pytest.fail("no crafted flow reached the target core")
