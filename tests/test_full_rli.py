"""Tests for the full (every-router) RLI deployment and its comparison
against RLIR."""

import pytest

from repro.analysis.cdf import Ecdf
from repro.analysis.metrics import flow_mean_errors
from repro.core.full_rli import FullRliDeployment
from repro.core.injection import StaticInjection
from repro.core.localization import localize
from repro.core.rlir import RlirDeployment
from repro.sim.topology import FatTree, LinkParams
from repro.traffic.synthetic import TraceConfig, generate_fattree_trace


def build_fattree():
    return FatTree(4, LinkParams(rate_bps=40e6, buffer_bytes=128 * 1024,
                                 proc_delay=1e-6, prop_delay=0.5e-6))


def measured_trace(ft, n_packets=6000, seed=1):
    pairs = [(ft.host_address(0, 0, h), ft.host_address(1, 0, g))
             for h in range(2) for g in range(2)]
    cfg = TraceConfig(duration=1.0, n_packets=n_packets, mean_flow_pkts=12.0)
    return generate_fattree_trace(cfg, pairs, seed=seed, name="measured")


def run_full(ft=None, n=20, traces=None):
    ft = ft or build_fattree()
    deployment = FullRliDeployment(ft, src=(0, 0), dst=(1, 0),
                                   policy_factory=lambda: StaticInjection(n))
    result = deployment.run(traces or [measured_trace(ft)])
    return ft, deployment, result


class TestFullRli:
    def test_validation(self):
        ft = build_fattree()
        with pytest.raises(ValueError):
            FullRliDeployment(ft, src=(0, 0), dst=(0, 0))
        with pytest.raises(ValueError):
            FullRliDeployment(ft, src=(0, 0), dst=(0, 1))

    def test_segment_inventory(self):
        """k=4: 2 A-segments, 4 B, 2 C-receivers, 1 D-receiver."""
        _, deployment, result = run_full()
        names = set(result.receivers)
        assert {n for n in names if n.startswith("A:")} == {"A:edge->agg0", "A:edge->agg1"}
        assert len([n for n in names if n.startswith("B:")]) == 4
        assert len([n for n in names if n.startswith("C:")]) == 2
        assert [n for n in names if n.startswith("D:")] == ["D:aggs->edge"]

    def test_references_reach_every_segment(self):
        _, _, result = run_full()
        for name, receiver in result.receivers.items():
            assert receiver.references_accepted > 0, name

    def test_every_segment_tracks_truth(self):
        _, _, result = run_full(n=10)
        for name, receiver in result.receivers.items():
            if receiver.regulars_measured < 50:
                continue
            join = flow_mean_errors(receiver.flow_estimated, receiver.flow_true)
            assert len(join.errors), name
            # per-hop delays are tiny, so relative errors run higher; the
            # estimates must still be in the right ballpark
            assert Ecdf(join.errors).median < 1.0, name

    def test_hop_truths_sum_to_path_truth(self):
        """Per-flow: seg A + B + C + D true means ≈ the end-to-end delay
        (within the wire delays the segments exclude)."""
        ft, _, result = run_full()
        # pick a well-sampled flow from segment D
        key = max(result.receivers["D:aggs->edge"].flow_true.items(),
                  key=lambda kv: kv[1].count)[0]
        total = 0.0
        found = 0
        for name, receiver in result.receivers.items():
            stats = receiver.flow_true.get(key)
            if stats is not None:
                total += stats.mean
                found += 1
        assert found == 4  # one receiver per segment letter on its path
        # compare against delivery time at dst edge: total segment truth
        # accounts for everything except ~4 propagation delays
        # (cannot recompute here directly; assert it is positive and sane)
        assert total > 0

    def test_instance_count_exceeds_rlir(self):
        """Full deployment instruments strictly more interfaces than RLIR's
        k+2-per-interface-pair economy — the paper's cost argument."""
        from repro.core.placement import instances_tor_pair

        _, _, result = run_full()
        assert result.instance_count() > instances_tor_pair(4)

    def test_localizes_single_slow_queue(self):
        """Degrade ONE core egress link; full RLI pins that exact hop while
        RLIR can only name the containing multi-router segment."""
        ft = build_fattree()
        # slow down core(0,0) -> agg(pod1, 0) to a quarter rate
        core = ft.cores[0][0]
        victim_port = ft.port_toward(core, ft.aggs[1][0])
        core.ports[victim_port].queue.set_rate(10e6)

        _, _, result = run_full(ft=ft, n=10, traces=[measured_trace(ft, 8000)])
        report = localize(result.segments(), factor=2.0, floor=5e-6,
                          min_samples=20)
        assert report.culprit == "C:cores->agg0"
        # RLIR on an identically degraded fabric blames its segment 2
        ft2 = build_fattree()
        core2 = ft2.cores[0][0]
        core2.ports[ft2.port_toward(core2, ft2.aggs[1][0])].queue.set_rate(10e6)
        rlir = RlirDeployment(ft2, src=(0, 0), dst=(1, 0),
                              policy_factory=lambda: StaticInjection(10))
        rlir_result = rlir.run([measured_trace(ft2, 8000)])
        rlir_report = localize(rlir_result.segments(), factor=2.0,
                               floor=5e-6, min_samples=20)
        assert rlir_report.culprit == "seg2:to-dst-tor"

    def test_cannot_wire_twice(self):
        ft, deployment, _ = run_full()
        with pytest.raises(RuntimeError):
            deployment.run([measured_trace(ft, 100)])
