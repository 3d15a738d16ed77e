"""Tests for RLI sender and receiver instances."""

import pytest

from repro.core.demux import SingleSenderDemux
from repro.core.injection import StaticInjection
from repro.core.interpolation import InterpolationBuffer
from repro.core.receiver import RliReceiver
from repro.core.sender import RefTemplate, RliSender
from repro.net.addressing import Prefix, ip_to_int
from repro.net.packet import Packet, PacketKind
from repro.sim.clock import OffsetClock


def regular(ts=0.0, sport=1, size=500, src="10.1.0.1"):
    return Packet(src=ip_to_int(src), dst=ip_to_int("10.2.0.1"),
                  sport=sport, size=size, ts=ts)


def make_sender(n=3, **kw):
    return RliSender(sender_id=1, link_rate_bps=1e9,
                     policy=StaticInjection(n), **kw)


class TestSender:
    def test_one_and_n(self):
        sender = make_sender(n=3)
        refs = [sender.on_regular(regular(t * 1e-3, sport=t), t * 1e-3)
                for t in range(9)]
        injected = [r for r in refs if r]
        assert len(injected) == 3  # after packets 3, 6, 9
        assert refs[2] and refs[5] and refs[8]
        assert sender.refs_injected == 3

    def test_reference_fields(self):
        template = RefTemplate(src=111, dst=222, sport=5, dport=6)
        sender = make_sender(n=1, templates={0: template})
        (ref,) = sender.on_regular(regular(), 1.5)
        assert ref.kind == PacketKind.REFERENCE
        assert ref.sender_id == 1
        assert (ref.src, ref.dst, ref.sport, ref.dport) == (111, 222, 5, 6)
        assert ref.ref_timestamp == 1.5  # perfect clock
        assert ref.tap_time == 1.5
        assert ref.size == 64

    def test_clock_used_for_timestamp(self):
        sender = make_sender(n=1, clock=OffsetClock(2e-6))
        (ref,) = sender.on_regular(regular(), 1.0)
        assert ref.ref_timestamp == pytest.approx(1.0 + 2e-6)

    def test_per_class_counters(self):
        """Each path class runs its own 1-and-n counter (RLIR multipath)."""
        templates = {0: RefTemplate(1, 2), 1: RefTemplate(1, 3)}
        sender = make_sender(n=2, templates=templates,
                             classify=lambda p: p.sport % 2)
        refs = []
        for i in range(8):
            out = sender.on_regular(regular(sport=i), i * 1e-3)
            if out:
                refs.extend(out)
        # 4 packets per class, n=2 -> 2 refs per class
        assert len(refs) == 4
        assert {r.dst for r in refs} == {2, 3}

    def test_unclassified_packets_not_counted(self):
        sender = make_sender(n=1, classify=lambda p: None)
        assert sender.on_regular(regular(), 0.0) is None
        assert sender.regulars_seen == 0

    def test_needs_templates(self):
        with pytest.raises(ValueError):
            RliSender(1, 1e9, templates={})

    def test_current_gap_tracks_policy(self):
        sender = make_sender(n=42)
        assert sender.current_gap == 42


def feed(receiver, events):
    """events: ('reg', t, key_sport, truth) or ('ref', t, delay)."""
    for event in events:
        if event[0] == "reg":
            _, t, sport, truth = event
            p = regular(sport=sport)
            p.tap_time = t - truth
            receiver.observe(p, t)
        else:
            _, t, delay = event
            ref = Packet(src=0, dst=0, kind=PacketKind.REFERENCE,
                         sender_id=1, ref_timestamp=t - delay)
            receiver.observe(ref, t)


def make_receiver(**kw):
    demux = SingleSenderDemux(1, regular_prefixes=[Prefix.parse("10.1.0.0/16")])
    return RliReceiver(demux=demux, **kw)


class TestReceiver:
    def test_linear_delay_recovered_exactly(self):
        rx = make_receiver()
        feed(rx, [("ref", 0.0, 0.010),
                  ("reg", 0.5, 1, 0.015),
                  ("ref", 1.0, 0.020)])
        rx.finalize()
        key = regular(sport=1).flow_key
        assert rx.flow_estimated.get(key).mean == pytest.approx(0.015)
        assert rx.flow_true.get(key).mean == pytest.approx(0.015)

    def test_per_flow_aggregation(self):
        rx = make_receiver()
        feed(rx, [("ref", 0.0, 0.010),
                  ("reg", 0.25, 1, 0.01),
                  ("reg", 0.75, 1, 0.01),
                  ("ref", 1.0, 0.010)])
        rx.finalize()
        key = regular(sport=1).flow_key
        stats = rx.flow_estimated.get(key)
        assert stats.count == 2
        assert stats.mean == pytest.approx(0.010)

    def test_cross_prefix_ignored(self):
        rx = make_receiver()
        p = regular(src="10.9.0.1")
        p.tap_time = 0.0
        rx.observe(p, 1.0)
        assert rx.regulars_ignored == 1
        assert rx.regulars_measured == 0

    def test_foreign_reference_ignored(self):
        rx = make_receiver()
        ref = Packet(src=0, dst=0, kind=PacketKind.REFERENCE,
                     sender_id=99, ref_timestamp=0.0)
        rx.observe(ref, 1.0)
        assert rx.references_ignored == 1
        assert rx.references_accepted == 0

    def test_missing_tap_time_not_measured(self):
        rx = make_receiver()
        rx.observe(regular(), 1.0)  # tap_time is None
        assert rx.missing_tap == 1
        assert rx.regulars_measured == 0

    def test_receiver_clock_offset_biases_estimates(self):
        rx = make_receiver(clock=OffsetClock(1e-3))
        feed(rx, [("ref", 0.0, 0.010),
                  ("reg", 0.5, 1, 0.015),
                  ("ref", 1.0, 0.020)])
        rx.finalize()
        key = regular(sport=1).flow_key
        # every reference delay sample reads 1 ms high
        assert rx.flow_estimated.get(key).mean == pytest.approx(0.016)

    def test_finalize_flushes_tail(self):
        rx = make_receiver()
        feed(rx, [("ref", 0.0, 0.010), ("reg", 0.5, 1, 0.02)])
        rx.finalize()
        key = regular(sport=1).flow_key
        assert rx.flow_estimated.get(key).mean == pytest.approx(0.010)

    def test_finalize_idempotent_and_blocks_observe(self):
        rx = make_receiver()
        rx.finalize()
        rx.finalize()
        with pytest.raises(RuntimeError):
            rx.observe(regular(), 0.0)

    def test_unestimated_counted(self):
        rx = make_receiver()
        p = regular(sport=1)
        p.tap_time = 0.0
        rx.observe(p, 1.0)  # no reference ever arrives
        rx.finalize()
        assert rx.unestimated == 1
        assert len(rx.flow_estimated) == 0
        assert len(rx.flow_true) == 1

    def test_collect_estimates_flag(self):
        rx = make_receiver(collect_estimates=True)
        feed(rx, [("ref", 0.0, 0.01), ("reg", 0.5, 1, 0.01), ("ref", 1.0, 0.01)])
        rx.finalize()
        assert len(rx.estimates) == 1
        assert rx.estimates[0].estimated == pytest.approx(0.01)


class TestAdaptiveSenderBehavior:
    def test_gap_widens_when_local_link_fills(self):
        """The adaptive sender reacts to ITS OWN link only: saturating the
        sender-side link pushes n from 10 toward 300."""
        from repro.core.injection import AdaptiveInjection

        sender = RliSender(1, link_rate_bps=8e6,
                           policy=AdaptiveInjection(),
                           util_window=0.01, util_alpha=1.0)
        # light load: 1 small packet per window -> n stays at the minimum
        for i in range(5):
            sender.on_regular(regular(ts=i * 0.01, size=100), i * 0.01)
        assert sender.current_gap == 10
        # saturate: 10 kB per 10 ms window = 100% of a 1 MB/s link
        t = 0.1
        for i in range(100):
            sender.on_regular(regular(ts=t, size=1000, sport=i), t)
            t += 0.001
        assert sender.current_gap == 300

    def test_blindness_to_downstream(self):
        """...and it cannot see a downstream bottleneck at all: the gap is
        identical whether or not cross traffic floods switch 2 (the paper's
        core observation about adaptation across routers)."""
        from repro.core.injection import AdaptiveInjection

        def run_with_cross(n_cross):
            from repro.sim.chain import ChainConfig
            from repro.sim.pipeline import TwoSwitchPipeline

            sender = RliSender(1, link_rate_bps=8e6, policy=AdaptiveInjection())
            regs = [regular(ts=i * 1e-3, sport=i) for i in range(200)]
            cross = [(i * 2e-4, Packet(src=9, dst=10, size=1500,
                                       ts=i * 2e-4, kind=PacketKind.CROSS))
                     for i in range(n_cross)]
            TwoSwitchPipeline(ChainConfig(2, 8e6, None, 0.0)).run(
                regs, cross, sender=sender)
            return sender.current_gap, sender.refs_injected

        quiet = run_with_cross(0)
        flooded = run_with_cross(900)
        assert quiet == flooded
