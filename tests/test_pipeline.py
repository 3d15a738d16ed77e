"""Tests for the two-switch pipeline (the paper's Figure-3 environment):
the two-hop chain with its cross traffic at switch 2."""

import pytest

from repro.net.addressing import ip_to_int
from repro.net.packet import Packet, PacketKind
from repro.sim.chain import ChainConfig
from repro.sim.pipeline import TwoSwitchPipeline


def regular(ts, size=1000, sport=1):
    return Packet(src=ip_to_int("10.1.0.1"), dst=ip_to_int("10.2.0.1"),
                  sport=sport, size=size, ts=ts)


def cross(ts, size=1000):
    return Packet(src=ip_to_int("10.9.0.1"), dst=ip_to_int("10.10.0.1"),
                  size=size, ts=ts, kind=PacketKind.CROSS)


CFG = ChainConfig(n_hops=2, rate_bps=8e6, buffer_bytes=None, proc_delay=0.0)


class RecordingReceiver:
    def __init__(self):
        self.seen = []

    def observe(self, packet, now):
        self.seen.append((packet, now))


class CountingSender:
    """Injects one 64-byte reference after every n regular packets."""

    def __init__(self, n):
        self.n = n
        self.count = 0
        self.made = 0

    def on_regular(self, packet, now):
        self.count += 1
        if self.count % self.n:
            return None
        self.made += 1
        ref = Packet(src=0, dst=0, size=64, ts=now, kind=PacketKind.REFERENCE,
                     sender_id=1, ref_timestamp=now)
        ref.tap_time = now
        return [ref]


class TestPipelineBasics:
    def test_two_hop_delay(self):
        rx = RecordingReceiver()
        result = TwoSwitchPipeline(CFG).run([regular(0.0)], [], receiver=rx)
        (_, arrival), = rx.seen
        # two transmissions of 1000B at 1 MB/s, no queueing
        assert arrival == pytest.approx(2e-3)
        assert result.arrivals[PacketKind.REGULAR] == 1

    def test_tap_time_set_at_switch1(self):
        rx = RecordingReceiver()
        TwoSwitchPipeline(CFG).run([regular(0.5)], [], receiver=rx)
        (p, _), = rx.seen
        assert p.tap_time == 0.5

    def test_cross_traffic_not_observed_but_queues(self):
        rx = RecordingReceiver()
        pipeline = TwoSwitchPipeline(CFG)
        # cross packet arrives at switch 2 just before the regular one
        result = pipeline.run([regular(0.0)], [(0.9e-3, cross(0.9e-3))], receiver=rx)
        (p, arrival), = rx.seen
        assert p.is_regular
        # regular reached switch2 at 1 ms; cross still serializing until 1.9 ms
        assert arrival == pytest.approx(1.9e-3 + 1e-3)
        assert result.arrivals[PacketKind.CROSS] == 1

    def test_sender_refs_follow_their_trigger(self):
        rx = RecordingReceiver()
        sender = CountingSender(2)
        TwoSwitchPipeline(CFG).run([regular(i * 0.01, sport=i) for i in range(4)],
                                   [], sender=sender, receiver=rx)
        kinds = [p.kind for p, _ in rx.seen]
        assert kinds == [PacketKind.REGULAR, PacketKind.REGULAR, PacketKind.REFERENCE,
                         PacketKind.REGULAR, PacketKind.REGULAR, PacketKind.REFERENCE]

    def test_refs_injected_counted(self):
        sender = CountingSender(2)
        result = TwoSwitchPipeline(CFG).run(
            [regular(i * 0.01, sport=i) for i in range(10)], [], sender=sender)
        assert result.refs_injected == 5
        assert result.arrivals[PacketKind.REFERENCE] == 5

    def test_dropped_at_switch1_never_reaches_sender_tap(self):
        cfg = ChainConfig(n_hops=2, rate_bps=8e6, buffer_bytes=1500,
                          proc_delay=0.0)
        sender = CountingSender(1)
        # burst of 5 packets at t=0: only some fit in switch 1's buffer
        result = TwoSwitchPipeline(cfg).run(
            [regular(0.0, sport=i) for i in range(5)], [], sender=sender)
        assert sender.count < 5
        assert result.queues[0].stats.dropped == 5 - sender.count
        # switch 1 paces the survivors and their references: switch 2,
        # with the same buffer, drops none of them
        assert result.arrivals[PacketKind.REGULAR] == sender.count
        assert result.arrivals[PacketKind.REFERENCE] > 0
        assert sum(result.drops.values()) == 0

    def test_utilization_accounting(self):
        result = TwoSwitchPipeline(CFG).run(
            [regular(i * 0.01) for i in range(10)], [], duration=0.1)
        # 10 kB over 0.1 s at 1 MB/s = 10% on both switches
        assert result.utilization(0) == pytest.approx(0.1)
        assert result.utilization(1) == pytest.approx(0.1)

    def test_loss_rate_per_kind(self):
        cfg = ChainConfig(n_hops=2, rate_bps=8e6, buffer_bytes=2000,
                          proc_delay=0.0)
        # regulars spaced out; a cross burst overflows switch 2 only
        burst = [(0.0, cross(0.0)) for _ in range(10)]
        result = TwoSwitchPipeline(cfg).run([regular(i * 0.05) for i in range(4)],
                                            burst)
        assert result.queues[0].stats.dropped == 0
        assert result.arrivals[PacketKind.REGULAR] == 4
        assert result.loss_rate(PacketKind.CROSS) > 0
        assert result.loss_rate(PacketKind.REGULAR) == 0.0

    def test_duration_inferred_when_omitted(self):
        result = TwoSwitchPipeline(CFG).run([regular(0.0)], [])
        assert result.duration == pytest.approx(2e-3)

    def test_merge_keeps_time_order(self):
        """Receiver sees switch-2 departures in non-decreasing time."""
        rx = RecordingReceiver()
        regs = [regular(i * 1e-4, sport=i) for i in range(50)]
        crs = [(i * 1.7e-4, cross(i * 1.7e-4)) for i in range(30)]
        TwoSwitchPipeline(CFG).run(regs, crs, receiver=rx)
        times = [t for _, t in rx.seen]
        assert times == sorted(times)
