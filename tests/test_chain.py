"""Tests for the N-switch chain environment."""

import pytest

from repro.net.addressing import ip_to_int
from repro.net.packet import Packet, PacketKind
from repro.sim.chain import ChainConfig, SwitchChain
from repro.sim.queue import FifoQueue

from packet_columns import batch_of


def regular(ts, size=1000, sport=1):
    return Packet(src=ip_to_int("10.1.0.1"), dst=ip_to_int("10.2.0.1"),
                  sport=sport, size=size, ts=ts)


def cross(ts, size=1000):
    return Packet(src=ip_to_int("10.9.0.1"), dst=ip_to_int("10.10.0.1"),
                  size=size, ts=ts, kind=PacketKind.CROSS)


def chain(n_hops=3, rate=8e6, buffer_bytes=None):
    return SwitchChain(ChainConfig(n_hops=n_hops, rate_bps=rate,
                                   buffer_bytes=buffer_bytes, proc_delay=0.0))


class Recorder:
    def __init__(self):
        self.seen = []

    def observe(self, packet, now):
        self.seen.append((packet, now))


class TestSwitchChain:
    def test_delay_is_sum_of_hops(self):
        rx = Recorder()
        chain(n_hops=3).run([regular(0.0)], receiver=rx)
        (_, arrival), = rx.seen
        assert arrival == pytest.approx(3 * 1e-3)  # 1 ms serialization x 3

    def test_two_hop_chain_equals_pipeline(self):
        """A 2-hop chain with hop-1 cross traffic reproduces the
        TwoSwitchPipeline's semantics."""
        from repro.sim.pipeline import TwoSwitchPipeline

        regs = [regular(i * 1e-4, sport=i) for i in range(200)]
        crs = [(i * 3e-4, cross(i * 3e-4)) for i in range(50)]
        rx_chain, rx_pipe = Recorder(), Recorder()
        chain(n_hops=2).run([p.clone() for p in regs],
                            {1: [(t, p.clone()) for t, p in crs]},
                            receiver=rx_chain)
        TwoSwitchPipeline(ChainConfig(2, 8e6, None, 0.0)).run(
            [p.clone() for p in regs], [(t, p.clone()) for t, p in crs],
            receiver=rx_pipe)
        assert [t for _, t in rx_chain.seen] == pytest.approx(
            [t for _, t in rx_pipe.seen])

    def test_tap_time_at_first_hop(self):
        rx = Recorder()
        chain().run([regular(0.7)], receiver=rx)
        (p, _), = rx.seen
        assert p.tap_time == 0.7

    def test_cross_confined_to_its_hop(self):
        """Hop-1 cross traffic delays the through stream at hop 1 only."""
        rx_with = Recorder()
        rx_without = Recorder()
        chain(n_hops=3).run([regular(1e-3)], receiver=rx_without)
        chain(n_hops=3).run(
            [regular(1e-3)],
            {1: [(0.5e-3, cross(0.5e-3, size=2000))]},
            receiver=rx_with)
        (_, t_without), = rx_without.seen
        (_, t_with), = rx_with.seen
        assert t_with > t_without
        # the extra delay is bounded by one hop's cross serialization
        assert t_with - t_without <= 2e-3 + 1e-9

    def test_cross_never_reaches_receiver(self):
        rx = Recorder()
        chain(n_hops=2).run([regular(0.0)],
                            {0: [(0.0, cross(0.0))], 1: [(0.0, cross(0.0))]},
                            receiver=rx)
        assert all(p.is_regular for p, _ in rx.seen)

    def test_sender_refs_ride_whole_chain(self):
        class OneRef:
            def on_regular(self, packet, now):
                ref = Packet(src=0, dst=0, size=64, ts=now,
                             kind=PacketKind.REFERENCE, sender_id=1,
                             ref_timestamp=now)
                ref.tap_time = now
                return [ref]

        rx = Recorder()
        result = chain(n_hops=4).run([regular(0.0)], sender=OneRef(), receiver=rx)
        kinds = [p.kind for p, _ in rx.seen]
        assert kinds == [PacketKind.REGULAR, PacketKind.REFERENCE]
        assert result.refs_injected == 1

    def test_loss_accounting(self):
        result = chain(n_hops=2, buffer_bytes=1500).run(
            [regular(0.0, sport=i) for i in range(5)])
        assert result.regular_in == 5
        assert result.regular_out < 5
        assert result.regular_loss_rate > 0

    def test_per_hop_utilization(self):
        result = chain(n_hops=2).run(
            [regular(i * 0.01) for i in range(10)],
            {1: [(i * 0.01, cross(i * 0.01)) for i in range(10)]},
            duration=0.1)
        assert result.utilization(1) == pytest.approx(2 * result.utilization(0))

    def test_last_hop_counts_per_kind(self):
        """``arrivals``/``drops`` count the last hop only: switch 1's
        drops are not in them, the last hop's cross traffic is."""
        result = chain(n_hops=2, buffer_bytes=1500).run(
            [regular(0.0, sport=i) for i in range(5)],
            {1: [(0.5e-3, cross(0.5e-3)) for _ in range(3)]})
        first = result.queues[0].stats
        assert first.dropped > 0
        assert result.arrivals[PacketKind.REGULAR] == first.accepted
        assert result.arrivals[PacketKind.CROSS] == 3
        assert result.drops[PacketKind.CROSS] > 0
        last = result.queues[1].stats
        assert sum(result.arrivals.values()) == last.arrivals
        assert sum(result.drops.values()) == last.dropped

    def test_queue_factory_names_each_switch(self):
        made = []

        def factory(rate_bps, buffer_bytes, proc_delay, name):
            made.append(name)
            return FifoQueue(rate_bps, buffer_bytes, proc_delay, name)

        cfg = ChainConfig(n_hops=3, queue_factory=factory)
        result = SwitchChain(cfg).run([regular(0.0)])
        assert made == ["switch1", "switch2", "switch3"]
        assert [q.name for q in result.queues] == made

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_hops=0)
        with pytest.raises(ValueError):
            chain(n_hops=2).run([], {5: []})
        # a prefix whose hops took other cross traffic can't be continued
        line = chain(n_hops=2)
        regs = batch_of([regular(0.0)])
        with pytest.raises(ValueError, match="cross rows"):
            line.run_batch(regs, {0: batch_of([cross(0.0)])},
                           prefix=lambda: chain(n_hops=1).prefix(regs))
        # a prefix deeper than the chain can't be continued
        with pytest.raises(ValueError, match="3-hop prefix of a 2-hop chain"):
            line.run_batch(regs, prefix=lambda: chain(n_hops=3).prefix(regs))

    def test_accuracy_degrades_gracefully_over_hops(self):
        """RLI across more hops still tracks per-flow truth (multi-queue
        delay locality) — the premise RLIR stands on."""
        from repro.analysis.cdf import Ecdf
        from repro.analysis.metrics import flow_mean_errors
        from repro.core.demux import SingleSenderDemux
        from repro.core.injection import StaticInjection
        from repro.core.receiver import RliReceiver
        from repro.core.sender import RliSender
        from repro.traffic.synthetic import TraceConfig, generate_trace

        trace = generate_trace(TraceConfig(duration=0.5, n_packets=5000),
                               seed=9)
        rate = trace.total_bytes * 8 / 0.5 / 0.5  # 50% per-hop utilization
        for hops in (1, 3):
            sender = RliSender(1, rate, StaticInjection(20))
            receiver = RliReceiver(SingleSenderDemux(1))
            cfg = ChainConfig(n_hops=hops, rate_bps=rate, proc_delay=0.0)
            SwitchChain(cfg).run(trace.clone_packets(), sender=sender,
                                 receiver=receiver)
            receiver.finalize()
            join = flow_mean_errors(receiver.flow_estimated, receiver.flow_true)
            assert Ecdf(join.errors).median < 0.6


def prefix_state(prefix):
    """Every value a prefix holds, copied, for comparing before and after."""
    *columns, refs = prefix.stream
    return ([(column.dtype, column.tolist()) for column in columns],
            [(id(ref), ref.ts, ref.size, ref.ref_timestamp, ref.tap_time)
             for ref in refs],
            [[getattr(queue.stats, name) for name in queue.stats.__slots__]
             + [queue._free_at] for queue in prefix.queues],
            prefix.refs_injected, prefix.arrivals.tolist(),
            prefix.drops.tolist(), prefix.cross_rows)


class TestChainPrefix:
    """A chain's first hops as a value that longer chains continue."""

    @staticmethod
    def traffic(n_hops):
        regs = batch_of([regular(i * 2e-4, sport=i % 7) for i in range(400)])
        crs = {hop: batch_of([cross((i + 0.5 * hop) * 3e-4) for i in range(250)])
               for hop in range(n_hops)}
        return regs, crs

    @staticmethod
    def sender():
        from repro.core.injection import StaticInjection
        from repro.core.sender import RliSender

        return RliSender(1, 8e6, StaticInjection(10))

    def test_a_continued_prefix_equals_a_fresh_one(self):
        regs, crs = self.traffic(4)
        base = chain(n_hops=1, buffer_bytes=8000).prefix(regs, {0: crs[0]},
                                                         self.sender())
        before = prefix_state(base)
        continued = chain(n_hops=4, buffer_bytes=8000).prefix(regs, crs, base=base)
        fresh = chain(n_hops=4, buffer_bytes=8000).prefix(regs, crs, self.sender())
        assert continued.depth == 4 and continued.queues[0] is base.queues[0]
        assert continued.cross_rows == fresh.cross_rows == (250,) * 4
        got, want = prefix_state(continued), prefix_state(fresh)
        assert got[0] == want[0]  # the through-stream's columns
        assert [r[1:] for r in got[1]] == [r[1:] for r in want[1]]
        assert got[2:] == want[2:]
        assert sum(want[4]) > 0 and sum(want[5]) > 0  # hop 4 dropped
        assert prefix_state(base) == before

    def test_a_run_from_a_prefix_leaves_it_untouched(self):
        regs, crs = self.traffic(3)
        line = chain(n_hops=3, buffer_bytes=8000)
        base = chain(n_hops=2, buffer_bytes=8000).prefix(
            regs, {0: crs[0], 1: crs[1]}, self.sender())
        before = prefix_state(base)
        sender = self.sender()
        shared = line.run_batch(regs, crs, sender=sender, prefix=lambda: base)
        fresh = line.run_batch(regs, crs, sender=self.sender())
        assert (shared.arrivals, shared.drops, shared.refs_injected,
                shared.regular_out) == (fresh.arrivals, fresh.drops,
                                        fresh.refs_injected, fresh.regular_out)
        assert sender.refs_injected == base.sender.refs_injected > 0
        assert prefix_state(base) == before

    def test_shared_arrays_are_read_only(self):
        regs, crs = self.traffic(2)
        prefix = chain(n_hops=2).prefix(regs, crs, self.sender())
        *columns, refs = prefix.stream
        for column in columns:
            with pytest.raises(ValueError):
                column[0] = column[-1]
        assert isinstance(refs, tuple) and refs
