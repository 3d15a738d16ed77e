"""PacketBatch round-trips and the traces that wrap a batch."""

import numpy as np
import pytest

from repro.net.addressing import ip_to_int
from repro.net.packet import Packet, PacketKind
from repro.traffic.batch import BATCH_COLUMNS, PacketBatch
from repro.traffic.synthetic import TraceConfig, generate_trace
from repro.traffic.trace import Trace

from packet_columns import batch_of


def sample_packets():
    return [
        Packet(src=ip_to_int("10.1.0.5"), dst=ip_to_int("10.2.0.9"), sport=1234,
               dport=80, proto=6, size=1500, ts=0.001),
        Packet(src=ip_to_int("10.1.0.6"), dst=ip_to_int("10.2.0.9"), sport=999,
               dport=53, proto=17, size=64, ts=0.002),
        Packet(src=ip_to_int("10.9.0.1"), dst=ip_to_int("10.10.0.1"), sport=5,
               dport=6, proto=6, size=600, ts=0.004, kind=PacketKind.CROSS),
    ]


def packet_fields(p):
    return (p.src, p.dst, p.sport, p.dport, p.proto, p.size, p.ts, p.kind)


class TestRoundTrip:
    def test_from_packets_to_packets_is_exact(self):
        packets = sample_packets()
        rebuilt = batch_of(packets).to_packets()
        assert [packet_fields(p) for p in rebuilt] == [packet_fields(p) for p in packets]
        # plain Python scalars, fresh bookkeeping
        for p in rebuilt:
            assert type(p.src) is int and type(p.ts) is float
            assert p.tap_time is None and not p.dropped

    def test_single_packet_materialization(self):
        batch = batch_of(sample_packets())
        assert packet_fields(batch.packet(1)) == packet_fields(sample_packets()[1])

    def test_summary_stats_match_object_computations(self):
        packets = sample_packets()
        batch = batch_of(packets)
        assert len(batch) == len(packets)
        assert batch.total_bytes == sum(p.size for p in packets)
        assert batch.duration == packets[-1].ts
        assert batch.n_flows == len({p.flow_key for p in packets})

    def test_flow_key_matches_packet(self):
        batch = batch_of(sample_packets())
        for i, p in enumerate(sample_packets()):
            assert batch.flow_key(i) == p.flow_key

    def test_take_replace_with_kind(self):
        batch = batch_of(sample_packets())
        sub = batch.take(np.array([2, 0]))
        assert sub.size.tolist() == [600, 1500]
        crossed = batch.with_kind(PacketKind.CROSS)
        assert set(crossed.kind.tolist()) == {int(PacketKind.CROSS)}
        assert batch.kind.tolist()[0] == int(PacketKind.REGULAR)  # original untouched
        swapped = batch.replace(ts=batch.ts + 1.0)
        assert swapped.ts[0] == batch.ts[0] + 1.0
        with pytest.raises(ValueError):
            batch.replace(nonsense=batch.ts)

    def test_concat_and_empty(self):
        batch = batch_of(sample_packets())
        both = PacketBatch.concat([batch, batch])
        assert len(both) == 2 * len(batch)
        assert len(PacketBatch.concat([])) == 0
        assert len(PacketBatch.empty()) == 0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            PacketBatch(src=[1], dst=[1, 2], sport=[0], dport=[0], proto=[6],
                        size=[64], ts=[0.0], kind=[0])


class TestBatchBackedTrace:
    def test_generate_trace_is_batch_backed_and_lazy(self):
        trace = generate_trace(TraceConfig(duration=0.2, n_packets=500), seed=1)
        n = len(trace)  # length readable without materializing
        assert "packets" not in vars(trace)  # nothing materialized yet
        packets = trace.packets
        assert len(packets) == n
        assert trace.packets is packets  # materialized once

    def test_materialized_equals_batch_columns(self):
        trace = generate_trace(TraceConfig(duration=0.2, n_packets=400), seed=3)
        batch = trace.batch
        for i, p in enumerate(trace.packets):
            assert packet_fields(p)[:7] == (
                int(batch.src[i]), int(batch.dst[i]), int(batch.sport[i]),
                int(batch.dport[i]), int(batch.proto[i]), int(batch.size[i]),
                float(batch.ts[i]),
            )
            assert p.kind == PacketKind.REGULAR

    def test_stats_agree_between_representations(self):
        trace = generate_trace(TraceConfig(duration=0.2, n_packets=400), seed=5)
        packets = trace.clone_packets()
        assert len(trace) == len(packets)
        assert trace.duration == packets[-1].ts
        assert trace.total_bytes == sum(p.size for p in packets)
        assert trace.n_flows == len({p.flow_key for p in packets})

    def test_unsorted_batch_rejected(self):
        batch = batch_of(list(reversed(sample_packets())))
        with pytest.raises(ValueError):
            Trace(batch)
        Trace(batch, check_sorted=False)  # explicit opt-out still works

    def test_empty_trace_needs_something(self):
        """A trace wraps a batch; a packet list is not one."""
        with pytest.raises(TypeError):
            Trace(sample_packets())
        assert len(Trace(PacketBatch.empty())) == 0

    def test_save_load_round_trip(self, tmp_path):
        trace = generate_trace(TraceConfig(duration=0.2, n_packets=300), seed=9)
        path = str(tmp_path / "t.npz")
        trace.save(path)
        loaded = Trace.load(path)
        for col in BATCH_COLUMNS:
            assert np.array_equal(getattr(loaded.batch, col),
                                  getattr(trace.batch, col))
        assert [packet_fields(p) for p in loaded.packets] == \
            [packet_fields(p) for p in trace.packets]
        assert loaded.name == trace.name


class TestCoerce:
    def test_batch_and_trace(self):
        batch = batch_of(sample_packets())
        assert PacketBatch.coerce(batch) is batch
        assert PacketBatch.coerce(Trace(batch, check_sorted=False)) is batch

    def test_packet_list_rejected(self):
        with pytest.raises(TypeError, match="list"):
            PacketBatch.coerce(sample_packets())


class TestFlowKeyCache:
    def test_flow_key_cached_and_reset_on_clone(self):
        p = sample_packets()[0]
        first = p.flow_key
        assert p.flow_key is first  # same tuple object: computed once
        q = p.clone()
        assert q._flow_key is None  # clone starts with a cold cache
        assert q.flow_key == first
