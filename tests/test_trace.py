"""Tests for the trace container."""

import numpy as np
import pytest

from repro.net.addressing import ip_to_int
from repro.net.packet import Packet
from repro.traffic.trace import Trace

from packet_columns import batch_of


def pkt(ts, src="10.1.0.1", dst="10.2.0.1", size=100, sport=1):
    return Packet(src=ip_to_int(src), dst=ip_to_int(dst), sport=sport, size=size, ts=ts)


def trace_of(packets, **kwargs):
    return Trace(batch_of(packets), **kwargs)


class TestTraceBasics:
    def test_sorted_check(self):
        with pytest.raises(ValueError):
            trace_of([pkt(1.0), pkt(0.5)])

    def test_len_iter_getitem(self):
        t = trace_of([pkt(0.0), pkt(1.0)])
        assert len(t) == 2
        assert [p.ts for p in t] == [0.0, 1.0]
        assert t[1].ts == 1.0

    def test_duration_and_bytes(self):
        t = trace_of([pkt(0.0, size=100), pkt(2.5, size=200)])
        assert t.duration == 2.5
        assert t.total_bytes == 300

    def test_empty_trace(self):
        t = trace_of([])
        assert t.duration == 0.0
        assert t.mean_rate_bps() == 0.0

    def test_mean_rate(self):
        t = trace_of([pkt(0.0, size=125), pkt(1.0, size=125)])
        assert t.mean_rate_bps() == pytest.approx(2000.0)

    def test_n_flows(self):
        t = trace_of([pkt(0.0, sport=1), pkt(0.1, sport=1), pkt(0.2, sport=2)])
        assert t.n_flows == 2


class TestTransformations:
    def test_clone_packets_independent(self):
        t = trace_of([pkt(0.0)])
        clones = t.clone_packets()
        clones[0].dropped = True
        assert not t[0].dropped


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, small_trace):
        path = str(tmp_path / "trace.npz")
        small_trace.save(path)
        loaded = Trace.load(path)
        assert len(loaded) == len(small_trace)
        for a, b in zip(small_trace, loaded):
            assert a.flow_key == b.flow_key
            assert a.size == b.size
            assert a.ts == pytest.approx(b.ts)
            assert a.kind == b.kind

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValueError):
            Trace.load(path)
