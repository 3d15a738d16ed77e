"""Tests for cross-traffic injection models and calibration."""

import numpy as np
import pytest

from repro.net.addressing import ip_to_int
from repro.net.packet import Packet, PacketKind
from repro.traffic.crosstraffic import (
    BurstyModel,
    CalibrationError,
    UniformModel,
    calibrate_selection_probability,
)
from repro.traffic.batch import PacketBatch
from repro.traffic.trace import Trace

from packet_columns import batch_of


def make_cross_trace(n=5000, duration=1.0, size=500):
    rng = np.random.default_rng(1)
    times = np.sort(rng.uniform(0, duration, n))
    packets = [
        Packet(src=ip_to_int("10.9.0.1"), dst=ip_to_int("10.10.0.1"),
               sport=i % 100, size=size, ts=float(t))
        for i, t in enumerate(times)
    ]
    return Trace(batch_of(packets), name="cross", check_sorted=False)


class TestUniformModel:
    def test_selection_fraction(self):
        trace = make_cross_trace()
        out = UniformModel(0.3, seed=0).arrivals(trace)
        assert 0.25 * len(trace) < len(out) < 0.35 * len(trace)

    def test_prob_one_selects_all(self):
        trace = make_cross_trace(n=100)
        assert len(UniformModel(1.0).arrivals(trace)) == 100

    def test_prob_zero_selects_none(self):
        trace = make_cross_trace(n=100)
        assert UniformModel(0.0).arrivals(trace) == []

    def test_timestamps_unchanged_and_kind_cross(self):
        trace = make_cross_trace(n=200)
        for t, p in UniformModel(0.5, seed=1).arrivals(trace):
            assert p.is_cross
            assert t == p.ts

    def test_clones_not_originals(self):
        trace = make_cross_trace(n=50)
        out = UniformModel(1.0).arrivals(trace)
        out[0][1].dropped = True
        assert not trace[0].dropped

    def test_seeded_reproducible(self):
        trace = make_cross_trace(n=500)
        a = UniformModel(0.4, seed=5).arrivals(trace)
        b = UniformModel(0.4, seed=5).arrivals(trace)
        assert [t for t, _ in a] == [t for t, _ in b]

    def test_invalid_prob(self):
        with pytest.raises(ValueError):
            UniformModel(1.5)


class TestBurstyModel:
    def test_arrivals_confined_to_on_windows(self):
        trace = make_cross_trace(duration=1.0)
        model = BurstyModel(prob=1.0, on_duration=0.1, period=0.5)
        for t, _ in model.arrivals(trace):
            assert (t % 0.5) <= 0.1 + 1e-12

    def test_same_prob_same_average_bytes(self):
        """Bursty and uniform deliver (nearly) the same bytes for one prob —
        the controlled-comparison property Figure 4(c) relies on."""
        trace = make_cross_trace(n=20_000)
        uniform = UniformModel(0.5, seed=2).arrivals(trace)
        bursty = BurstyModel(0.5, on_duration=0.2, period=0.4, seed=2).arrivals(trace)
        ub = sum(p.size for _, p in uniform)
        bb = sum(p.size for _, p in bursty)
        assert bb == pytest.approx(ub, rel=0.02)

    def test_sorted_output(self):
        trace = make_cross_trace()
        out = BurstyModel(0.8, 0.1, 0.3, seed=3).arrivals(trace)
        times = [t for t, _ in out]
        assert times == sorted(times)

    def test_compression_raises_instantaneous_rate(self):
        """Bytes inside ON windows arrive period/on times faster."""
        trace = make_cross_trace(n=20_000, duration=1.0)
        out = BurstyModel(1.0, on_duration=0.1, period=0.5, seed=0).arrivals(trace)
        first_window_bytes = sum(p.size for t, p in out if t < 0.1)
        total = sum(p.size for _, p in out)
        # two windows; each holds ~half the bytes in a tenth of the time
        assert first_window_bytes == pytest.approx(0.5 * total, rel=0.05)

    def test_empty_trace(self):
        assert BurstyModel(0.5, 0.1, 0.2).arrivals(Trace(PacketBatch.empty())) == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BurstyModel(0.5, on_duration=0.3, period=0.2)
        with pytest.raises(ValueError):
            BurstyModel(0.5, on_duration=0.0, period=0.2)
        with pytest.raises(ValueError):
            BurstyModel(-0.1, 0.1, 0.2)


class TestCalibration:
    def test_solves_target_utilization(self):
        trace = make_cross_trace(n=10_000, size=500)  # 5 MB total
        rate = 80e6  # 10 MB/s over 1 s
        p = calibrate_selection_probability(
            trace, regular_bytes=2_000_000, rate_bps=rate, duration=1.0,
            target_utilization=0.6)
        # need 6 MB total -> 4 MB of cross -> p = 0.8
        assert p == pytest.approx(0.8)

    def test_measured_utilization_close(self):
        """End-to-end: selected bytes actually hit the target on average."""
        trace = make_cross_trace(n=20_000, size=500)
        rate = 80e6
        regular = 2_000_000
        p = calibrate_selection_probability(trace, regular, rate, 1.0, 0.5)
        selected = UniformModel(p, seed=4).arrivals(trace)
        util = (regular + sum(q.size for _, q in selected)) / (rate / 8 * 1.0)
        assert util == pytest.approx(0.5, rel=0.03)

    def test_zero_needed_when_regular_suffices(self):
        trace = make_cross_trace(n=100)
        p = calibrate_selection_probability(trace, 10_000_000, 80e6, 1.0, 0.5)
        assert p == 0.0

    def test_cross_too_small_raises(self):
        trace = make_cross_trace(n=10, size=100)
        with pytest.raises(CalibrationError):
            calibrate_selection_probability(trace, 0, 80e6, 1.0, 0.99)

    def test_empty_cross_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_selection_probability(Trace(PacketBatch.empty()), 0, 80e6, 1.0, 0.5)

    def test_invalid_target(self):
        trace = make_cross_trace(n=10)
        with pytest.raises(ValueError):
            calibrate_selection_probability(trace, 0, 80e6, 1.0, 1.5)
