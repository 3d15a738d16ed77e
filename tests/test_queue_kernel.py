"""Differential oracle for the one vectorized FIFO kernel in ``sim/queue.py``.

``FifoQueue.offer_batch`` must equal per-packet ``FifoQueue.offer`` bit
for bit — every departure, every drop, every ``QueueStats`` field and the
final ``free_at`` — and the vectorized ``tapped_scan`` must equal its
per-row loop (``_tapped_loop``).  The named streams below each build one
hard regime of the kernel on purpose (exact ties, guess mismatches and
re-splits, a backlog oscillating around the drop-free threshold, runs of
drops, ...); ``test_*_exercise_their_regimes`` guards that each regime
really occurs, so a stream that drifts out of its regime fails loudly
instead of testing nothing.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cli import main
from repro.core.injection import AdaptiveInjection, StaticInjection
from repro.core.sender import RefTemplate, RliSender
from repro.net.packet import Packet
from repro.obs import metrics as obs_metrics
from repro.sim import queue as kernel
from repro.sim.clock import DriftingClock
from repro.sim.queue import FifoQueue, _tapped_loop, tapped_scan

RATE = 8e6  # 1e6 bytes/s: a 1000-byte packet serializes in 1 ms


@pytest.fixture(autouse=True)
def quiet_obs():
    """Counters start empty; obs is off again after every test."""
    obs.disable()
    obs.reset_metrics()
    yield
    obs.disable()
    obs.reset_metrics()


@pytest.fixture(params=["default", "tiny-chunks"])
def chunking(request, monkeypatch):
    """The module's chunk sizes, and tiny ones that make small streams
    cross many vectorized chunks and near-full blocks."""
    if request.param == "tiny-chunks":
        monkeypatch.setattr(kernel, "_CHUNK_ROWS", 3)
        monkeypatch.setattr(kernel, "_LOOP_ROWS", 2)
    return request.param


def scan_counters():
    return {k: v for k, v in obs_metrics.registry_snapshot()["counters"].items()
            if k.startswith("queue.scan.")}


# ----------------------------------------------------------------------
# the per-packet reference


def queue_state(queue):
    s = queue.stats
    return (s.arrivals, s.accepted, s.dropped, s.bytes_in, s.bytes_accepted,
            s.bytes_dropped, s.total_delay, s.max_delay, s.last_departure,
            queue._free_at)


def offer_each(queue, arrivals, sizes):
    """Per-packet offers; departures with NaN for a drop."""
    return [math.nan if dep is None else dep
            for dep in (queue.offer(Packet(src=1, dst=2, size=size, ts=t), t)
                        for t, size in zip(arrivals, sizes))]


def make_queue(buffer_bytes, proc_delay, free_at, rate=RATE):
    queue = FifoQueue(rate, buffer_bytes, proc_delay)
    queue._free_at = free_at
    return queue


def assert_batch_matches_offers(stream):
    """offer_batch (in the stream's segments, alternating with per-packet
    offers when it has several) equals per-packet offers, bit for bit."""
    arrivals, sizes = stream["arrivals"], stream["sizes"]
    args = (stream.get("buffer"), stream.get("proc", 0.0), stream.get("free_at", 0.0),
            stream.get("rate", RATE))
    scalar, batch = make_queue(*args), make_queue(*args)
    expected = offer_each(scalar, arrivals.tolist(), sizes.tolist())
    got = []
    cuts = [0, *stream.get("cuts", ()), len(arrivals)]
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if k % 2:  # interleaved: every other segment offered per packet
            got += offer_each(batch, arrivals[lo:hi].tolist(), sizes[lo:hi].tolist())
            continue
        departures, accepted = batch.offer_batch(arrivals[lo:hi], sizes[lo:hi])
        assert accepted.tolist() == (~np.isnan(departures)).tolist()
        got += departures.tolist()
    assert np.array_equal(np.array(got), np.array(expected), equal_nan=True)
    assert queue_state(batch) == queue_state(scalar)
    assert type(batch._free_at) is float


def reference_free_at(stream):
    """``free_at`` before each arrival and the drop flags, from per-packet
    offers (the regime guards read these)."""
    queue = make_queue(stream.get("buffer"), stream.get("proc", 0.0),
                       stream.get("free_at", 0.0), stream.get("rate", RATE))
    before, drops = [], []
    for t, size in zip(stream["arrivals"].tolist(), stream["sizes"].tolist()):
        before.append(queue._free_at)
        drops.append(queue.offer(Packet(src=1, dst=2, size=size, ts=t), t) is None)
    return np.array(before), np.array(drops, dtype=bool)


# ----------------------------------------------------------------------
# named regimes


def tie_stream(n=300, seed=3):
    """Every other arrival lands bitwise on the previous completion."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(64, 1501, n)
    arrivals = np.empty(n)
    free_at = 0.0
    now = 0.0
    for i, size in enumerate(sizes.tolist()):
        now = free_at if i % 2 else now + float(rng.uniform(0, 2e-3))
        arrivals[i] = now
        free_at = max(now, free_at) + size / (RATE / 8)
    return {"arrivals": arrivals, "sizes": sizes}


def near_tie_stream(n=400, seed=1):
    """Every arrival within two ulps of the previous completion, far from
    time 0: the closed-form guess mispredicts, repairs cascade, and the
    kernel must re-split."""
    rng = np.random.default_rng(seed)
    svc = rng.choice([1e-4, 1.2e-4, 3e-5], n) * (1 + rng.uniform(0, 1e-9, n))
    sizes = np.rint(svc * (RATE / 8)).astype(np.int64)
    svc = sizes / (RATE / 8)
    arrivals = np.empty(n)
    free_at = 1000.0
    for i in range(n):
        t = free_at
        step = int(rng.integers(-2, 3))
        for _ in range(abs(step)):
            t = math.nextafter(t, math.inf if step > 0 else -math.inf)
        arrivals[i] = t
        free_at = max(t, free_at) + float(svc[i])
    return {"arrivals": arrivals, "sizes": sizes, "free_at": 999.0}


def oscillating_stream(n=3000, seed=5):
    """Bursts that push the backlog just past the drop-free threshold and
    let it drain below the near-full loop's resume level, again and again."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(500, 1501, n)
    burst = rng.integers(8, 20, n)  # packets per burst
    arrivals = np.repeat(np.arange(n) * 0.012, burst)[:n]
    arrivals += rng.uniform(0, 1e-4, n).cumsum() * 1e-2
    return {"arrivals": np.sort(arrivals), "sizes": sizes, "buffer": 14000}


def drop_run_stream(n=400, seed=7):
    """Simultaneous bursts far larger than the buffer: runs of drops."""
    rng = np.random.default_rng(seed)
    arrivals = np.sort(np.repeat(rng.uniform(0, 0.5, n // 40), 40))
    return {"arrivals": arrivals, "sizes": rng.integers(64, 1501, len(arrivals)),
            "buffer": 6000, "proc": 2e-6}


def exact_fill_stream(bursts=30):
    """Binary-exact sizes and times (2**20 bytes/s): inside near-full
    stretches, rows that fill the buffer to the byte — accepted, since
    the drop test is strict — right before rows that do not fit."""
    burst = [(0.0, 1024), (0.0, 1024), (0.0, 512), (0.0, 512), (0.0, 1024),
             (2.0**-11, 512), (2.0**-11, 1024)]
    rows = [(k * 2.0**-4 + dt, size) for k in range(bursts) for dt, size in burst]
    return {"arrivals": np.array([t for t, _ in rows]),
            "sizes": np.array([size for _, size in rows]),
            "buffer": 3072, "rate": 2.0**23}


def load_stream(load, n, seed, **extra):
    """Poisson arrivals at *load* of the link."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(64, 1501, n)
    mean_svc = 800 / (RATE / 8)  # the mean of the sizes drawn
    arrivals = np.add.accumulate(rng.exponential(mean_svc / load, n))
    return {"arrivals": arrivals, "sizes": sizes, **extra}


REGIMES = {
    "empty": {"arrivals": np.empty(0), "sizes": np.empty(0, dtype=np.int64),
              "buffer": 5000},
    "one-row": {"arrivals": np.array([0.25]), "sizes": np.array([700]),
                "buffer": 5000, "free_at": 0.2501, "proc": 1e-6},
    "one-row-dropped": {"arrivals": np.array([0.25]), "sizes": np.array([1500]),
                        "buffer": 2000, "free_at": 0.26},
    "exact-ties": tie_stream(),
    "guess-mismatch-resplit": near_tie_stream(),
    "oscillating-threshold": oscillating_stream(),
    "drop-runs": drop_run_stream(),
    "exact-fill": exact_fill_stream(),
    "unbounded-buffer": load_stream(1.3, 2000, 11),
    "warm-start-proc-delay": load_stream(0.9, 2000, 13, buffer=30000,
                                         free_at=0.004, proc=3e-6),
    "interleaved": load_stream(0.95, 3000, 17, buffer=20000, proc=1e-6,
                               cuts=(5, 900, 901, 1700, 2500)),
    "load-30": load_stream(0.30, 5000, 19, buffer=64000),
    "load-99": load_stream(0.99, 20000, 23, buffer=10**9),
}


class TestOfferBatchOracle:
    @pytest.mark.parametrize("name", sorted(REGIMES))
    def test_regime_matches_per_packet_offers(self, name, chunking):
        assert_batch_matches_offers(REGIMES[name])

    def test_regimes_exercise_their_regimes(self):
        """Each named stream really builds its regime (guards the oracle)."""
        ties = REGIMES["exact-ties"]
        before, _ = reference_free_at(ties)
        assert (ties["arrivals"] == before).sum() >= 100

        near = REGIMES["guess-mismatch-resplit"]
        t = near["arrivals"]
        svc = near["sizes"] / (RATE / 8)
        before, _ = reference_free_at(near)
        guess = kernel._max_plus(t, svc, near["free_at"])
        guessed = t >= np.concatenate(([near["free_at"]], guess[:-1]))
        assert (guessed != (t >= before)).any()  # the guess is wrong somewhere
        obs.enable()
        make_queue(None, 0.0, near["free_at"]).offer_batch(t, near["sizes"])
        assert scan_counters().get("queue.scan.resplit", 0) >= 1

        osc = REGIMES["oscillating-threshold"]
        before, drops = reference_free_at(osc)
        threshold = kernel._drop_free_threshold(osc["buffer"], int(osc["sizes"].max()),
                                                RATE / 8)
        backlog = before - osc["arrivals"]
        above = backlog > threshold
        # the backlog crosses the threshold and falls back below the
        # resume level many times, with drops in between
        assert np.count_nonzero(above[1:] & ~above[:-1]) >= 10
        assert np.count_nonzero(backlog <= kernel._RESUME_FRACTION * threshold) >= 100
        assert drops.any()

        fill = REGIMES["exact-fill"]
        before, drops = reference_free_at(fill)
        backlog = before - fill["arrivals"]
        threshold = kernel._drop_free_threshold(fill["buffer"], 1024, fill["rate"] / 8)
        exact = (backlog * (fill["rate"] / 8) + fill["sizes"] == fill["buffer"]) & ~drops
        assert np.count_nonzero(exact & (backlog > threshold) & np.roll(drops, 1)) >= 10

        _, drops = reference_free_at(REGIMES["drop-runs"])
        assert np.count_nonzero(drops[1:] & drops[:-1]) >= 20

        load99 = REGIMES["load-99"]
        before, drops = reference_free_at(load99)
        busy = load99["arrivals"] < before
        assert busy.mean() > 0.9 and not drops.any()
        # busy periods of over a thousand rows, and one that a chunk
        # boundary cuts
        runs = np.diff(np.flatnonzero(np.concatenate(([True], ~busy, [True]))))
        assert runs.max() > 1000 and busy[kernel._CHUNK_ROWS]

    def test_scan_counters_split_the_rows(self):
        obs.enable()
        osc = REGIMES["oscillating-threshold"]
        make_queue(osc["buffer"], 0.0, 0.0).offer_batch(osc["arrivals"], osc["sizes"])
        counters = scan_counters()
        assert counters["queue.scan.rows[exact]"] > 0
        assert counters["queue.scan.rows[vector]"] > counters["queue.scan.rows[exact]"]
        assert (counters["queue.scan.rows[exact]"] + counters["queue.scan.rows[vector]"]
                == len(osc["arrivals"]))

    @given(seed=st.integers(0, 2**31), load=st.sampled_from([0.3, 0.93, 0.99, 1.4]),
           buffer=st.sampled_from([None, 1500, 4000, 30000]),
           proc=st.sampled_from([0.0, 1e-6]), free_at=st.sampled_from([0.0, 0.003]),
           n=st.integers(0, 400), ties=st.booleans(), tiny=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_streams_match_per_packet_offers(self, seed, load, buffer, proc,
                                                    free_at, n, ties, tiny):
        stream = load_stream(load, n, seed, buffer=buffer, proc=proc, free_at=free_at)
        if ties and n > 2:  # arrivals on exact completion instants
            before, _ = reference_free_at(stream)
            pick = np.arange(1, n, 3)
            stream["arrivals"][pick] = np.maximum(before[pick] - proc,
                                                  stream["arrivals"][pick - 1])
            stream["arrivals"] = np.maximum.accumulate(stream["arrivals"])
        saved = kernel._CHUNK_ROWS, kernel._LOOP_ROWS
        if tiny:
            kernel._CHUNK_ROWS, kernel._LOOP_ROWS = 5, 3
        try:
            assert_batch_matches_offers(stream)
        finally:
            kernel._CHUNK_ROWS, kernel._LOOP_ROWS = saved


# ----------------------------------------------------------------------
# tapped_scan: vectorized sender algebra vs the per-row loop


def make_sender(policy, classes=(0, 1, 3), window=0.002, seed=9):
    templates = {cls: RefTemplate(src=100 + cls, dst=200 + cls, dport=cls,
                                  size=64 + 8 * cls)
                 for cls in classes}
    return RliSender(sender_id=4, link_rate_bps=RATE, policy=policy,
                     templates=templates, util_window=window, util_alpha=0.5,
                     clock=DriftingClock(offset=1e-6, drift_ppm=3.0,
                                         jitter_std=1e-7, seed=seed))


def ref_fields(ref):
    return (ref.src, ref.dst, ref.sport, ref.dport, ref.proto, ref.size, ref.ts,
            ref.sender_id, ref.ref_timestamp, ref.tap_time, ref.dropped)


def assert_tapped_matches_loop(case, calls=1):
    """tapped_scan equals _tapped_loop, call after committed call."""
    runs = []
    for scan in (tapped_scan, _tapped_loop):
        queue = make_queue(case.get("buffer"), case.get("proc", 0.0), case.get("free_at", 0.0))
        sender = copy.deepcopy(case["sender"])
        out = []
        cuts = np.linspace(0, len(case["times"]), calls + 1).astype(int)
        for lo, hi in zip(cuts, cuts[1:]):
            result = scan(queue, case["times"][lo:hi], case["sizes"][lo:hi],
                          case["classes"][lo:hi], sender)
            sender.fast_scan_commit(*result.state)
            out.append((result.departures.tolist(), result.sizes.tolist(),
                        result.rows.tolist(), result.is_ref.tolist(),
                        [ref_fields(r) for r in result.refs], result.state,
                        [type(x) for x in result.state]))
        runs.append((out, queue_state(queue), sender.clock.now(7.0),
                     sender.regulars_seen, sender.refs_injected))
    assert runs[0] == runs[1]
    return runs[1]


def tapped_case(seed, n=1500, load=0.7, policy=None, buffer=None, on_ends=False,
                **extra):
    rng = np.random.default_rng(seed)
    stream = load_stream(load, n, seed)
    sender = make_sender(policy or AdaptiveInjection(2, 9, 0.2, 0.9))
    times = stream["arrivals"]
    if on_ends:  # put arrivals exactly on utilization window ends
        window = sender.utilization.window
        first = float(times[0])
        start = first - (first % window)
        steps = int((times[-1] - start) / window) + 2
        ends = np.add.accumulate(np.concatenate(([start], np.full(steps, window))))[1:]
        pick = rng.choice(n, n // 10, replace=False)
        times[pick] = ends[np.searchsorted(ends, times[pick])]
        times = np.sort(times)
    classes = rng.choice([-2, -1, 0, 1, 3, 5], n, p=[0.2, 0.1, 0.3, 0.2, 0.15, 0.05])
    return {"times": times, "sizes": stream["sizes"], "classes": classes,
            "sender": sender, "buffer": buffer, **extra}


def bursts_case(bursts=40, k=5):
    """Simultaneous bursts of *k* rows that just fit the buffer; every
    *k*-th row triggers a reference, and its 64 bytes behind a full burst
    do not fit."""
    times = np.repeat(np.arange(bursts) * 0.01, k)
    return {"times": times, "sizes": np.full(len(times), 1000),
            "classes": np.zeros(len(times), dtype=np.int64),
            "sender": make_sender(StaticInjection(k), classes=(0,)),
            "buffer": k * 1000 + 50}


TAPPED = {
    "window-ends-on-arrivals": tapped_case(31, on_ends=True),
    "gap-changes-carried-counters": tapped_case(37, n=3000, load=0.9),
    "static-gap-mixed-classes": tapped_case(41, policy=StaticInjection(3), proc=1e-6,
                                            free_at=0.001),
    "overloaded": tapped_case(43, load=1.2, buffer=3000),
    "reference-dropped": bursts_case(),
    "no-drop-bounded-buffer": tapped_case(47, load=0.5, buffer=10**6),
    "untapped-only": {**tapped_case(53, n=200), "classes": np.full(200, -2)},
    "empty": {**tapped_case(59, n=1), "times": np.empty(0),
              "sizes": np.empty(0, dtype=np.int64), "classes": np.empty(0, dtype=np.int64)},
}


class TestTappedScanOracle:
    @pytest.mark.parametrize("calls", [1, 3])
    @pytest.mark.parametrize("name", sorted(TAPPED))
    def test_case_matches_per_row_loop(self, name, calls):
        assert_tapped_matches_loop(TAPPED[name], calls)

    def test_cases_exercise_their_regimes(self):
        """Each named case really builds its regime (guards the oracle)."""
        case = TAPPED["window-ends-on-arrivals"]
        sender = case["sender"]
        window = sender.utilization.window
        first = float(case["times"][0])
        ends = np.add.accumulate(np.concatenate(
            ([first - (first % window)], np.full(len(case["times"]), window))))
        assert np.isin(case["times"], ends).sum() >= 20

        case = TAPPED["gap-changes-carried-counters"]
        sender = copy.deepcopy(case["sender"])
        gaps = set()
        for t, size, cls in zip(case["times"].tolist(), case["sizes"].tolist(),
                                case["classes"].tolist()):
            if cls != -2:
                sender.on_regular(Packet(src=1, dst=2, size=size, ts=t), t)
                gaps.add(sender.current_gap)
        assert len(gaps) >= 3
        assert set(np.unique(case["classes"])) >= {-2, -1, 0, 1, 3}

        case = TAPPED["reference-dropped"]
        queue = make_queue(case["buffer"], 0.0, 0.0)
        result = _tapped_loop(queue, case["times"], case["sizes"], case["classes"],
                              copy.deepcopy(case["sender"]))
        assert result.refs_built > len(result.refs)  # a reference was dropped
        # the regular rows alone never drop: only the references overflow
        _, accepted = make_queue(case["buffer"], 0.0, 0.0).offer_batch(
            case["times"], case["sizes"])
        assert accepted.all()

        case = TAPPED["overloaded"]
        _, accepted = make_queue(case["buffer"], 0.0, 0.0).offer_batch(
            case["times"], case["sizes"])
        assert not accepted.all()

    def test_near_full_call_falls_back_and_counts(self):
        obs.enable()
        for name in ("overloaded", "reference-dropped", "no-drop-bounded-buffer"):
            case = TAPPED[name]
            tapped_scan(make_queue(case["buffer"], 0.0, 0.0), case["times"],
                        case["sizes"], case["classes"], copy.deepcopy(case["sender"]))
        counters = scan_counters()
        assert counters["queue.scan.fallback[near-full]"] == 2
        assert counters["queue.scan.rows[exact]"] == (
            len(TAPPED["overloaded"]["times"]) + len(TAPPED["reference-dropped"]["times"]))
        assert counters["queue.scan.rows[vector]"] > len(TAPPED["no-drop-bounded-buffer"]["times"])

    @given(seed=st.integers(0, 2**31), load=st.sampled_from([0.3, 0.8, 1.1]),
           buffer=st.sampled_from([None, 2500, 50000]), n=st.integers(0, 300),
           calls=st.integers(1, 3), static=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_streams_match_per_row_loop(self, seed, load, buffer, n, calls,
                                               static):
        policy = StaticInjection(4) if static else AdaptiveInjection(1, 6, 0.1, 0.8)
        case = tapped_case(seed, n=n, load=load, policy=policy, buffer=buffer,
                           on_ends=n > 20 and seed % 2 == 0)
        assert_tapped_matches_loop(case, calls)


# ----------------------------------------------------------------------
# observability of the regime split, end to end


class TestScanCounters:
    def _run(self, capsys, tmp_path, argv):
        assert main(argv + ["--no-plot", "--no-cache"]) == 0
        plain = capsys.readouterr().out
        obs_dir = tmp_path / "obs"
        assert main(argv + ["--no-plot", "--no-cache", "--obs",
                            "--obs-dir", str(obs_dir)]) == 0
        assert capsys.readouterr().out == plain  # byte-identical with --obs
        import json
        (artifact,) = obs_dir.glob("run-*.json")
        return json.loads(artifact.read_text())["counters"]

    def test_fig5_runs_exact_rows(self, capsys, tmp_path):
        counters = self._run(capsys, tmp_path, ["fig5", "--scale", "0.01", "--seeds", "1"])
        assert counters["queue.scan.rows[exact]"] > 0
        assert counters["queue.scan.rows[vector]"] > 0

    def test_fig4_runs_mostly_vector_rows(self, capsys, tmp_path):
        counters = self._run(capsys, tmp_path, ["fig4a", "--scale", "0.01"])
        vector = counters["queue.scan.rows[vector]"]
        assert vector > 0.9 * (vector + counters.get("queue.scan.rows[exact]", 0))
