"""Packets/sec throughput microbenches for the columnar fast path.

Three hot paths are timed against their per-object reference
implementations on the Figure-4 workload at ``REPRO_SCALE``:

* trace generation (columnar `generate_trace` vs. materializing packets),
* the two-switch pipeline (`run_condition` on its default columnar path
  vs. the per-object reference it falls back to under
  ``tests/reference_path.py``, on the adaptive/random/93 % fig4
  condition),
* the interpolation batch flush (`interpolate_batch` vs. an
  `InterpolationBuffer` stream),
* the FIFO queue kernel (`FifoQueue.offer_batch` vs. the exact per-row
  loop it replaced) at 30 %, 93 % and 99 % load and on a drop-heavy
  stream, recorded in ns per row.
* the flow table (`fold_flow_samples` into the columnar
  `FlowStatsTable`, then the summary rows, error joins and pooled mean
  read from its columns, vs. the fold into one `StreamingStats` per flow
  and the per-flow loops that read it), recorded in ns per sample.

Every comparison first asserts the two paths produce identical results —
a benchmark of a wrong answer is worthless — then records packets/sec to
``BENCH_pipeline.json`` at the repo root, the tracked perf trajectory.
At full scale (``REPRO_SCALE >= 1``) the pipeline fast path must clear
**5×**; at smoke scales it must simply not be slower.
"""

import gc
import json
import math
import pathlib
import platform
import time

import numpy as np
import pytest

from conftest import print_banner
from reference_path import reference_path

from reference_flowstats import (join_dump, object_fold, reference_flow_rows,
                                 reference_mean_errors, reference_pooled,
                                 reference_std_errors)
from repro.analysis.metrics import flow_mean_errors, flow_std_errors
from repro.core.flowstats import (FlowRows, FlowStatsTable, flow_ids, fold_flow_samples,
                                  pooled_stats)
from repro.core.interpolation import InterpolationBuffer, interpolate_batch
from repro.experiments.workloads import run_condition, summarize_condition, workload_for
from repro.runner.spec import config_items
from repro.sim import queue as queue_kernel
from repro.sim.queue import FifoQueue
from repro.traffic.synthetic import TraceConfig, generate_trace

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_pipeline.json"

_RESULTS = {}


def _best_of(fn, repeats):
    """(best wall-seconds, last result) over *repeats* calls.

    Runs ``gc.collect()`` before each timed call so garbage left by earlier
    bench modules cannot bill a full collection to whichever path happens
    to trigger it.  The collector stays *enabled* during the call itself:
    allocation-driven GC pressure is a real per-packet cost of the
    per-object representation (and one the columnar path exists to avoid),
    so honest packets/sec must include it — exactly what a
    ``repro-rlir fig4a`` run pays.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, result


def _record(name, packets, object_s, batch_s):
    entry = {
        "packets": int(packets),
        "object_pps": packets / object_s,
        "batch_pps": packets / batch_s,
        "object_seconds": object_s,
        "batch_seconds": batch_s,
        "speedup": object_s / batch_s,
    }
    _RESULTS[name] = entry
    return entry


@pytest.fixture(scope="module", autouse=True)
def write_bench_file(bench_config):
    """Persist whatever ran into the tracked BENCH_pipeline.json.

    Each run *appends* a history entry (keyed by git SHA + UTC timestamp)
    and refreshes the latest-wins ``results`` view the CI lanes assert on
    — the tracked file carries the whole per-commit perf trajectory, not
    just the newest numbers (see ``bench_history.py``).
    """
    yield
    if not _RESULTS:
        return
    from bench_history import (git_sha, host_record, make_entry,
                               merge_bench_history, obs_summary, utc_timestamp)

    payload = {}
    if BENCH_FILE.exists():
        try:
            payload = json.loads(BENCH_FILE.read_text())
        except ValueError:
            pass
    entry = make_entry(
        _RESULTS,
        sha=git_sha(REPO_ROOT),
        timestamp=utc_timestamp(),
        scale=bench_config.scale,
        python=platform.python_version(),
        numpy=np.__version__,
        obs=obs_summary(),
        host=host_record(),
    )
    payload = merge_bench_history(payload, entry)
    BENCH_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {BENCH_FILE} ({len(payload['history'])} history entries)")


@pytest.fixture(scope="module")
def repeats(bench_config):
    """Best-of repetitions: fewer at full scale (runs are long)."""
    return 2 if bench_config.scale >= 0.5 else 3


def test_trace_generation_throughput(bench_config, repeats):
    tc = TraceConfig(
        duration=bench_config.duration,
        n_packets=bench_config.n_regular_packets,
        mean_flow_pkts=bench_config.mean_flow_pkts,
    )
    batch_s, trace = _best_of(lambda: generate_trace(tc, seed=1), repeats)

    def materialized():
        t = generate_trace(tc, seed=1)
        t.packets  # force the per-object representation
        return t

    object_s, obj_trace = _best_of(materialized, repeats)
    assert len(obj_trace) == len(trace)
    entry = _record("trace_generation", len(trace), object_s, batch_s)

    print_banner("Trace generation: columnar vs materialized packets")
    print(f"packets:        {entry['packets']}")
    print(f"columnar:       {entry['batch_pps'] / 1e6:.2f} M pkts/s")
    print(f"materialized:   {entry['object_pps'] / 1e6:.2f} M pkts/s")
    print(f"speedup:        {entry['speedup']:.1f}x")
    assert entry["speedup"] >= 1.0


def test_pipeline_throughput_fig4_condition(bench_config, repeats):
    """One steady-state condition: fig4 adaptive/random/93% (recorded;
    the 5x acceptance gate sits on the whole-sweep bench below)."""
    workload = workload_for(config_items(bench_config))

    def run(batch):
        if batch:
            return summarize_condition(
                run_condition(workload, "adaptive", "random", 0.93))
        with reference_path():
            return summarize_condition(
                run_condition(workload, "adaptive", "random", 0.93))

    batch_s, batch_summary = _best_of(lambda: run(True), repeats)
    object_s, object_summary = _best_of(lambda: run(False), repeats)
    # a throughput claim is only meaningful if the answers agree exactly
    assert batch_summary == object_summary
    # packets pushed through queues: the whole regular trace enters switch
    # 1, and every merged arrival (regular + references + cross) hits
    # switch 2
    packets = len(workload.regular) + object_summary.processed_packets
    entry = _record("pipeline_condition", packets, object_s, batch_s)

    print_banner("Two-switch pipeline: object vs columnar fast path "
                 "(fig4 adaptive/random/93%, steady state)")
    print(f"queue offers:   {entry['packets']}")
    print(f"object path:    {entry['object_pps'] / 1e3:.0f} k pkts/s "
          f"({object_s:.2f} s)")
    print(f"batch path:     {entry['batch_pps'] / 1e3:.0f} k pkts/s "
          f"({batch_s:.2f} s)")
    print(f"speedup:        {entry['speedup']:.1f}x")
    assert entry["speedup"] >= 1.0


def test_pipeline_throughput_fig4_sweep(bench_config):
    """The headline number: the full Figure-4(a,b) sweep, cold-started.

    Each timed run clears the in-process workload/trace caches first, so
    both paths pay what a fresh ``repro-rlir fig4a`` process would pay on
    them — trace synthesis and all four conditions; the object side also
    pays the columnar-to-packet conversion of its fallback.

    Measurement protocol: the two paths are timed in back-to-back
    **pairs** (batch, then object) so machine-state drift hits both sides
    alike, and the recorded speedup is the best pair — the throughput
    analogue of best-of-N timing, which is how a ratio survives a noisy
    shared box.  All pairs are recorded alongside for transparency.  At
    full scale the best pair must clear the tentpole bar of **5x**.
    """
    from repro.experiments import workloads as W
    from repro.experiments.fig4 import run_fig4ab

    def run(batch):
        # cold caches: later bench modules rebuild on demand as usual
        W._workload_cache.clear()
        W._trace_cache.clear()
        if batch:
            return run_fig4ab(bench_config)
        with reference_path():
            return run_fig4ab(bench_config)

    run(True)  # warm the code paths once (imports, numpy dispatch)
    pairs = []
    curves = None
    for _ in range(3):
        batch_s, batch_curves = _best_of(lambda: run(True), 1)
        object_s, object_curves = _best_of(lambda: run(False), 1)
        for a, b in zip(batch_curves, object_curves):
            assert a.label == b.label and a.summary == b.summary
        pairs.append((batch_s, object_s))
        curves = object_curves
    batch_s, object_s = max(pairs, key=lambda p: p[1] / p[0])
    packets = sum(
        len(workload_for(config_items(bench_config)).regular)
        + c.summary.processed_packets
        for c in curves
    )
    entry = _record("pipeline_fig4", packets, object_s, batch_s)
    entry["pair_speedups"] = [o / b for b, o in pairs]

    print_banner("Figure-4(a,b) sweep: object vs columnar fast path "
                 "(4 conditions, cold traces)")
    print(f"queue offers:   {entry['packets']}")
    print(f"object path:    {entry['object_pps'] / 1e3:.0f} k pkts/s "
          f"({object_s:.2f} s)")
    print(f"batch path:     {entry['batch_pps'] / 1e3:.0f} k pkts/s "
          f"({batch_s:.2f} s)")
    print("pairs:          "
          + "  ".join(f"{r:.2f}x" for r in entry["pair_speedups"]))
    print(f"speedup:        {entry['speedup']:.2f}x (best pair)")
    if bench_config.scale >= 1.0:
        # the tentpole acceptance bar: >= 5x at full scale
        assert entry["speedup"] >= 5.0
    else:
        # smoke lanes: never slower than the object path
        assert entry["speedup"] >= 1.0


def test_interpolation_flush_throughput(bench_config, repeats):
    rng = np.random.default_rng(7)
    n_regs = max(2000, int(200_000 * bench_config.scale))
    n_refs = max(20, n_regs // 100)
    reg_t = np.sort(rng.uniform(0.0, 2.0, n_regs))
    ref_t = np.sort(rng.uniform(0.0, 2.0, n_refs))
    ref_d = rng.uniform(1e-6, 1e-3, n_refs)
    intervals = np.searchsorted(ref_t, reg_t, side="left")

    def object_path():
        buffer = InterpolationBuffer("linear")
        out = []
        ri = 0
        for t, k in zip(reg_t.tolist(), intervals.tolist()):
            while ri < k:
                out.extend(e.estimated for e in buffer.add_reference(
                    float(ref_t[ri]), float(ref_d[ri])))
                ri += 1
            buffer.add_regular(t, key=(1, 2, 3, 4, 6), true_delay=0.0)
        while ri < n_refs:
            out.extend(e.estimated for e in buffer.add_reference(
                float(ref_t[ri]), float(ref_d[ri])))
            ri += 1
        out.extend(e.estimated for e in buffer.flush())
        return out

    object_s, object_est = _best_of(object_path, repeats)
    batch_s, batch_est = _best_of(
        lambda: interpolate_batch(reg_t, ref_t, ref_d, intervals=intervals),
        repeats)
    assert batch_est.tolist() == object_est  # bitwise
    entry = _record("interpolation_flush", n_regs, object_s, batch_s)

    print_banner("Interpolation flush: buffer stream vs np.searchsorted batch")
    print(f"regulars:       {n_regs} ({n_refs} references)")
    print(f"buffer stream:  {entry['object_pps'] / 1e3:.0f} k pkts/s")
    print(f"batch flush:    {entry['batch_pps'] / 1e3:.0f} k pkts/s")
    print(f"speedup:        {entry['speedup']:.1f}x")
    assert entry["speedup"] >= 1.0


def _loop_offer_batch(queue, arrivals, sizes):
    """The exact per-row scan ``offer_batch`` ran before the vectorized
    kernel: ``offer()``'s float ops row by row, the drop arithmetic
    skipped under the certified threshold.  The baseline the kernel is
    timed against."""
    t_l = (arrivals + queue.proc_delay).tolist()
    svc_l = (sizes / queue.rate_Bps).tolist()
    size_l = sizes.tolist()
    rate_Bps = queue.rate_Bps
    buffer_bytes = queue.buffer_bytes
    threshold = (math.inf if buffer_bytes is None else
                 queue_kernel._drop_free_threshold(buffer_bytes, int(sizes.max()), rate_Bps))
    fa = queue._free_at
    nan = math.nan
    dep_l = []
    for t, svc, size in zip(t_l, svc_l, size_l):
        backlog = fa - t
        if backlog > threshold:
            clamped = backlog * rate_Bps if backlog > 0.0 else 0.0
            if clamped + size > buffer_bytes:
                dep_l.append(nan)
                continue
            fa = (t if t > fa else fa) + svc
        elif backlog > 0.0:
            fa = fa + svc
        else:
            fa = t + svc
        dep_l.append(fa)
    queue._free_at = fa
    departures = np.array(dep_l)
    accepted = ~np.isnan(departures)
    queue_kernel._fold_stats(
        queue.stats, len(sizes), int(sizes.sum()), int(np.count_nonzero(~accepted)),
        int(sizes[~accepted].sum()), departures[accepted], arrivals[accepted])
    return departures, accepted


@pytest.mark.parametrize("load, buffer_bytes", [
    (0.30, 10**6), (0.93, 10**6), (0.99, 10**7),
    (1.30, 60_000),  # drop-heavy: ~16 % of rows dropped
])
def test_queue_kernel_throughput(bench_config, repeats, load, buffer_bytes):
    """offer_batch's vectorized FIFO kernel against the per-row loop.

    Both scans must agree bit for bit (departures, drops, statistics and
    ``free_at``) before either is timed.  Drop-free loads must clear
    1.5x at full scale and not be slower at smoke scales; the drop-heavy
    stream, where the exact loop carries the near-full stretches, is
    recorded only.
    """
    rate_bps = 10e9
    n = max(20_000, int(1_000_000 * bench_config.scale))
    rng = np.random.default_rng(int(load * 100))
    sizes = rng.integers(64, 1501, n)
    arrivals = np.add.accumulate(rng.exponential(782 * 8 / rate_bps / load, n))

    def run(scan):
        queue = FifoQueue(rate_bps, buffer_bytes)
        departures, _ = scan(queue, arrivals, sizes)
        s = queue.stats
        return departures, (s.accepted, s.dropped, s.bytes_dropped, s.total_delay,
                            s.max_delay, s.last_departure, queue._free_at)

    kernel_s, (kernel_dep, kernel_state) = _best_of(
        lambda: run(FifoQueue.offer_batch), repeats)
    loop_s, (loop_dep, loop_state) = _best_of(
        lambda: run(_loop_offer_batch), repeats)
    assert np.array_equal(kernel_dep, loop_dep, equal_nan=True)
    assert kernel_state == loop_state
    entry = _record(f"queue_kernel_load{round(load * 100)}", n, loop_s, kernel_s)
    entry["loop_ns_per_row"] = loop_s / n * 1e9
    entry["kernel_ns_per_row"] = kernel_s / n * 1e9
    entry["drop_frac"] = float(np.isnan(loop_dep).mean())

    print_banner(f"FIFO queue kernel vs per-row loop ({load:.0%} load)")
    print(f"rows:           {n} ({entry['drop_frac']:.1%} dropped)")
    print(f"per-row loop:   {entry['loop_ns_per_row']:.0f} ns/row")
    print(f"kernel:         {entry['kernel_ns_per_row']:.0f} ns/row")
    print(f"speedup:        {entry['speedup']:.2f}x")
    if entry["drop_frac"] == 0.0:
        assert entry["speedup"] >= (1.5 if bench_config.scale >= 1.0 else 1.0)


def test_flow_table_throughput(bench_config, repeats):
    """The columnar flow table against one ``StreamingStats`` per flow.

    Both sides fold a true and an estimated delay per sample of the fig4
    regular trace (its real flow-size mix, one run per table, the way
    ``observe_batch`` folds), then build what ``summarize_condition``
    reads: both tables' (count, mean, std) rows, the mean and std error
    joins and the pooled true mean.  The outputs must agree bit for bit
    before either side is timed; recorded only.
    """
    regular = workload_for(config_items(bench_config)).regular.batch
    keys = (regular.src, regular.dst, regular.sport, regular.dport, regular.proto)
    n = len(regular)
    ids, flow_keys = flow_ids(keys, np.arange(n))
    rng = np.random.default_rng(19)
    truth = rng.exponential(20e-6, n)
    estimate = truth * rng.normal(1.0, 0.1, n)

    def summary(true, est, rows, mean_errors, std_errors, pooled):
        return (rows(est), rows(true), join_dump(mean_errors(est, true)),
                join_dump(std_errors(est, true)), pooled(true).mean.hex())

    def columnar():
        true, est = FlowStatsTable(), FlowStatsTable()
        fold_flow_samples(true, None, ids, flow_keys, truth)
        fold_flow_samples(est, None, ids, flow_keys, estimate)
        return summary(true, est, FlowRows.of, flow_mean_errors,
                       flow_std_errors, pooled_stats)

    def per_flow_objects():
        true, est = {}, {}
        object_fold(true, ids, flow_keys, truth)
        object_fold(est, ids, flow_keys, estimate)
        return summary(true, est, reference_flow_rows, reference_mean_errors,
                       reference_std_errors, lambda t: reference_pooled(t.items()))

    columnar_s, columnar_out = _best_of(columnar, repeats)
    object_s, object_out = _best_of(per_flow_objects, repeats)
    assert repr(columnar_out) == repr(object_out)
    assert columnar_out == object_out
    entry = _record("flow_table", n, object_s, columnar_s)
    entry["flows"] = len(flow_keys)
    entry["object_ns_per_sample"] = object_s / n * 1e9
    entry["columnar_ns_per_sample"] = columnar_s / n * 1e9

    print_banner("Flow table: per-flow StreamingStats vs columns (fold + summary)")
    print(f"samples:        {n} in {len(flow_keys)} flows")
    print(f"per-flow objects: {entry['object_ns_per_sample']:.0f} ns/sample")
    print(f"columnar table: {entry['columnar_ns_per_sample']:.0f} ns/sample")
    print(f"speedup:        {entry['speedup']:.2f}x")
