"""Packets/sec throughput benches for the multihop/mesh columnar drivers.

``test_perf_throughput.py`` times the two-switch pipeline; these benches
track the columnar paths beyond it, recorded into the same
``BENCH_pipeline.json`` history:

* the **cold multihop sweep** (``repro-rlir extensions multihop``):
  every chain length of the ablation, simulation + replay, with all
  in-process caches cleared per timed run — the headline entry, gated at
  **3×** at full scale;
* the **mesh study** (``repro-rlir extensions mesh``): one shared
  fat-tree, three measured ToR pairs, event calendar vs the layered
  columnar driver.

As in ``test_perf_throughput.py``, each comparison first asserts the two
paths produce identical results, the paths are timed in back-to-back
pairs so machine drift hits both sides alike, and the recorded speedup is
the best pair.  The object side runs under ``tests/reference_path.py``,
so it also pays the columnar-to-packet conversion of its fallback.
"""

import gc
import json
import pathlib
import platform
import time

import numpy as np
import pytest

from conftest import print_banner
from reference_path import reference_path

from repro.experiments.extensions import run_mesh_study, run_multihop_ablation
from repro.experiments.workloads import workload_for
from repro.runner.runner import ParallelRunner
from repro.runner.spec import config_items

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_pipeline.json"

_RESULTS = {}

MULTIHOP_HOPS = (1, 2, 4, 8)
MULTIHOP_UTILIZATION = 0.80


def _clear_sim_caches():
    """Cold-start every in-process memo the studies consult."""
    from repro.experiments import extension_jobs as EJ
    from repro.experiments import workloads as W

    W._workload_cache.clear()
    W._trace_cache.clear()
    EJ._SIM_CACHE.clear()
    EJ._SIM_PINNED.clear()


def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _best_pair(run, checks, rounds):
    """Best (batch_s, object_s) over back-to-back timed pairs."""
    pairs = []
    for _ in range(rounds):
        batch_s, batch_out = _timed(lambda: run(True))
        object_s, object_out = _timed(lambda: run(False))
        checks(batch_out, object_out)
        pairs.append((batch_s, object_s))
    best = max(pairs, key=lambda p: p[1] / p[0])
    return best, [o / b for b, o in pairs]


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
    """Append this module's numbers to the tracked perf trajectory."""
    yield
    if not _RESULTS:
        return
    from bench_history import (git_sha, make_entry, merge_bench_history,
                               obs_summary, utc_timestamp)

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
    )
    payload = merge_bench_history(payload, entry)
    BENCH_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {BENCH_FILE} ({len(payload['history'])} history entries)")


def test_multihop_sweep_throughput(bench_config):
    """The headline number: the cold multihop ablation sweep.

    Both paths pay exactly what a fresh ``repro-rlir extensions multihop``
    process pays — trace synthesis, every chain simulation (1+2+4+8 hops
    of queue scans with per-hop cross traffic), observation-log recording,
    and the per-flow replay.  At full scale the best pair must clear the
    acceptance bar of **3×**.
    """
    def sweep():
        return run_multihop_ablation(
            bench_config, hops=MULTIHOP_HOPS, utilization=MULTIHOP_UTILIZATION,
            runner=ParallelRunner(), run_seed=0)

    def run(batch):
        _clear_sim_caches()
        if batch:
            return sweep()
        with reference_path():
            return sweep()

    run(True)  # warm the code paths once (imports, numpy dispatch)

    def checks(batch_rows, object_rows):
        assert batch_rows == object_rows  # bitwise row equality

    (batch_s, object_s), ratios = _best_pair(run, checks, rounds=3)
    # regular queue offers across the sweep (cross traffic and references
    # add more on top; this fixed denominator keeps pps comparable)
    regulars = len(workload_for(config_items(bench_config)).regular)
    packets = regulars * sum(MULTIHOP_HOPS)
    entry = _record("multihop_sweep", packets, object_s, batch_s)
    entry["pair_speedups"] = ratios

    print_banner("Multihop ablation sweep: object vs columnar chain "
                 f"(hops {MULTIHOP_HOPS}, cold caches)")
    print(f"regular offers: {entry['packets']}")
    print(f"object path:    {entry['object_pps'] / 1e3:.0f} k pkts/s "
          f"({object_s:.2f} s)")
    print(f"batch path:     {entry['batch_pps'] / 1e3:.0f} k pkts/s "
          f"({batch_s:.2f} s)")
    print("pairs:          " + "  ".join(f"{r:.2f}x" for r in ratios))
    print(f"speedup:        {entry['speedup']:.2f}x (best pair)")
    if bench_config.scale >= 1.0:
        # the tentpole acceptance bar: >= 3x at full scale
        assert entry["speedup"] >= 3.0
    else:
        # smoke lanes: never slower than the object path
        assert entry["speedup"] >= 1.0


def test_mesh_study_throughput(bench_config):
    """Shared-fabric mesh study: event calendar vs layered columnar driver."""
    n_per_pair = max(5000, int(15_000 * bench_config.scale))

    def study():
        return run_mesh_study(n_packets_per_pair=n_per_pair,
                              runner=ParallelRunner(), run_seed=0)

    def run(batch):
        _clear_sim_caches()
        if batch:
            return study()
        with reference_path():
            return study()

    run(True)

    def checks(batch_rows, object_rows):
        assert batch_rows == object_rows

    (batch_s, object_s), ratios = _best_pair(run, checks, rounds=3)
    packets = 3 * n_per_pair  # injected regulars; each crosses >= 3 queues
    entry = _record("mesh_study", packets, object_s, batch_s)
    entry["pair_speedups"] = ratios

    print_banner("Mesh study: event engine vs layered columnar fat-tree "
                 f"(3 pairs x {n_per_pair} packets)")
    print(f"regulars:       {entry['packets']}")
    print(f"object path:    {entry['object_pps'] / 1e3:.0f} k pkts/s "
          f"({object_s:.2f} s)")
    print(f"batch path:     {entry['batch_pps'] / 1e3:.0f} k pkts/s "
          f"({batch_s:.2f} s)")
    print("pairs:          " + "  ".join(f"{r:.2f}x" for r in ratios))
    print(f"speedup:        {entry['speedup']:.2f}x (best pair)")
    if bench_config.scale >= 1.0:
        assert entry["speedup"] >= 2.0
    else:
        assert entry["speedup"] >= 1.0
