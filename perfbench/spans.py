"""Timing wrappers around each layer's public entry points.

The traced run installs a wrapper where each caller looks the function up:
on the class for a method, and on the importing module for a function that
module imported by name.  Every call becomes a span (name, start, end,
enclosing span, study id) kept in memory; a span's self time is its
duration minus the time covered by its child spans.  Row and hit counts
are read from the calls' arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _offer_counts(args, kwargs, result, add) -> None:
    rows = len(args[1])
    add("sim.queue.rows", rows)
    add("sim.queue.accepted", int(np.count_nonzero(result[1])))


def _observe_counts(args, kwargs, result, add) -> None:
    add("core.observe.rows", len(args[1]))


def _replay_counts(args, kwargs, result, add) -> None:
    add("core.replay.rows", len(args[0]))


def _get_counts(args, kwargs, result, add) -> None:
    add("runner.cache.lookups", 1)
    add("runner.cache.hits", 1 if result[0] else 0)


# (span name, module, class or None for a module function, attribute, counter)
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str, Optional[Callable]], ...] = (
    ("traffic.gen", "repro.experiments.workloads", None, "generate_trace", None),
    ("traffic.gen", "repro.traffic.synthetic", None, "generate_fattree_trace", None),
    ("traffic.select", "repro.traffic.crosstraffic", "UniformModel", "arrivals_batch", None),
    ("traffic.select", "repro.traffic.crosstraffic", "BurstyModel", "arrivals_batch", None),
    ("sim.queue", "repro.sim.queue", "FifoQueue", "offer_batch", _offer_counts),
    ("sim.pipeline", "repro.sim.pipeline", "TwoSwitchPipeline", "run_batch", None),
    ("sim.chain", "repro.sim.chain", "SwitchChain", "run_batch", None),
    ("sim.fatpath", "repro.sim.fatpath", "FatTreeFastPath", "run", None),
    ("sim.ecmp", "repro.sim.ecmp", "EcmpHasher", "choose_batch", None),
    ("sim.ecmp", "repro.sim.ecmp", "EcmpHasher", "hash_key_batch", None),
    ("core.observe", "repro.core.receiver", "RliReceiver", "observe_batch", _observe_counts),
    ("core.replay", "repro.experiments.extension_jobs", None, "replay_observations",
     _replay_counts),
    ("experiments.summarize", "repro.experiments.workloads", None, "summarize_condition",
     None),
    ("runner.cache.get", "repro.runner.cache", "ResultCache", "get", _get_counts),
    ("runner.cache.put", "repro.runner.cache", "ResultCache", "put", None),
)


# Per-layer metrics the traced run must find nonzero on every workload.
ALWAYS_NONZERO = ("traffic.gen_s", "sim.queue.offer_s", "sim.queue.rows",
                  "runner.cache.get_s", "runner.cache.put_s", "runner.cache.bytes",
                  "distrib.dispatches")


class Tracer:
    """In-memory span recorder; ``study`` tags every span it records."""

    def __init__(self) -> None:
        # [name, start, end, parent index, study]
        self.spans: List[list] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.study = "setup"
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every entry point; a missing one is an error."""
        for name, module_name, class_name, attr, counter in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__.get(attr)
            if original is None:
                raise AttributeError(
                    f"entry point {module_name}.{class_name or ''}.{attr} not found")
            setattr(owner, attr, self._wrap(name, original, counter))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, original, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def add(counter_name: str, value: float) -> None:
            self.counts[(self.study, counter_name)] += value

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.study]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                counter(args, kwargs, result, add)
            return result

        return wrapper

    def self_times(self) -> Dict[Tuple[str, str], float]:
        """Total self time per (study, span name)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, study in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[Tuple[str, str], float] = defaultdict(float)
        for index, (name, start, end, parent, study) in enumerate(self.spans):
            totals[(study, name)] += (end - start) - child_time[index]
        return totals

    def dump(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "study": st}
            for n, s, e, p, st in self.spans
        ]


def _counter_sum(counters: Dict[str, float], prefix: str) -> float:
    """Sum of the ``repro.obs`` counters ``prefix`` and ``prefix[label]``."""
    return sum(v for k, v in counters.items()
               if k == prefix or k.startswith(prefix + "["))


def layer_metrics(tracer: Tracer, rounds: int, study, batch_counters, broker_counters,
                  cache_bytes, plain, with_obs, traced):
    """Per-layer metrics of the traced run, and the coverage checks on them.

    Each round studies its own inputs, so times, counts and per-row costs
    are medians over the traced rounds of each round's totals.  A metric
    predicted to be zero must be zero in every round.  Returns
    ``(metrics, coverage)`` with metrics as ``name -> (value, unit)`` and
    coverage as ``(check name, passed)`` pairs.
    """
    selfs = tracer.self_times()
    counts = tracer.counts

    def self_s(span: str, kind: str = "cold"):
        return lambda r: selfs.get((f"{kind}{r}", span), 0.0)

    def count(name: str, kind: str = "cold"):
        return lambda r: counts.get((f"{kind}{r}", name), 0.0)

    def ratio(num, den, scale: float = 1.0):
        return lambda r: scale * num(r) / den(r) if den(r) else 0.0

    rows = count("sim.queue.rows")
    accepted = count("sim.queue.accepted")
    replay_rows = count("core.replay.rows")
    per_round = {
        "traffic.gen_s": (self_s("traffic.gen"), "s"),
        "traffic.select_s": (self_s("traffic.select"), "s"),
        "sim.queue.offer_s": (self_s("sim.queue"), "s"),
        "sim.queue.rows": (rows, "count"),
        "sim.queue.ns_per_row": (ratio(self_s("sim.queue"), rows, 1e9), "ns"),
        "sim.queue.drop_frac": (ratio(lambda r: rows(r) - accepted(r), rows), "ratio"),
        "sim.pipeline.self_s": (self_s("sim.pipeline"), "s"),
        "sim.chain.self_s": (self_s("sim.chain"), "s"),
        "sim.fatpath.self_s": (self_s("sim.fatpath"), "s"),
        "sim.ecmp.choose_s": (self_s("sim.ecmp"), "s"),
        "core.observe_s": (self_s("core.observe"), "s"),
        "core.observe_rows": (count("core.observe.rows"), "count"),
        "core.replay_s": (self_s("core.replay"), "s"),
        "core.replay_rows": (replay_rows, "count"),
        "core.replay_ns_per_row": (ratio(self_s("core.replay"), replay_rows, 1e9), "ns"),
        "experiments.summarize_s": (self_s("experiments.summarize"), "s"),
        "runner.cache.get_s": (self_s("runner.cache.get", "warm"), "s"),
        "runner.cache.put_s": (self_s("runner.cache.put"), "s"),
    }
    values = {name: [fn(r) for r in range(rounds)] for name, (fn, _) in per_round.items()}
    metrics = {name: (statistics.median(values[name]), unit)
               for name, (_, unit) in per_round.items()}

    fastpath = _counter_sum(batch_counters, "batch.fastpath")
    fallback = _counter_sum(batch_counters, "batch.fallback")
    dispatches = _counter_sum(broker_counters, "broker.distrib.dispatch")
    completed = _counter_sum(broker_counters, "broker.distrib.chunk_complete")
    lookups = sum(map(count("runner.cache.lookups", "warm"), range(rounds)))
    hits = sum(map(count("runner.cache.hits", "warm"), range(rounds)))
    plain_wall = statistics.median(plain)
    metrics.update({
        "sim.fallback_frac": (fallback / (fastpath + fallback) if fastpath + fallback
                              else 0.0, "ratio"),
        "runner.cache.bytes": (statistics.median(cache_bytes), "B"),
        "runner.cache.hit_frac": (hits / lookups if lookups else 0.0, "ratio"),
        "distrib.dispatches": (dispatches, "count"),
        "distrib.retries": (_counter_sum(broker_counters, "broker.distrib.requeue")
                            + _counter_sum(broker_counters, "broker.distrib.hedge"),
                            "count"),
        "distrib.useful_frac": (completed / dispatches if dispatches else 0.0, "ratio"),
        "obs.overhead_frac": (statistics.median(with_obs) / plain_wall - 1.0, "ratio"),
        "trace.overhead_frac": (statistics.median(traced) / plain_wall - 1.0, "ratio"),
    })

    coverage = []
    for name in ALWAYS_NONZERO + study.nonzero:
        coverage.append((f"{name} is nonzero", metrics[name][0] > 0))
    for name in study.zero:
        coverage.append((f"{name} is zero", not any(values.get(name, [metrics[name][0]]))))
    coverage.append(("the columnar fast path ran", fastpath > 0))
    coverage.append(("sim.fallback_frac is zero", metrics["sim.fallback_frac"][0] == 0))
    coverage.append(("runner.cache.hit_frac is 1 on the warm pass",
                     metrics["runner.cache.hit_frac"][0] == 1.0))
    warm_rows = count("sim.queue.rows", "warm")
    for r in range(rounds):
        coverage.append((f"cold pass {r} regenerated its traces",
                         values["traffic.gen_s"][r] > 0))
        coverage.append((f"warm pass {r} offered no rows to a queue", warm_rows(r) == 0))
    return metrics, coverage
