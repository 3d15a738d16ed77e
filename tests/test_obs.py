"""Tests for ``repro.obs`` — the zero-perturbation observability layer.

Four concerns, matching ISSUE 9's acceptance criteria:

* **byte-identity** — results (and for the CLI paths, stdout) must be
  byte-identical with obs on vs off, on the serial, process-pool, and
  distributed backends.  Telemetry that changes an answer is a bug by
  definition here.
* **deterministic merge** — worker buffers folded in any arrival order
  must merge into one total order by ``(process, seq)``.
* **artifact round-trip** — a written ``run-*.json`` must validate
  against the committed schema, and the stdlib validator must actually
  reject malformed documents.
* **overhead** — the disabled fast path is one attribute check; this
  suite gates its per-call cost and checks a small sweep is not
  measurably perturbed.  (The CI perf-smoke lane owns the ISSUE's
  ``<= 2%`` whole-sweep bound; a unit test asserts looser bounds that
  survive noisy shared boxes.)
"""

import json
import os
import pickle
import time

import pytest

from repro import obs
from repro.obs._state import _STATE
from repro.experiments.config import ExperimentConfig
from repro.runner import JobSpec, ParallelRunner, ResultCache

_OBS_ENV = ("REPRO_OBS", "REPRO_OBS_VERBOSE", "REPRO_OBS_PROCESS")


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with obs fully off and buffers empty."""
    saved = {k: os.environ.get(k) for k in _OBS_ENV}

    def scrub():
        obs.disable()
        obs.set_verbose(False)
        _STATE.process_override = ""
        obs.reset_spans()
        obs.reset_metrics()
        obs.reset_notes()
        obs.reset_foreign()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    scrub()
    yield
    scrub()


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(scale=0.01, seed=7)


@pytest.fixture(scope="module")
def jobs(cfg):
    """Two independent fig4 conditions (the determinism suite's pair)."""
    return [
        JobSpec.from_config(cfg, "adaptive", "random", 0.67),
        JobSpec.from_config(cfg, "static", "random", 0.67),
    ]


@pytest.fixture(scope="module")
def serial_blobs(jobs):
    """Reference answers, computed once with obs off."""
    return [pickle.dumps(s) for s in ParallelRunner(jobs=1).run(jobs)]


# ----------------------------------------------------------------------
# spans


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.enabled()
        assert obs.span("a") is obs.span("b")
        with obs.span("a"):
            pass
        assert obs.spans_snapshot() == []

    def test_enabled_span_records_name_seq_thread(self):
        obs.enable()
        with obs.span("stage.one"):
            pass
        with obs.span("stage.two"):
            pass
        recs = obs.spans_snapshot()
        assert [r["name"] for r in recs] == ["stage.one", "stage.two"]
        assert [r["seq"] for r in recs] == [1, 2]
        for r in recs:
            assert r["end"] >= r["start"]
            assert isinstance(r["thread"], int)

    def test_exception_inside_span_still_records_and_propagates(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("kept")
        assert [r["name"] for r in obs.spans_snapshot()] == ["boom"]

    def test_drain_keeps_seq_monotonic_across_batches(self):
        obs.enable()
        with obs.span("a"):
            pass
        first = obs.drain_spans()
        with obs.span("b"):
            pass
        second = obs.drain_spans()
        assert [r["seq"] for r in first + second] == [1, 2]
        assert obs.spans_snapshot() == []


# ----------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_disabled_calls_record_nothing(self):
        obs.count("cache.hit")
        obs.gauge("depth", 3.0)
        obs.observe("latency", 0.5)
        obs.taken("pipeline.run_batch")
        snap = obs.registry_snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_counters_gauges_histograms(self):
        obs.enable()
        obs.count("cache.hit")
        obs.count("cache.hit", 2)
        obs.gauge("depth", 3.0)
        obs.gauge("depth", 1.0)
        obs.observe("latency", 0.5)
        obs.observe("latency", 1.5)
        snap = obs.registry_snapshot()
        assert snap["counters"]["cache.hit"] == 3
        assert snap["gauges"]["depth"] == 1.0  # last write wins
        hist = snap["histograms"]["latency"]
        assert (hist["count"], hist["total"]) == (2, 2.0)
        assert (hist["min"], hist["max"]) == (0.5, 1.5)

    def test_taken_and_fallback_fold_labels_into_keys(self):
        obs.enable()
        obs.taken("pipeline.run_batch")
        obs.fallback("chain.run_batch", "regular-not-columnar")
        snap = obs.registry_snapshot()
        assert snap["counters"]["batch.fastpath[pipeline.run_batch]"] == 1
        key = "batch.fallback[chain.run_batch:regular-not-columnar]"
        assert snap["counters"][key] == 1

    def test_verbose_fallback_notes_stderr_once_per_site(self, capsys):
        obs.set_verbose(True)  # verbose alone: note, but no counter
        obs.fallback("fatpath", "until-unsupported")
        obs.fallback("fatpath", "until-unsupported")
        obs.fallback("fatpath", "other-reason")
        captured = capsys.readouterr()
        assert captured.out == ""  # stdout is sacred
        assert captured.err.count("until-unsupported") == 1
        assert captured.err.count("other-reason") == 1
        assert obs.registry_snapshot()["counters"] == {}

    def test_merge_sums_counters_and_widens_histograms(self):
        snap_a = {"counters": {"c": 1}, "gauges": {"g": 1.0},
                  "histograms": {"h": {"count": 1, "total": 2.0,
                                       "min": 2.0, "max": 2.0}}}
        snap_b = {"counters": {"c": 4}, "gauges": {"g": 9.0},
                  "histograms": {"h": {"count": 1, "total": 0.5,
                                       "min": 0.5, "max": 0.5}}}
        reg = obs.MetricsRegistry()
        reg.merge(snap_a)
        reg.merge(snap_b, prefix="broker.")
        reg.merge(snap_b)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 5, "broker.c": 4}
        assert snap["gauges"]["g"] == 9.0
        hist = snap["histograms"]["h"]
        assert (hist["count"], hist["total"]) == (2, 2.5)
        assert (hist["min"], hist["max"]) == (0.5, 2.0)


# ----------------------------------------------------------------------
# worker-buffer merge


def _payload(process, names, start_seq=1):
    spans = [
        {"name": n, "start": float(i), "end": float(i) + 0.5,
         "thread": 1, "seq": start_seq + i}
        for i, n in enumerate(names)
    ]
    return {"process": process, "spans": spans,
            "metrics": {"counters": {"cache.hit": 1}, "gauges": {},
                        "histograms": {}}}


class TestWorkerBufferMerge:
    def test_merge_orders_by_process_then_seq(self):
        obs.enable(process="driver")
        # fold arrival order deliberately scrambled vs (process, seq)
        obs.fold_payload(_payload("worker-2", ["w2.b"], start_seq=7))
        obs.fold_payload(_payload("worker-1", ["w1.a", "w1.b"]))
        obs.fold_payload(_payload("worker-2", ["w2.a"], start_seq=3))
        with obs.span("driver.span"):
            pass
        merged = obs.merged_spans()
        keys = [(r["process"], r["seq"]) for r in merged]
        assert keys == sorted(keys)
        assert [r["name"] for r in merged] == [
            "driver.span", "w1.a", "w1.b", "w2.a", "w2.b"]

    def test_merge_is_arrival_order_independent(self):
        payloads = [_payload(f"worker-{i}", [f"w{i}.a", f"w{i}.b"])
                    for i in range(3)]
        obs.enable(process="driver")
        for p in payloads:
            obs.fold_payload(p)
        forward = [(r["process"], r["seq"]) for r in obs.merged_spans()]
        obs.reset_foreign()
        for p in reversed(payloads):
            obs.fold_payload(p)
        assert [(r["process"], r["seq"]) for r in obs.merged_spans()] == forward

    def test_fold_ignores_garbage(self):
        obs.enable()
        for junk in (None, [], "x", {"spans": []}):  # no "process" key
            obs.fold_payload(junk)
        assert obs.merged_spans() == []

    def test_folded_metrics_sum_into_merged_view(self):
        obs.enable()
        obs.count("cache.hit", 2)
        obs.fold_payload(_payload("worker-1", []))
        obs.fold_payload(_payload("worker-2", []))
        doc = obs.build_artifact()
        assert doc["counters"]["cache.hit"] == 4

    def test_drain_payload_roundtrip(self):
        obs.enable(process="worker-9")
        with obs.span("worker.chunk"):
            pass
        obs.count("cache.miss")
        payload = obs.drain_payload()
        assert payload["process"] == "worker-9"
        assert [r["name"] for r in payload["spans"]] == ["worker.chunk"]
        assert payload["metrics"]["counters"]["cache.miss"] == 1
        # draining emptied the local buffers
        assert obs.spans_snapshot() == []
        assert obs.registry_snapshot()["counters"] == {}


# ----------------------------------------------------------------------
# artifact round-trip


class TestArtifact:
    def test_write_validate_roundtrip(self, tmp_path):
        obs.enable(process="driver")
        with obs.span("runner.sweep"):
            with obs.span("runner.job"):
                pass
        obs.count("cache.hit")
        obs.observe("distrib.heartbeat_interarrival", 0.5)
        obs.fold_payload(_payload("worker-1", ["worker.chunk"]))
        path = obs.write_artifact(meta={"command": "test"},
                                  out_dir=str(tmp_path), chrome_trace=True)
        doc = json.loads((tmp_path / os.path.basename(path)).read_text())
        assert obs.validate_artifact(doc) == []
        assert doc["schema"] == obs.SCHEMA_ID
        assert doc["meta"]["command"] == "test"
        assert {r["process"] for r in doc["spans"]} == {"driver", "worker-1"}
        trace_path = path[: -len(".json")] + ".trace.json"
        events = json.loads(open(trace_path).read())["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"driver", "worker-1"}
        assert sum(1 for e in events if e["ph"] == "X") == 3

    def test_validator_rejects_malformed_docs(self):
        schema = obs.load_schema()
        good = obs.build_artifact()
        assert obs.validate_artifact(good, schema) == []
        for mutate in (
            lambda d: d.pop("spans"),
            lambda d: d.__setitem__("schema", "wrong/v0"),
            lambda d: d.__setitem__("counters", [1, 2]),
            lambda d: d.__setitem__("spans", [{"name": "x"}]),
            lambda d: d.__setitem__("gauges", {"g": "high"}),
        ):
            doc = json.loads(json.dumps(obs.build_artifact()))
            mutate(doc)
            assert obs.validate_artifact(doc, schema), mutate

    def test_span_summary_totals(self):
        obs.enable()
        spans = [
            {"name": "a", "start": 0.0, "end": 1.0, "thread": 1, "seq": 1},
            {"name": "a", "start": 2.0, "end": 2.5, "thread": 1, "seq": 2},
            {"name": "b", "start": 0.0, "end": 0.25, "thread": 1, "seq": 3},
        ]
        summary = obs.span_summary(spans)
        assert summary["a"] == {"count": 2, "total_s": 1.5, "max_s": 1.0}
        assert summary["b"]["count"] == 1
        assert list(summary) == sorted(summary)


# ----------------------------------------------------------------------
# byte-identity: obs on vs off, per backend


class TestByteIdentity:
    def test_serial_backend(self, jobs, serial_blobs):
        obs.enable(process="driver")
        got = [pickle.dumps(s) for s in ParallelRunner(jobs=1).run(jobs)]
        assert got == serial_blobs
        # and the run actually recorded something
        assert obs.registry_snapshot()["counters"]["runner.jobs"] == 2
        assert "runner.sweep" in {r["name"] for r in obs.merged_spans()}

    def test_process_backend(self, jobs, serial_blobs):
        obs.enable(process="driver")
        got = [pickle.dumps(s) for s in ParallelRunner(jobs=2).run(jobs)]
        assert got == serial_blobs
        # pool workers shipped their buffers back over the result channel
        procs = {r["process"] for r in obs.merged_spans()}
        assert any(p != "driver" for p in procs)

    def test_distributed_backend(self, jobs, serial_blobs):
        from repro.distrib import DistributedRunner

        obs.enable(process="driver")
        runner = DistributedRunner(workers=2, heartbeat_interval=0.5,
                                   poll_timeout=300.0)
        try:
            got = [pickle.dumps(s) for s in runner.run(jobs)]
        finally:
            runner.close()
        assert got == serial_blobs
        procs = {r["process"] for r in obs.merged_spans()}
        assert any(p.startswith("worker-") for p in procs)
        # the end-of-sweep broker stats query folded in prefixed counters
        doc = obs.build_artifact()
        assert any(k.startswith("broker.distrib.") for k in doc["counters"])
        # and the distributed pass's time split: join, queue wait, chunk RTT
        for key in ("distrib.join_s", "broker.distrib.queue_wait_s",
                    "broker.distrib.chunk_rtt_s"):
            assert doc["histograms"][key]["count"] >= 1, key

    def test_broker_stats_folded_once_across_sweeps(self, jobs):
        """A runner driving two sweeps folds each broker dispatch once:
        the driver's chunk round-trip count equals the chunks the broker
        dispatched, not the sum of its lifetime snapshots."""
        from repro.distrib import DistributedRunner

        obs.enable(process="driver")
        runner = DistributedRunner(workers=1, heartbeat_interval=0.5,
                                   poll_timeout=300.0)
        try:
            runner.run(jobs)
            runner.run(jobs)
            broker = runner._broker.metrics.snapshot()
        finally:
            runner.close()
        doc = obs.build_artifact()
        dispatched = broker["counters"]["distrib.dispatch"]
        assert dispatched >= 2
        assert doc["counters"]["broker.distrib.dispatch"] == dispatched
        rtt = doc["histograms"]["broker.distrib.chunk_rtt_s"]
        assert rtt["count"] == dispatched
        assert rtt["count"] == broker["histograms"]["distrib.chunk_rtt_s"]["count"]

    def test_cached_rerun_identical_and_counted(self, jobs, serial_blobs,
                                                tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        obs.enable()
        runner = ParallelRunner(jobs=1, cache=cache)
        cold = [pickle.dumps(s) for s in runner.run(jobs)]
        warm = [pickle.dumps(s) for s in runner.run(jobs)]
        assert cold == warm == serial_blobs
        counters = obs.registry_snapshot()["counters"]
        assert counters["cache.miss"] == 2
        assert counters["cache.put"] == 2
        assert counters["cache.hit"] == 2


# ----------------------------------------------------------------------
# overhead


class TestOverhead:
    N = 200_000

    def _loop(self, body):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            body()
            best = min(best, time.perf_counter() - t0)
        return best

    def test_disabled_span_is_cheap(self):
        """Disabled span() must stay a one-attribute-check no-op.

        The gate is deliberately loose (2 µs/call, ~100x the observed
        cost) so it only trips on a structural regression — e.g. span()
        allocating or taking a lock while disabled — never on machine
        noise.  The ISSUE's <= 2% whole-sweep bound lives in the CI
        perf-smoke lane where both sides run the real workload.
        """
        assert not obs.enabled()
        span = obs.span

        def body():
            for _ in range(self.N):
                with span("hot"):
                    pass

        per_call = self._loop(body) / self.N
        assert per_call < 2e-6, f"{per_call * 1e9:.0f} ns per disabled span"

    def test_disabled_counter_is_cheap(self):
        assert not obs.enabled()
        count = obs.count

        def body():
            for _ in range(self.N):
                count("hot")

        per_call = self._loop(body) / self.N
        assert per_call < 2e-6, f"{per_call * 1e9:.0f} ns per disabled count"
        assert obs.registry_snapshot()["counters"] == {}

    def test_enabled_sweep_overhead_bounded(self, jobs, serial_blobs):
        """Obs *on* must not meaningfully slow a small sweep.

        Best-of-3 each way; the 1.5x bound is far above the intended
        cost (spans per job, a handful of counters) but catches a
        per-packet instrumentation mistake, which would show up as an
        integer multiple.
        """
        def sweep():
            return [pickle.dumps(s) for s in ParallelRunner(jobs=1).run(jobs)]

        off = self._loop(sweep)
        obs.enable()
        on_time = self._loop(sweep)
        assert sweep() == serial_blobs
        assert on_time <= off * 1.5 + 0.05, (on_time, off)
