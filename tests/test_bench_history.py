"""The per-commit history kept inside ``BENCH_pipeline.json``.

``benchmarks/bench_history.py`` is plain-module tooling (the benchmarks
directory is not a package), so it is loaded here by file path.  The merge
must append one provenance-stamped entry per run while preserving the
latest-wins ``results`` view the CI smoke lanes assert on.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_history():
    path = ROOT / "benchmarks" / "bench_history.py"
    spec = importlib.util.spec_from_file_location("bench_history_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(bench_history, sha="abc123", ts="2026-07-30T00:00:00Z",
          results=None, scale=1.0):
    return bench_history.make_entry(
        results if results is not None else {"pipeline_fig4": {"speedup": 6.0}},
        sha=sha, timestamp=ts, scale=scale, python="3.12.0", numpy="2.0.0",
    )


class TestMergeBenchHistory:
    def test_first_run_seeds_history_and_latest(self, bench_history):
        merged = bench_history.merge_bench_history({}, entry(bench_history))
        assert merged["bench"] == "pipeline_throughput"
        assert merged["git_sha"] == "abc123"
        assert len(merged["history"]) == 1
        assert merged["results"]["pipeline_fig4"]["speedup"] == 6.0

    def test_runs_append_and_latest_wins(self, bench_history):
        first = bench_history.merge_bench_history(
            {}, entry(bench_history, sha="aaa",
                      results={"pipeline_fig4": {"speedup": 5.0}}))
        second = bench_history.merge_bench_history(
            first, entry(bench_history, sha="bbb", ts="2026-07-30T01:00:00Z",
                         results={"pipeline_fig4": {"speedup": 7.0}}))
        assert [h["git_sha"] for h in second["history"]] == ["aaa", "bbb"]
        assert second["results"]["pipeline_fig4"]["speedup"] == 7.0
        assert second["git_sha"] == "bbb"
        # the old run's numbers survive in its history entry
        assert second["history"][0]["results"]["pipeline_fig4"]["speedup"] == 5.0

    def test_partial_run_refreshes_only_its_benches(self, bench_history):
        base = bench_history.merge_bench_history(
            {}, entry(bench_history, results={
                "pipeline_fig4": {"speedup": 5.0},
                "trace_generation": {"speedup": 12.0},
            }))
        partial = bench_history.merge_bench_history(
            base, entry(bench_history, sha="ccc",
                        results={"pipeline_fig4": {"speedup": 6.5}}))
        assert partial["results"]["pipeline_fig4"]["speedup"] == 6.5
        assert partial["results"]["trace_generation"]["speedup"] == 12.0
        # but the history entry records exactly what that run measured
        assert "trace_generation" not in partial["history"][-1]["results"]

    def test_absorbs_pre_history_payload(self, bench_history):
        legacy = {"bench": "pipeline_throughput",
                  "results": {"interpolation_flush": {"speedup": 24.0}}}
        merged = bench_history.merge_bench_history(legacy, entry(bench_history))
        assert merged["results"]["interpolation_flush"]["speedup"] == 24.0
        assert len(merged["history"]) == 1

    def test_history_is_bounded(self, bench_history):
        payload = {}
        for i in range(7):
            payload = bench_history.merge_bench_history(
                payload, entry(bench_history, sha=f"sha{i}"), limit=5)
        shas = [h["git_sha"] for h in payload["history"]]
        assert shas == [f"sha{i}" for i in range(2, 7)]  # oldest dropped

    def test_same_commit_twice_gets_two_entries(self, bench_history):
        payload = bench_history.merge_bench_history(
            {}, entry(bench_history, sha="same", ts="2026-07-30T00:00:00Z"))
        payload = bench_history.merge_bench_history(
            payload, entry(bench_history, sha="same", ts="2026-07-30T02:00:00Z"))
        stamps = [(h["git_sha"], h["timestamp"]) for h in payload["history"]]
        assert stamps == [("same", "2026-07-30T00:00:00Z"),
                         ("same", "2026-07-30T02:00:00Z")]

    def test_malformed_payload_recovers(self, bench_history):
        for garbage in (None, [], "not json-shaped", {"history": "nope"}):
            merged = bench_history.merge_bench_history(garbage, entry(bench_history))
            assert len(merged["history"]) == 1

    def test_git_sha_resolves_in_this_repo(self, bench_history):
        sha = bench_history.git_sha(ROOT)
        assert sha == "unknown" or (len(sha) == 40 and int(sha, 16) >= 0)

    def test_utc_timestamp_shape(self, bench_history):
        stamp = bench_history.utc_timestamp()
        assert len(stamp) == 20 and stamp.endswith("Z") and stamp[4] == "-"

class TestObsRideAlong:
    """The optional ``repro.obs`` span summary riding in each entry."""

    def test_entry_includes_obs_when_given(self, bench_history):
        summary = {"runner.sweep": {"count": 1, "total_s": 0.5, "max_s": 0.5}}
        made = bench_history.make_entry(
            {"pipeline_fig4": {"speedup": 6.0}},
            sha="abc", timestamp="2026-07-30T00:00:00Z", scale=1.0,
            python="3.12.0", numpy="2.0.0", obs=summary,
        )
        assert made["obs"] == summary
        made["obs"]["extra"] = {}  # the entry owns its own top-level dict
        assert "extra" not in summary

    def test_entry_omits_obs_when_absent_or_empty(self, bench_history):
        for quiet in (None, {}):
            made = bench_history.make_entry(
                {"pipeline_fig4": {"speedup": 6.0}},
                sha="abc", timestamp="2026-07-30T00:00:00Z", scale=1.0,
                python="3.12.0", numpy="2.0.0", obs=quiet,
            )
            assert "obs" not in made

    def test_history_preserves_obs(self, bench_history):
        summary = {"runner.job": {"count": 4, "total_s": 1.0, "max_s": 0.3}}
        made = bench_history.make_entry(
            {"pipeline_fig4": {"speedup": 6.0}},
            sha="abc", timestamp="2026-07-30T00:00:00Z", scale=1.0,
            python="3.12.0", numpy="2.0.0", obs=summary,
        )
        merged = bench_history.merge_bench_history({}, made)
        assert merged["history"][-1]["obs"] == summary
        # but the latest-wins results view stays obs-free
        assert "obs" not in merged["results"]

    def test_obs_summary_quiet_by_default(self, bench_history):
        # benches run without REPRO_OBS; the helper must contribute nothing
        import os
        assert not os.environ.get("REPRO_OBS")
        assert bench_history.obs_summary() is None


class TestHostProvenance:
    """Each entry says which host produced its numbers."""

    HOST = {"cpu_model": "Example CPU @ 2.0GHz", "nproc": 2,
            "python": "3.12.0", "numpy": "2.0.0",
            "loadavg_before": [0.5, 0.25, 0.125],
            "calibration": {"python_loop_s": 0.07, "numpy_sort_s": 0.015}}

    def test_host_record_reads_perfbench_hostinfo(self, bench_history):
        host = bench_history.host_record()
        assert isinstance(host["cpu_model"], str) and host["cpu_model"]
        assert isinstance(host["nproc"], int) and host["nproc"] >= 1
        assert len(host["loadavg_before"]) == 3
        assert host["calibration"]["python_loop_s"] > 0

    def test_entry_records_host(self, bench_history):
        made = bench_history.make_entry(
            {"pipeline_fig4": {"speedup": 6.0}},
            sha="abc", timestamp="2026-07-30T00:00:00Z", scale=1.0,
            python="3.12.0", numpy="2.0.0", host=self.HOST,
        )
        assert made["host"] == self.HOST
        made["host"]["nproc"] = 64  # the entry owns its own top-level dict
        assert self.HOST["nproc"] == 2
        assert "host" not in entry(bench_history)  # omitted when not given

    def test_pre_host_payload_merges_cleanly(self, bench_history):
        """History written before entries carried a host keeps its entries
        as they were, next to the new host-stamped one."""
        old = bench_history.merge_bench_history(
            {}, entry(bench_history, sha="old",
                      results={"pipeline_fig4": {"speedup": 5.0}}))
        assert "host" not in old and "host" not in old["history"][0]
        made = bench_history.make_entry(
            {"queue_kernel_load93": {"speedup": 3.0}},
            sha="new", timestamp="2026-07-30T01:00:00Z", scale=1.0,
            python="3.12.0", numpy="2.0.0", host=self.HOST,
        )
        merged = bench_history.merge_bench_history(old, made)
        assert [h.get("host") for h in merged["history"]] == [None, self.HOST]
        assert set(merged["results"]) == {"pipeline_fig4", "queue_kernel_load93"}
