"""Per-commit history for the tracked ``BENCH_pipeline.json`` trajectory.

The bench file used to be overwritten on every run, so the repo only ever
recorded the *latest* numbers.  :func:`merge_bench_history` keeps both
views in one document:

* ``results`` — the latest-wins flat view the CI smoke lanes assert on
  (unchanged shape, so existing consumers keep working);
* ``history`` — an append-only list of run entries, each keyed by git SHA
  and UTC timestamp, so the perf trajectory across commits survives in
  the tracked file instead of only in CI artifacts.

The merge is a pure function over plain dicts (unit-tested from the main
suite); the I/O lives in the bench fixture that calls it.
"""

import importlib.util
import pathlib
import subprocess
import time

HISTORY_LIMIT = 200  # runs kept; plenty for a per-commit trajectory


def git_sha(repo_root) -> str:
    """The current commit hash, or ``"unknown"`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def utc_timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def obs_summary() -> "dict | None":
    """This process's ``repro.obs`` span summary, or None when quiet.

    Benches run with ``REPRO_OBS=1`` (or after ``repro.obs.enable()``)
    get their per-stage totals persisted alongside the numbers; a run
    without observability — the default, and what honest timings want —
    contributes nothing.
    """
    try:
        from repro import obs
    except ImportError:
        return None
    if not obs.enabled():
        return None
    return obs.span_summary() or None


def host_record() -> dict:
    """The host record ``perfbench/hostinfo.py`` stores with every
    benchmark run: CPU model, core count, load average and the
    pure-Python loop calibration, so two entries can be told apart as a
    slower host or slower code."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "hostinfo.py"
    spec = importlib.util.spec_from_file_location("perfbench_hostinfo", path)
    hostinfo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hostinfo)
    return hostinfo.host_record()


def make_entry(results: dict, *, sha: str, timestamp: str, scale: float,
               python: str, numpy: str, obs: "dict | None" = None,
               host: "dict | None" = None) -> dict:
    """One history entry: this run's provenance plus its results.

    *obs* is an optional ``repro.obs`` span summary (per-stage
    ``{name: {count, total_s, max_s}}`` totals) recorded when the bench
    session ran with observability on; it rides along in the entry so
    the tracked perf trajectory also shows *where* the time went.
    *host* is the :func:`host_record` of the machine that produced the
    numbers.
    """
    entry = {
        "git_sha": sha,
        "timestamp": timestamp,
        "scale": scale,
        "python": python,
        "numpy": numpy,
        "results": dict(results),
    }
    if obs:
        entry["obs"] = dict(obs)
    if host:
        entry["host"] = dict(host)
    return entry


def merge_bench_history(payload, entry: dict, limit: int = HISTORY_LIMIT) -> dict:
    """Append *entry* to *payload*'s history, refreshing the latest view.

    * ``history`` grows by one entry per run (bounded by *limit*, oldest
      dropped first); consecutive runs on one commit each get their own
      entry — the timestamp disambiguates.
    * top-level ``results`` stays latest-wins per bench name: a partial
      run (e.g. ``-k`` selecting one bench) refreshes only the benches it
      ran, exactly as before.
    * top-level provenance (``scale``/``python``/``numpy``/``git_sha``/
      ``timestamp``) describes the newest run.

    A malformed or pre-history *payload* (older format, hand edits) is
    absorbed: its ``results`` seed the latest view and the history simply
    starts at this entry.
    """
    merged = dict(payload) if isinstance(payload, dict) else {}
    history = [h for h in merged.get("history", ()) if isinstance(h, dict)]
    history.append(entry)
    results = dict(merged.get("results") or {})
    results.update(entry["results"])
    merged.update(
        bench="pipeline_throughput",
        scale=entry["scale"],
        python=entry["python"],
        numpy=entry["numpy"],
        git_sha=entry["git_sha"],
        timestamp=entry["timestamp"],
        results=results,
        history=history[-limit:],
    )
    return merged
