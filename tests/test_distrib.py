"""Tests for the distributed execution backend (`repro.distrib`).

Unit layer: protocol helpers (addresses, chunking, failures, progress) and
backend selection, no sockets.  Integration layer: real broker + worker
subprocesses over localhost TCP, asserting the ISSUE's acceptance
criteria — distributed results byte-identical to serial, including under
a forced mid-job worker death; fingerprint-mismatched workers rejected
with a clear error; exhausted retries surfacing structured failures.
"""

import ast
import os
import pickle
import socket
import statistics
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Client, Listener
from pathlib import Path

import pytest

from repro.distrib import (
    Broker,
    DistributedRunner,
    DistributedSweepError,
    JobFailure,
    ProgressPrinter,
    ProgressSnapshot,
)
from repro.distrib import worker as worker_module
from repro.distrib.protocol import (
    DEFAULT_AUTHKEY,
    accept_connection,
    authkey_from_env,
    chunk_jobs,
    format_address,
    open_connection,
    parse_address,
)
from repro.experiments.config import ExperimentConfig
from repro.runner import JobSpec, ParallelRunner, ResultCache, make_runner
from repro.runner.cache import code_fingerprint

POLL_TIMEOUT = 300.0  # driver watchdog: generous for slow CI boxes
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


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
    return [pickle.dumps(s) for s in ParallelRunner(jobs=1).run(jobs)]


@pytest.fixture(scope="module")
def cluster():
    """One shared 2-worker embedded cluster for the happy-path tests."""
    runner = DistributedRunner(workers=2, heartbeat_interval=0.5,
                               poll_timeout=POLL_TIMEOUT)
    yield runner
    runner.close()


# ----------------------------------------------------------------------
# unit: protocol helpers


class TestAddresses:
    def test_parse_host_port(self):
        assert parse_address("broker.example:7077") == ("broker.example", 7077)

    def test_parse_bare_port_binds_localhost(self):
        assert parse_address(":7077") == ("127.0.0.1", 7077)

    def test_parse_tuple_passthrough(self):
        assert parse_address(("h", 1)) == ("h", 1)

    def test_roundtrip(self):
        assert parse_address(format_address(("a", 2))) == ("a", 2)

    def test_rejects_garbage(self):
        for bad in ("nohost", "h:", "h:port"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_authkey_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISTRIB_AUTHKEY", raising=False)
        default = authkey_from_env()
        monkeypatch.setenv("REPRO_DISTRIB_AUTHKEY", "sekrit")
        assert authkey_from_env() == b"sekrit"
        assert authkey_from_env("cli-wins") == b"cli-wins"
        monkeypatch.delenv("REPRO_DISTRIB_AUTHKEY")
        assert authkey_from_env() == default


class TestChunking:
    def test_unkeyed_jobs_are_singleton_chunks(self):
        chunks = chunk_jobs([(0, None, "a"), (1, None, "b")], n_workers=4)
        assert chunks == [[(0, "a")], [(1, "b")]]

    def test_keyed_group_splits_for_stealing(self):
        entries = [(i, "cond", f"job{i}") for i in range(8)]
        chunks = chunk_jobs(entries, n_workers=2)
        # at most 2*workers chunks per group, every job exactly once
        assert len(chunks) == 4
        flat = [seq for chunk in chunks for seq, _ in chunk]
        assert flat == list(range(8))  # contiguous, deterministic order

    def test_small_group_stays_fine_grained(self):
        entries = [(i, "cfg", i) for i in range(3)]
        assert [len(c) for c in chunk_jobs(entries, n_workers=2)] == [1, 1, 1]

    def test_balanced_split(self):
        entries = [(i, "k", i) for i in range(7)]
        sizes = [len(c) for c in chunk_jobs(entries, n_workers=1)]
        assert sum(sizes) == 7
        assert max(sizes) - min(sizes) <= 1

    def test_interleaved_keys_group_across_gaps(self):
        entries = [(0, "x", 0), (1, None, 1), (2, "x", 2), (3, "x", 3),
                   (4, "x", 4), (5, "x", 5)]
        chunks = chunk_jobs(entries, n_workers=1)
        # the five "x" jobs group across the unkeyed gap, then split into
        # 2*workers chunks; the unkeyed job stays a singleton
        grouped = [c for c in chunks if len(c) > 1]
        assert grouped == [[(0, 0), (2, 2), (3, 3)], [(4, 4), (5, 5)]]
        assert [(1, 1)] in chunks


class TestFailures:
    def test_job_failure_str(self):
        failure = JobFailure(seq=3, attempts=2, reason="worker 9 died mid-chunk")
        assert "job #3" in str(failure)
        assert "2 attempt(s)" in str(failure)

    def test_sweep_error_lists_failures(self):
        err = DistributedSweepError([JobFailure(0, 3, "boom"),
                                     JobFailure(4, 3, "bang")])
        assert "2 sweep job(s)" in str(err)
        assert "boom" in str(err) and "bang" in str(err)
        assert [f.seq for f in err.failures] == [0, 4]


class TestProgress:
    def test_snapshot_roundtrip_and_format(self):
        snap = ProgressSnapshot.from_dict(
            {"total": 4, "done": 2, "running": 1, "queued": 1,
             "failed": 0, "workers": 2, "retries": 1, "junk": 9})
        line = snap.format()
        assert "done 2/4" in line and "retries 1" in line
        assert "FAILED" not in line
        assert "FAILED 1" in ProgressSnapshot(total=1, failed=1).format()

    def test_printer_dedupes_and_targets_stream(self):
        import io

        sink = io.StringIO()
        printer = ProgressPrinter(stream=sink)
        snap = ProgressSnapshot(total=2, done=1)
        printer(snap)
        printer(snap)  # identical: not repeated
        printer(ProgressSnapshot(total=2, done=2))
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[distrib] ")

    def test_format_health_and_hedges(self):
        snap = ProgressSnapshot.from_dict(
            {"total": 4, "done": 2, "running": 1, "queued": 1,
             "workers": 3, "hedges": 2,
             "worker_health": [(2, "ok"), (3, "slow"), (5, "dead")]})
        line = snap.format()
        assert "hedges 2" in line
        assert "w3:slow" in line and "w5:dead" in line
        assert "w2" not in line, "healthy workers must not cost line width"
        # all-ok clusters stay exactly as terse as before
        quiet = ProgressSnapshot(total=4, done=4, workers=2,
                                 worker_health=((1, "ok"), (2, "ok")))
        assert "[" not in quiet.format() and "hedges" not in quiet.format()

    def test_printer_truncates_instead_of_wrapping(self):
        import io

        sink = io.StringIO()
        printer = ProgressPrinter(stream=sink, width=40)
        busy = ProgressSnapshot(
            total=100, done=42, running=9, queued=49, workers=9, hedges=3,
            worker_health=tuple((i, "slow") for i in range(1, 10)))
        printer(busy)
        [line] = sink.getvalue().splitlines()
        assert len(line) == 40
        assert line.endswith("…")
        # two snapshots identical after truncation print once
        printer(ProgressSnapshot(
            total=100, done=42, running=9, queued=49, workers=9, hedges=3,
            worker_health=tuple((i, "slow") for i in range(1, 11))))
        assert len(sink.getvalue().splitlines()) == 1

    def test_printer_unlimited_when_not_a_tty(self):
        import io

        sink = io.StringIO()  # isatty() is False: redirected-log behavior
        printer = ProgressPrinter(stream=sink)
        busy = ProgressSnapshot(
            total=100, done=42, running=9, queued=49, workers=9,
            worker_health=tuple((i, "slow") for i in range(1, 40)))
        printer(busy)
        [line] = sink.getvalue().splitlines()
        assert line.endswith("]") and "…" not in line


class TestWorkerStderrRelay:
    """Regression: embedded worker stderr must not tear progress lines.

    Workers used to inherit the driver's stderr fd, so a worker writing
    (join notices, tracebacks) mid-update could intersperse bytes inside a
    :class:`ProgressPrinter` line.  The relay re-emits every worker line
    as a single labeled ``write()``, the same atomicity unit the printer
    itself uses.
    """

    class _WriteRecorder:
        """A stream recording each individual write() call."""

        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

        def flush(self):
            pass

    def test_relay_emits_whole_prefixed_lines_only(self):
        import io

        from repro.distrib.runner import _relay_stderr

        sink = self._WriteRecorder()
        # chunked source: iteration yields lines regardless of how the
        # worker buffered its writes; last line lacks the newline (a
        # truncated write at death)
        pipe = io.StringIO("joined broker as worker 3\n"
                           "Traceback (most recent call last):\n"
                           "  boom")
        _relay_stderr(pipe, "[worker 3] ", stream=sink)
        assert sink.writes == [
            "[worker 3] joined broker as worker 3\n",
            "[worker 3] Traceback (most recent call last):\n",
            "[worker 3]   boom\n",
        ]

    def test_concurrent_relays_and_printer_never_intersperse(self):
        import io
        import threading

        from repro.distrib.runner import _relay_stderr

        sink = self._WriteRecorder()
        printer = ProgressPrinter(stream=sink, prefix="[distrib] ")
        threads = [
            threading.Thread(target=_relay_stderr, args=(
                io.StringIO("".join(f"worker {w} line {i}\n" for i in range(50))),
                f"[worker {w}] ", sink))
            for w in range(2)
        ]
        for t in threads:
            t.start()
        for i in range(50):
            printer(ProgressSnapshot(total=100, done=i))
        for t in threads:
            t.join()
        # every write call is exactly one whole labeled line — interleaved
        # between writers perhaps, but never torn mid-line
        assert len(sink.writes) == 150
        for write in sink.writes:
            assert write.endswith("\n") and write.count("\n") == 1
            assert write.startswith(("[distrib] ", "[worker 0] ", "[worker 1] "))

    def test_embedded_worker_lines_are_labeled(self, jobs, serial_blobs, capfd):
        runner = DistributedRunner(workers=1, heartbeat_interval=0.5,
                                   poll_timeout=POLL_TIMEOUT)
        try:
            blobs = [pickle.dumps(s) for s in runner.run(jobs)]
        finally:
            runner.close()
        assert blobs == serial_blobs
        err = capfd.readouterr().err
        joined = [line for line in err.splitlines() if "joined broker" in line]
        assert joined and all(line.startswith("[worker 0] ") for line in joined)


class TestBackendSelection:
    def test_auto_maps_jobs(self):
        assert make_runner(jobs=1).backend == "serial"
        assert make_runner(jobs=3).backend == "process"

    def test_explicit_serial_ignores_jobs(self):
        runner = make_runner(backend="serial", jobs=8)
        assert runner.backend == "serial" and runner.jobs == 1

    def test_distributed_constructs_lazily(self):
        runner = make_runner(backend="distributed", jobs=3)
        assert runner.backend == "distributed"
        assert isinstance(runner, DistributedRunner)
        assert runner.workers == 3
        runner.close()  # nothing was started: close is a no-op

    def test_broker_implies_distributed(self):
        runner = make_runner(broker="h:1")
        assert runner.backend == "distributed"
        runner.close()

    def test_rejects_unknown_backend_and_misplaced_options(self):
        with pytest.raises(ValueError):
            make_runner(backend="threads")
        with pytest.raises(ValueError):
            make_runner(backend="process", jobs=2, broker="h:1")
        with pytest.raises(ValueError):
            make_runner(backend="serial", max_retries=3)


# ----------------------------------------------------------------------
# integration: real broker + worker subprocesses


class TestDistributedMatchesSerial:
    def test_byte_identical_and_progress(self, cluster, jobs, serial_blobs):
        snapshots = []
        cluster.progress = snapshots.append
        try:
            results = cluster.run(jobs)
        finally:
            cluster.progress = None
        assert [pickle.dumps(r) for r in results] == serial_blobs
        assert snapshots, "broker pushed no progress"
        final = snapshots[-1]
        assert (final.total, final.done, final.failed) == (2, 2, 0)
        dones = [s.done for s in snapshots]
        assert dones == sorted(dones)  # completion only moves forward

    def test_repeat_run_stays_identical(self, cluster, jobs, serial_blobs):
        results = cluster.run(jobs)
        assert [pickle.dumps(r) for r in results] == serial_blobs

    def test_cache_hits_skip_the_cluster(self, cluster, jobs, serial_blobs,
                                         tmp_path):
        cluster.cache = ResultCache(tmp_path)
        try:
            first = cluster.run(jobs)
            executed = cluster.executed
            again = cluster.run(jobs)
            assert cluster.executed == executed  # all hits, nothing submitted
            assert cluster.cache_hits == len(jobs)
        finally:
            cluster.cache = None
        assert [pickle.dumps(r) for r in first] == serial_blobs
        assert [pickle.dumps(r) for r in again] == serial_blobs

    def test_extension_studies_identical(self, cluster, cfg):
        """The record-then-replay studies pickle identically on the
        cluster and serially."""
        from repro.experiments.extensions import (
            run_granularity_comparison, run_localization_study,
            run_multihop_ablation)

        studies = [
            lambda runner: run_multihop_ablation(cfg, hops=(1, 2), runner=runner),
            lambda runner: run_granularity_comparison(n_packets=3000,
                                                      runner=runner),
            lambda runner: run_localization_study(n_packets=2000,
                                                  runner=runner).as_rows(),
        ]
        for study in studies:
            serial = study(None)
            distributed = study(cluster)
            assert serial == distributed
            assert pickle.dumps(serial) == pickle.dumps(distributed)


class TestFaultTolerance:
    def test_worker_death_requeues_and_output_identical(self, jobs, serial_blobs):
        runner = DistributedRunner(workers=2, heartbeat_interval=0.5,
                                   poll_timeout=POLL_TIMEOUT)
        try:
            # the doomed worker joins first => lowest id => first dispatch
            doomed = runner.spawn_worker(
                extra_env={"REPRO_WORKER_DIE_AFTER_CHUNKS": "1"})
            assert runner.wait_for_workers(1, timeout=60)
            runner.spawn_worker()
            assert runner.wait_for_workers(2, timeout=60)
            results = runner.run(jobs)
            assert doomed.wait(timeout=30) == 86  # it really died mid-job
            assert runner.retries_observed >= 1  # the requeue happened
            assert [pickle.dumps(r) for r in results] == serial_blobs
        finally:
            runner.close()

    def test_hung_worker_detected_by_heartbeat_and_requeued(
            self, jobs, serial_blobs):
        """A worker that goes silent (no crash, no EOF) is declared dead
        once heartbeats stop and its chunk reruns elsewhere.  Hedging is
        pinned off so the death/requeue path itself is what completes the
        sweep (with hedges on, a duplicate dispatch would usually rescue
        the chunk before the reaper fires — that path has its own tests)."""
        runner = DistributedRunner(workers=2, heartbeat_interval=0.3,
                                   heartbeat_timeout=2.0,
                                   max_hedges_per_chunk=0,
                                   poll_timeout=POLL_TIMEOUT)
        try:
            runner.spawn_worker(
                extra_env={"REPRO_WORKER_FREEZE_AFTER_CHUNKS": "1"})
            assert runner.wait_for_workers(1, timeout=60)
            runner.spawn_worker()
            assert runner.wait_for_workers(2, timeout=60)
            results = runner.run(jobs)
            assert runner.retries_observed >= 1
            assert [pickle.dumps(r) for r in results] == serial_blobs
        finally:
            runner.close()

    def test_partial_worker_join_fails_loudly(self, jobs):
        """A worker that crashes on spawn must fail the run with a clear
        partial-join error, not silently run at half the parallelism
        (the old _ensure_cluster waited for 1 worker regardless of
        how many were requested)."""

        class OneBadSpawn(DistributedRunner):
            sabotaged = False

            def spawn_worker(self, extra_env=None):
                if not OneBadSpawn.sabotaged:
                    OneBadSpawn.sabotaged = True
                    extra_env = dict(extra_env or {},
                                     REPRO_WORKER_FINGERPRINT="bogus")
                return super().spawn_worker(extra_env)

        runner = OneBadSpawn(workers=2, heartbeat_interval=0.5,
                             poll_timeout=POLL_TIMEOUT)
        try:
            with pytest.raises(RuntimeError,
                               match=r"1 of 2 workers joined"):
                runner.run(jobs)
        finally:
            runner.close()

    def test_partial_join_waits_for_a_slow_sibling(self, jobs):
        """A rejected worker exiting first must not cut the join short
        while its sibling is still starting: the error counts the sibling
        that did join ("1 of 2"), not a snapshot taken mid-spawn."""

        class SlowSibling(DistributedRunner):
            spawned = 0

            def spawn_worker(self, extra_env=None):
                SlowSibling.spawned += 1
                if SlowSibling.spawned == 1:
                    extra_env = dict(extra_env or {},
                                     REPRO_WORKER_FINGERPRINT="bogus")
                else:
                    time.sleep(2.0)  # the bogus worker is rejected meanwhile
                return super().spawn_worker(extra_env)

        runner = SlowSibling(workers=2, heartbeat_interval=0.5,
                             poll_timeout=POLL_TIMEOUT)
        try:
            with pytest.raises(RuntimeError,
                               match=r"1 of 2 workers joined"):
                runner.run(jobs)
        finally:
            runner.close()

    def test_exhausted_retries_surface_structured_failure(self, jobs):
        runner = DistributedRunner(workers=1, max_retries=0,
                                   heartbeat_interval=0.5,
                                   poll_timeout=POLL_TIMEOUT)
        try:
            runner.spawn_worker(
                extra_env={"REPRO_WORKER_DIE_AFTER_CHUNKS": "1"})
            assert runner.wait_for_workers(1, timeout=60)
            with pytest.raises(DistributedSweepError) as excinfo:
                runner.run(jobs[:1])
            failures = excinfo.value.failures
            assert [f.seq for f in failures] == [0]
            assert failures[0].attempts == 1
            assert "died" in failures[0].reason
        finally:
            runner.close()

    def test_job_exception_is_retried_then_surfaced(self, cfg):
        """A deterministically-raising job burns its retries and comes back
        as a structured failure, not a hang or a silent None."""
        # picklable and worker-importable, but guaranteed to raise: the
        # injection scheme does not exist
        bad_job = JobSpec.from_config(cfg, "bogus-scheme", "random", 0.67)
        runner = DistributedRunner(workers=1, max_retries=1,
                                   heartbeat_interval=0.5,
                                   poll_timeout=POLL_TIMEOUT)
        try:
            with pytest.raises(DistributedSweepError) as excinfo:
                runner.run([bad_job])
            failure = excinfo.value.failures[0]
            assert "unknown injection scheme" in failure.reason
            assert failure.attempts == 2  # initial dispatch + 1 retry
        finally:
            runner.close()


class TestFingerprintEnforcement:
    def test_mismatched_worker_rejected_with_clear_error(self):
        broker = Broker().start()
        try:
            env = os.environ.copy()
            src_root = os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "src")
            env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
            env["REPRO_WORKER_FINGERPRINT"] = "deadbeef"
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", format_address(broker.address)],
                env=env, stderr=subprocess.PIPE, text=True)
            stderr = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 3
            assert "fingerprint mismatch" in stderr
            assert "deadbeef" in stderr
            assert broker.worker_count() == 0  # never admitted
        finally:
            broker.close()


class TestAuthkey:
    def test_embedded_cluster_with_explicit_authkey(self, jobs, serial_blobs):
        """An explicit cluster secret reaches the spawned workers too —
        broker and workers must agree or nothing would ever join."""
        runner = DistributedRunner(workers=1, authkey="private-test-key",
                                   heartbeat_interval=0.5,
                                   poll_timeout=POLL_TIMEOUT)
        try:
            results = runner.run(jobs[:1])
            assert pickle.dumps(results[0]) == serial_blobs[0]
        finally:
            runner.close()


class TestExternalBroker:
    def test_runner_drives_a_standalone_broker(self, jobs, serial_blobs):
        broker = Broker(heartbeat_timeout=10.0).start()
        runner = DistributedRunner(broker=format_address(broker.address),
                                   poll_timeout=POLL_TIMEOUT)
        try:
            runner.spawn_worker()  # a worker pointed at the external broker
            assert broker.wait_for_workers(1, timeout=60)
            results = runner.run(jobs[:1])
            assert pickle.dumps(results[0]) == serial_blobs[0]
        finally:
            runner.close()
            broker.close()


# ----------------------------------------------------------------------
# unit: lazy package exports


class TestLazyExports:
    def test_worker_import_skips_the_coordinator_modules(self):
        src_root = str(SRC.parent)
        probe = ("import sys, repro.distrib.worker; "
                 "print(*sorted(m for m in sys.modules "
                 "if m.startswith('repro.distrib')))")
        env = dict(os.environ, PYTHONPATH=src_root)
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.split() == [
            "repro.distrib", "repro.distrib.protocol", "repro.distrib.worker"]

    def test_every_export_resolves(self):
        import repro.distrib as package

        for name in package.__all__:
            value = getattr(package, name)
            assert value.__name__ == name
        with pytest.raises(AttributeError):
            package.no_such_export


# ----------------------------------------------------------------------
# integration: connection setup (no Nagle stalls, no join polling)


def nodelay(conn):
    sock = socket.socket(fileno=conn.fileno())
    try:
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        sock.detach()


def join(address, role):
    """Open a connection, say hello as *role*; the connection and reply."""
    conn = open_connection(address, DEFAULT_AUTHKEY)
    conn.send(("hello", role, code_fingerprint(), {}))
    return conn, conn.recv()


class TestConnectionSetup:
    def test_driver_connection_sets_nodelay_on_both_ends(self):
        with Broker() as broker:
            conn, reply = join(broker.address, "driver")
            try:
                assert reply[0] == "welcome"
                assert nodelay(conn)
                with broker._lock:
                    accepted = [d.conn for d in broker._drivers.values()]
                assert len(accepted) == 1 and nodelay(accepted[0])
            finally:
                conn.close()

    def test_worker_connection_sets_nodelay_on_both_ends(self, monkeypatch):
        opened = []
        real = worker_module.open_connection

        def recording(address, authkey):
            conn = real(address, authkey)
            opened.append(conn)
            return conn

        monkeypatch.setattr(worker_module, "open_connection", recording)
        broker = Broker().start()
        thread = threading.Thread(
            target=worker_module.worker_main,
            args=(format_address(broker.address),),
            kwargs={"quiet": True, "reconnects": 0}, daemon=True)
        try:
            thread.start()
            assert broker.wait_for_workers(1, timeout=30)
            with broker._lock:
                accepted = [w.conn for w in broker._workers.values()]
            assert len(opened) == 1 and nodelay(opened[0])
            assert len(accepted) == 1 and nodelay(accepted[0])
        finally:
            broker.close()
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_non_tcp_connection_is_left_alone(self, tmp_path):
        with Listener(str(tmp_path / "sock"), family="AF_UNIX") as listener:
            client = Client(listener.address)
            conn = accept_connection(listener)
            try:
                conn.send("frame")
                assert client.recv() == "frame"
            finally:
                conn.close()
                client.close()

    def test_no_connection_bypasses_the_protocol_helpers(self):
        """Every cluster connection is made by ``open_connection`` or
        ``accept_connection``; the shaping relay forwards raw sockets that
        model link delay on purpose, so it is not a cluster endpoint."""
        files = sorted((SRC / "distrib").glob("*.py")) + [SRC / "cli.py"]
        exempt = {"protocol.py", "shaping.py"}
        offenders = []
        for path in files:
            if path.name in exempt:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                    if "Client" in names:
                        offenders.append(f"{path.name}:{node.lineno} imports Client")
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = (func.id if isinstance(func, ast.Name)
                            else func.attr if isinstance(func, ast.Attribute)
                            else None)
                    if name in ("Client", "accept"):
                        offenders.append(f"{path.name}:{node.lineno} {name}()")
        assert not offenders, offenders

    def test_driver_joins_without_a_nagle_stall(self):
        """hello -> welcome on a fresh connection.  With Nagle on, the
        hello waits for the ACK of the handshake's last frame, which the
        broker delays by ~40 ms; with TCP_NODELAY it takes ~1 ms."""
        with Broker() as broker:
            latencies = []
            for _ in range(10):
                started = time.perf_counter()
                conn, reply = join(broker.address, "driver")
                latencies.append(time.perf_counter() - started)
                assert reply[0] == "welcome"
                conn.send(("bye",))
                conn.close()
        assert statistics.median(latencies) < 0.020, latencies

    def test_wait_for_workers_wakes_on_registration(self):
        """The join wait returns when the worker registers, not at the
        next tick of a poll: each joiner connects 0.1 s after the wait
        starts, just past where a 50 ms poll would have looked."""
        with Broker() as broker:
            lags = []
            conns = []
            for count in range(1, 6):
                welcomed = []

                def joiner():
                    time.sleep(0.1)
                    conn, reply = join(broker.address, "worker")
                    welcomed.append(time.perf_counter())
                    conns.append(conn)

                thread = threading.Thread(target=joiner, daemon=True)
                thread.start()
                assert broker.wait_for_workers(count, timeout=30)
                returned = time.perf_counter()
                thread.join(timeout=30)
                lags.append(returned - welcomed[0])
            for conn in conns:
                conn.close()
        assert statistics.median(lags) < 0.020, lags

    def test_worker_exiting_on_spawn_fails_fast(self, jobs):
        class BogusSpawn(DistributedRunner):
            def spawn_worker(self, extra_env=None):
                return super().spawn_worker(
                    dict(extra_env or {}, REPRO_WORKER_FINGERPRINT="bogus"))

        runner = BogusSpawn(workers=1, join_timeout=60.0,
                            poll_timeout=POLL_TIMEOUT)
        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match=r"only 0 of 1 workers joined"):
                runner.run(jobs[:1])
        finally:
            runner.close()
        assert time.monotonic() - started < 30.0
