"""Chaos soak: real broker/worker processes under kill, freeze, and bounce.

The interleaving suite (`test_distrib_interleave.py`) proves the broker's
state machine correct one scripted ordering at a time; this file proves
the *deployed* stack — subprocesses, TCP, SIGKILL — converges to the same
bytes.  The headline scenario is the ISSUE's acceptance criterion: a
broker SIGKILLed mid-sweep and restarted on the same port (same journal
directory) must complete the sweep with output byte-identical to the
serial backend, the driver riding out the outage through
reconnect-with-backoff and the workers rejoining on their own.

The shaped-network classes cover the *degraded* (not severed) half of the
fault model: workers joining and heartbeating through a
:class:`~repro.distrib.shaping.ShapingProxy` with half-second latency,
jitter, and stutter freezes must never be falsely reaped, and a sweep
whose tail chunk lands on a pathologically slow worker must finish via a
hedged duplicate — byte-identical to serial in both cases.

Scale is 0.01 by default; the CI ``chaos-soak`` lane raises it via
``REPRO_CHAOS_SCALE=0.02`` for a longer mid-sweep window.
"""

import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.distrib import DistributedRunner, LinkShape, ShapingProxy
from repro.experiments.config import ExperimentConfig
from repro.runner import JobSpec, ParallelRunner

POLL_TIMEOUT = 300.0
SCALE = float(os.environ.get("REPRO_CHAOS_SCALE", "0.01"))
SRC_ROOT = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(scale=SCALE, seed=7)


@pytest.fixture(scope="module")
def jobs(cfg):
    """Six independent conditions → six chunks: a real mid-sweep window."""
    return [
        JobSpec.from_config(cfg, scheme, "random", load)
        for scheme in ("adaptive", "static")
        for load in (0.3, 0.67, 0.9)
    ]


@pytest.fixture(scope="module")
def serial_blobs(jobs):
    return [pickle.dumps(r) for r in ParallelRunner(jobs=1).run(jobs)]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _await_port(port: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
            return
        except OSError:
            time.sleep(0.1)
    raise TimeoutError(f"nothing listening on 127.0.0.1:{port}")


def _spawn(*args: str, extra_env=None, stderr=None) -> subprocess.Popen:
    """``python -m repro *args``; *stderr* is a file to log to (default:
    discarded)."""
    env = os.environ.copy()
    env["PYTHONPATH"] = (
        SRC_ROOT + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else SRC_ROOT
    )
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL if stderr is None else stderr,
    )


def _spawn_broker(port: int, journal_dir: str) -> subprocess.Popen:
    proc = _spawn(
        "broker", "--listen", f"127.0.0.1:{port}",
        "--heartbeat-timeout", "5", "--journal-dir", journal_dir,
    )
    _await_port(port)
    return proc


def _spawn_worker(port: int, extra_env=None, stderr=None) -> subprocess.Popen:
    return _spawn(
        "worker", "--connect", f"127.0.0.1:{port}",
        "--heartbeat", "0.5", "--reconnects", "40",
        extra_env=extra_env, stderr=stderr,
    )


def _await_text(path: Path, text: str, timeout: float = 120.0) -> bool:
    """Wait until the file at *path* contains *text*; whether it did."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and text in path.read_text(errors="replace"):
            return True
        time.sleep(0.1)
    return False


def _reap(*procs: subprocess.Popen) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass


class TestBrokerBounce:
    def test_sigkill_bounce_mid_sweep_is_byte_identical(
        self, tmp_path, jobs, serial_blobs
    ):
        """SIGKILL the broker after the first result; restart on the same
        port with the same journal; the sweep must finish byte-identical
        to serial with no job outcome lost or duplicated."""
        port = _free_port()
        journal_dir = str(tmp_path / "journal")
        state = {"broker": _spawn_broker(port, journal_dir), "bounced": False}
        workers = [_spawn_worker(port) for _ in range(2)]

        def maybe_bounce(snapshot):
            # runs in the driver's receive loop: by the time the next
            # recv() hits the dead socket, the replacement broker is
            # already listening on the same port with the same journal
            if snapshot.done >= 1 and not state["bounced"]:
                state["bounced"] = True
                state["broker"].send_signal(signal.SIGKILL)
                state["broker"].wait(timeout=10)
                state["broker"] = _spawn_broker(port, journal_dir)

        runner = DistributedRunner(
            broker=f"127.0.0.1:{port}",
            progress=maybe_bounce,
            poll_timeout=POLL_TIMEOUT,
            reconnect_attempts=40,
            reconnect_delay=0.25,
        )
        try:
            results = runner.run(jobs)
            assert state["bounced"], (
                "the sweep finished before any bounce was injected — "
                "the scenario did not exercise broker recovery"
            )
            assert [pickle.dumps(r) for r in results] == serial_blobs
        finally:
            _reap(state["broker"], *workers)

    def test_bounce_plus_worker_kill_and_freeze(
        self, tmp_path, jobs, serial_blobs
    ):
        """The full chaos schedule at once: one worker dies mid-job, one
        freezes (stops heartbeating) mid-sweep, and the broker is
        SIGKILL-bounced — output must still match serial exactly.

        Each faulty worker joins alone, so the chunks that trip its fault
        are surely its own, however fast workers start up: the dying one
        first, then the freezing one once it has died, and the two plain
        workers once the freeze has fired (its stderr says so)."""
        port = _free_port()
        journal_dir = str(tmp_path / "journal")
        freeze_log = tmp_path / "freeze-worker.log"
        state = {"broker": _spawn_broker(port, journal_dir), "bounced": False}
        workers = [_spawn_worker(port, extra_env={
            "REPRO_WORKER_DIE_AFTER_CHUNKS": "1"})]

        def join_the_rest():
            try:
                state["died"] = workers[0].wait(timeout=60)
                with open(freeze_log, "wb") as log:
                    workers.append(_spawn_worker(port, extra_env={
                        "REPRO_WORKER_FREEZE_AFTER_CHUNKS": "2"}, stderr=log))
                state["froze"] = _await_text(freeze_log, "freezing on chunk 2")
            finally:
                workers.extend([_spawn_worker(port), _spawn_worker(port)])

        joiner = threading.Thread(target=join_the_rest, daemon=True)
        joiner.start()

        def maybe_bounce(snapshot):
            if snapshot.done >= 1 and not state["bounced"]:
                state["bounced"] = True
                state["broker"].send_signal(signal.SIGKILL)
                state["broker"].wait(timeout=10)
                state["broker"] = _spawn_broker(port, journal_dir)

        runner = DistributedRunner(
            broker=f"127.0.0.1:{port}",
            progress=maybe_bounce,
            poll_timeout=POLL_TIMEOUT,
            reconnect_attempts=40,
            reconnect_delay=0.25,
        )
        try:
            results = runner.run(jobs)
            assert state["bounced"]
            assert state.get("died") == 86, "worker did not die"
            assert state.get("froze"), "worker did not freeze"
            assert [pickle.dumps(r) for r in results] == serial_blobs
        finally:
            joiner.join(timeout=200)
            _reap(state["broker"], *workers)


class TestShapedNetwork:
    def test_shaped_links_no_false_deaths_byte_identical(
        self, tmp_path, jobs, serial_blobs
    ):
        """Workers joined through a 500 ms ± 200 ms link with 5% stutter
        freezes are *slow*, never *dead*: the sweep must complete with
        zero retries (a retry here could only come from a false-positive
        reap of a responsive worker) and byte-identical output."""
        port = _free_port()
        journal_dir = str(tmp_path / "journal")
        broker = _spawn_broker(port, journal_dir)
        shape = LinkShape(latency=0.5, jitter=0.2,
                          stutter_rate=0.05, stutter_duration=0.25)
        proxy = ShapingProxy(upstream=("127.0.0.1", port), shape=shape,
                             seed=42).start()
        workers = [_spawn_worker(proxy.address[1]) for _ in range(2)]
        runner = DistributedRunner(
            broker=f"127.0.0.1:{port}",  # only the workers ride the bad link
            poll_timeout=POLL_TIMEOUT,
            reconnect_attempts=40,
            reconnect_delay=0.25,
        )
        try:
            results = runner.run(jobs)
            assert [pickle.dumps(r) for r in results] == serial_blobs
            assert runner.retries_observed == 0, (
                "a shaped-but-responsive worker was reaped as dead"
            )
        finally:
            proxy.close()
            _reap(broker, *workers)

    def test_degraded_worker_tail_completes_via_hedge(
        self, jobs, serial_blobs
    ):
        """One worker 20×-degraded (3 s heartbeats against a 4 s timeout,
        20 s per chunk): the tail chunk it sits on must finish through a
        hedged duplicate on a healthy worker — not by waiting out the
        slow worker, not by declaring it dead."""
        runner = DistributedRunner(workers=3, heartbeat_interval=0.5,
                                   heartbeat_timeout=4.0,
                                   poll_timeout=POLL_TIMEOUT)
        try:
            # joins first => lowest worker id => first dispatch picks it
            runner.spawn_worker(extra_env={
                "REPRO_WORKER_FORCE_HEARTBEAT": "3.0",
                "REPRO_WORKER_SLOW_CHUNK_SECONDS": "20",
            })
            assert runner.wait_for_workers(1, timeout=60)
            runner.spawn_worker()
            runner.spawn_worker()
            assert runner.wait_for_workers(3, timeout=60)
            results = runner.run(jobs)
            assert [pickle.dumps(r) for r in results] == serial_blobs
            assert runner.hedges_observed >= 1, (
                "the sweep finished without hedging — the slow-worker "
                "tail scenario was not exercised"
            )
            assert runner.retries_observed == 0, (
                "a slow-but-alive worker was reaped (hedges must rescue "
                "the tail without any death/retry)"
            )
        finally:
            runner.close()


class TestDriverReconnect:
    def test_driver_survives_broker_coming_up_late(self, tmp_path, jobs,
                                                   serial_blobs):
        """The driver's backoff also covers the broker not being there
        *yet*: start the sweep first, the cluster half a second later."""
        port = _free_port()
        journal_dir = str(tmp_path / "journal")
        procs = []

        def cluster_up():
            time.sleep(0.5)
            procs.append(_spawn_broker(port, journal_dir))
            procs.extend(_spawn_worker(port) for _ in range(2))

        starter = threading.Thread(target=cluster_up, daemon=True)
        runner = DistributedRunner(
            broker=f"127.0.0.1:{port}",
            poll_timeout=POLL_TIMEOUT,
            reconnect_attempts=40,
            reconnect_delay=0.25,
        )
        starter.start()
        try:
            results = runner.run(jobs[:2])
            assert [pickle.dumps(r) for r in results] == serial_blobs[:2]
        finally:
            starter.join(timeout=30)
            _reap(*procs)
