"""`DistributedRunner`: the ParallelRunner interface over a broker.

Drop-in for :class:`~repro.runner.runner.ParallelRunner` — same ``run`` /
``run_one`` contract, same cache integration, same job-order result list —
with execution fanned out over a :class:`~repro.distrib.broker.Broker` and
its workers instead of a local ``multiprocessing`` pool.  Every experiment
driver that takes ``runner=`` therefore gains a distributed backend
without changing a line.

Two deployment shapes:

* **Embedded** (default): the runner starts a broker inside the driver
  process on an ephemeral localhost port and spawns ``workers`` local
  worker subprocesses (``python -m repro worker``).  Zero setup; this is
  what ``--backend distributed --jobs N`` does.
* **External** (``broker="host:port"``): the runner connects to a broker
  you started with ``python -m repro broker``, whose workers may live on
  any number of machines.  The runner spawns nothing.

Determinism
-----------
Results are placed by submission index (the inherited
:meth:`ParallelRunner.run` fills ``results[i]``), and sweep drivers merge
shard tables in sorted-key order — never arrival order — so the assembled
output is byte-identical to the serial backend's no matter how workers
race, die, or retry.  The fault-injection suite asserts exactly that.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
import threading
import time
import uuid
from multiprocessing.connection import Client, Connection
from pathlib import Path
from typing import (Any, Callable, Iterator, List, Optional, Sequence,
                    TextIO, Tuple)

from .. import obs
from ..runner.cache import ResultCache, code_fingerprint
from ..runner.runner import ParallelRunner, _prepare_key
from .broker import Broker
from .progress import ProgressSnapshot
from .protocol import (
    BrokerUnavailableError,
    DistributedSweepError,
    JobFailure,
    authkey_from_env,
    format_address,
    parse_address,
)

__all__ = ["DistributedRunner"]


def _relay_stderr(pipe: TextIO, label: str,
                  stream: Optional[TextIO] = None) -> None:
    """Re-emit one worker's stderr line-atomically, each line labeled.

    Embedded workers used to inherit the driver's stderr fd directly, so a
    worker writing mid-progress-update (join notices, tracebacks) could
    tear a :class:`~repro.distrib.progress.ProgressPrinter` line in half —
    two processes, one fd, no write coordination.  Routing the pipe
    through this relay makes every worker line a *single* ``write()`` of
    one whole ``label``-prefixed line, which is as atomic as the progress
    printer's own writes, so lines can interleave but never intersperse.
    """
    out = stream if stream is not None else sys.stderr
    try:
        for line in pipe:
            if not line.endswith("\n"):
                line += "\n"
            try:
                out.write(label + line)
                out.flush()
            except (OSError, ValueError):  # closed stream: best-effort
                break
    finally:
        try:
            pipe.close()
        except OSError:
            pass


class DistributedRunner(ParallelRunner):
    """Run sweep jobs on a broker/worker cluster with result caching.

    Parameters
    ----------
    workers:
        Worker subprocesses to spawn against the embedded broker (ignored
        when *broker* points at an external one).
    cache:
        Driver-side :class:`ResultCache`, exactly as on ParallelRunner:
        hits skip submission entirely, fresh results are persisted as they
        arrive, so an interrupted sweep resumes where it stopped.
    broker:
        ``"host:port"`` of an external broker; ``None`` embeds one.
    progress:
        Callback receiving :class:`ProgressSnapshot` updates (e.g. a
        :class:`~repro.distrib.progress.ProgressPrinter`); ``None`` is
        silent.
    max_retries:
        Chunk retry budget before jobs surface as structured failures
        (embedded broker only; an external broker keeps its own).
    max_hedges_per_chunk:
        Duplicate-dispatch budget per job for the embedded broker's
        hedging of tail chunks stuck on slow workers; ``0`` disables.
    heartbeat_interval / heartbeat_timeout:
        Worker liveness cadence.  The timeout defaults to 5× the interval.
        Spawned workers additionally derive their own cadence from the
        broker's advertised timeout at join time, so these two can no
        longer be configured into a self-reaping cluster.
    join_timeout:
        Seconds :meth:`_ensure_cluster` waits for the full spawned-worker
        complement before failing the run; raise it when workers join
        through slow links (e.g. a shaping proxy).
    worker_cache_dir:
        Passed to spawned workers as ``--cache-dir`` so they short-circuit
        repeats through a shared on-disk cache.
    poll_timeout:
        Driver-side watchdog: seconds without *any* broker message before
        giving up (``None`` waits forever).
    reconnect_attempts / reconnect_delay:
        Broker-outage tolerance: on a lost or refused connection the
        driver retries up to *reconnect_attempts* consecutive times,
        sleeping *reconnect_delay* seconds doubled per attempt (capped at
        5s), resubmitting its still-missing jobs under the same sweep id
        each time — against a journaled broker that means resuming, not
        restarting.  The counter resets whenever a connection delivers.
        Exhausting it raises :class:`BrokerUnavailableError`.
    journal_dir:
        Passed to the embedded broker so its queue survives the broker
        object (mostly useful in tests; an *external* broker configures
        its own journal via ``python -m repro broker --journal-dir``).
    """

    def __init__(
        self,
        workers: int = 2,
        cache: Optional[ResultCache] = None,
        broker: Optional[str] = None,
        progress: Optional[Callable[[ProgressSnapshot], None]] = None,
        authkey: Optional[str] = None,
        max_retries: int = 2,
        max_hedges_per_chunk: int = 1,
        heartbeat_interval: float = 2.0,
        heartbeat_timeout: Optional[float] = None,
        worker_cache_dir: Optional[str] = None,
        poll_timeout: Optional[float] = None,
        reconnect_attempts: int = 8,
        reconnect_delay: float = 0.5,
        journal_dir: Optional[str] = None,
        join_timeout: float = 60.0,
    ) -> None:
        super().__init__(jobs=max(1, int(workers)), cache=cache)
        self.workers = max(1, int(workers))
        self.progress = progress
        self.max_retries = max_retries
        self.max_hedges_per_chunk = max(0, int(max_hedges_per_chunk))
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else 5.0 * heartbeat_interval
        )
        self.worker_cache_dir = worker_cache_dir
        self.poll_timeout = poll_timeout
        self.reconnect_attempts = max(0, int(reconnect_attempts))
        self.reconnect_delay = reconnect_delay
        self.journal_dir = journal_dir
        self.join_timeout = float(join_timeout)
        self._authkey = authkey_from_env(authkey)
        self._external = parse_address(broker) if broker else None
        self._broker: Optional[Broker] = None
        self._procs: List[subprocess.Popen] = []
        self._relays: List[threading.Thread] = []
        self._atexit_registered = False
        self.retries_observed = 0
        self.hedges_observed = 0

    # ------------------------------------------------------------------
    # cluster lifecycle

    @property
    def backend(self) -> str:
        return "distributed"

    @property
    def address(self) -> Tuple[str, int]:
        """The broker address this runner talks to."""
        if self._external is not None:
            return self._external
        return self._embedded_broker().address

    def _embedded_broker(self) -> Broker:
        """The embedded broker, created on first use (``broker=None``)."""
        self._ensure_broker()
        broker = self._broker
        assert broker is not None, "embedded broker requires broker=None"
        return broker

    def _ensure_broker(self) -> None:
        if self._external is not None or self._broker is not None:
            return
        self._broker = Broker(
            address=("127.0.0.1", 0),
            authkey=self._authkey,
            heartbeat_timeout=self.heartbeat_timeout,
            max_retries=self.max_retries,
            journal_dir=self.journal_dir,
            max_hedges_per_chunk=self.max_hedges_per_chunk,
        ).start()
        if not self._atexit_registered:
            atexit.register(self.close)
            self._atexit_registered = True

    def spawn_worker(self, extra_env: Optional[dict] = None) -> subprocess.Popen:
        """Start one local worker subprocess against this runner's broker."""
        self._ensure_broker()
        package_root = str(Path(__file__).resolve().parent.parent.parent)
        env = os.environ.copy()
        env["PYTHONPATH"] = (
            package_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else package_root
        )
        # the worker must present the same cluster secret as the broker
        env["REPRO_DISTRIB_AUTHKEY"] = self._authkey.decode()
        # the stderr relay below labels every line; the worker's own
        # "[worker]" prefix would be redundant noise on top
        env.setdefault("REPRO_WORKER_LOG_PREFIX", "")
        if obs.enabled():
            # REPRO_OBS itself rides the environ copy (enable() exports
            # it); the label must NOT — the driver's own exported label
            # would masquerade as the worker's.  A stable per-spawn label
            # keeps the artifact's process names deterministic across
            # reconnect-assigned worker ids.
            env["REPRO_OBS_PROCESS"] = f"worker-{len(self._procs)}"
        if extra_env:
            env.update(extra_env)
        command = [
            sys.executable, "-m", "repro", "worker",
            "--connect", format_address(self.address),
            "--heartbeat", str(self.heartbeat_interval),
        ]
        if self.worker_cache_dir:
            command += ["--cache-dir", str(self.worker_cache_dir)]
        index = len(self._procs)
        proc = subprocess.Popen(command, env=env, stderr=subprocess.PIPE,
                                text=True, errors="replace")
        relay = threading.Thread(
            target=_relay_stderr, args=(proc.stderr, f"[worker {index}] "),
            daemon=True, name=f"repro-worker-stderr-{index}",
        )
        relay.start()
        self._procs.append(proc)
        self._relays.append(relay)
        return proc

    def _ensure_cluster(self) -> None:
        if self._external is not None:
            return
        broker = self._embedded_broker()
        alive = sum(1 for p in self._procs if p.poll() is None)
        spawned = [self.spawn_worker()
                   for _ in range(max(0, self.workers - alive))]
        # wait for the *full* complement, not just one: a worker that
        # crashes on spawn must fail the run loudly, not silently run the
        # sweep at a fraction of the requested parallelism.  The deadline
        # is generous and configurable (join_timeout) because a slow join
        # is not a failed join — workers connecting through a high-latency
        # path (shaping proxy, WAN) retry the handshake within their own
        # budget, and only a worker that *exited* is proof of failure.
        deadline = time.monotonic() + self.join_timeout
        while time.monotonic() < deadline:
            joined = broker.worker_count()
            if joined >= self.workers:
                return
            exited = sum(1 for p in spawned if p.poll() is not None)
            if exited and joined + exited >= self.workers:
                # a fresh worker exited and every other one has joined or
                # exited too: fail fast, but never before a sibling still
                # starting up had its chance to join (the error names the
                # true count, not a snapshot of a spawn race)
                break
            time.sleep(0.05)
        joined = broker.worker_count()
        if joined >= self.workers:
            return
        exits = [p.poll() for p in self._procs]
        raise RuntimeError(
            f"only {joined} of {self.workers} workers joined the embedded "
            f"broker (spawned {len(self._procs)}, exit codes {exits}); "
            f"check the workers' stderr — a fingerprint or authkey "
            f"mismatch exits with a reason there"
        )

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until *count* workers joined the embedded broker."""
        if self._external is not None:
            raise RuntimeError(
                "wait_for_workers needs the embedded broker; an external "
                "broker tracks its own workers"
            )
        return self._embedded_broker().wait_for_workers(count, timeout)

    def close(self) -> None:
        """Tear the embedded cluster down (idempotent)."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        for relay in self._relays:
            relay.join(timeout=5)
        self._procs.clear()
        self._relays.clear()
        if self._broker is not None:
            self._broker.close()
            self._broker = None

    def __enter__(self) -> "DistributedRunner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution (the ParallelRunner hook)

    def _iter_execute(self, jobs: Sequence) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, result)`` as the cluster completes jobs.

        Completion order is whatever the workers' race produces; the
        caller (:meth:`ParallelRunner.run`) places every pair by index,
        which is what keeps distributed output byte-identical to serial.
        Jobs that exhaust the broker's retry budget raise
        :class:`DistributedSweepError` *after* all completions were
        yielded (and therefore cached).

        A broker outage mid-sweep (bounce, partition) is survived, not
        fatal: the driver reconnects with exponential backoff and
        resubmits its still-missing jobs under the same sweep id.  A
        journaled broker replays outcomes that settled during the outage
        and resumes the rest; a fresh broker simply recomputes.  Results
        are deduplicated by seq, so a replay can never double-yield.
        """
        if not jobs:
            return
        self._ensure_cluster()
        sweep_id = uuid.uuid4().hex
        remaining = {
            seq: (_prepare_key(job), job) for seq, job in enumerate(jobs)
        }
        failures: List[JobFailure] = []
        attempts = 0
        done = False
        while not done and remaining:
            try:
                conn = Client(self.address, authkey=self._authkey)
            except (OSError, EOFError) as exc:
                attempts += 1
                self._backoff(attempts, exc)
                continue
            try:
                conn.send(("hello", "driver", code_fingerprint(),
                           {"pid": os.getpid(),
                            "workers_hint": self.workers}))
                reply = conn.recv()
                if reply[0] == "reject":
                    raise RuntimeError(
                        f"broker rejected this driver: {reply[1]}")
                entries = [(seq, key, job)
                           for seq, (key, job) in sorted(remaining.items())]
                conn.send(("submit", sweep_id, entries))
                while True:
                    if (self.poll_timeout is not None
                            and not conn.poll(self.poll_timeout)):
                        raise TimeoutError(
                            f"no broker message for {self.poll_timeout}s "
                            f"({format_address(self.address)})"
                        )
                    message = conn.recv()
                    tag = message[0]
                    if tag == "result":
                        for seq, value in message[1]:
                            if seq in remaining:
                                del remaining[seq]
                                attempts = 0
                                yield seq, value
                    elif tag == "failed":
                        for seq, tries, reason in message[1]:
                            if seq in remaining:
                                del remaining[seq]
                                attempts = 0
                                failures.append(
                                    JobFailure(seq, tries, reason))
                    elif tag == "progress":
                        snapshot = ProgressSnapshot.from_dict(message[1])
                        self.retries_observed = max(
                            self.retries_observed, snapshot.retries
                        )
                        self.hedges_observed = max(
                            self.hedges_observed, snapshot.hedges
                        )
                        if self.progress is not None:
                            self.progress(snapshot)
                    elif tag == "obs":
                        # a worker's drained span/metric buffers, relayed
                        # by the broker; folded for the run artifact
                        obs.fold_payload(message[1])
                    elif tag == "done":
                        if remaining:
                            # a broker may only say "done" after every
                            # submitted job's outcome went out; getting
                            # one early means this connection is not to
                            # be trusted — resubmit on a fresh one
                            attempts += 1
                            self._backoff(attempts, RuntimeError(
                                f"broker signalled done with "
                                f"{len(remaining)} outcome(s) missing"))
                            break
                        done = True
                        break
                if done:
                    if obs.enabled():
                        self._collect_broker_stats(conn)
                    try:
                        conn.send(("bye",))
                    except (OSError, ValueError):
                        pass
            except (EOFError, ConnectionError, OSError) as exc:
                attempts += 1
                self._backoff(attempts, exc)
            finally:
                conn.close()
        if failures:
            raise DistributedSweepError(sorted(failures, key=lambda f: f.seq))

    def _collect_broker_stats(self, conn: Connection) -> None:
        """Best-effort ``("stats",)`` query folded into the run artifact.

        The broker's lifetime counters (dispatches, requeues, hedges,
        suspect flips, heartbeat interarrivals) live broker-side; with
        obs on, the driver pulls one snapshot after the sweep settles
        and folds it under the ``broker.`` key prefix.  Telemetry only:
        any failure or timeout is swallowed — the sweep's results are
        already in hand and must not be risked for a diagnostic.
        """
        try:
            conn.send(("stats",))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if not conn.poll(0.2):
                    continue
                message = conn.recv()
                tag = message[0]
                if tag == "stats":
                    obs.fold_metrics(message[1], prefix="broker.")
                    return
                if tag == "obs":
                    obs.fold_payload(message[1])
                # anything else (late progress) is drained and dropped
        except (EOFError, ConnectionError, OSError, ValueError):
            pass

    def _backoff(self, attempts: int, exc: Exception) -> None:
        """Sleep before reconnect attempt *attempts*, or give up."""
        if attempts > self.reconnect_attempts:
            raise BrokerUnavailableError(
                f"broker at {format_address(self.address)} unreachable "
                f"after {self.reconnect_attempts} reconnect attempt(s); "
                f"last error: {exc}"
            ) from exc
        delay = min(5.0, self.reconnect_delay * (2 ** (attempts - 1)))
        time.sleep(delay)

    def __repr__(self) -> str:
        where = (
            format_address(self._external)
            if self._external is not None
            else f"embedded×{self.workers}"
        )
        return (
            f"DistributedRunner(broker={where}, cache={self.cache!r}, "
            f"executed={self.executed}, cache_hits={self.cache_hits})"
        )
