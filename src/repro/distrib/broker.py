"""The sweep broker: a small fault-tolerant job queue over TCP.

One broker serves any number of *workers* (stateless executors started
with ``python -m repro worker --connect HOST:PORT``) and *drivers*
(:class:`~repro.distrib.runner.DistributedRunner` instances submitting job
lists).  Design follows the classic batch-farming shape: the broker owns
only queue state — jobs are pure functions of their descriptors, results
flow straight back to the submitting driver, and the content-addressed
:class:`~repro.runner.cache.ResultCache` (driver-side, optionally also
worker-side on a shared filesystem) is the only result persistence.  The
queue state itself can additionally be mirrored to an on-disk
:class:`~repro.distrib.journal.SweepJournal` so a bounced broker resumes
mid-sweep instead of starting from scratch.

Fault model
-----------
* **Crashed worker** — its socket EOFs; the receiver thread requeues the
  worker's in-flight chunk immediately.
* **Hung / partitioned worker** — heartbeats stop; the monitor thread
  declares it dead after ``heartbeat_timeout`` and requeues the same way.
* **Degraded worker** — heartbeats still arrive, but late.  The monitor
  tracks each worker's heartbeat-interarrival EWMA and variance
  (phi-accrual style) and marks a worker *suspect* well before the death
  cliff: suspects are deprioritized for new dispatch, shown as ``slow``
  in the progress line, and — when the sweep is down to its tail — their
  in-flight chunk is *hedged*: a duplicate is dispatched to an idle
  worker, first result wins, the loser is cancelled.  Hedges are
  journaled (the per-chunk cap survives a broker bounce) and never count
  toward ``max_retries``.  Suspicion is advisory and reversible: a
  suspect that speaks again is simply healthy, nothing was requeued.
* **Job raised** — counted like a worker loss for that chunk (the failure
  is usually deterministic, so the retry budget bounds the damage).
* **Partitioned driver** — its connection EOFs without a ``bye``; the
  sweep is *orphaned*, not abandoned: chunks keep dispatching and
  settling, and when the driver reconnects and resubmits under the same
  sweep id it receives everything that settled while it was away.
* **Broker crash** — with a journal, unsettled jobs re-enter the queue at
  the next startup and settled outcomes replay on driver reattach; see
  :mod:`repro.distrib.journal`.

A chunk that fails more than ``max_retries`` times is not retried again:
every job still outstanding in it is surfaced to its driver as a
structured :class:`~repro.distrib.protocol.JobFailure`.  A worker declared
dead that later reports its result anyway is harmless — per-job settlement
is idempotent (first outcome wins; a job's result is a pure function of
the job, so "first" is also "only", byte for byte).

State machine
-------------
Every transition below runs under the broker lock; the threads (accept,
per-peer receive, dispatch, monitor) only decide *when* a transition
fires, never what it does — which is what lets the deterministic
interleaving harness (``tests/chaos.py``) drive the identical
transitions single-threaded.  ``docs/architecture.md`` draws the full
peer/chunk/sweep diagram; the invariants the suite replays orderings
against:

* a worker id is never in ``_idle`` while it has an assignment — a
  worker's result or error re-idles it *only* when the message's chunk id
  matches its current assignment (a stale message for a previously
  requeued or foreign chunk must neither free the worker nor discard its
  live assignment);
* every unsettled seq of a live sweep is reachable: it sits in a pending
  chunk, an assigned chunk, or (post-crash) the journal;
* settlement is keyed by the sweep's ``remaining`` set — first outcome
  per job wins, duplicates are dropped, and the ``done`` signal is sent
  atomically with the last outcome under the driver's send lock so it can
  never overtake one.

Determinism
-----------
The broker never merges results: it forwards ``(seq, value)`` pairs and
the driver places them by submission index, so completion order — which
workers raced which chunks — cannot influence the assembled sweep output.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from multiprocessing import AuthenticationError
from multiprocessing.connection import (
    Connection,
    Listener,
    answer_challenge,
    deliver_challenge,
)
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..runner.cache import code_fingerprint
from .journal import SweepJournal, load_journals
from .protocol import DEFAULT_AUTHKEY, PROTOCOL_VERSION, chunk_jobs

__all__ = ["Broker"]


class _Peer:
    """Connection-level state shared by workers and drivers."""

    def __init__(self, peer_id: int, conn: Connection, info: dict) -> None:
        self.id = peer_id
        self.conn = conn
        self.info = info or {}
        self.alive = True
        self.last_seen = time.monotonic()
        self.send_lock = threading.Lock()

    def send(self, message: object) -> None:
        with self.send_lock:
            self.conn.send(message)


# Suspicion model constants (see _Worker.observe / suspect_after).
_HB_ALPHA = 0.25       # EWMA weight for interarrival mean/variance
_HB_MIN_SAMPLES = 3    # intervals before the adaptive threshold is trusted
_HB_PHI = 4.0          # deviations of silence that make a worker suspect
_SUSPECT_FLOOR = 0.25  # x heartbeat_timeout: adaptive threshold floor
_SUSPECT_CEIL = 0.5    # x heartbeat_timeout: silence is suspicious here even
                       # for a worker whose learned cadence is slower — the
                       # model must not adapt its way past the death cliff


class _Worker(_Peer):
    """A worker peer plus its learned heartbeat cadence.

    The cadence fields are, like ``last_seen``, written only by this
    worker's receiver thread (or the scripted harness) and read by the
    monitor without the broker lock — deliberately: a torn read can only
    make the worker suspect one monitor pass early or late, and suspicion
    is advisory (dispatch preference, hedge trigger), never terminal.
    """

    def __init__(self, peer_id: int, conn: Connection, info: dict) -> None:
        super().__init__(peer_id, conn, info)
        self.hb_mean = 0.0
        self.hb_var = 0.0
        self.hb_samples = 0

    def observe(self, now: float) -> None:
        """Fold one message arrival into the interarrival EWMA."""
        interval = now - self.last_seen
        self.last_seen = now
        if interval <= 0.0:
            return
        if self.hb_samples == 0:
            self.hb_mean = interval
        else:
            delta = interval - self.hb_mean
            self.hb_mean += _HB_ALPHA * delta
            self.hb_var += _HB_ALPHA * (delta * delta - self.hb_var)
        self.hb_samples += 1

    def suspect_after(self, timeout: float) -> float:
        """Seconds of silence after which this worker counts as *suspect*.

        Phi-accrual flavored: mean interarrival plus ``_HB_PHI``
        deviations of it, clamped to ``[timeout/4, timeout/2]`` so the
        constructor argument still bounds behavior — a jittery-but-fine
        link is never suspected before ``timeout/4``, a consistently slow
        cadence cannot learn its way past ``timeout/2``, and death stays
        exactly where it always was, at the full timeout.
        """
        ceiling = timeout * _SUSPECT_CEIL
        if self.hb_samples < _HB_MIN_SAMPLES:
            return ceiling
        deviation = math.sqrt(self.hb_var) if self.hb_var > 0.0 else 0.0
        adaptive = self.hb_mean + _HB_PHI * max(deviation, 0.1 * self.hb_mean)
        return min(max(adaptive, timeout * _SUSPECT_FLOOR), ceiling)


class _Driver(_Peer):
    def __init__(self, peer_id: int, conn: Connection, info: dict) -> None:
        super().__init__(peer_id, conn, info)
        self.sweeps: set = set()  # sweep ids attached to this connection


class _Sweep:
    """One submitted job list, tracked independently of any connection.

    A sweep outlives the TCP connection that submitted it: a partitioned
    driver reattaches by resubmitting under the same sweep id (settled
    outcomes it missed are replayed, in-flight jobs keep running), and
    with a journal the sweep even outlives the broker process.
    """

    __slots__ = ("id", "driver_id", "total", "done", "retries", "finished",
                 "remaining", "settled", "failures", "journal",
                 "chunk_ewma", "hedged", "hedges")

    def __init__(self, sweep_id: str) -> None:
        self.id = sweep_id
        self.driver_id: Optional[int] = None  # attached driver, or orphaned
        self.total = 0
        self.done = 0
        self.retries = 0
        self.finished = False  # "done" sent to the currently attached conn
        self.remaining: set = set()  # seqs with no terminal outcome yet
        self.settled: Dict[int, tuple] = {}  # seq -> outcome, kept for reattach
        self.failures: List[tuple] = []  # (seq, attempts, reason)
        self.journal: Optional[SweepJournal] = None
        self.chunk_ewma = 0.0  # observed per-chunk completion time, EWMA
        self.hedged: Dict[int, int] = {}  # seq -> hedge count (journaled cap)
        self.hedges = 0  # hedge dispatches, for the progress line


def _split_outcomes(outcomes: List[tuple]) -> Tuple[List[tuple], List[tuple]]:
    """Partition ``(seq, outcome)`` pairs into wire-shaped result/failed."""
    results = [(seq, out[1]) for seq, out in outcomes if out[0] == "result"]
    failed = [(seq, out[1], out[2]) for seq, out in outcomes
              if out[0] == "failed"]
    return results, failed


def _last_error_line(trace: Optional[str]) -> str:
    """The last non-blank traceback line, or a placeholder.

    A whitespace-only trace (e.g. ``"\\n"``) used to crash the receiver
    thread with IndexError on ``splitlines()[-1]``.
    """
    lines = trace.strip().splitlines() if trace else []
    return lines[-1] if lines else "job raised"


class _Chunk:
    """One dispatch unit: a slice of a sweep's jobs plus its retry state."""

    __slots__ = ("id", "sweep_id", "entries", "failures", "last_error",
                 "dispatched_at")

    def __init__(self, chunk_id: int, sweep_id: str,
                 entries: List[tuple]) -> None:
        self.id = chunk_id
        self.sweep_id = sweep_id
        self.entries = entries  # [(seq, job), ...]
        self.failures = 0
        self.last_error: Optional[str] = None
        self.dispatched_at: Optional[float] = None  # broker clock at dispatch


class Broker:
    """Accepts workers and drivers; queues, dispatches, retries, reports.

    Parameters
    ----------
    address:
        ``(host, port)`` to listen on; port ``0`` picks an ephemeral port
        (read the bound one back from :attr:`address`).
    authkey:
        Shared HMAC secret; peers with a different key cannot connect.
    heartbeat_timeout:
        Seconds of worker silence (no heartbeat, result, or ready) before
        the monitor declares it dead and requeues its chunk.  Workers beat
        immediately before starting a result transfer, so this must only
        exceed the worst-case time to *ship* one chunk's results (not to
        compute them); raise it for very slow links or huge results.
        This value also bounds the adaptive *suspicion* band: a worker is
        marked suspect after between a quarter and half of it, per its
        own learned heartbeat cadence (see ``_Worker.suspect_after``).
    max_retries:
        How many times a chunk may fail (worker death or job exception)
        before its jobs are surfaced as structured failures.
    max_hedges_per_chunk:
        How many duplicate (hedge) dispatches any one job may receive
        when its chunk lingers on a suspect worker; ``0`` disables
        hedging.  Hedges never count toward ``max_retries``.
    hedge_factor:
        A suspect worker's chunk is hedged once it has been running for
        at least this multiple of the sweep's per-chunk completion EWMA
        (and the queue is otherwise drained — hedging is a tail
        optimization, not a scheduler).
    handshake_timeout:
        Seconds a connecting peer may take to finish the HMAC challenge
        and send its hello.  Defaults to ``max(10, 3 x
        heartbeat_timeout)`` so a high-latency but healthy link (e.g.
        through a shaping proxy) is not cut off mid-join.
    fingerprint:
        Code fingerprint to enforce on joining peers; defaults to this
        process's :func:`~repro.runner.cache.code_fingerprint`.
    journal_dir:
        Directory for per-sweep :class:`SweepJournal` files; ``None``
        (default) keeps queue state in memory only.  With a journal, this
        broker resumes every unconcluded sweep found at startup: unsettled
        jobs re-enter the dispatch queue at once and settled outcomes are
        replayed when their driver reattaches.
    """

    def __init__(
        self,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        authkey: bytes = DEFAULT_AUTHKEY,
        heartbeat_timeout: float = 10.0,
        max_retries: int = 2,
        fingerprint: Optional[str] = None,
        journal_dir: Optional[str] = None,
        max_hedges_per_chunk: int = 1,
        hedge_factor: float = 3.0,
        handshake_timeout: Optional[float] = None,
    ) -> None:
        # No authkey on the Listener: with one, accept() would run the HMAC
        # challenge inline in the accept loop, where a silent TCP peer (port
        # scanner, health check, half-open connection) would wedge admission
        # for everyone, forever.  We run the identical challenge ourselves
        # in the per-peer thread instead, under a watchdog.
        self._authkey = bytes(authkey)
        self._listener = Listener(tuple(address))
        self.address: Tuple[str, int] = self._listener.address
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        self.fingerprint = fingerprint or code_fingerprint()
        self.journal_dir = str(journal_dir) if journal_dir else None
        self.max_hedges_per_chunk = max(0, int(max_hedges_per_chunk))
        self.hedge_factor = max(1.0, float(hedge_factor))
        self.handshake_timeout = (
            float(handshake_timeout) if handshake_timeout is not None
            else max(10.0, 3.0 * heartbeat_timeout))
        # injectable for the deterministic harness (tests/chaos.py scripts time)
        self._clock: Callable[[], float] = time.monotonic
        # Always-on instance registry (its own lock, never the broker's):
        # dispatch/requeue/hedge/suspect counters and the heartbeat
        # interarrival histogram, served to drivers via ("stats",)
        self.metrics = MetricsRegistry()
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._ids = itertools.count(1)
        self._chunk_ids = itertools.count(1)
        self._workers: Dict[int, _Worker] = {}
        self._drivers: Dict[int, _Driver] = {}
        self._sweeps: Dict[str, _Sweep] = {}
        self._idle: set = set()
        self._pending: deque = deque()
        self._assignments: Dict[int, _Chunk] = {}  # worker id -> chunk
        self._suspects: set = set()  # worker ids past their suspicion point
        self._dead: deque = deque(maxlen=8)  # recently reaped worker ids
        self._threads: List[threading.Thread] = []
        self._started = False
        self._recover()

    def _recover(self) -> None:
        """Reload unconcluded sweeps from the journal directory (if any).

        Runs from ``__init__`` before any thread exists, but takes the
        lock anyway: it mutates guarded state, and holding the lock keeps
        it safe if a future caller ever re-runs recovery on a live broker.
        """
        with self._lock:
            for rec in load_journals(self.journal_dir):
                sweep = _Sweep(rec.sweep_id)
                sweep.total = len(rec.entries)
                sweep.settled = dict(rec.settled)
                sweep.done = sum(1 for out in sweep.settled.values()
                                 if out[0] == "result")
                sweep.failures = [(seq, out[1], out[2])
                                  for seq, out in sorted(sweep.settled.items())
                                  if out[0] == "failed"]
                unsettled = rec.unsettled()
                sweep.remaining = {seq for seq, _key, _job in unsettled}
                # hedge bookkeeping survives the bounce: the per-chunk
                # hedge cap keeps holding across a broker restart
                sweep.hedged = dict(rec.hedged)
                sweep.hedges = rec.hedge_records
                sweep.journal = rec.reopen()
                self._sweeps[sweep.id] = sweep
                # back on the queue immediately: workers resume the sweep
                # before its driver has even reconnected
                self._pending.extend(
                    _Chunk(next(self._chunk_ids), sweep.id, chunk)
                    for chunk in chunk_jobs(unsettled, rec.workers_hint)
                )

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "Broker":
        if self._started:
            return self
        self._started = True
        for target, name in (
            (self._accept_loop, "accept"),
            (self._dispatch_loop, "dispatch"),
            (self._monitor_loop, "monitor"),
        ):
            thread = threading.Thread(
                target=target, name=f"repro-broker-{name}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def close(self) -> None:
        with self._wake:
            if self._closed:
                return
            self._closed = True
            peers = list(self._workers.values()) + list(self._drivers.values())
            # journals of unconcluded sweeps stay on disk — they are what
            # the next broker on this journal dir resumes from
            for sweep in self._sweeps.values():
                if sweep.journal is not None:
                    sweep.journal.close()
            self._wake.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        for peer in peers:
            try:
                peer.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "Broker":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def serve_forever(self) -> None:
        """Block until interrupted (the standalone ``broker`` subcommand)."""
        self.start()
        try:
            while not self._closed:
                time.sleep(0.5)
        finally:
            self.close()

    # ------------------------------------------------------------------
    # introspection (used by the runner and tests)

    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def sweep_count(self) -> int:
        with self._lock:
            return len(self._sweeps)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.worker_count() >= count:
                return True
            time.sleep(0.05)
        return self.worker_count() >= count

    # ------------------------------------------------------------------
    # connection handling

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn = self._listener.accept()
            except (OSError, EOFError):
                if self._closed:
                    return
                continue
            threading.Thread(
                target=self._serve_peer, args=(conn,), daemon=True,
                name="repro-broker-peer",
            ).start()

    def _serve_peer(self, conn: Connection) -> None:
        # watchdog: a peer that stalls mid-handshake (silent socket, wrong
        # protocol) gets its connection closed, which pops the blocking
        # recv below; only this peer's thread is ever at stake
        handshake_done = threading.Event()

        def _expire() -> None:
            if not handshake_done.is_set():
                try:
                    conn.close()
                except OSError:
                    pass

        watchdog = threading.Timer(self.handshake_timeout, _expire)
        watchdog.daemon = True
        watchdog.start()
        try:
            # the exact mutual challenge Client(address, authkey=…) expects
            deliver_challenge(conn, self._authkey)
            answer_challenge(conn, self._authkey)
        except (AuthenticationError, EOFError, OSError):
            try:
                conn.close()
            except OSError:
                pass
            return
        finally:
            handshake_done.set()
            watchdog.cancel()
        try:
            if not conn.poll(self.handshake_timeout):
                conn.close()
                return
            hello = conn.recv()
            if not (isinstance(hello, tuple) and len(hello) == 4
                    and hello[0] == "hello"):
                conn.send(("reject", f"malformed hello: {hello!r}"))
                conn.close()
                return
            _, role, fingerprint, info = hello
            if role not in ("worker", "driver"):
                conn.send(("reject", f"unknown role: {role!r}"))
                conn.close()
                return
            if fingerprint != self.fingerprint:
                conn.send((
                    "reject",
                    f"code fingerprint mismatch: broker runs "
                    f"{self.fingerprint[:12]}… but this {role} runs "
                    f"{str(fingerprint)[:12]}… — update the {role}'s checkout "
                    f"so every peer executes identical simulator code",
                ))
                conn.close()
                return
        except (EOFError, OSError):
            return
        peer_id = next(self._ids)
        # the welcome carries broker metadata — workers derive their
        # heartbeat cadence from the advertised timeout instead of guessing,
        # so a short-timeout broker cannot race its own workers
        meta = {
            "protocol": PROTOCOL_VERSION,
            "heartbeat_timeout": self.heartbeat_timeout,
        }
        if role == "worker":
            worker = _Worker(peer_id, conn, info)
            with self._wake:
                if self._closed:
                    conn.close()
                    return
                self._workers[peer_id] = worker
            try:
                worker.send(("welcome", peer_id, self.fingerprint, meta))
            except (OSError, ValueError):
                self._worker_lost(worker)
                return
            self._broadcast_progress()
            self._worker_loop(worker)
        else:
            driver = _Driver(peer_id, conn, info)
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._drivers[peer_id] = driver
            try:
                driver.send(("welcome", peer_id, self.fingerprint, meta))
            except (OSError, ValueError):
                self._driver_lost(driver)
                return
            self._driver_loop(driver)

    # ------------------------------------------------------------------
    # worker side

    def _worker_loop(self, worker: _Worker) -> None:
        try:
            while not self._closed:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    break
                except TypeError:
                    # Connection.close() from another thread (broker
                    # shutdown, monitor verdict) nulls the handle under a
                    # blocked recv, which then raises TypeError rather
                    # than OSError — same meaning: connection gone
                    break
                now = self._clock()
                interarrival = now - worker.last_seen
                if interarrival > 0.0:
                    self.metrics.observe(
                        "distrib.heartbeat_interarrival", interarrival)
                worker.observe(now)
                tag = message[0]
                if tag == "heartbeat":
                    continue
                if tag == "ready":
                    with self._wake:
                        if worker.alive and worker.id not in self._assignments:
                            self._idle.add(worker.id)
                            self._wake.notify_all()
                elif tag == "result":
                    self._complete_chunk(worker, message[1], message[2],
                                         message[3])
                elif tag == "error":
                    self._chunk_error(worker, message[1], message[2])
        finally:
            self._worker_lost(worker)

    def _complete_chunk(self, worker: _Worker, chunk_id: int,
                        results: List[tuple],
                        obs_payload: Optional[dict]) -> None:
        self.metrics.count("distrib.chunk_complete")
        with self._wake:
            chunk = self._assignments.get(worker.id)
            if chunk is not None and chunk.id == chunk_id:
                # the worker finished the chunk it was actually assigned:
                # settle the assignment and free it for the next dispatch
                del self._assignments[worker.id]
                if worker.alive:
                    self._idle.add(worker.id)
                    self._wake.notify_all()
                sweep = self._sweeps.get(chunk.sweep_id)
                if sweep is not None and chunk.dispatched_at is not None:
                    # completion-time EWMA feeds the hedge trigger; a
                    # cancelled loser or a slow straggler inflating the
                    # estimate only delays hedging, never settlement
                    elapsed = max(0.0, self._clock() - chunk.dispatched_at)
                    if sweep.chunk_ewma <= 0.0:
                        sweep.chunk_ewma = elapsed
                    else:
                        sweep.chunk_ewma += _HB_ALPHA * (elapsed
                                                         - sweep.chunk_ewma)
            # else: a result for a chunk this worker does NOT hold — a late
            # duplicate, or a reply from a worker already declared dead for
            # it.  Deliver anyway (settlement is idempotent, first outcome
            # wins) but do not touch the live assignment and do NOT mark
            # the worker idle: re-idling a worker that still holds a chunk
            # would let dispatch overwrite — and silently lose — that chunk.
        if obs_payload is not None:
            # relay before delivering: the delivery may finish the sweep,
            # after which the driver stops reading and the payload is lost
            self._forward_obs(results, obs_payload)
        self._deliver(results)

    def _forward_obs(self, results: List[tuple],
                     obs_payload: dict) -> None:
        """Relay a worker's drained obs buffers to the sweep's driver.

        Best-effort telemetry: an orphaned sweep or dead driver simply
        drops the payload (spans are diagnostics, not outcomes).
        """
        sweep_ids = {sweep_id for (sweep_id, _seq), _value in results}
        with self._lock:
            drivers = {}
            for sweep_id in sweep_ids:
                sweep = self._sweeps.get(sweep_id)
                if sweep is not None and sweep.driver_id is not None:
                    driver = self._drivers.get(sweep.driver_id)
                    if driver is not None:
                        drivers[driver.id] = driver
        for driver in drivers.values():
            self._safe_send(driver, ("obs", obs_payload))

    def _chunk_error(self, worker: _Worker, chunk_id: int, trace: str) -> None:
        with self._wake:
            chunk = self._assignments.get(worker.id)
            if chunk is not None and chunk.id == chunk_id:
                del self._assignments[worker.id]
                if worker.alive:
                    self._idle.add(worker.id)
                    self._wake.notify_all()
            else:
                # stale error for a chunk this worker no longer (or never)
                # holds — e.g. a duplicate error arriving after the chunk
                # was already requeued.  Popping the assignment here used
                # to discard the worker's *live* chunk: with no owner and
                # no requeue, its jobs could never settle and the driver
                # hung forever.  Leave the assignment alone.
                chunk = None
        if chunk is not None:
            chunk.last_error = _last_error_line(trace)
            self._requeue(chunk)

    def _worker_lost(self, worker: _Worker) -> None:
        with self._wake:
            if not worker.alive:
                return
            worker.alive = False
            self._workers.pop(worker.id, None)
            self._idle.discard(worker.id)
            self._suspects.discard(worker.id)
            self._dead.append(worker.id)  # for the progress health line
            chunk = self._assignments.pop(worker.id, None)
            self._wake.notify_all()
        try:
            worker.conn.close()
        except OSError:
            pass
        self.metrics.count("distrib.worker_dead")
        if chunk is not None:
            chunk.last_error = f"worker {worker.id} died mid-chunk"
            self._requeue(chunk)
        else:
            self._broadcast_progress()

    def _requeue(self, chunk: _Chunk) -> None:
        """Retry a failed chunk, or surface its jobs as permanent failures."""
        with self._lock:
            sweep = self._sweeps.get(chunk.sweep_id)
            if sweep is None:
                return
            chunk.failures += 1
            sweep.retries += 1
            chunk.entries = [e for e in chunk.entries
                             if e[0] in sweep.remaining]
            if not chunk.entries:
                return
            # snapshot under the lock: `failures` also names guarded
            # per-sweep state, so reads stay uniformly lock-covered even
            # though this chunk is exclusively ours here
            attempts = chunk.failures
        if attempts <= self.max_retries:
            self.metrics.count("distrib.requeue")
            with self._wake:
                self._pending.appendleft(chunk)  # retries jump the queue
                self._wake.notify_all()
            self._progress_for(sweep)
            return
        reason = chunk.last_error or "unknown failure"
        self.metrics.count("distrib.gave_up_jobs", len(chunk.entries))
        # every recorded failure was one dispatch attempt
        self._settle(sweep, [(seq, ("failed", attempts, reason))
                             for seq, _job in chunk.entries])

    def _monitor_loop(self) -> None:
        interval = max(0.2, min(self.heartbeat_timeout / 8.0, 2.0))
        while not self._closed:
            time.sleep(interval)
            self._reap_stale(self._clock())

    def _reap_stale(self, now: float) -> List[_Worker]:
        """One monitor pass: suspicion, hedging, then the death verdicts.

        Extracted from the loop (and fed an explicit clock) so the
        interleaving harness can fire monitor ticks at scripted instants.
        Three sub-passes under one lock hold: (1) workers silent past the
        hard timeout are collected as stale, (2) the suspect set is
        refreshed against each survivor's adaptive silence threshold —
        recovery needs no requeue, the worker simply spoke again and its
        assignment was never touched — and (3) tail chunks lingering on
        suspect workers are hedged onto idle ones.  Sends happen after
        the lock is released, mirroring ``_dispatch_once``.
        """
        hedges: List[Tuple[_Worker, _Sweep, tuple]] = []
        suspects_changed = False
        with self._lock:
            stale = [
                w for w in self._workers.values()
                if now - w.last_seen > self.heartbeat_timeout
            ]
            stale_ids = {w.id for w in stale}
            for w in self._workers.values():
                overdue = now - w.last_seen
                if overdue > w.suspect_after(self.heartbeat_timeout):
                    if w.id not in self._suspects:
                        self._suspects.add(w.id)
                        self.metrics.count("distrib.suspect")
                        suspects_changed = True
                elif w.id in self._suspects:
                    self._suspects.discard(w.id)
                    self.metrics.count("distrib.unsuspect")
                    suspects_changed = True
            hedges = self._plan_hedges(now, stale_ids)
        for worker in stale:
            # declare it dead *here* — a close() alone would not wake a
            # receiver thread blocked in recv() on a silent-but-open
            # socket, and the chunk must requeue now.  _worker_lost is
            # idempotent, so the receiver thread's own exit (whenever
            # the socket finally errors) is harmless, and a result the
            # "dead" worker still manages to send is deduplicated at
            # settlement (first outcome per job wins).
            self._worker_lost(worker)
        for target, sweep, payload in hedges:
            try:
                target.send(payload)
            except (OSError, ValueError):
                self._worker_lost(target)  # requeues the hedge chunk
            else:
                self._progress_for(sweep)
        if (suspects_changed or hedges) and not stale:
            self._broadcast_progress()
        return stale

    def _plan_hedges(self, now: float,
                     stale_ids: set) -> List[Tuple[_Worker, _Sweep, tuple]]:  # reprolint: holds=_lock
        """Plan duplicate dispatches for tail chunks stuck on suspects.

        A hedge fires only when the queue is drained (this is a tail
        optimization: with pending work, an idle worker should take new
        jobs, not duplicates), the sweep has a completion-time baseline,
        the chunk has been running at least ``hedge_factor`` times that
        baseline, and the per-seq hedge budget (``max_hedges_per_chunk``,
        journaled so a bounced broker keeps honouring it) is not spent.
        The duplicate is a fresh chunk — own id, remaining-filtered
        entries — so first-result-wins settlement dedups it for free;
        the original assignment stays live and nothing counts as a retry.
        """
        plans: List[Tuple[_Worker, _Sweep, tuple]] = []
        if self._closed or self._pending or self.max_hedges_per_chunk <= 0:
            return plans
        for worker_id, chunk in sorted(self._assignments.items()):
            if worker_id not in self._suspects or worker_id in stale_ids:
                continue
            sweep = self._sweeps.get(chunk.sweep_id)
            if sweep is None or sweep.chunk_ewma <= 0.0:
                continue  # no completed chunk yet: no baseline to hedge on
            if chunk.dispatched_at is None:
                continue
            if now - chunk.dispatched_at < self.hedge_factor * sweep.chunk_ewma:
                continue
            entries = [e for e in chunk.entries if e[0] in sweep.remaining]
            if not entries:
                continue
            if max(sweep.hedged.get(seq, 0)
                   for seq, _job in entries) >= self.max_hedges_per_chunk:
                continue
            targets = [wid for wid in self._idle
                       if wid not in self._suspects and wid not in stale_ids]
            if not targets:
                break  # no healthy idle capacity for any further hedge
            target_id = min(targets)
            self._idle.discard(target_id)
            target = self._workers[target_id]
            hedge = _Chunk(next(self._chunk_ids), chunk.sweep_id, entries)
            hedge.dispatched_at = now
            self._assignments[target_id] = hedge
            seqs = [seq for seq, _job in entries]
            for seq in seqs:
                sweep.hedged[seq] = sweep.hedged.get(seq, 0) + 1
            sweep.hedges += 1
            self.metrics.count("distrib.hedge")
            if sweep.journal is not None:
                sweep.journal.record_hedge(seqs)
            plans.append((target, sweep, (
                "jobs",
                hedge.id,
                [((hedge.sweep_id, seq), job) for seq, job in entries],
            )))
        return plans

    # ------------------------------------------------------------------
    # driver side

    def _driver_loop(self, driver: _Driver) -> None:
        clean = False
        try:
            while not self._closed:
                try:
                    message = driver.conn.recv()
                except (EOFError, OSError):
                    break
                except TypeError:
                    break  # cross-thread close mid-recv; see _worker_loop
                tag = message[0]
                if tag == "submit":
                    self._submit(driver, message[1], message[2])
                elif tag == "stats":
                    self._safe_send(driver, ("stats", self.stats_snapshot()))
                elif tag == "bye":
                    clean = True
                    break
        finally:
            self._driver_lost(driver, clean=clean)

    def _submit(self, driver: _Driver, sweep_id: str,
                entries: List[tuple]) -> None:
        """Attach *driver* to a sweep and queue whatever jobs are new.

        The same message serves first submission, reconnection after a
        driver-side partition, and reattachment after a broker bounce:
        seqs the sweep already settled are replayed immediately from
        memory (or the journal's recovery of it), seqs still in flight
        keep running, and only genuinely new seqs are chunked and queued.

        Attach, replay, and (when nothing is left outstanding) the done
        signal all happen under the driver's send lock: a worker thread
        settling the last in-flight seq mid-resubmit must not slip its
        "done" out ahead of the replayed outcomes.
        """
        finish = False
        with driver.send_lock:
            with self._wake:
                if self._closed:
                    return
                sweep = self._sweeps.get(sweep_id)
                if sweep is None:
                    sweep = self._sweeps[sweep_id] = _Sweep(sweep_id)
                    if self.journal_dir:
                        sweep.journal = SweepJournal.create(self.journal_dir,
                                                            sweep_id)
                sweep.driver_id = driver.id
                driver.sweeps.add(sweep_id)
                # this connection has not received the sweep's "done",
                # whatever a previous (partitioned) connection was sent
                sweep.finished = False
                fresh = [
                    (seq, key, job) for seq, key, job in entries
                    if seq not in sweep.remaining and seq not in sweep.settled
                ]
                replay = [(seq, sweep.settled[seq])
                          for seq, _key, _job in entries
                          if seq in sweep.settled]
                if fresh:
                    hint = max(len(self._workers),
                               int(driver.info.get("workers_hint") or 0), 1)
                    sweep.total += len(fresh)
                    sweep.remaining.update(seq for seq, _key, _job in fresh)
                    if sweep.journal is not None:
                        sweep.journal.record_submit(fresh, hint)
                    self._pending.extend(
                        _Chunk(next(self._chunk_ids), sweep_id, chunk)
                        for chunk in chunk_jobs(fresh, hint)
                    )
                    self._wake.notify_all()
                finish = not sweep.remaining
                if finish:
                    sweep.finished = True
                    stats = {
                        "total": sweep.total,
                        "done": sweep.done,
                        "failed": len(sweep.failures),
                        "retries": sweep.retries,
                    }
            results, failed = _split_outcomes(replay)
            try:
                if results:
                    driver.conn.send(("result", results))
                if failed:
                    driver.conn.send(("failed", failed))
                if finish:
                    driver.conn.send(
                        ("progress", self._progress_snapshot(driver)))
                    driver.conn.send(("done", stats))
            except (OSError, ValueError):
                # the connection died mid-replay: whatever was undelivered
                # (possibly the done signal) must survive for the next
                # reattach, so the sweep may not count as finished
                if finish:
                    with self._lock:
                        sweep.finished = False
        if not finish:
            self._send_progress(driver)

    def _driver_lost(self, driver: _Driver, clean: bool = False) -> None:
        """Detach a driver; conclude its finished sweeps, orphan the rest.

        *clean* (an explicit ``bye``) abandons unfinished sweeps outright —
        the driver walked away on purpose.  An unclean EOF (crash,
        partition) leaves them orphaned and still executing, waiting for
        the driver to reconnect and resubmit under the same sweep id.
        """
        with self._wake:
            if not driver.alive:
                return
            driver.alive = False
            self._drivers.pop(driver.id, None)
            for sweep_id in driver.sweeps:
                sweep = self._sweeps.get(sweep_id)
                if sweep is None or sweep.driver_id != driver.id:
                    continue
                sweep.driver_id = None
                if clean or sweep.finished:
                    if sweep.journal is not None:
                        sweep.journal.conclude()
                    del self._sweeps[sweep_id]
                    # pending chunks of a dropped sweep are skipped at
                    # dispatch time; assigned ones settle into nothing
            driver.sweeps.clear()
        try:
            driver.conn.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # settlement

    def _deliver(self, results: List[tuple]) -> None:
        """Route completed ``(tagged seq, value)`` pairs to their sweeps."""
        by_sweep: Dict[str, List[tuple]] = {}
        for (sweep_id, seq), value in results:
            by_sweep.setdefault(sweep_id, []).append((seq, ("result", value)))
        for sweep_id, outcomes in by_sweep.items():
            with self._lock:
                sweep = self._sweeps.get(sweep_id)
            if sweep is not None:
                self._settle(sweep, outcomes)

    def _book(self, sweep: _Sweep, outcomes: List[tuple]) -> List[tuple]:  # reprolint: holds=_lock
        """Move outcomes to terminal state; caller holds the broker lock.

        Settlement is keyed by ``remaining``: the first outcome per seq
        wins, duplicates (a worker declared dead that answered anyway, a
        redundant retry) are dropped here.  Returns the live subset.
        """
        live = [(seq, out) for seq, out in outcomes if seq in sweep.remaining]
        for seq, out in live:
            sweep.remaining.discard(seq)
            sweep.settled[seq] = out
            if out[0] == "result":
                sweep.done += 1
            else:
                sweep.failures.append((seq, out[1], out[2]))
        if live:
            self.metrics.count("distrib.settle", len(live))
        if live and sweep.journal is not None:
            # write-ahead: journal the outcome before the driver sees it
            sweep.journal.record_settled(live)
        return live

    def _settle(self, sweep: _Sweep, outcomes: List[tuple]) -> None:
        """Settle outcomes and — atomically with that — push them out.

        *outcomes* is ``[(seq, outcome), …]``.  State update and socket
        write happen together under the driver's send lock, so two worker
        threads finishing simultaneously cannot interleave into "done"
        overtaking an outcome still waiting to be written (the driver
        stops reading at "done").  Orphaned sweeps settle state-only;
        their outcomes wait in ``sweep.settled`` for the next reattach.

        Settling can make chunks still assigned elsewhere — hedge losers,
        duplicates requeued by the monitor — pure dead work; those
        workers are sent a best-effort ``cancel`` after every lock is
        released (a lost cancel merely wastes the loser's cycles).
        """
        cancels: List[Tuple[_Worker, int]] = []
        driver: Optional[_Driver] = None
        finish = False
        while True:
            with self._lock:
                driver = (self._drivers.get(sweep.driver_id)
                          if sweep.driver_id is not None else None)
                if driver is None:
                    self._book(sweep, outcomes)
                    cancels = self._collect_cancels(sweep)
                    break
            finish = False
            with driver.send_lock:
                with self._lock:
                    current = (self._drivers.get(sweep.driver_id)
                               if sweep.driver_id is not None else None)
                    if current is not driver:
                        continue  # reattached elsewhere: redo the lookup
                    live = self._book(sweep, outcomes)
                    cancels = self._collect_cancels(sweep)
                    finish = (driver.alive and not sweep.finished
                              and not sweep.remaining)
                    if finish:
                        sweep.finished = True
                        stats = {
                            "total": sweep.total,
                            "done": sweep.done,
                            "failed": len(sweep.failures),
                            "retries": sweep.retries,
                        }
                results, failed = _split_outcomes(live)
                try:
                    if results:
                        driver.conn.send(("result", results))
                    if failed:
                        driver.conn.send(("failed", failed))
                    if finish:
                        driver.conn.send(
                            ("progress", self._progress_snapshot(driver)))
                        driver.conn.send(("done", stats))
                except (OSError, ValueError):
                    # dead connection: the outcomes are safely settled, but
                    # an unfinished "finished" would make _driver_lost
                    # conclude the sweep with deliveries still owed — keep
                    # it reattachable instead
                    if finish:
                        with self._lock:
                            sweep.finished = False
            break
        for worker, chunk_id in cancels:
            self._safe_send(worker, ("cancel", chunk_id))
        if driver is not None and not finish:
            self._send_progress(driver)

    def _collect_cancels(self, sweep: _Sweep) -> List[Tuple[_Worker, int]]:  # reprolint: holds=_lock
        """Assigned chunks of *sweep* with nothing left to settle.

        After a settlement, any other worker still computing those seqs —
        a hedge loser, a requeued duplicate — is burning cycles for
        outcomes that can only be dropped.  The assignment is *not* freed
        here: the worker's own (possibly partial) result or error frees
        it through the normal ``_complete_chunk`` path, keeping the
        one-owner-per-worker invariant intact.
        """
        cancels: List[Tuple[_Worker, int]] = []
        for worker_id, chunk in self._assignments.items():
            if chunk.sweep_id != sweep.id:
                continue
            if any(seq in sweep.remaining for seq, _job in chunk.entries):
                continue
            worker = self._workers.get(worker_id)
            if worker is not None:
                cancels.append((worker, chunk.id))
        return cancels

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch_once(self) -> bool:
        """Hand at most one pending chunk to an idle worker.

        Returns True when a pending chunk was consumed (dispatched or
        dropped as already settled/abandoned) — i.e. whether another call
        might make progress.  The dispatch thread loops this; the
        interleaving harness calls it directly, one scripted step at a
        time.
        """
        with self._wake:
            if self._closed or not self._pending or not self._idle:
                return False
            chunk = self._pending.popleft()
            sweep = self._sweeps.get(chunk.sweep_id)
            if sweep is None:
                return True  # submitting sweep was abandoned
            chunk.entries = [
                e for e in chunk.entries if e[0] in sweep.remaining
            ]
            if not chunk.entries:
                return True  # everything already settled elsewhere
            # suspects (slow-but-alive workers) are a last resort: prefer
            # any worker whose heartbeat cadence looks healthy
            preferred = [wid for wid in self._idle
                         if wid not in self._suspects]
            worker_id = min(preferred) if preferred else min(self._idle)
            self._idle.discard(worker_id)
            worker = self._workers[worker_id]
            chunk.dispatched_at = self._clock()
            self._assignments[worker_id] = chunk
            payload = (
                "jobs",
                chunk.id,
                [((chunk.sweep_id, seq), job) for seq, job in chunk.entries],
            )
        try:
            worker.send(payload)
        except (OSError, ValueError):
            self._worker_lost(worker)  # requeues the chunk
            return True
        self.metrics.count("distrib.dispatch")
        self._progress_for(sweep)
        return True

    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                while not self._closed and not (self._pending and self._idle):
                    self._wake.wait(0.5)
                if self._closed:
                    return
            self._dispatch_once()

    # ------------------------------------------------------------------
    # progress

    def _progress_snapshot(self, driver: _Driver) -> dict:
        with self._lock:
            sweeps = [
                self._sweeps[sid] for sid in driver.sweeps
                if sid in self._sweeps
                and self._sweeps[sid].driver_id == driver.id
            ]
            ids = {s.id for s in sweeps}
            running = sum(
                len(c.entries) for c in self._assignments.values()
                if c.sweep_id in ids
            )
            total = sum(s.total for s in sweeps)
            done = sum(s.done for s in sweeps)
            failed = sum(len(s.failures) for s in sweeps)
            health = [(wid, "slow" if wid in self._suspects else "ok")
                      for wid in sorted(self._workers)]
            health.extend((wid, "dead") for wid in self._dead
                          if wid not in self._workers)
            return {
                "total": total,
                "done": done,
                "failed": failed,
                "running": running,
                "queued": max(0, total - done - failed - running),
                "workers": len(self._workers),
                "retries": sum(s.retries for s in sweeps),
                "hedges": sum(s.hedges for s in sweeps),
                "worker_health": tuple(health),
            }

    def _progress_for(self, sweep: _Sweep) -> None:
        with self._lock:
            driver = (self._drivers.get(sweep.driver_id)
                      if sweep.driver_id is not None else None)
        if driver is not None:
            self._send_progress(driver)

    def _send_progress(self, driver: _Driver) -> None:
        if driver.alive:
            self._safe_send(driver, ("progress", self._progress_snapshot(driver)))

    def _broadcast_progress(self) -> None:
        with self._lock:
            drivers = list(self._drivers.values())
        for driver in drivers:
            self._send_progress(driver)

    def stats_snapshot(self) -> dict:
        """Lifetime metrics plus live occupancy gauges, JSON-ready.

        Served to drivers over the ``("stats",)`` protocol query and by
        ``repro-rlir broker-stats``.  Counters come from the broker's
        always-on registry (guarded by its own lock); the occupancy
        gauges are read under the broker lock so they are mutually
        consistent with each other.
        """
        snap = self.metrics.snapshot()
        gauges = snap.setdefault("gauges", {})
        with self._lock:
            gauges["distrib.workers"] = float(len(self._workers))
            gauges["distrib.pending_chunks"] = float(len(self._pending))
            gauges["distrib.assigned_chunks"] = float(len(self._assignments))
            gauges["distrib.suspects"] = float(len(self._suspects))
            gauges["distrib.sweeps"] = float(len(self._sweeps))
        return snap

    def _safe_send(self, peer: _Peer, message: object) -> None:
        try:
            peer.send(message)
        except (OSError, ValueError):
            pass  # the peer's receive loop will notice and clean up

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Broker(address={self.address!r}, "
                f"workers={len(self._workers)}, drivers={len(self._drivers)}, "
                f"sweeps={len(self._sweeps)}, pending={len(self._pending)})"
            )
