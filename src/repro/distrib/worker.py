"""Stateless sweep worker: connect, verify code version, pull, execute.

``python -m repro worker --connect HOST:PORT`` runs :func:`worker_main`:
it joins a :class:`~repro.distrib.broker.Broker`, proves its code
fingerprint matches (a mismatched checkout is rejected with a clear error
— a worker running different simulator code would poison the sweep's
byte-identical guarantee), then loops pulling job chunks and returning
results.  A background thread heartbeats so the broker can tell a slow
worker from a dead one.

Workers keep no sweep state.  Killing one mid-job loses nothing: the
broker requeues its chunk on another worker, and because every job is a
pure function of its descriptor the retried result is byte-identical to
what the dead worker would have produced.

With ``--cache-dir`` pointing at a cache shared with the driver (same
host, NFS, …) the worker answers repeat jobs from the content-addressed
:class:`~repro.runner.cache.ResultCache` and publishes fresh results into
it; the cache's O_EXCL publish makes concurrent writers from many hosts
safe (first writer wins, everyone else's identical entry is discarded).

Fault-injection hooks (used by the test suite, harmless otherwise):

* ``REPRO_WORKER_FINGERPRINT`` — claim this fingerprint in the hello.
* ``REPRO_WORKER_DIE_AFTER_CHUNKS=N`` — hard-exit (``os._exit``) upon
  receiving the Nth chunk, before executing it: a mid-job crash.
* ``REPRO_WORKER_FREEZE_AFTER_CHUNKS=N`` — on the Nth chunk, stop
  heartbeating and hang without executing: a partitioned/hung worker.
* ``REPRO_WORKER_FORCE_HEARTBEAT=SECONDS`` — pin the heartbeat interval,
  bypassing the broker-advertised derivation below: a worker that beats
  slowly enough to look *suspect* but never dead.
* ``REPRO_WORKER_SLOW_CHUNK_SECONDS=SECONDS`` — sleep this long before
  executing each chunk (abortable by a broker ``cancel``): a degraded
  worker whose chunks linger until hedging rescues them.

Heartbeat cadence is *derived*, not guessed: the broker's welcome
advertises its ``heartbeat_timeout`` and the worker beats at
least four times per timeout, so a broker constructed with a short
timeout for tests can never race its own workers' heartbeat cadence.
A broker ``cancel`` for the chunk being executed aborts it between jobs
and returns the completed prefix as a normal partial result.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
import traceback
from multiprocessing.connection import Client, Connection
from typing import Any, Callable, List, Optional, Tuple

from .. import obs
from ..runner.cache import ResultCache, code_fingerprint
from .protocol import authkey_from_env, parse_address

__all__ = ["worker_main", "execute_chunk"]


def execute_chunk(entries: List[tuple], cache: Optional[ResultCache] = None,
                  should_abort: Optional[Callable[[], bool]] = None) -> List[tuple]:
    """Run one ``[(tag, job), …]`` chunk; returns ``[(tag, value), …]``.

    Jobs sharing a prepared artifact execute through their type's
    ``run_chunk`` (one artifact build, one replay pass) when the whole
    chunk missed the cache; otherwise each job runs individually.  Cache
    hits skip execution, fresh results are published back.

    *should_abort* is polled between jobs (a broker ``cancel``: the chunk
    settled elsewhere).  On abort only the *completed* ``(tag, value)``
    pairs are returned — never a placeholder for an unexecuted job, which
    would settle as a real value and break byte-identity.  Per-job
    settlement is idempotent, so a partial result is always safe to send.
    """
    jobs = [job for _tag, job in entries]
    values: List[object] = [None] * len(jobs)
    completed: set = set()
    pending = list(range(len(jobs)))
    keys: List[Optional[str]] = [None] * len(jobs)
    if cache is not None:
        still = []
        for i in pending:
            token = getattr(jobs[i], "cache_token", None)
            if token is None:
                still.append(i)
                continue
            cache_key = cache.key(token())
            keys[i] = cache_key
            hit, value = cache.get(cache_key)
            if hit:
                values[i] = value
                completed.add(i)
            else:
                still.append(i)
        pending = still
    if pending and not (should_abort is not None and should_abort()):
        first = type(jobs[pending[0]])
        run_chunk = getattr(first, "run_chunk", None)
        chunkable = (
            run_chunk is not None
            and len(pending) > 1
            and all(type(jobs[i]) is first for i in pending)
        )
        if chunkable:
            # one shared artifact, one replay pass: all-or-nothing, so the
            # abort check above is the last one before the work happens
            fresh = jobs[pending[0]].run_chunk([jobs[i] for i in pending])
            for i, value in zip(pending, fresh):
                values[i] = value
                completed.add(i)
        else:
            for i in pending:
                if should_abort is not None and should_abort():
                    break
                values[i] = jobs[i].run()
                completed.add(i)
        if cache is not None:
            for i in pending:
                cache_key = keys[i]
                if cache_key is not None and i in completed:
                    cache.put(cache_key, values[i])
    return [(tag, values[i])
            for i, (tag, _job) in enumerate(entries) if i in completed]


def worker_main(
    connect: str,
    cache_dir: Optional[str] = None,
    heartbeat: float = 2.0,
    authkey: Optional[str] = None,
    quiet: bool = False,
    reconnects: int = 5,
) -> int:
    """Run one worker until the broker goes away for good; exit code.

    A lost broker connection (bounce, partition, send failure mid-result)
    is not fatal: the worker reconnects with exponential backoff, up to
    *reconnects* consecutive failed attempts, and rejoins as a fresh peer
    — workers are stateless, so the new identity costs nothing.  A result
    in flight when the connection died is simply dropped; the broker's
    fault handling requeues the chunk (or, after a bounce, re-dispatches
    it from the journal), and purity makes the recomputed result
    byte-identical.  The failure counter resets on every successful join,
    so a broker that bounces daily never exhausts the budget.

    The *first* connect gets the same retry budget: on a degraded link —
    SYN losses, a broker a second away through a shaping proxy, a race
    with the broker's own startup — the initial attempt failing once says
    nothing, so bailing out immediately (as this used to) misclassified a
    slow join as an unreachable broker.  A *rejection* (fingerprint
    mismatch) still exits immediately: that is a verdict, not an outage.

    Exit codes: ``0`` broker gone after the reconnect budget (or asked us
    to shut down), ``2`` never managed any connect within the budget,
    ``3`` rejected (fingerprint mismatch).
    """
    address: Tuple[str, int] = parse_address(connect)
    # embedded workers get an empty prefix: the driver's stderr relay
    # labels every line "[worker N]" itself (see DistributedRunner.
    # spawn_worker); standalone workers keep the default label
    prefix = os.environ.get("REPRO_WORKER_LOG_PREFIX", "[worker]")
    say: Callable[..., None] = (lambda *a: None) if quiet else (
        lambda *a: print(*((prefix,) if prefix else ()) + a,
                         file=sys.stderr, flush=True)
    )
    key = authkey_from_env(authkey)
    fingerprint = os.environ.get("REPRO_WORKER_FINGERPRINT") or code_fingerprint()
    cache = ResultCache(cache_dir) if cache_dir else None
    die_after = int(os.environ.get("REPRO_WORKER_DIE_AFTER_CHUNKS", "0") or 0)
    freeze_after = int(os.environ.get("REPRO_WORKER_FREEZE_AFTER_CHUNKS", "0") or 0)
    chunks_seen = 0  # injection counters span reconnects: the Nth chunk
    # of this *process*, not of the current connection

    joined_once = False
    failures = 0
    while True:
        try:
            conn = Client(address, authkey=key)
            conn.send(("hello", "worker", fingerprint,
                       {"pid": os.getpid(), "host": socket.gethostname()}))
            reply = conn.recv()
        except Exception as exc:
            failures += 1
            if failures > reconnects:
                if not joined_once:
                    say(f"cannot connect to broker at {connect} after "
                        f"{reconnects} attempt(s): {exc}")
                    return 2
                say(f"broker at {connect} still gone after {reconnects} "
                    f"reconnect attempt(s); exiting")
                return 0
            delay = min(5.0, 0.25 * (2 ** (failures - 1)))
            say(f"broker {'away' if joined_once else 'not reachable yet'} "
                f"({type(exc).__name__}); "
                f"attempt {failures}/{reconnects} in {delay:.2g}s")
            time.sleep(delay)
            continue
        if reply[0] == "reject":
            say(f"rejected by broker at {connect}: {reply[1]}")
            return 3
        worker_id = reply[1]
        interval = _heartbeat_interval(heartbeat, reply[3])
        if obs.enabled() and not os.environ.get("REPRO_OBS_PROCESS"):
            # standalone workers label their obs buffers by broker-assigned
            # id; embedded workers get a stable label via the environment
            obs.set_process_label(f"worker-{worker_id}")
        joined_once = True
        failures = 0
        say(f"joined broker at {connect} as worker {worker_id}")

        send_lock = threading.Lock()
        stop_beating = threading.Event()

        def beat(conn: Connection = conn, send_lock: Any = send_lock,
                 stop: threading.Event = stop_beating,
                 interval: float = interval) -> None:
            while not stop.wait(interval):
                try:
                    with send_lock:
                        conn.send(("heartbeat",))
                except (OSError, ValueError):
                    return

        threading.Thread(target=beat, daemon=True,
                         name="repro-worker-beat").start()
        try:
            chunks_seen, done = _serve_connection(
                conn, send_lock, stop_beating, say, cache,
                chunks_seen, die_after, freeze_after,
            )
        finally:
            stop_beating.set()
            try:
                conn.close()
            except OSError:
                pass
        if done:
            return 0
        say("broker connection lost; attempting to reconnect")


def _heartbeat_interval(requested: float, meta: dict) -> float:
    """The effective heartbeat send interval for one connection.

    Derived from the broker's advertised ``heartbeat_timeout`` (welcome
    metadata): beat at least four times per timeout, so a
    broker constructed with a short timeout — tests, aggressive
    deployments — can never race its own workers' cadence.  The CLI's
    ``--heartbeat`` still lowers it further.  ``REPRO_WORKER_FORCE_HEARTBEAT``
    (fault injection) overrides everything; the suite uses it to build a
    worker that is deliberately slow-but-alive.
    """
    forced = os.environ.get("REPRO_WORKER_FORCE_HEARTBEAT")
    if forced:
        return max(0.05, float(forced))
    interval = float(requested)
    advertised = float(meta.get("heartbeat_timeout") or 0.0)
    if advertised > 0.0:
        interval = min(interval, advertised / 4.0)
    return max(0.05, interval)


def _serve_connection(conn: Connection, send_lock: Any,
                      stop_beating: threading.Event,
                      say: Callable[..., None],
                      cache: Optional[ResultCache], chunks_seen: int,
                      die_after: int, freeze_after: int) -> Tuple[int, bool]:
    """Pull and execute chunks until this connection dies.

    Returns ``(chunks_seen, done)`` — *done* is True only for a clean
    shutdown request; a dead connection returns False so the caller's
    reconnect loop takes over.

    A broker ``cancel`` naming the chunk currently executing aborts it
    between jobs; the completed prefix goes back as a normal (partial)
    result.  The abort poll drains the connection without blocking, so
    any other message that arrives mid-chunk — a stale cancel, a
    shutdown — is queued in *inbox* and handled by the main loop.
    """
    slow_chunk = float(
        os.environ.get("REPRO_WORKER_SLOW_CHUNK_SECONDS", "0") or 0)
    try:
        with send_lock:
            conn.send(("ready",))
    except (OSError, ValueError):
        return chunks_seen, False
    inbox: List[tuple] = []
    while True:
        if inbox:
            message = inbox.pop(0)
        else:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return chunks_seen, False
        tag = message[0]
        if tag == "shutdown":
            say("broker asked us to shut down")
            return chunks_seen, True
        if tag != "jobs":
            continue  # cancels for chunks we no longer hold land here
        _, chunk_id, entries = message
        chunks_seen += 1
        if die_after and chunks_seen >= die_after:
            os._exit(86)  # fault injection: crash mid-job, no goodbyes
        if freeze_after and chunks_seen >= freeze_after:
            stop_beating.set()  # fault injection: go silent, hang forever
            while True:
                time.sleep(60)
        cancelled = False

        def should_abort(chunk_id: int = chunk_id) -> bool:
            """Between-jobs poll for a broker cancel; cheap, non-blocking."""
            nonlocal cancelled
            try:
                while not cancelled and conn.poll(0):
                    peeked = conn.recv()
                    if peeked[0] == "cancel":
                        if peeked[1] == chunk_id:
                            cancelled = True
                        # a cancel for some other chunk is stale: drop it
                    else:
                        inbox.append(peeked)
            except (EOFError, OSError):
                cancelled = True  # connection gone: stop burning cycles
            return cancelled

        if slow_chunk > 0:
            # fault injection: a degraded worker — alive and heartbeating,
            # but taking forever per chunk; abortable so a cancel frees it
            deadline = time.monotonic() + slow_chunk
            while time.monotonic() < deadline and not should_abort():
                time.sleep(0.05)
        try:
            with obs.span("worker.chunk"):
                results = execute_chunk(entries, cache, should_abort)
        except BaseException:
            trace = traceback.format_exc()
            say(f"chunk {chunk_id} raised:\n{trace}")
            try:
                with send_lock:
                    conn.send(("error", chunk_id, trace))
            except (OSError, ValueError):
                return chunks_seen, False
        else:
            if cancelled and len(results) < len(entries):
                say(f"chunk {chunk_id} cancelled by broker "
                    f"({len(results)}/{len(entries)} jobs already done)")
            try:
                with send_lock:
                    # a large result can hold the send lock past several
                    # beat intervals; the leading heartbeat resets the
                    # broker's liveness clock so the full timeout budget
                    # covers the transfer itself
                    conn.send(("heartbeat",))
                    # drained span/metric buffers ride the result message;
                    # the broker relays them to the sweep's driver for the
                    # merged run artifact
                    conn.send(("result", chunk_id, results,
                               obs.drain_payload() if obs.enabled() else None))
            except (OSError, ValueError):
                say("broker went away while returning results; "
                    "the chunk will be re-dispatched")
                return chunks_seen, False
