"""Wire protocol of the distributed sweep backend.

Transport is :mod:`multiprocessing.connection` over TCP — stdlib message
framing, pickle serialization, and an HMAC authkey handshake for free.
Every message is a plain tuple whose first element is a string tag:

============ ========================================================= ====
direction    message                                                   why
============ ========================================================= ====
client→broker ``("hello", role, fingerprint, info)``                   join
broker→client ``("welcome", client_id, broker_fingerprint, meta)``     ack
broker→client ``("reject", reason)``                                   refuse
driver→broker ``("submit", sweep_id, [(seq, chunk_key, job), …])``     jobs in
driver→broker ``("stats",)``                                           metrics?
driver→broker ``("bye",)``                                             detach
broker→worker ``("jobs", chunk_id, [(tag, job), …])``                  assign
broker→worker ``("cancel", chunk_id)``                                 stop chunk
worker→broker ``("ready",)`` / ``("heartbeat",)``                      liveness
worker→broker ``("result", chunk_id, [(tag, value), …], obs)``         jobs out
worker→broker ``("error", chunk_id, traceback_text)``                  job raised
broker→driver ``("result", [(seq, value), …])``                        forward
broker→driver ``("failed", [(seq, attempts, reason), …])``             gave up
broker→driver ``("progress", snapshot_dict)``                          live view
broker→driver ``("obs", payload_dict)``                                telemetry
broker→driver ``("stats", snapshot_dict)``                             metrics
broker→driver ``("done", stats_dict)``                                 sweep over
============ ========================================================= ====

``sweep_id`` is a driver-chosen opaque string naming the sweep *across
connections*: a driver that lost its TCP connection (broker bounce,
partition) reconnects and resubmits its still-missing jobs under the same
id, and the broker — which tracks sweeps independently of connections —
replays outcomes that settled while the driver was away instead of
recomputing them.  The job ``tag`` a worker echoes back is
``(sweep_id, seq)``.  A ``bye`` is the clean goodbye: it tells the broker
the driver is leaving *on purpose*, so unfinished sweeps are abandoned
rather than kept waiting for a reattach.

The ``welcome`` *meta* dict carries broker configuration a peer should
adapt to — today ``protocol`` and ``heartbeat_timeout``, from which
workers derive their heartbeat send interval instead of using a
hardcoded cadence.  A ``cancel`` tells a worker the named chunk settled
elsewhere (a hedge lost its race): the worker aborts between jobs and
replies with a normal ``result`` carrying whatever prefix it finished —
settlement is per-job and idempotent, so a partial result is always safe.

A worker's ``result`` always has four elements; *obs* is its drained
span/metric buffers when telemetry is on and ``None`` otherwise.  The
broker relays payloads to the sweep's driver as ``("obs", payload)``, and
a driver may ask ``("stats",)`` at any time to receive ``("stats",
snapshot)`` — the broker's lifetime counters (dispatches, requeues,
hedges, suspect flips, heartbeat-interarrival stats) plus live occupancy
gauges.  None of these messages affect settlement: they are telemetry.

``role`` is ``"worker"`` or ``"driver"``; both are rejected when their code
fingerprint (:func:`repro.runner.cache.code_fingerprint`) differs from the
broker's, so a stale checkout can never silently contribute results
computed by different simulator code.

Chunking
--------
:func:`chunk_jobs` packs a driver's job list into dispatch units.  Jobs
that share a workload (``chunk_key`` — the job's ``config``) are grouped
and split into at most ``2 × workers`` contiguous chunks: large enough
that a worker builds the shared traces once for several conditions, small
enough that an idle worker can steal the tail of a slow sweep instead of
watching one peer grind through it.

Connections
-----------
Every cluster connection is opened by :func:`open_connection` or taken
by :func:`accept_connection`, which set ``TCP_NODELAY`` on the socket.
The protocol sends small frames back to back (the handshake's WELCOME
then the hello, a heartbeat then a result, a result then a progress
update).  With Nagle's algorithm on, the second frame waits for the peer
to ACK the first, and a peer with nothing to send delays that ACK by
~40 ms.  The option changes only when bytes leave, never which bytes.
"""

from __future__ import annotations

import os
import socket
from dataclasses import dataclass
from multiprocessing.connection import Client, Connection, Listener
from typing import List, Optional, Sequence, Tuple, Union

__all__ = [
    "DEFAULT_AUTHKEY",
    "PROTOCOL_VERSION",
    "JobFailure",
    "BrokerUnavailableError",
    "DistributedSweepError",
    "accept_connection",
    "authkey_from_env",
    "open_connection",
    "parse_address",
    "format_address",
    "chunk_jobs",
]

PROTOCOL_VERSION = 4

# Shared secret for the connection-level HMAC handshake.  This
# authenticates peers (a stray process cannot join the pool by accident);
# it is not transport encryption.  Deployments on untrusted networks
# should set REPRO_DISTRIB_AUTHKEY to a private value on every host.
DEFAULT_AUTHKEY = b"repro-distrib-v1"


def authkey_from_env(explicit: Optional[str] = None) -> bytes:
    """The cluster authkey: explicit value, env override, or the default."""
    if explicit:
        return explicit.encode()
    env = os.environ.get("REPRO_DISTRIB_AUTHKEY")
    return env.encode() if env else DEFAULT_AUTHKEY


def parse_address(spec: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; bare ``":port"`` binds localhost."""
    if isinstance(spec, tuple):
        host, port = spec
        return (host or "127.0.0.1", int(port))
    host, sep, port = str(spec).rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"address must look like HOST:PORT: {spec!r}")
    return (host or "127.0.0.1", int(port))


def format_address(address: Tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


def _no_delay(conn: Connection) -> Connection:
    """Turn Nagle's algorithm off on *conn*'s socket; no-op unless TCP."""
    sock = socket.socket(fileno=conn.fileno())
    try:
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    finally:
        sock.detach()  # the descriptor stays owned by *conn*
    return conn


def open_connection(address: Tuple[str, int], authkey: bytes) -> Connection:
    """Open an authenticated cluster connection to *address*."""
    return _no_delay(Client(address, authkey=authkey))


def accept_connection(listener: Listener) -> Connection:
    """Take the next connection from *listener* (authentication is the
    caller's: see ``Broker._serve_peer``)."""
    return _no_delay(listener.accept())


@dataclass(frozen=True)
class JobFailure:
    """One job the broker gave up on after exhausting its retries."""

    seq: int  # the job's index in the driver's submitted list
    attempts: int
    reason: str

    def __str__(self) -> str:
        return f"job #{self.seq} failed after {self.attempts} attempt(s): {self.reason}"


class BrokerUnavailableError(RuntimeError):
    """The driver exhausted its reconnect budget without reaching a broker.

    Raised by :class:`~repro.distrib.runner.DistributedRunner` after
    ``reconnect_attempts`` consecutive failed connection attempts.  Results
    received before the outage were already persisted to the cache, so a
    rerun against a recovered broker resumes from them.
    """


class DistributedSweepError(RuntimeError):
    """Raised by the driver when any job exhausted its retry budget.

    Carries the structured :class:`JobFailure` list; results of jobs that
    *did* complete were already persisted to the driver's cache, so a
    retried sweep resumes from the survivors.
    """

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures = list(failures)
        lines = "\n  ".join(str(f) for f in self.failures)
        super().__init__(
            f"{len(self.failures)} sweep job(s) permanently failed:\n  {lines}"
        )


def chunk_jobs(entries: Sequence[tuple], n_workers: int) -> List[list]:
    """Pack ``(seq, chunk_key, job)`` entries into dispatch chunks.

    Entries with ``chunk_key=None`` become singleton chunks.  Entries
    sharing a key are grouped (wherever they sit in the submission) and
    split into at most ``2 * n_workers`` contiguous, balanced chunks of
    ``(seq, job)`` pairs; chunk order follows first appearance, so
    dispatch order is deterministic for a given submission.
    """
    if n_workers < 1:
        n_workers = 1
    groups: List[list] = []
    by_key: dict = {}
    for seq, key, job in entries:
        if key is None:
            groups.append([(seq, job)])
            continue
        group = by_key.get(key)
        if group is None:
            group = by_key[key] = []
            groups.append(group)
        group.append((seq, job))
    chunks: List[list] = []
    for group in groups:
        if len(group) == 1:
            chunks.append(group)
            continue
        n_chunks = min(len(group), 2 * n_workers)
        base, extra = divmod(len(group), n_chunks)
        start = 0
        for c in range(n_chunks):
            size = base + (1 if c < extra else 0)
            chunks.append(group[start:start + size])
            start += size
    return chunks
