"""Deterministic interleaving harness for the broker's state machine.

Every broker transition (peer join, chunk dispatch, result, error, death,
monitor reap, driver submit/detach) is a small locked step; the threads in
a live :class:`~repro.distrib.broker.Broker` only decide *when* each step
fires.  :class:`BrokerHarness` exploits that: it wraps a **real** broker —
the production transition code, not a reimplementation — whose threads are
never started and whose peers are :class:`ScriptedConnection` stubs, so a
test can fire the exact transitions of a pathological ordering one call at
a time, single-threaded, with an injectable clock for the monitor.

Orderings that take a thousand chaos-soak runs to hit by luck — a stale
``error`` arriving after its chunk was requeued, a result racing the
monitor's death verdict, a resubmit racing the final settlement — become
three-line deterministic regression tests.  :func:`run_random_schedule`
complements them: it drives a seeded random walk over the same step
vocabulary (including worker churn, freezes, driver partitions, suspicion
stepping — partial heartbeats plus small monitor ticks, which exercises
the adaptive-liveness and hedging paths — and, with a journal directory,
full broker bounces), checks the broker's structural invariants after
every step, then drains the sweep and asserts exactly-once delivery.  Any
assertion failure is replayable from just the seed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple, cast

from multiprocessing.connection import Connection

from repro.distrib.broker import Broker, _Chunk, _Driver, _Worker

__all__ = ["ScriptedConnection", "BrokerHarness", "run_random_schedule",
           "check_invariants"]


class ScriptedConnection:
    """A Connection stand-in that records sends and can be partitioned."""

    def __init__(self, name: str = "scripted") -> None:
        self.name = name
        self.sent: List[tuple] = []
        self.closed = False
        self.partitioned = False

    def send(self, message: object) -> None:
        if self.closed:
            raise OSError(f"{self.name}: connection closed")
        if self.partitioned:
            raise OSError(f"{self.name}: network partition")
        self.sent.append(message)

    def close(self) -> None:
        self.closed = True

    def tagged(self, tag: str) -> List[tuple]:
        """Every recorded message with the given tag, in send order."""
        return [m for m in self.sent if m and m[0] == tag]


class BrokerHarness:
    """Drive a real broker's transitions single-threaded from a script.

    The wrapped broker is fully constructed (including journal recovery
    when ``journal_dir`` is set) but ``start()`` is never called: no
    accept, receiver, dispatch, or monitor thread exists.  Peers are
    installed directly and every transition is a method call, so the test
    controls the complete interleaving.  The monitor's clock is the
    harness's ``now`` attribute, advanced by :meth:`tick`.
    """

    def __init__(self, heartbeat_timeout: float = 10.0, max_retries: int = 2,
                 journal_dir: Optional[str] = None,
                 max_hedges_per_chunk: int = 1,
                 hedge_factor: float = 3.0) -> None:
        self.broker = Broker(
            address=("127.0.0.1", 0),
            heartbeat_timeout=heartbeat_timeout,
            max_retries=max_retries,
            journal_dir=journal_dir,
            max_hedges_per_chunk=max_hedges_per_chunk,
            hedge_factor=hedge_factor,
        )
        self.broker._listener.close()  # no accept thread will ever run
        self.now = 0.0
        # dispatch/completion timestamps come from the scripted clock too,
        # so chunk-duration EWMAs (the hedge trigger) are test-controlled
        self.broker._clock = lambda: self.now

    # -- peers ---------------------------------------------------------

    def add_worker(self, ready: bool = True) -> _Worker:
        """Join a worker (handshake already done) and optionally idle it."""
        peer_id = next(self.broker._ids)
        conn = cast(Connection, ScriptedConnection(f"worker-{peer_id}"))
        worker = _Worker(peer_id, conn, {})
        worker.last_seen = self.now
        with self.broker._wake:
            self.broker._workers[worker.id] = worker
            if ready:
                self.broker._idle.add(worker.id)
        return worker

    def add_driver(self, hint: int = 1) -> _Driver:
        peer_id = next(self.broker._ids)
        conn = cast(Connection, ScriptedConnection(f"driver-{peer_id}"))
        driver = _Driver(peer_id, conn, {"workers_hint": hint})
        with self.broker._lock:
            self.broker._drivers[driver.id] = driver
        return driver

    # -- driver-side transitions ---------------------------------------

    def submit(self, driver: _Driver, sweep_id: str,
               entries: List[tuple]) -> None:
        """A ``("submit", sweep_id, [(seq, key, job), …])`` message."""
        self.broker._submit(driver, sweep_id, entries)

    def driver_bye(self, driver: _Driver) -> None:
        self.broker._driver_lost(driver, clean=True)

    def driver_eof(self, driver: _Driver) -> None:
        """The driver's socket died without a ``bye`` (crash/partition)."""
        self.broker._driver_lost(driver, clean=False)

    # -- worker-side transitions ---------------------------------------

    def worker_ready(self, worker: _Worker) -> None:
        worker.observe(self.now)
        with self.broker._wake:
            if worker.alive and worker.id not in self.broker._assignments:
                self.broker._idle.add(worker.id)

    def worker_result(self, worker: _Worker, chunk_id: int,
                      results: List[tuple]) -> None:
        worker.observe(self.now)
        # the wire shape ("result", chunk_id, results, obs) with telemetry off
        self.broker._complete_chunk(worker, chunk_id, results, None)

    def worker_error(self, worker: _Worker, chunk_id: int,
                     trace: str) -> None:
        worker.observe(self.now)
        self.broker._chunk_error(worker, chunk_id, trace)

    def worker_eof(self, worker: _Worker) -> None:
        self.broker._worker_lost(worker)

    def heartbeat(self, worker: _Worker) -> None:
        worker.observe(self.now)

    # -- broker-side steps ---------------------------------------------

    def dispatch(self) -> Optional[Tuple[_Worker, _Chunk]]:
        """One dispatch step; the chunk assigned by it, if any."""
        before = dict(self.broker._assignments)
        if not self.broker._dispatch_once():
            return None
        for worker_id, chunk in self.broker._assignments.items():
            if before.get(worker_id) is not chunk:
                return self.broker._workers[worker_id], chunk
        return None  # the step consumed a dead/settled chunk

    def dispatch_all(self) -> List[tuple]:
        assigned = []
        while True:
            before = dict(self.broker._assignments)
            if not self.broker._dispatch_once():
                return assigned
            for worker_id, chunk in self.broker._assignments.items():
                if before.get(worker_id) is not chunk:
                    assigned.append((self.broker._workers[worker_id], chunk))

    def tick(self, dt: float) -> list:
        """Advance the scripted clock and run one monitor pass."""
        self.now += dt
        return self.broker._reap_stale(self.now)

    # -- convenience ----------------------------------------------------

    def assignment(self, worker: _Worker) -> Optional[_Chunk]:
        return self.broker._assignments.get(worker.id)

    def idle(self) -> set:
        return set(self.broker._idle)

    def suspects(self) -> set:
        with self.broker._lock:
            return set(self.broker._suspects)

    def pending(self) -> list:
        return list(self.broker._pending)

    def finish_assignment(self, worker: _Worker, compute: Callable) -> None:
        """Complete the worker's assigned chunk with computed results."""
        chunk = self.broker._assignments[worker.id]
        results = [((chunk.sweep_id, seq), compute(job))
                   for seq, job in chunk.entries]
        self.worker_result(worker, chunk.id, results)

    def results_to(self, driver: _Driver) -> Dict[int, object]:
        """seq → value over every ``result`` message sent to *driver*."""
        received: Dict[int, object] = {}
        conn = cast(ScriptedConnection, driver.conn)
        for _tag, pairs in conn.tagged("result"):
            for seq, value in pairs:
                received[seq] = value
        return received

    def failures_to(self, driver: _Driver) -> Dict[int, tuple]:
        failed: Dict[int, tuple] = {}
        conn = cast(ScriptedConnection, driver.conn)
        for _tag, pairs in conn.tagged("failed"):
            for seq, attempts, reason in pairs:
                failed[seq] = (attempts, reason)
        return failed

    def done_count(self, driver: _Driver) -> int:
        return len(cast(ScriptedConnection, driver.conn).tagged("done"))

    def close(self) -> None:
        self.broker.close()


def check_invariants(harness: BrokerHarness) -> None:
    """Structural invariants that must hold after *every* transition."""
    broker = harness.broker
    with broker._lock:
        idle = set(broker._idle)
        assigned = dict(broker._assignments)
        workers = set(broker._workers)
        suspects = set(broker._suspects)
        # an idle worker holds no chunk, and only live workers are idle
        overlap = idle & set(assigned)
        assert not overlap, f"workers both idle and assigned: {overlap}"
        assert idle <= workers, f"dead workers in idle set: {idle - workers}"
        # suspicion is a state of live workers; the dead are just dead
        assert suspects <= workers, (
            f"dead workers still suspected: {suspects - workers}"
        )
        # every unsettled job of every sweep is reachable via some chunk
        reachable: Dict[str, set] = {}
        for chunk in list(broker._pending) + list(assigned.values()):
            reachable.setdefault(chunk.sweep_id, set()).update(
                seq for seq, _job in chunk.entries
            )
        for sweep in broker._sweeps.values():
            lost = sweep.remaining - reachable.get(sweep.id, set())
            assert not lost, (
                f"sweep {sweep.id}: seqs {sorted(lost)} unsettled but in no "
                f"pending or assigned chunk — they can never complete"
            )
            both = sweep.remaining & set(sweep.settled)
            assert not both, f"sweep {sweep.id}: settled AND remaining: {both}"
            n_results = sum(1 for out in sweep.settled.values()
                            if out[0] == "result")
            assert sweep.done == n_results, (
                f"sweep {sweep.id}: done={sweep.done} but "
                f"{n_results} settled results"
            )
            # the hedge budget is a hard cap, including across bounces
            over = {seq: n for seq, n in sweep.hedged.items()
                    if n > broker.max_hedges_per_chunk}
            assert not over, (
                f"sweep {sweep.id}: hedge cap "
                f"{broker.max_hedges_per_chunk} exceeded: {over}"
            )


def run_random_schedule(
    seed: int,
    steps: int = 200,
    n_workers: int = 3,
    n_jobs: int = 12,
    max_retries: int = 6,
    journal_dir: Optional[str] = None,
) -> Dict[int, object]:
    """Random-walk the broker through *steps* transitions, then drain.

    Jobs are small ints; the scripted "computation" is a pure function of
    the job, so — exactly like the real sweep — any interleaving must
    deliver identical values.  Each step randomly fires one transition
    (dispatch, complete, error, stale duplicate, worker kill/spawn,
    freeze + monitor reap, driver partition + reattach, and — when
    *journal_dir* is set — a full broker bounce with journal recovery),
    re-checking :func:`check_invariants` afterwards.  Returns the final
    seq → value map delivered to the driver, after asserting exactly-once
    delivery and completion.

    ``max_retries`` is deliberately generous: the walk injects errors and
    deaths far more often than any sane deployment, and a job failed past
    the budget is a *legal* outcome, not an interesting one.
    """
    rng = random.Random(seed)
    compute = lambda job: ("value-of", job)  # noqa: E731
    sweep_id = f"chaos-{seed}"
    entries = [(seq, f"key-{seq % 3}", seq) for seq in range(n_jobs)]
    received: Dict[int, object] = {}
    failed: Dict[int, tuple] = {}

    harness = BrokerHarness(heartbeat_timeout=10.0, max_retries=max_retries,
                            journal_dir=journal_dir)
    driver = harness.add_driver(hint=n_workers)
    harness.submit(driver, sweep_id, entries)
    workers = [harness.add_worker() for _ in range(n_workers)]
    frozen: set = set()
    history: List[tuple] = []  # (worker, chunk) of every past assignment

    def harvest() -> None:
        """Fold everything the driver connection received into the tally."""
        nonlocal received, failed
        new = harness.results_to(driver)
        for seq, value in new.items():
            if seq in received:
                assert received[seq] == value, (
                    f"seq {seq} delivered twice with different values"
                )
        received.update(new)
        failed.update(harness.failures_to(driver))

    def reattach() -> None:
        """Reconnect the driver and resubmit what it has not received."""
        nonlocal driver
        harvest()
        driver = harness.add_driver(hint=n_workers)
        missing = [e for e in entries
                   if e[0] not in received and e[0] not in failed]
        harness.submit(driver, sweep_id, missing)

    for _step in range(steps):
        live = [w for w in workers if w.alive]
        assigned = [w for w in live if harness.assignment(w) is not None]
        op = rng.randrange(14)
        if op <= 2:
            result = harness.dispatch()
            if result is not None:
                history.append(result)
        elif op <= 4 and assigned:
            harness.finish_assignment(rng.choice(assigned), compute)
        elif op == 5 and assigned:
            trace = rng.choice(["Traceback\nValueError: boom", "\n", "", "x"])
            worker = rng.choice(assigned)
            chunk = harness.assignment(worker)
            assert chunk is not None  # `assigned` filtered on exactly this
            harness.worker_error(worker, chunk.id, trace)
        elif op == 6 and history:
            # stale duplicate: replay an old message for a past assignment
            worker, chunk = rng.choice(history)
            if rng.random() < 0.5:
                harness.worker_error(worker, chunk.id, "stale\nerror")
            else:
                harness.worker_result(worker, chunk.id, [
                    ((chunk.sweep_id, seq), compute(job))
                    for seq, job in chunk.entries
                ])
        elif op == 7 and len(live) > 1:
            worker = rng.choice(live)
            frozen.discard(worker.id)
            harness.worker_eof(worker)
        elif op == 8:
            workers.append(harness.add_worker())
        elif op == 9 and live:
            frozen.add(rng.choice(live).id)  # stops heartbeating
        elif op == 10:
            for worker in live:
                if worker.id not in frozen:
                    harness.heartbeat(worker)
            harness.tick(rng.choice([0.5, 3.0, 11.0]))
        elif op == 11:
            harness.driver_eof(driver)
            reattach()
        elif op == 13 and live:
            # suspicion stepping: only some workers beat, then a short
            # monitor pass — walks workers in and out of the suspect set
            # and gives tail hedging a chance to fire
            for worker in live:
                if worker.id not in frozen and rng.random() < 0.5:
                    harness.heartbeat(worker)
            harness.tick(rng.choice([0.5, 1.5, 2.5]))
        elif op == 12 and journal_dir is not None:
            # broker bounce: everything in memory dies, the journal does not
            harvest()
            harness.close()
            harness = BrokerHarness(heartbeat_timeout=10.0,
                                    max_retries=max_retries,
                                    journal_dir=journal_dir)
            workers = [harness.add_worker() for _ in range(n_workers)]
            frozen.clear()
            history.clear()
            driver = harness.add_driver(hint=n_workers)
            missing = [e for e in entries
                       if e[0] not in received and e[0] not in failed]
            harness.submit(driver, sweep_id, missing)
        # else: no-op step (an op whose precondition did not hold)
        check_invariants(harness)

    # drain: honest workers finish whatever is left
    for _round in range(10 * n_jobs + 10):
        harvest()
        if harness.done_count(driver) > 0:
            break
        if not any(w.alive for w in workers):
            workers.append(harness.add_worker())
        for worker in [w for w in workers if w.alive]:
            harness.heartbeat(worker)
            if harness.assignment(worker) is not None:
                harness.finish_assignment(worker, compute)
            else:
                harness.worker_ready(worker)
        harness.dispatch_all()
        check_invariants(harness)
    else:
        raise AssertionError(
            f"seed {seed}: sweep failed to drain: received {len(received)} "
            f"+ failed {len(failed)} of {n_jobs}; broker {harness.broker!r}"
        )

    harvest()
    delivered = set(received) | set(failed)
    assert delivered == {seq for seq, _key, _job in entries}, (
        f"seed {seed}: outcome missing for {set(range(n_jobs)) - delivered}"
    )
    assert not (set(received) & set(failed)), "seq both delivered and failed"
    for seq, value in received.items():
        assert value == compute(seq), f"seq {seq}: wrong value {value!r}"
    harness.close()
    return received
