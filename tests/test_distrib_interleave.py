"""Deterministic interleaving tests for the broker's state machine.

Each test drives a *real* :class:`repro.distrib.broker.Broker` —
single-threaded, via :class:`chaos.BrokerHarness` — through
one pathological message ordering that the threaded broker could only hit
by losing a race.  The first three reproduce bugs the pre-hardening broker
actually had:

* ``_chunk_error`` popped a worker's assignment *unconditionally* and only
  requeued on a chunk-id match, so a stale error for a previously requeued
  chunk silently discarded the worker's live chunk — its jobs could never
  settle and the driver hung forever;
* ``_chunk_error`` crashed the receiver thread with IndexError on a
  whitespace-only traceback (``trace.strip().splitlines()[-1]``);
* ``_complete_chunk`` re-idled a worker on a result for a chunk it was
  never assigned, letting a later dispatch overwrite — and lose — the
  chunk it *was* holding.

The rest pin down the recovery semantics this PR adds (orphan sweeps,
settled-outcome replay on reattach, journal recovery after a bounce), and
a seeded random walk property-checks the whole transition vocabulary.
"""

import os

import pytest

from repro.distrib.broker import Broker
from chaos import (
    BrokerHarness,
    check_invariants,
    run_random_schedule,
)
from repro.distrib.journal import SweepJournal, load_journals

COMPUTE = lambda job: ("value-of", job)  # noqa: E731


def entry(seq, key=None):
    """A sweep entry whose 'job' is just its seq (tests never execute it)."""
    return (seq, key if key is not None else f"key-{seq}", seq)


class TestFixedRaces:
    """One regression test per race fixed in this PR."""

    def test_stale_error_after_requeue_keeps_live_assignment(self):
        # max_retries=0: the first error permanently fails the chunk, so
        # the duplicate error that follows is genuinely *stale* — the
        # worker has moved on to a different chunk by then.
        h = BrokerHarness(max_retries=0)
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0, "a"), entry(1, "b")])
        worker = h.add_worker()

        _, chunk_a = h.dispatch()
        h.worker_error(worker, chunk_a.id, "Traceback\nValueError: boom")
        assert h.failures_to(driver) == {0: (1, "ValueError: boom")}

        _, chunk_b = h.dispatch()
        assert chunk_b.id != chunk_a.id

        # the stale duplicate: an error for chunk A arriving while the
        # worker holds chunk B.  The pre-fix broker popped B here — no
        # owner, no requeue, driver hung forever.
        h.worker_error(worker, chunk_a.id, "Traceback\nValueError: boom")
        assert h.assignment(worker) is chunk_b, (
            "stale error discarded the worker's live assignment"
        )
        assert worker.id not in h.idle()
        check_invariants(h)

        # and chunk B is still fully alive: the worker completes it and
        # the sweep concludes (pre-fix, the discarded assignment made
        # seq 1 unreachable — no owner, not requeued — and done never came)
        h.finish_assignment(worker, COMPUTE)
        assert h.results_to(driver) == {1: COMPUTE(1)}
        assert h.done_count(driver) == 1
        h.close()

    def test_blank_traceback_does_not_kill_receiver(self):
        # "\n" is truthy but strips to nothing: the pre-fix
        # trace.strip().splitlines()[-1] raised IndexError, killing the
        # receiver thread of a perfectly healthy worker
        h = BrokerHarness(max_retries=0)
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0)])
        worker = h.add_worker()
        _, chunk = h.dispatch()
        h.worker_error(worker, chunk.id, "\n")  # must not raise
        assert h.failures_to(driver) == {0: (1, "job raised")}
        assert worker.id in h.idle()
        assert h.done_count(driver) == 1
        check_invariants(h)
        h.close()

    def test_foreign_chunk_result_does_not_idle_worker(self):
        h = BrokerHarness()
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0, "a"), entry(1, "b"), entry(2, "c")])
        worker = h.add_worker()

        _, chunk_a = h.dispatch()
        h.finish_assignment(worker, COMPUTE)
        _, chunk_b = h.dispatch()

        # duplicate result for already-settled chunk A while holding B.
        # Pre-fix, this re-idled the worker: the very next dispatch would
        # assign chunk C over B in the assignment table, losing B.
        h.worker_result(worker, chunk_a.id, [
            (("s", seq), COMPUTE(job)) for seq, job in chunk_a.entries
        ])
        assert worker.id not in h.idle(), (
            "a foreign-chunk result re-idled a busy worker"
        )
        assert h.assignment(worker) is chunk_b
        check_invariants(h)

        assert h.dispatch() is None  # nobody idle: chunk C must wait
        h.finish_assignment(worker, COMPUTE)
        h.dispatch()
        h.finish_assignment(worker, COMPUTE)

        results = h.results_to(driver)
        assert results == {seq: COMPUTE(seq) for seq in (0, 1, 2)}
        # ... and seq 0 was delivered exactly once despite the duplicate
        deliveries = [seq for _tag, pairs in driver.conn.tagged("result")
                      for seq, _value in pairs]
        assert deliveries.count(0) == 1
        assert h.done_count(driver) == 1
        h.close()

    def test_result_racing_monitor_death(self):
        # the monitor declares a silent worker dead and requeues its chunk
        # — then the "dead" worker's result arrives anyway.  First outcome
        # wins; the requeued duplicate chunk dissolves at dispatch.
        h = BrokerHarness(heartbeat_timeout=10.0)
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0)])
        worker = h.add_worker()
        _, chunk = h.dispatch()

        reaped = h.tick(11.0)
        assert worker in reaped and not worker.alive
        assert h.pending(), "the dead worker's chunk was not requeued"

        h.worker_result(worker, chunk.id, [
            (("s", seq), COMPUTE(job)) for seq, job in chunk.entries
        ])
        assert h.results_to(driver) == {0: COMPUTE(0)}
        assert h.done_count(driver) == 1

        # the requeued copy is now all-settled: dispatch drops it instead
        # of burning a worker on it
        late = h.add_worker()
        assert h.dispatch() is None
        assert not h.pending()
        assert late.id in h.idle()
        check_invariants(h)
        h.close()


class TestReattachSemantics:
    """Orphaned sweeps, settled-outcome replay, submit-during-conclude."""

    def test_partitioned_driver_sweep_keeps_executing(self):
        h = BrokerHarness()
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0, "a"), entry(1, "b")])
        worker = h.add_worker()
        h.dispatch()
        h.finish_assignment(worker, COMPUTE)
        assert h.results_to(driver) == {0: COMPUTE(0)}

        h.driver_eof(driver)  # crash/partition: NOT a clean bye
        assert h.broker.sweep_count() == 1, "unclean EOF abandoned the sweep"

        # the orphan keeps executing while no driver is attached
        h.dispatch()
        h.finish_assignment(worker, COMPUTE)

        # reattach under the same sweep id, asking for what's missing:
        # the settled-while-away outcome replays with no recompute
        driver2 = h.add_driver()
        h.submit(driver2, "s", [entry(1, "b")])
        assert h.results_to(driver2) == {1: COMPUTE(1)}
        assert h.done_count(driver2) == 1
        h.driver_bye(driver2)
        assert h.broker.sweep_count() == 0  # concluded once the driver left
        h.close()

    def test_clean_bye_abandons_unfinished_sweep(self):
        h = BrokerHarness()
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0)])
        h.driver_bye(driver)
        assert h.broker.sweep_count() == 0
        # the abandoned chunk dissolves at dispatch instead of running
        h.add_worker()
        assert h.dispatch() is None
        assert not h.pending()
        h.close()

    def test_empty_submit_is_immediately_done(self):
        h = BrokerHarness()
        driver = h.add_driver()
        h.submit(driver, "s", [])
        assert h.done_count(driver) == 1
        h.close()

    def test_done_lost_to_partition_is_resent_on_reattach(self):
        # the final outcome settles while the driver's link is down: the
        # send fails, so the sweep must stay reattachable — concluding it
        # would strand the undelivered outcome
        h = BrokerHarness()
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0)])
        worker = h.add_worker()
        h.dispatch()
        driver.conn.partitioned = True
        h.finish_assignment(worker, COMPUTE)
        assert h.results_to(driver) == {}  # nothing got through
        h.driver_eof(driver)
        assert h.broker.sweep_count() == 1, (
            "sweep concluded with its outcome undelivered"
        )
        driver2 = h.add_driver()
        h.submit(driver2, "s", [entry(0)])
        assert h.results_to(driver2) == {0: COMPUTE(0)}
        assert h.done_count(driver2) == 1
        h.close()

    def test_resubmit_after_done_finishes_again(self):
        # a driver that received "done" but whose bye was lost may
        # reconnect and resubmit; finished-ness is per-connection
        h = BrokerHarness()
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0)])
        worker = h.add_worker()
        h.dispatch()
        h.finish_assignment(worker, COMPUTE)
        assert h.done_count(driver) == 1
        h.driver_eof(driver)  # finished sweep + EOF → concluded
        assert h.broker.sweep_count() == 0
        # the replacement connection resubmits nothing it already has
        driver2 = h.add_driver()
        h.submit(driver2, "s", [])
        assert h.done_count(driver2) == 1
        h.close()


class TestJournalRecovery:
    """Broker bounce: the journal resumes what memory forgot."""

    def test_bounced_broker_resumes_mid_sweep(self, tmp_path):
        jdir = str(tmp_path)
        h = BrokerHarness(journal_dir=jdir)
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0, "a"), entry(1, "b"), entry(2, "c")])
        worker = h.add_worker()
        h.dispatch()
        h.finish_assignment(worker, COMPUTE)  # seq 0 settles pre-bounce
        h.close()  # SIGKILL equivalent: every thread and socket vanishes

        h2 = BrokerHarness(journal_dir=jdir)
        assert h2.broker.sweep_count() == 1
        sweep = h2.broker._sweeps["s"]
        assert sweep.remaining == {1, 2}
        assert sweep.settled[0] == ("result", COMPUTE(0))
        # unsettled jobs are queued before any driver reattaches
        queued = {seq for chunk in h2.pending() for seq, _ in chunk.entries}
        assert queued == {1, 2}

        # the driver reconnects knowing nothing arrived for seq 0 either
        # (say the result was in flight when the broker died): the journal
        # replays it without recomputing
        driver2 = h2.add_driver()
        h2.submit(driver2, "s", [entry(0, "a"), entry(1, "b"), entry(2, "c")])
        assert h2.results_to(driver2) == {0: COMPUTE(0)}

        worker2 = h2.add_worker()
        for _ in range(2):
            h2.dispatch()
            h2.finish_assignment(worker2, COMPUTE)
        assert h2.results_to(driver2) == {seq: COMPUTE(seq)
                                          for seq in (0, 1, 2)}
        assert h2.done_count(driver2) == 1
        # concluded: the journal file is gone, a third broker starts clean
        h2.driver_bye(driver2)
        assert load_journals(jdir) == []
        h2.close()

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        jdir = str(tmp_path)
        journal = SweepJournal.create(jdir, "torn")
        journal.record_submit([entry(0), entry(1)], workers_hint=2)
        journal.record_settled([(0, ("result", COMPUTE(0)))])
        journal.close()
        # simulate a crash mid-write: garbage where the next record starts
        path = os.path.join(jdir, "sweep-torn.journal")
        with open(path, "ab") as fh:
            fh.write(b"\x80\x05garbage-torn-tail")
        [rec] = load_journals(jdir)
        assert rec.sweep_id == "torn"
        assert [e[0] for e in rec.entries] == [0, 1]
        assert rec.settled == {0: ("result", COMPUTE(0))}
        assert [e[0] for e in rec.unsettled()] == [1]

    def test_journal_write_ahead_of_delivery(self, tmp_path):
        # the outcome reaches disk before the driver: a crash between the
        # two replays it instead of losing it
        jdir = str(tmp_path)
        h = BrokerHarness(journal_dir=jdir)
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0)])
        worker = h.add_worker()
        h.dispatch()
        driver.conn.partitioned = True  # delivery will fail...
        h.finish_assignment(worker, COMPUTE)
        h.close()
        [rec] = load_journals(jdir)  # ...but the journal has the outcome
        assert rec.settled == {0: ("result", COMPUTE(0))}


class TestSuspicionAndHedging:
    """Adaptive liveness: slow → suspect → recovered, and hedged tails.

    All timings run on the harness clock, so every threshold crossing is
    exact: with ``heartbeat_timeout=10`` the suspicion band is clamped to
    ``[2.5, 5.0]`` and death stays at 10.
    """

    def _beat_cadence(self, h, worker, period, beats):
        """Establish a regular heartbeat rhythm (trains the EWMA)."""
        for _ in range(beats):
            h.tick(period)
            h.heartbeat(worker)

    def test_slow_worker_becomes_suspect_then_recovers_without_requeue(self):
        h = BrokerHarness(heartbeat_timeout=10.0)
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0, "a")])
        worker = h.add_worker()
        # a crisp 2 s cadence: suspect_after ≈ mean + 4σ ≈ 2.8 s, well
        # inside the [2.5, 5.0] clamp
        self._beat_cadence(h, worker, period=2.0, beats=3)
        _, chunk = h.dispatch()

        h.tick(3.5)  # 3.5 s of silence: past suspicion, far from death
        assert worker.id in h.suspects()
        assert worker.alive, "suspicion must not kill the worker"
        assert h.assignment(worker) is chunk, "suspicion requeued the chunk"
        assert not h.pending()
        # ... and the driver heard about it
        _tag, snapshot = driver.conn.tagged("progress")[-1]
        assert (worker.id, "slow") in snapshot["worker_health"]

        # one heartbeat clears the suspicion (hysteresis, not a ratchet)
        h.heartbeat(worker)
        h.tick(0.1)
        assert worker.id not in h.suspects()
        assert h.assignment(worker) is chunk
        _tag, snapshot = driver.conn.tagged("progress")[-1]
        assert (worker.id, "ok") in snapshot["worker_health"]

        # the recovered worker finishes normally: no retry ever happened
        h.finish_assignment(worker, COMPUTE)
        assert h.results_to(driver) == {0: COMPUTE(0)}
        assert h.done_count(driver) == 1
        assert snapshot["retries"] == 0
        check_invariants(h)
        h.close()

    def test_dispatch_prefers_unsuspected_workers(self):
        h = BrokerHarness(heartbeat_timeout=10.0)
        driver = h.add_driver()
        slow = h.add_worker()   # lower id: would win a naive min()
        fast = h.add_worker()
        h.tick(6.0)             # both silent past the 5.0 s ceiling...
        h.heartbeat(fast)       # ...but only `fast` comes back
        h.tick(0.1)
        assert h.suspects() == {slow.id}
        h.submit(driver, "s", [entry(0, "a")])
        assigned_worker, _chunk = h.dispatch()
        assert assigned_worker is fast
        check_invariants(h)
        h.close()

    def test_tail_chunk_on_suspect_worker_is_hedged_first_result_wins(self):
        h = BrokerHarness(heartbeat_timeout=10.0)
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0, "a"), entry(1, "b")])
        w1 = h.add_worker()
        w2 = h.add_worker()
        pairs = h.dispatch_all()
        assert [(w.id, c.id) for w, c in pairs] == [
            (w1.id, pairs[0][1].id), (w2.id, pairs[1][1].id)]
        chunk2 = pairs[1][1]

        # w1 completes its chunk after 1 s: per-chunk EWMA is now 1.0 s,
        # so the hedge trigger sits at 3 s (hedge_factor 3.0)
        h.tick(1.0)
        h.finish_assignment(w1, COMPUTE)
        h.worker_ready(w1)

        # w2 goes silent while w1 keeps beating; at 6 s w2 is past the
        # 5.0 s suspicion ceiling and chunk2 is 6 s ≥ 3 s overdue
        h.tick(2.5)
        h.heartbeat(w1)
        h.tick(2.5)
        assert w2.id in h.suspects() and w2.alive

        # the tail chunk was hedged to the idle healthy worker
        hedge = h.assignment(w1)
        assert hedge is not None and hedge.id != chunk2.id
        assert hedge.entries == chunk2.entries
        assert h.broker._sweeps["s"].hedged == {1: 1}
        _tag, snapshot = driver.conn.tagged("progress")[-1]
        assert snapshot["hedges"] == 1

        # the hedge wins: seq 1 settles, and the loser gets a cancel
        h.finish_assignment(w1, COMPUTE)
        assert w2.conn.tagged("cancel") == [("cancel", chunk2.id)]
        assert h.done_count(driver) == 1

        # w2's late original result is a duplicate, not a double delivery
        h.worker_result(w2, chunk2.id, [
            (("s", seq), COMPUTE(job)) for seq, job in chunk2.entries
        ])
        deliveries = [seq for _t, p in driver.conn.tagged("result")
                      for seq, _v in p]
        assert deliveries.count(1) == 1
        assert h.results_to(driver) == {0: COMPUTE(0), 1: COMPUTE(1)}
        _tag, snapshot = driver.conn.tagged("progress")[-1]
        assert snapshot["retries"] == 0, "hedges must not count as retries"
        check_invariants(h)
        h.close()

    def test_hedging_disabled_by_zero_cap(self):
        h = BrokerHarness(heartbeat_timeout=10.0, max_hedges_per_chunk=0)
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0, "a"), entry(1, "b")])
        w1 = h.add_worker()
        w2 = h.add_worker()
        h.dispatch_all()
        h.tick(1.0)
        h.finish_assignment(w1, COMPUTE)
        h.worker_ready(w1)
        h.tick(2.5)
        h.heartbeat(w1)
        h.tick(2.5)
        assert w2.id in h.suspects()
        assert h.assignment(w1) is None, "cap 0 must disable hedging"
        assert not h.broker._sweeps["s"].hedged
        check_invariants(h)
        h.close()

    def test_hedge_budget_survives_broker_bounce(self, tmp_path):
        jdir = str(tmp_path)
        h = BrokerHarness(heartbeat_timeout=10.0, journal_dir=jdir)
        driver = h.add_driver()
        h.submit(driver, "s", [entry(0, "a"), entry(1, "b")])
        w1 = h.add_worker()
        w2 = h.add_worker()
        pairs = h.dispatch_all()
        chunk2 = pairs[1][1]
        h.tick(1.0)
        h.finish_assignment(w1, COMPUTE)
        h.worker_ready(w1)
        h.tick(2.5)
        h.heartbeat(w1)
        h.tick(2.5)
        assert h.broker._sweeps["s"].hedged == {1: 1}  # hedge in flight
        h.close()  # bounce with the hedge undecided

        h2 = BrokerHarness(heartbeat_timeout=10.0, journal_dir=jdir)
        sweep = h2.broker._sweeps["s"]
        assert sweep.hedged == {1: 1}, "hedge budget lost across bounce"
        assert sweep.hedges == 1
        check_invariants(h2)

        # replay the same slow-worker scenario: the budget is spent, so
        # no second duplicate of seq 1 is ever dispatched
        w3 = h2.add_worker()
        w4 = h2.add_worker()
        with h2.broker._lock:
            sweep.chunk_ewma = 1.0  # recovered brokers re-learn durations
        dispatched = h2.dispatch_all()
        holder = dispatched[0][0]
        spare = w4 if holder is w3 else w3
        h2.worker_ready(spare)
        h2.tick(6.0)
        h2.heartbeat(spare)
        h2.tick(0.1)
        assert holder.id in h2.suspects()
        assert h2.assignment(spare) is None, (
            "hedge cap exceeded after journal recovery"
        )
        # the chunk still completes the boring way
        h2.finish_assignment(holder, COMPUTE)
        driver2 = h2.add_driver()
        h2.submit(driver2, "s", [entry(0, "a"), entry(1, "b")])
        assert h2.results_to(driver2) == {0: COMPUTE(0), 1: COMPUTE(1)}
        check_invariants(h2)
        h2.close()


class TestRandomSchedules:
    """Seeded property test over the full transition vocabulary."""

    @pytest.mark.parametrize("seed", range(5))
    def test_200_step_random_schedule(self, seed):
        received = run_random_schedule(seed, steps=200)
        assert all(value == COMPUTE(seq) for seq, value in received.items())

    @pytest.mark.parametrize("seed", [1000, 1001])
    def test_random_schedule_with_broker_bounces(self, seed, tmp_path):
        run_random_schedule(seed, steps=200, journal_dir=str(tmp_path))


def test_harness_uses_the_real_broker():
    """The double is the production class, not a reimplementation."""
    h = BrokerHarness()
    assert type(h.broker) is Broker
    h.close()
