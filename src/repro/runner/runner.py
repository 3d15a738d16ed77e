"""Parallel sweep execution with cached, order-preserving results.

:class:`ParallelRunner` takes a :class:`~repro.runner.spec.SweepSpec` (or an
explicit job list), satisfies whatever it can from the
:class:`~repro.runner.cache.ResultCache`, fans the remaining jobs out over a
``multiprocessing`` pool, and returns results in job order.

Determinism
-----------
Jobs carry their own seeds (trace seed inside the frozen config, cross-
traffic selection seed in ``run_seed``), and the simulator consumes no
global randomness, so a job's result is a pure function of its descriptor.
The serial fallback (``jobs=1``) calls the *same* job function in-process —
its results are byte-identical to the parallel path's, which the
determinism suite asserts.

Worker strategy
---------------
With the (default, where available) ``fork`` start method the runner first
*prewarms* each distinct workload in the parent — generating the packet
traces once — so forked children inherit them copy-on-write instead of
regenerating ~10⁶ packets per process.  Under ``spawn`` the prewarm is
skipped and each worker builds its own traces on first use.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import obs

from .cache import ResultCache
from .spec import SweepSpec

__all__ = ["ParallelRunner"]


def _execute(job: Any) -> Any:
    """Top-level worker entry point (must be picklable)."""
    with obs.span("runner.job"):
        return job.run()


def _execute_indexed(indexed_job: Tuple[int, Any]) -> Tuple[int, Any]:
    """Worker entry point carrying the job's index through the pool."""
    index, job = indexed_job
    return index, job.run()


def _execute_indexed_obs(
    indexed_job: Tuple[int, Any]
) -> Tuple[int, Any, Dict[str, Any]]:
    """Obs-aware pool entry: also ships the worker's drained obs buffers.

    Selected only when obs is enabled, so the default pool path carries
    no extra payload per result.  Draining after every job keeps the
    per-process ``seq`` counter monotonic across payloads, which is what
    makes the driver-side ``(process, seq)`` merge a total order.

    Fork-started pool workers inherit the driver's pinned process label
    (``obs.enable(process="driver")`` sets a module-level override that
    survives the fork), so the first call here re-pins the label to this
    worker's own pid — buffers from two processes must never share a
    merge key.
    """
    if obs.process_label() == os.environ.get("REPRO_OBS_PROCESS"):
        obs.set_process_label(f"pool-{os.getpid()}")
    index, job = indexed_job
    with obs.span("runner.job"):
        result = job.run()
    return index, result, obs.drain_payload()


def _workload_key(job: Any) -> Any:
    """The identity of the workload a job shares with others: its frozen
    config (``None`` for jobs without one)."""
    return getattr(job, "config", None)


class ParallelRunner:
    """Run sweep jobs over *jobs* worker processes with result caching.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs everything serially
        in-process with identical results.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely and
        fresh results are persisted, so interrupted sweeps resume where
        they stopped.

    Worker processes start with ``fork`` where available, else ``spawn``.

    The job protocol
    ----------------
    A *job* is any picklable object with:

    * ``run() -> result`` — execute; the result must be picklable and a
      pure function of the job's fields (all seeds live in the job);
    * ``cache_token() -> dict`` — a stable, JSON-serializable identity
      (hashed with the code fingerprint into the cache key), required
      only when a cache is attached.

    Optional: ``prepare()`` builds the workload shared by every job with
    the same ``config``; under ``fork`` the runner prewarms it once in the
    parent so children inherit it copy-on-write.  The distributed backend
    also groups same-``config`` jobs into its dispatch chunks.

    Shipped implementations: :class:`~repro.runner.spec.JobSpec`
    (pipeline conditions) and the study jobs in
    :mod:`repro.experiments.extension_jobs` — see those for worked
    ``cache_token`` examples.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.executed = 0
        self.cache_hits = 0

    @property
    def backend(self) -> str:
        """Which execution backend this runner is (see runner.backends)."""
        return "serial" if self.jobs == 1 else "process"

    # ------------------------------------------------------------------

    def run(self, spec_or_jobs: Union[SweepSpec, Sequence]) -> List[Any]:
        """Execute a sweep; returns one result per job, in job order."""
        if isinstance(spec_or_jobs, SweepSpec):
            job_list = spec_or_jobs.jobs()
        else:
            job_list = list(spec_or_jobs)
        obs.reset_notes()
        obs.count("runner.sweeps")
        obs.count("runner.jobs", len(job_list))
        results: List[Any] = [None] * len(job_list)
        keys: List[Optional[str]] = [None] * len(job_list)
        pending: List[int] = []
        with obs.span("runner.cache_lookup"):
            for i, job in enumerate(job_list):
                if self.cache is not None:
                    key = self.cache.key(job.cache_token())
                    keys[i] = key
                    hit, value = self.cache.get(key)
                    if hit:
                        results[i] = value
                        self.cache_hits += 1
                        continue
                pending.append(i)

        if pending:
            # persist each result the moment it completes (completion
            # order, not job order), so an interrupted sweep loses only
            # its in-flight jobs; the returned list is still job-ordered
            pending_jobs = [job_list[i] for i in pending]
            with obs.span("runner.sweep"):
                for local_i, value in self._iter_execute(pending_jobs):
                    i = pending[local_i]
                    results[i] = value
                    key = keys[i]
                    if self.cache is not None and key is not None:
                        self.cache.put(key, value)
                    self.executed += 1
        return results

    def run_one(self, job: Any) -> Any:
        """Convenience: run a single job through the same cache path."""
        return self.run([job])[0]

    # ------------------------------------------------------------------

    def _iter_execute(self, jobs: Sequence) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, result)`` pairs as each job completes.

        Serial execution yields in job order; parallel execution yields in
        *completion* order (``imap_unordered``) so a slow or crashed job
        can't hold finished results back from the cache.
        """
        if self.jobs <= 1 or len(jobs) <= 1:
            for index, job in enumerate(jobs):
                yield index, _execute(job)
            return
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
        ctx = multiprocessing.get_context(method)
        processes = min(self.jobs, len(jobs))
        if method == "fork":
            # Build shared workloads pre-fork so children inherit them
            # copy-on-write — but only when that wins.  Prewarming runs the
            # builds serially in the parent, so it pays off exactly when
            # the distinct workloads are too few to keep every worker busy
            # on their own; with at least as many workloads as workers,
            # each worker builds its own in parallel instead.
            # Single-consumer workloads are never worth building up front.
            consumers: dict = {}
            first: dict = {}
            for job in jobs:
                key = _workload_key(job)
                if key is not None and getattr(job, "prepare", None) is not None:
                    consumers[key] = consumers.get(key, 0) + 1
                    first.setdefault(key, job)
            if len(consumers) < processes:
                for key, job in first.items():
                    if consumers[key] >= 2:
                        with obs.span("runner.prepare"):
                            job.prepare()
        with ctx.Pool(processes=processes) as pool:
            if obs.enabled():
                # obs-aware entry: each completion also carries the
                # worker's drained span/metric buffers, folded here so
                # the run artifact sees every process
                for index, value, payload in pool.imap_unordered(
                    _execute_indexed_obs, list(enumerate(jobs)), chunksize=1
                ):
                    obs.fold_payload(payload)
                    yield index, value
            else:
                yield from pool.imap_unordered(
                    _execute_indexed, list(enumerate(jobs)), chunksize=1
                )

    def __repr__(self) -> str:
        return (
            f"ParallelRunner(jobs={self.jobs}, cache={self.cache!r}, "
            f"executed={self.executed}, cache_hits={self.cache_hits})"
        )
