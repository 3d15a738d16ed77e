"""Distributed sweep execution: broker, workers, and a drop-in runner.

The sweeps are embarrassingly parallel per condition, but
:class:`~repro.runner.runner.ParallelRunner` tops out at one machine's
``multiprocessing`` pool.  This package scales the same job model across
machines with nothing but the stdlib:

* :class:`~repro.distrib.broker.Broker` — a small TCP job queue with
  heartbeats, dead-worker requeue (bounded retries, then structured
  failures), chunked dispatch, and live progress push;
* :func:`~repro.distrib.worker.worker_main` — the stateless executor
  behind ``python -m repro worker --connect HOST:PORT``, fingerprint-
  verified so every peer runs identical simulator code;
* :class:`~repro.distrib.runner.DistributedRunner` — the
  :class:`ParallelRunner` interface over a cluster (embedded or external
  broker), byte-identical results to the serial backend;
* :class:`~repro.distrib.shaping.ShapingProxy` — a deterministic
  degraded-link relay (latency, jitter, throttling, reordering, stutter)
  for rehearsing the cluster's behaviour on bad networks, also available
  as ``python -m repro shape``.

Typical use::

    from repro.distrib import DistributedRunner
    from repro.experiments import ExperimentConfig, run_fig4ab

    with DistributedRunner(workers=4) as runner:   # embedded broker
        curves = run_fig4ab(ExperimentConfig(), runner=runner)

or, against a standing cluster::

    # on the coordinator:   python -m repro broker --listen 0.0.0.0:7077
    # on each machine:      python -m repro worker --connect coord:7077
    runner = DistributedRunner(broker="coord:7077")
"""

from .._exports import lazy_exports

# A worker process, which needs only ``worker`` and ``protocol``, never
# imports the broker, the runner, the journal or the shaping relay.
_EXPORTS = {
    "Broker": "broker",
    "BrokerUnavailableError": "protocol",
    "DistributedRunner": "runner",
    "DistributedSweepError": "protocol",
    "JobFailure": "protocol",
    "LinkShape": "shaping",
    "ProgressPrinter": "progress",
    "ProgressSnapshot": "progress",
    "ShapingProxy": "shaping",
    "SweepJournal": "journal",
    "load_journals": "journal",
    "worker_main": "worker",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
