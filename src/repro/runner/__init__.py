"""Sweep orchestration: declarative condition grids, parallel execution,
and a content-addressed on-disk result cache.

The paper's evaluation is a set of embarrassingly parallel grids —
(injection scheme × cross-traffic model × utilization × seed) conditions
that share nothing but read-only traces.  This package turns each grid into
picklable :class:`~repro.runner.spec.JobSpec` descriptors
(:class:`~repro.runner.spec.SweepSpec` enumerates them declaratively), fans
them out over worker processes
(:class:`~repro.runner.runner.ParallelRunner`), and memoizes every result
on disk keyed by (configuration, code version, seeds)
(:class:`~repro.runner.cache.ResultCache`), so re-runs and interrupted
sweeps resume instantly.

Typical use::

    from repro.experiments import ExperimentConfig, run_fig4ab
    from repro.runner import ParallelRunner, ResultCache

    runner = ParallelRunner(jobs=4, cache=ResultCache())
    curves = run_fig4ab(ExperimentConfig(), runner=runner)

Results are independent of worker count: the serial path (``jobs=1``) and
any parallel fan-out produce byte-identical summaries (see
``tests/test_runner_determinism.py``).

:func:`~repro.runner.backends.make_runner` maps a backend name —
``serial | process | distributed`` — to a runner object; the distributed
backend (:mod:`repro.distrib`) executes the same jobs on a broker/worker
cluster with the same byte-identical guarantee.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "BACKENDS": "backends",
    "make_runner": "backends",
    "CACHE_VERSION": "cache",
    "DEFAULT_CACHE_DIR": "cache",
    "ResultCache": "cache",
    "code_fingerprint": "cache",
    "ParallelRunner": "runner",
    "JobSpec": "spec",
    "SweepSpec": "spec",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
