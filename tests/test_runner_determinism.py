"""Determinism of the sweep runner: serial and parallel execution of the
same seeded conditions must be indistinguishable.

The simulator consumes no global randomness — every job carries its trace
seed (inside the frozen config) and its cross-traffic selection seed
(``run_seed``) — so a condition's summary is a pure function of its
:class:`~repro.runner.spec.JobSpec`.  These tests pin that property: the
serial fallback, a repeated serial run, and a 2-worker
:class:`~repro.runner.runner.ParallelRunner` must produce summaries that
are equal value-by-value *and* byte-identical under pickle.  The
record-then-replay extension studies are held to the same standard.
"""

import pickle

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.extensions import (
    run_granularity_comparison,
    run_localization_study,
    run_multihop_ablation,
)
from repro.experiments.fig4 import run_fig4ab
from repro.runner import JobSpec, ParallelRunner, SweepSpec


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(scale=0.01, seed=7)


@pytest.fixture(scope="module")
def jobs(cfg):
    """Two independent conditions of the Figure-4 grid."""
    return [
        JobSpec.from_config(cfg, "adaptive", "random", 0.67),
        JobSpec.from_config(cfg, "static", "random", 0.67),
    ]


class TestSerialDeterminism:
    def test_same_job_twice_is_identical(self, jobs):
        runner = ParallelRunner(jobs=1)
        first = runner.run_one(jobs[0])
        second = runner.run_one(jobs[0])
        assert first == second
        assert pickle.dumps(first) == pickle.dumps(second)


class TestParallelMatchesSerial:
    def test_summaries_equal_and_byte_identical(self, jobs):
        serial = ParallelRunner(jobs=1).run(jobs)
        parallel = ParallelRunner(jobs=2).run(jobs)
        for s, p in zip(serial, parallel):
            assert s == p
            assert pickle.dumps(s) == pickle.dumps(p)

    def test_processed_delivered_and_flows_match(self, jobs):
        serial = ParallelRunner(jobs=1).run(jobs)
        parallel = ParallelRunner(jobs=2).run(jobs)
        for s, p in zip(serial, parallel):
            # the ISSUE's explicit invariants, asserted field by field
            assert s.processed_packets == p.processed_packets
            assert s.delivered_packets == p.delivered_packets
            assert s.arrivals2 == p.arrivals2
            assert s.drops2 == p.drops2
            assert s.flow_estimated == p.flow_estimated
            assert s.flow_true == p.flow_true
            for join_s, join_p in ((s.mean_join, p.mean_join), (s.std_join, p.std_join)):
                assert join_s.errors.dtype == join_p.errors.dtype == np.float64
                assert join_s.errors.tobytes() == join_p.errors.tobytes()
            assert s.measured_util == p.measured_util
            assert s.mean_true_latency == p.mean_true_latency
            assert s.refs_injected == p.refs_injected

    def test_driver_output_independent_of_worker_count(self, cfg):
        serial_curves = run_fig4ab(cfg)
        parallel_curves = run_fig4ab(cfg, runner=ParallelRunner(jobs=2))
        assert [c.label for c in serial_curves] == [c.label for c in parallel_curves]
        for s, p in zip(serial_curves, parallel_curves):
            assert s.summary == p.summary
            assert s.summary_row() == p.summary_row()


class TestExtensionParallel:
    """serial == ParallelRunner(jobs=2) for the replay studies, byte for byte."""

    def test_multihop_serial_parallel_identical(self, cfg):
        serial = run_multihop_ablation(cfg, hops=(1, 2))
        parallel = run_multihop_ablation(cfg, hops=(1, 2),
                                         runner=ParallelRunner(jobs=2))
        assert serial == parallel
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_granularity_serial_parallel_identical(self):
        serial = run_granularity_comparison(n_packets=3000)
        parallel = run_granularity_comparison(n_packets=3000,
                                              runner=ParallelRunner(jobs=2))
        assert serial == parallel
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_localization_serial_parallel_identical(self):
        serial = run_localization_study(n_packets=2000)
        parallel = run_localization_study(n_packets=2000,
                                          runner=ParallelRunner(jobs=2))
        assert serial.as_rows() == parallel.as_rows()
        assert serial.culprit == parallel.culprit
        assert pickle.dumps(serial.as_rows()) == pickle.dumps(parallel.as_rows())


class TestSweepSpecEnumeration:
    def test_jobs_enumerate_in_declared_nesting_order(self, cfg):
        spec = SweepSpec.from_config(
            cfg,
            schemes=("adaptive", "static"),
            utilizations=(0.93, 0.67),
        )
        labels = [(j.target_util, j.scheme) for j in spec.jobs()]
        assert labels == [
            (0.93, "adaptive"), (0.93, "static"),
            (0.67, "adaptive"), (0.67, "static"),
        ]
        assert len(spec) == 4

    def test_axis_order_changes_nesting(self, cfg):
        spec = SweepSpec.from_config(
            cfg,
            schemes=("adaptive", "static"),
            utilizations=(0.93, 0.67),
            axis_order=("scheme", "utilization", "model", "estimator", "run_seed"),
        )
        labels = [(j.target_util, j.scheme) for j in spec.jobs()]
        assert labels == [
            (0.93, "adaptive"), (0.67, "adaptive"),
            (0.93, "static"), (0.67, "static"),
        ]

    def test_bad_axis_order_rejected(self, cfg):
        with pytest.raises(ValueError):
            SweepSpec.from_config(cfg, axis_order=("scheme", "utilization"))

    def test_jobspec_roundtrips_config(self):
        local = ExperimentConfig(scale=0.01, seed=7)
        local.static_n = 64  # a mutated knob must survive the freeze
        job = JobSpec.from_config(local, "static", "random", 0.93)
        rebuilt = job.experiment_config()
        assert vars(rebuilt) == vars(local)

    def test_jobspec_is_picklable(self, jobs):
        assert pickle.loads(pickle.dumps(jobs[0])) == jobs[0]
