"""Sanity tests for the extension experiment drivers (tiny scale)."""

import math

import pytest

from repro.experiments.extensions import (
    run_granularity_comparison,
    run_memory_ablation,
    run_multihop_ablation,
    run_ptp_study,
)
from repro.runner import ParallelRunner, ResultCache


class TestMultihop:
    def test_latency_grows_with_hops(self, tiny_config):
        rows = run_multihop_ablation(tiny_config, hops=(1, 3))
        assert rows[1][2] > rows[0][2]

    def test_rows_shape(self, tiny_config):
        rows = run_multihop_ablation(tiny_config, hops=(2,))
        ((hops, median, latency),) = rows
        assert hops == 2
        assert 0 <= median < 2.0
        assert latency > 0


class TestGranularity:
    def test_both_deployments_localize(self):
        full, rlir = run_granularity_comparison(n_packets=6000)
        assert full.culprit == "C:cores->agg0"
        assert rlir.culprit == "seg2:to-dst-tor"
        assert full.pinned_to_single_queue
        assert not rlir.pinned_to_single_queue
        assert rlir.instances < full.instances


class TestMemoryAblation:
    def test_bounds_respected(self, tiny_config):
        rows = run_memory_ablation(tiny_config, bounds=(None, 64))
        unbounded, bounded = rows
        assert unbounded[0] is None and unbounded[2] == 0
        assert bounded[1] <= 64
        assert bounded[2] > 0  # evictions happened at this tight bound

    def test_survivor_accuracy_defined(self, tiny_config):
        rows = run_memory_ablation(tiny_config, bounds=(128,))
        assert not math.isnan(rows[0][3])


class TestPtpStudy:
    def test_clean_path_perfect(self):
        rows = run_ptp_study(jitters=(0.0,))
        assert rows[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_jitter_hurts(self):
        rows = run_ptp_study(jitters=(0.0, 100e-6), seeds=3)
        assert rows[1][1] > rows[0][1]

    def test_residual_below_jitter(self):
        rows = run_ptp_study(jitters=(50e-6,), rounds=64, seeds=3)
        assert rows[0][1] < 50e-6


class TestTailAccuracy:
    def test_quantile_keys_present(self, tiny_config):
        from repro.experiments.extensions import run_tail_accuracy

        results = run_tail_accuracy(tiny_config, quantiles=(0.5, 0.95),
                                    min_packets=10)
        assert set(results) <= {0.5, 0.95}
        assert 0.5 in results
        assert results[0.5].median < 1.0

    def test_min_packets_filter(self, tiny_config):
        from repro.experiments.extensions import run_tail_accuracy

        strict = run_tail_accuracy(tiny_config, quantiles=(0.5,),
                                   min_packets=50)
        loose = run_tail_accuracy(tiny_config, quantiles=(0.5,),
                                  min_packets=5)
        if 0.5 in strict and 0.5 in loose:
            assert len(strict[0.5]) <= len(loose[0.5])


class TestMeshStudy:
    def test_three_pairs_measured(self):
        from repro.experiments.extensions import run_mesh_study

        rows = run_mesh_study(n_packets_per_pair=3000)
        assert len(rows) == 3
        for pair, flows, seg2, e2e in rows:
            assert flows > 20, pair
            assert seg2 == seg2 and seg2 < 1.0  # not NaN, sane


class TestAqmComparison:
    def test_disciplines_compared(self, tiny_config):
        from repro.experiments.extensions import run_aqm_comparison

        rows = run_aqm_comparison(tiny_config)
        names = [r[0] for r in rows]
        assert names == ["tail-drop", "RED"]
        for name, loss, median, ref_drops in rows:
            assert 0.0 <= loss < 0.5
            assert median < 2.0


class TestRunnerRouting:
    """Every extension driver goes through ParallelRunner + ResultCache."""

    def test_all_drivers_execute_through_the_runner(self, tiny_config):
        from repro.experiments.extensions import (
            run_aqm_comparison, run_localization_study, run_mesh_study,
            run_tail_accuracy)

        runner = ParallelRunner(jobs=1)
        run_multihop_ablation(tiny_config, hops=(1,), runner=runner)
        run_granularity_comparison(n_packets=2000, runner=runner)
        run_memory_ablation(tiny_config, bounds=(64,), runner=runner)
        run_ptp_study(jitters=(0.0,), seeds=1, runner=runner)
        run_tail_accuracy(tiny_config, quantiles=(0.5,), runner=runner)
        run_mesh_study(n_packets_per_pair=1500, runner=runner)
        run_aqm_comparison(tiny_config, runner=runner)
        run_localization_study(n_packets=1500, runner=runner)
        # multihop 1 + granularity 2 + memory 1 + ptp 1 + tail 1 + mesh 1
        # + aqm 2 + localize 1 jobs, all executed (no cache configured)
        assert runner.executed == 10
        assert runner.cache_hits == 0

    def test_one_job_per_condition(self, tiny_config):
        """No study splits a condition's flows over jobs: no driver or job
        takes a shard knob, the CLI rejects ``--shards``, and a two-hop
        multihop sweep executes exactly two jobs."""
        import dataclasses
        import inspect

        from repro.cli import build_parser
        from repro.experiments import extension_jobs, extensions, fig4, fig5
        from repro.runner.spec import JobSpec, SweepSpec

        knobs = {"shards", "shard", "n_shards"}
        drivers = [fig4.run_fig4ab, fig4.run_fig4c, fig5.run_fig5]
        drivers += [getattr(extensions, name) for name in extensions.__all__
                    if name.startswith("run_")]
        for fn in drivers:
            assert not knobs & set(inspect.signature(fn).parameters), fn
        jobs = [JobSpec, SweepSpec]
        jobs += [getattr(extension_jobs, name) for name in extension_jobs.__all__
                 if dataclasses.is_dataclass(getattr(extension_jobs, name))]
        assert len(jobs) == 7
        for cls in jobs:
            assert not knobs & {f.name for f in dataclasses.fields(cls)}, cls
        parser = build_parser()
        for command in ("extensions", "localize"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--shards", "2"])
        runner = ParallelRunner(jobs=1)
        run_multihop_ablation(tiny_config, hops=(1, 2), runner=runner)
        assert runner.executed == 2

    def test_rerun_answers_from_cache(self, tiny_config, tmp_path):
        cache = ResultCache(root=tmp_path / "cache", fingerprint="test")
        cold = ParallelRunner(jobs=1, cache=cache)
        first = run_multihop_ablation(tiny_config, hops=(1, 2), runner=cold)
        assert cold.executed == 2  # one job per hop count
        warm = ParallelRunner(jobs=1, cache=cache)
        second = run_multihop_ablation(tiny_config, hops=(1, 2), runner=warm)
        assert warm.executed == 0
        assert warm.cache_hits == 2
        assert first == second

    def test_seeds_reach_cache_keys(self, tiny_config, tmp_path):
        """Two run_seeds must never share a cache entry (the old hard-coded
        seeds made every sweep condition alias one key)."""
        cache = ResultCache(root=tmp_path / "cache", fingerprint="test")
        runner = ParallelRunner(jobs=1, cache=cache)
        run_multihop_ablation(tiny_config, hops=(1,), runner=runner, run_seed=0)
        run_multihop_ablation(tiny_config, hops=(1,), runner=runner, run_seed=1)
        assert runner.executed == 2
        assert runner.cache_hits == 0

    def test_run_seed_changes_the_numbers(self, tiny_config):
        """The threaded seed actually reaches the random streams."""
        a = run_multihop_ablation(tiny_config, hops=(1,), run_seed=0)
        b = run_multihop_ablation(tiny_config, hops=(1,), run_seed=1)
        assert a != b

    def test_granularity_trace_seed_is_threaded(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache", fingerprint="test")
        runner = ParallelRunner(jobs=1, cache=cache)
        run_granularity_comparison(n_packets=2000, runner=runner, trace_seed=21)
        run_granularity_comparison(n_packets=2000, runner=runner, trace_seed=22)
        assert runner.executed == 4
        assert runner.cache_hits == 0


class TestLocalizationStudy:
    def test_incast_culprit_is_destination_segment(self):
        from repro.experiments.extensions import run_localization_study

        report = run_localization_study(n_packets=6000)
        assert report.culprit == "seg2:to-dst-tor"
        assert len(report.summaries) == 5  # 4 seg1 cores + seg2
