"""Sanity tests of the experiment drivers at tiny scale.

These assert the *shapes* the paper reports, on miniature workloads:
accuracy improves with utilization, adaptive beats static, the placement
table matches the planner, and Figure 5's interference ordering holds.
"""

import pytest

from repro.analysis.cdf import Ecdf
from repro.analysis.metrics import flow_mean_errors
from repro.experiments.ablations import (
    run_baseline_comparison,
    run_estimator_ablation,
    run_injection_sweep,
    run_sync_error_ablation,
)
from repro.experiments.config import ExperimentConfig, default_scale
from repro.experiments.fig4 import run_fig4ab, run_fig4c
from repro.experiments.fig5 import run_fig5
from repro.experiments.placement import run_placement
from repro.experiments.workloads import PipelineWorkload, run_condition


class TestConfig:
    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert default_scale() == 0.25

    def test_bad_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "zero")
        with pytest.raises(ValueError):
            default_scale()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            default_scale()

    def test_scaled_sizes(self):
        cfg = ExperimentConfig(scale=0.5)
        assert cfg.n_regular_packets == 100_000
        assert cfg.n_cross_packets == 600_000


class TestWorkload:
    def test_regular_trace_hits_base_utilization(self, tiny_workload):
        w = tiny_workload
        util = w.regular.total_bytes * 8 / (w.rate_bps * w.cfg.duration)
        assert util == pytest.approx(w.cfg.base_utilization, rel=1e-6)

    def test_traces_cached(self, tiny_config):
        a = PipelineWorkload(tiny_config)
        b = PipelineWorkload(tiny_config)
        assert a.regular is b.regular

    def test_trace_cache_keeps_only_traces_in_use(self, monkeypatch):
        """A long-lived process that runs many seeds keeps the traces of
        the workloads it still caches, not of every config it ever ran;
        configs that differ outside the trace parameters share traces."""
        import gc

        from repro.experiments import workloads
        from repro.runner.spec import config_items

        # fresh, empty memos of the module's own kind
        monkeypatch.setattr(workloads, "_trace_cache", type(workloads._trace_cache)())
        monkeypatch.setattr(workloads, "_workload_cache", {})
        for seed in range(10):
            workloads.workload_for(config_items(ExperimentConfig(scale=0.01, seed=seed)))
        gc.collect()
        assert len(workloads._trace_cache) <= 2 * workloads._WORKLOAD_CACHE_SLOTS

        small = ExperimentConfig(scale=0.01, seed=3)
        small.buffer_bytes = 16 * 1024
        a = workloads.workload_for(config_items(ExperimentConfig(scale=0.01, seed=3)))
        b = workloads.workload_for(config_items(small))
        assert a is not b
        assert a.regular is b.regular and a.cross is b.cross

    def test_measured_utilization_close_to_target(self, tiny_workload):
        run = run_condition(tiny_workload, None, "random", 0.67)
        assert run.measured_util == pytest.approx(0.67, abs=0.05)

    def test_unknown_scheme_and_model_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            tiny_workload.make_policy("turbo")
        with pytest.raises(ValueError):
            tiny_workload.cross_arrivals("fractal", 0.5)

    def test_receiver_knobs_with_scheme_none_rejected(self, tiny_workload):
        """scheme=None runs no receiver; receiver-side knobs must raise
        instead of being silently ignored (regression: estimator= used to
        vanish without a sound)."""
        with pytest.raises(ValueError, match="estimator"):
            run_condition(tiny_workload, None, "random", 0.67,
                          estimator="nearest")
        with pytest.raises(ValueError, match="max_flows"):
            run_condition(tiny_workload, None, "random", 0.67, max_flows=64)
        with pytest.raises(ValueError, match="quantiles"):
            run_condition(tiny_workload, None, "random", 0.67,
                          quantiles=(0.5,))
        # the default estimator with no receiver stays valid (fig5 baselines)
        baseline = run_condition(tiny_workload, None, "random", 0.67)
        assert baseline.receiver is None

    def test_unknown_aqm_rejected(self, tiny_workload):
        with pytest.raises(ValueError, match="AQM"):
            run_condition(tiny_workload, "static", "random", 0.67, aqm="codel")


class TestFig4Shapes:
    def test_accuracy_improves_with_utilization(self, tiny_workload):
        """The paper's headline: relative error falls as the bottleneck
        utilization (and hence true latency) rises."""
        lo = run_condition(tiny_workload, "adaptive", "random", 0.67)
        hi = run_condition(tiny_workload, "adaptive", "random", 0.93)
        e_lo = Ecdf(flow_mean_errors(lo.receiver.flow_estimated, lo.receiver.flow_true).errors)
        e_hi = Ecdf(flow_mean_errors(hi.receiver.flow_estimated, hi.receiver.flow_true).errors)
        assert e_hi.median < e_lo.median
        assert hi.mean_true_latency > lo.mean_true_latency

    def test_adaptive_beats_static(self, tiny_workload):
        st = run_condition(tiny_workload, "static", "random", 0.93)
        ad = run_condition(tiny_workload, "adaptive", "random", 0.93)
        e_st = Ecdf(flow_mean_errors(st.receiver.flow_estimated, st.receiver.flow_true).errors)
        e_ad = Ecdf(flow_mean_errors(ad.receiver.flow_estimated, ad.receiver.flow_true).errors)
        assert e_ad.median < e_st.median
        # ...because the mis-adapted sender injects ~10x more references
        assert ad.pipeline.refs_injected > 5 * st.pipeline.refs_injected

    def test_fig4ab_driver_returns_four_curves(self, tiny_config):
        curves = run_fig4ab(tiny_config)
        assert len(curves) == 4
        assert {c.label for c in curves} == {
            "adaptive, 93%", "static, 93%", "adaptive, 67%", "static, 67%"}
        for c in curves:
            assert len(c.mean_join.errors) > 50
            assert c.std_join.joined > 10

    def test_fig4c_driver_structure(self, tiny_config):
        """Structural check only: at miniature scale the tiny link rate
        saturates both models, washing out the bursty/random latency gap.
        The full-scale bench asserts the paper's >2x latency ratio."""
        curves = run_fig4c(tiny_config)
        assert {c.label for c in curves} == {
            "bursty, 67%", "bursty, 34%", "random, 67%", "random, 34%"}
        for c in curves:
            assert len(c.mean_join.errors) > 50
            assert c.summary.measured_util == pytest.approx(
                c.summary.target_util, abs=0.08)


class TestFig5Shape:
    def test_rows_and_structure(self, tiny_config):
        """At miniature scale single-packet noise dominates the loss-rate
        differences (one packet = 5x10^-4 here), so only structural
        properties are asserted; the full-scale bench checks the ordering."""
        rows = run_fig5(tiny_config, n_seeds=2)
        assert len(rows) == len(tiny_config.fig5_utilizations)
        utils = [r.measured_util for r in rows]
        assert utils == sorted(utils)
        for row, target in zip(rows, tiny_config.fig5_utilizations):
            # drops cap the measured (carried) utilization below the offered
            # target at the top of the sweep
            assert target - 0.15 < row.measured_util < target + 0.05
            assert row.adaptive_refs > 5 * row.static_refs
            assert abs(row.static_diff) < 0.02
            assert abs(row.adaptive_diff) < 0.02

    def test_n_seeds_validated(self, tiny_config):
        with pytest.raises(ValueError):
            run_fig5(tiny_config, n_seeds=0)


class TestPlacementTable:
    def test_enumeration_matches_formulas(self):
        rows = run_placement(ks=(4, 8), enumerate_up_to=8)
        for row in rows:
            assert row.enum_interface_pair == row.interface_pair
            assert row.enum_tor_pair == row.tor_pair
            assert row.enum_all_pairs == row.all_tor_pairs_enumerated

    def test_large_k_skips_enumeration(self):
        (row,) = run_placement(ks=(32,), enumerate_up_to=16)
        assert row.enum_tor_pair is None
        assert row.tor_pair == 32 * 34 // 2

    def test_savings_reported(self):
        (row,) = run_placement(ks=(8,), enumerate_up_to=0)
        assert 0.0 < row.savings_vs_full < 1.0


class TestAblations:
    def test_estimator_ablation_linear_best(self, tiny_config):
        results = run_estimator_ablation(tiny_config)
        assert set(results) == {"linear", "previous", "nearest"}
        assert results["linear"].median <= results["previous"].median

    def test_injection_sweep_monotone_refs(self, tiny_config):
        rows = run_injection_sweep(tiny_config, gaps=(10, 100, 1000))
        refs = [r[2] for r in rows]
        assert refs == sorted(refs, reverse=True)
        # denser references never hurt much: error at n=10 <= error at n=1000
        assert rows[0][1] <= rows[-1][1]

    def test_sync_error_degrades_accuracy(self, tiny_config):
        # offset chosen >> the workload's delay scale so the bias dominates
        rows = run_sync_error_ablation(tiny_config, offsets=(0.0, 0.05))
        assert rows[1][1] > rows[0][1]

    def test_baseline_comparison_fields(self, tiny_config):
        out = run_baseline_comparison(tiny_config)
        assert out["n_flows"] > 100
        assert out["rli_median_re"] is not None
        assert 0.9 <= out["rli_coverage"] <= 1.0
        # trajectory sampling covers a strict subset of flows
        assert out["trajectory_coverage"] < out["rli_coverage"]
        # LDA gets the aggregate right
        assert out["lda_aggregate_re"] < 0.05
