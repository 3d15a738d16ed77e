"""Ablation studies on the design choices DESIGN.md calls out.

Not figures from the paper, but benches that justify/inspect its design:

* estimator ablation — linear interpolation vs previous/nearest reference
  (quantifies the value of interpolating rather than holding);
* injection-gap sweep — accuracy as a function of static n (why 1-and-10 vs
  1-and-100 matters an order of magnitude);
* clock-sync sensitivity — how residual sender/receiver offset corrupts
  per-flow estimates (why the paper requires IEEE 1588/GPS);
* baseline comparison — RLI vs LDA (aggregate only) vs Multiflow vs
  trajectory sampling on the identical workload.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.cdf import Ecdf
from ..analysis.metrics import flow_mean_errors
from ..baselines.lda import Lda
from ..baselines.multiflow import MultiflowEstimator
from ..baselines.trajectory import TrajectorySampler
from ..core.flowstats import pooled_stats
from ..core.receiver import RliReceiver
from ..core.sender import RliSender
from ..runner.runner import ParallelRunner
from ..runner.spec import JobSpec
from ..sim.pipeline import TwoSwitchPipeline
from .config import ExperimentConfig
from .workloads import PipelineWorkload

__all__ = [
    "run_estimator_ablation",
    "run_injection_sweep",
    "run_sync_error_ablation",
    "run_baseline_comparison",
]


def run_estimator_ablation(
    cfg: Optional[ExperimentConfig] = None,
    utilization: float = 0.93,
    estimators: Tuple[str, ...] = ("linear", "previous", "nearest"),
    runner: Optional[ParallelRunner] = None,
) -> Dict[str, Ecdf]:
    """Median flow-mean error per interpolation strategy (same workload)."""
    cfg = cfg or ExperimentConfig()
    runner = runner or ParallelRunner()
    jobs = [
        JobSpec.from_config(cfg, "static", "random", utilization, estimator=estimator)
        for estimator in estimators
    ]
    return {
        estimator: Ecdf(summary.mean_join.errors)
        for estimator, summary in zip(estimators, runner.run(jobs))
    }


def run_injection_sweep(
    cfg: Optional[ExperimentConfig] = None,
    utilization: float = 0.93,
    gaps: Tuple[int, ...] = (10, 30, 100, 300, 1000),
    runner: Optional[ParallelRunner] = None,
) -> List[Tuple[int, float, int]]:
    """(n, median flow-mean relative error, refs injected) per static gap."""
    cfg = cfg or ExperimentConfig()
    runner = runner or ParallelRunner()
    jobs = [
        JobSpec.from_config(cfg, "static", "random", utilization, static_n=n)
        for n in gaps
    ]
    return [
        (n, Ecdf(summary.mean_join.errors).median, summary.refs_injected)
        for n, summary in zip(gaps, runner.run(jobs))
    ]


def run_sync_error_ablation(
    cfg: Optional[ExperimentConfig] = None,
    utilization: float = 0.93,
    offsets: Tuple[float, ...] = (0.0, 1e-6, 10e-6, 100e-6),
    runner: Optional[ParallelRunner] = None,
) -> List[Tuple[float, float]]:
    """(receiver clock offset, median flow-mean relative error).

    A positive receiver offset inflates every reference delay sample by the
    offset, biasing all estimates — the reason RLI requires hardware time
    sync.
    """
    cfg = cfg or ExperimentConfig()
    runner = runner or ParallelRunner()
    jobs = [
        JobSpec.from_config(cfg, "static", "random", utilization, clock_offset=offset)
        for offset in offsets
    ]
    return [
        (offset, Ecdf(summary.mean_join.errors).median)
        for offset, summary in zip(offsets, runner.run(jobs))
    ]


class _TeeSender:
    """Feed the regular stream to the RLI sender and passive baselines."""

    def __init__(self, rli: RliSender, passive: List):
        self.rli = rli
        self.passive = passive

    def on_regular(self, packet, now):
        for observer in self.passive:
            observer.on_regular(packet, now)
        return self.rli.on_regular(packet, now)


class _TeeReceiver:
    """Feed bottleneck departures to the RLI receiver and passive baselines."""

    def __init__(self, rli: RliReceiver, passive: List):
        self.rli = rli
        self.passive = passive

    def observe(self, packet, now):
        for observer in self.passive:
            observer.observe(packet, now)
        self.rli.observe(packet, now)


def run_baseline_comparison(
    cfg: Optional[ExperimentConfig] = None,
    utilization: float = 0.93,
) -> Dict[str, object]:
    """RLI vs LDA vs Multiflow vs trajectory sampling, one workload.

    Returns a dict with per-method summaries:
    ``rli_median_re``/``multiflow_median_re``/``trajectory_median_re``
    (per-flow mean relative error medians and coverage) and the LDA
    aggregate-mean error.
    """
    cfg = cfg or ExperimentConfig()
    workload = PipelineWorkload(cfg)
    rli_sender = workload.make_sender("static")
    rli_receiver = workload.make_receiver()
    lda = Lda()
    multiflow = MultiflowEstimator()
    trajectory = TrajectorySampler(prob=0.05)
    pipeline = TwoSwitchPipeline(workload.pipeline_config)
    pipeline.run(
        regular=workload.regular.clone_packets(),
        cross=workload.cross_arrivals("random", utilization),
        sender=_TeeSender(rli_sender, [lda, multiflow, trajectory]),
        receiver=_TeeReceiver(rli_receiver, [lda, multiflow, trajectory]),
        duration=cfg.duration,
    )
    rli_receiver.finalize()

    truth = rli_receiver.flow_true
    rli_join = flow_mean_errors(rli_receiver.flow_estimated, truth)

    # Multiflow: per-flow two-sample estimates vs the same truth
    mf_errors = []
    mf_covered = 0
    for key, est in multiflow.estimates().items():
        t = truth.get(key)
        if t is None or t.mean <= 0:
            continue
        mf_covered += 1
        mf_errors.append(abs(est - t.mean) / t.mean)

    # Trajectory: per-flow stats over sampled packets vs truth
    tr_errors = []
    tr_covered = 0
    for key, stats in trajectory.per_flow().items():
        t = truth.get(key)
        if t is None or t.mean <= 0:
            continue
        tr_covered += 1
        tr_errors.append(abs(stats.mean - t.mean) / t.mean)

    # LDA: aggregate mean vs pooled truth
    pooled = pooled_stats(truth)
    lda_estimate = lda.estimate()
    lda_error = (
        abs(lda_estimate.mean - pooled.mean) / pooled.mean
        if lda_estimate.mean is not None and pooled.mean > 0
        else None
    )

    n_flows = len(truth)
    return {
        "n_flows": n_flows,
        "rli_median_re": Ecdf(rli_join.errors).median,
        "rli_coverage": rli_join.joined / n_flows if n_flows else 0.0,
        "multiflow_median_re": Ecdf(mf_errors).median if mf_errors else None,
        "multiflow_coverage": mf_covered / n_flows if n_flows else 0.0,
        "trajectory_median_re": Ecdf(tr_errors).median if tr_errors else None,
        "trajectory_coverage": tr_covered / n_flows if n_flows else 0.0,
        "lda_aggregate_re": lda_error,
        "lda_estimate": lda_estimate,
        "true_aggregate_mean": pooled.mean,
    }
