"""Extension studies beyond the paper's figures.

These exercise the parts of the design space the paper names but does not
quantify, each with a bench:

* :func:`run_multihop_ablation` — accuracy of one RLI pair measuring across
  a growing chain of queues ("across multiple hops", Section 4), with
  cross traffic at every hop;
* :func:`run_granularity_comparison` — full RLI vs RLIR on the same
  degraded fabric: instance cost vs localization granularity, the paper's
  central trade-off, measured;
* :func:`run_memory_ablation` — estimation coverage when receivers bound
  their flow-table memory (hardware reality for 1.45 M-flow traces);
* :func:`run_ptp_study` — how path noise during IEEE 1588 sync propagates
  into per-flow estimation bias (the paper's sync prerequisite, quantified);
* :func:`run_tail_accuracy`, :func:`run_mesh_study`,
  :func:`run_aqm_comparison` — tail quantiles, the shared-core mesh, and
  RED-vs-tail-drop bottlenecks;
* :func:`run_localization_study` — the operator-facing incast localization
  scenario (the ``repro-rlir localize`` subcommand).

Every driver enumerates its conditions as declarative job descriptors
(:class:`~repro.runner.spec.JobSpec` for pipeline conditions,
:mod:`~repro.experiments.extension_jobs` for the fat-tree/chain studies)
executed through a :class:`~repro.runner.runner.ParallelRunner`: pass
``runner=`` to fan conditions out over worker processes — or over a
distributed broker/worker cluster
(:class:`~repro.distrib.runner.DistributedRunner`); every backend is
byte-identical — and memoize them on disk.  One job is one condition:
the multihop, granularity and localization jobs simulate once with
recording receivers and replay each log once (:mod:`repro.core.replay`).

The simulation-backed studies run on the columnar fast path (chain scans /
the layered fat-tree driver) wherever it applies, with bitwise-identical
rows; see ``docs/internals-batch.md`` for the exactness rules and the
fallback reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.cdf import Ecdf
from ..analysis.metrics import flow_mean_errors
from ..core.flowstats import pooled_stats
from ..core.localization import LocalizationReport, localize
from ..runner.runner import ParallelRunner
from ..runner.spec import JobSpec
from .config import ExperimentConfig
from .extension_jobs import (
    GranularityJob,
    LocalizationJob,
    MeshJob,
    MultihopJob,
    PtpJob,
)

__all__ = [
    "run_multihop_ablation",
    "run_granularity_comparison",
    "run_memory_ablation",
    "run_ptp_study",
    "run_tail_accuracy",
    "run_mesh_study",
    "run_aqm_comparison",
    "run_localization_study",
    "GranularityRow",
]


def run_multihop_ablation(
    cfg: Optional[ExperimentConfig] = None,
    hops: Sequence[int] = (1, 2, 4, 8),
    utilization: float = 0.80,
    runner: Optional[ParallelRunner] = None,
    run_seed: int = 0,
) -> List[Tuple[int, float, float]]:
    """(n_hops, median flow-mean RE, mean true latency) per chain length.

    Cross traffic is injected independently at *every* hop (each hop's
    selection stream gets its own derived seed), calibrated so each hop
    runs at *utilization* — the hardest case for delay locality across a
    multi-router segment, since the segment delay is a sum of independent
    queues.
    """
    from ..runner.spec import config_items

    cfg = cfg or ExperimentConfig()
    runner = runner or ParallelRunner()
    frozen = config_items(cfg)
    results = runner.run([MultihopJob(frozen, n_hops, utilization, run_seed)
                          for n_hops in hops])
    rows = []
    for n_hops, result in zip(hops, results):
        ((_, tables),) = result.segments
        join = flow_mean_errors(tables.estimated, tables.true)
        rows.append((n_hops, Ecdf(join.errors).median,
                     pooled_stats(tables.true).mean))
    return rows


@dataclass(frozen=True)
class GranularityRow:
    """One deployment's cost and localization outcome (plain data)."""

    name: str
    instances: int
    n_segments: int
    culprit: Optional[str]
    pinned_to_single_queue: bool


def run_granularity_comparison(
    n_packets: int = 10_000,
    runner: Optional[ParallelRunner] = None,
    trace_seed: int = 21,
    slow_factor: float = 4.0,
) -> List[GranularityRow]:
    """Full RLI vs RLIR, one slow queue (core(0,0)→dst pod) injected.

    Expected: both localize correctly at their own granularity — full RLI
    names the exact hop, RLIR the containing multi-router segment — while
    RLIR uses fewer instances (k+2 per interface pair vs per-hop pairs).
    Both deployments measure the same *trace_seed* by design (one workload,
    two architectures); the seed is part of every job's cache identity.
    """
    runner = runner or ParallelRunner()
    deployments = ("full", "rlir")
    results = runner.run([
        GranularityJob(deployment, n_packets, trace_seed, slow_factor)
        for deployment in deployments
    ])
    rows = []
    for deployment, result in zip(deployments, results):
        report = localize(
            [(name, tables.estimated) for name, tables in result.segments],
            factor=2.0, floor=5e-6, min_samples=20)
        meta = result.meta
        if deployment == "full":
            rows.append(GranularityRow(
                "full RLI", meta["instances"], meta["n_segments"],
                report.culprit,
                pinned_to_single_queue=(report.culprit == "C:cores->agg0"),
            ))
        else:
            rows.append(GranularityRow(
                "RLIR", meta["instances"], meta["n_segments"], report.culprit,
                pinned_to_single_queue=False,  # segment granularity by design
            ))
    return rows


def run_memory_ablation(
    cfg: Optional[ExperimentConfig] = None,
    utilization: float = 0.93,
    bounds: Sequence[Optional[int]] = (None, 4096, 1024, 256),
    runner: Optional[ParallelRunner] = None,
    run_seed: int = 0,
) -> List[Tuple[Optional[int], int, int, float]]:
    """(max_flows, flows retained, samples evicted, median RE of survivors)
    per flow-table bound.

    Each bound is one condition; bounds fan out across workers.
    """
    cfg = cfg or ExperimentConfig()
    runner = runner or ParallelRunner()
    jobs = [
        JobSpec.from_config(cfg, "static", "random", utilization,
                            run_seed=run_seed, max_flows=bound)
        for bound in bounds
    ]
    rows = []
    for bound, summary in zip(bounds, runner.run(jobs)):
        errors = summary.mean_join.errors
        median = Ecdf(errors).median if len(errors) else float("nan")
        rows.append((bound, len(summary.flow_true), summary.evicted_samples,
                     median))
    return rows


def run_ptp_study(
    jitters: Sequence[float] = (0.0, 1e-6, 10e-6, 100e-6),
    true_offset: float = 250e-6,
    rounds: int = 32,
    seeds: int = 5,
    runner: Optional[ParallelRunner] = None,
    run_seed: int = 0,
) -> List[Tuple[float, float]]:
    """(path queue jitter, mean |residual sync error|) per jitter level.

    Residual error is the bias every RLI delay sample inherits; compare
    against the delay scales in the Figure-4 benches to judge whether a
    software-PTP deployment suffices or hardware timestamping is needed.
    Every (jitter, repetition) cell is its own job with its own derived
    noise seed.
    """
    runner = runner or ParallelRunner()
    jobs = [
        PtpJob(jitter, true_offset, rounds, seed_index, run_seed)
        for jitter in jitters
        for seed_index in range(seeds)
    ]
    residuals = runner.run(jobs)
    rows = []
    for i, jitter in enumerate(jitters):
        cell = residuals[i * seeds:(i + 1) * seeds]
        rows.append((jitter, sum(cell) / seeds))
    return rows


def run_tail_accuracy(
    cfg: Optional[ExperimentConfig] = None,
    utilization: float = 0.93,
    quantiles: Sequence[float] = (0.5, 0.95, 0.99),
    min_packets: int = 20,
    runner: Optional[ParallelRunner] = None,
    run_seed: int = 0,
) -> Dict[float, Ecdf]:
    """Per-flow tail-quantile accuracy: quantile → Ecdf of relative errors.

    Runs the standard 93%-utilization pipeline with a quantile-enabled
    receiver (streaming P² estimators on both the estimated and true delay
    streams) and scores per-flow p50/p95/p99 estimates against per-flow
    true quantiles, restricted to flows with at least *min_packets* packets
    (tails of tiny flows are not meaningful).
    """
    cfg = cfg or ExperimentConfig()
    runner = runner or ParallelRunner()
    job = JobSpec.from_config(cfg, "adaptive", "random", utilization,
                              run_seed=run_seed, quantiles=tuple(quantiles))
    summary = runner.run_one(job)

    errors: Dict[float, List[float]] = {q: [] for q in quantiles}
    estimates = summary.flow_estimated_quantiles
    rows = summary.flow_true.rows_of(list(estimates)).tolist()
    counts = summary.flow_true.count.tolist()
    for (key, estimated), row in zip(estimates.items(), rows):
        if row < 0 or counts[row] < min_packets:
            continue
        truth = summary.flow_true_quantiles.get(key)
        for q in quantiles:
            if truth[q] > 0:
                errors[q].append(abs(estimated[q] - truth[q]) / truth[q])
    return {q: Ecdf(err) for q, err in errors.items() if err}


def run_mesh_study(
    n_packets_per_pair: int = 8000,
    pairs: Sequence[Tuple[Tuple[int, int], Tuple[int, int]]] = (
        ((0, 0), (1, 0)),
        ((0, 1), (2, 1)),
        ((3, 0), (1, 1)),
    ),
    runner: Optional[ParallelRunner] = None,
    run_seed: int = 0,
) -> List[Tuple[str, int, float, float]]:
    """Multi-pair mesh on one fabric: (pair, flows, seg2 median RE,
    e2e median RE) per measured ToR pair.

    All pairs share the fabric and the core measurement instances, so each
    pair's traffic is cross traffic for the others — the across-routers
    regime with realistic interference, and one irreducible simulation.
    """
    runner = runner or ParallelRunner()
    return runner.run_one(MeshJob(tuple(pairs), n_packets_per_pair, run_seed))


def run_aqm_comparison(
    cfg: Optional[ExperimentConfig] = None,
    utilization: float = 0.95,
    runner: Optional[ParallelRunner] = None,
    run_seed: int = 0,
) -> List[Tuple[str, float, float, int]]:
    """(queue discipline, regular loss rate, median flow-mean RE, refs lost)
    under tail-drop vs RED bottleneck queues on the identical workload.

    Drop *placement* matters to the measurement plane: RED kills reference
    packets probabilistically in proportion to load (widening interpolation
    intervals smoothly), while tail-drop loses them in full-buffer bursts.
    RED's drop-decision stream is seeded from ``run_seed`` inside the job.
    """
    from ..net.packet import PacketKind

    cfg = cfg or ExperimentConfig()
    runner = runner or ParallelRunner()
    disciplines = (("tail-drop", None), ("RED", "red"))
    jobs = [
        JobSpec.from_config(cfg, "static", "random", utilization,
                            run_seed=run_seed, aqm=aqm)
        for _, aqm in disciplines
    ]
    rows = []
    for (name, _), summary in zip(disciplines, runner.run(jobs)):
        rows.append((
            name,
            summary.loss_rate(PacketKind.REGULAR),
            Ecdf(summary.mean_join.errors).median,
            summary.drops2.get(PacketKind.REFERENCE.name, 0),
        ))
    return rows


def run_localization_study(
    n_packets: int = 20_000,
    demux_method: str = "reverse-ecmp",
    factor: float = 3.0,
    floor: float = 5e-6,
    min_samples: int = 20,
    runner: Optional[ParallelRunner] = None,
    run_seed: int = 0,
) -> LocalizationReport:
    """The operator scenario behind ``repro-rlir localize``.

    An RLIR ToR-pair deployment measures its traffic while two other pods
    incast into the destination pod; the destination-side segment inflates
    and :func:`~repro.core.localization.localize` must name it.  The
    simulation runs on the layered columnar driver (the ``marking`` demux falls back to the
    engine — its classifier reads per-packet ToS state).
    """
    runner = runner or ParallelRunner()
    result = runner.run_one(LocalizationJob(n_packets, demux_method, run_seed))
    return localize(
        [(name, tables.estimated) for name, tables in result.segments],
        factor=factor, floor=floor, min_samples=min_samples)
