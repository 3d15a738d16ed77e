"""Shared workload construction for the pipeline experiments.

Builds (and caches) the regular/cross traces, derives the link rate that
puts the regular workload at the paper's ~22 % operating point, and wires
RLI senders/receivers for one condition of Figure 4/5.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..analysis.metrics import FlowErrorJoin, flow_mean_errors, flow_std_errors
from ..core.demux import SingleSenderDemux
from ..core.flowstats import FlowRows, pooled_stats
from ..core.injection import AdaptiveInjection, InjectionPolicy, StaticInjection
from ..core.obslog import ObservationColumns
from ..core.receiver import RliReceiver
from ..core.sender import RefTemplate, RliSender
from ..net.addressing import Prefix, ip_to_int
from ..net.packet import Packet, PacketKind
from ..sim.clock import OffsetClock
from ..sim.chain import ChainConfig, ChainResult, FirstHop
from ..sim.pipeline import TwoSwitchPipeline
from ..traffic.batch import BATCH_COLUMNS, PacketBatch
from ..traffic.crosstraffic import (
    BurstyModel,
    UniformModel,
    calibrate_selection_probability,
)
from ..traffic.synthetic import TraceConfig, generate_trace
from ..traffic.trace import Trace
from .config import (
    CROSS_SRC_BASE,
    REGULAR_SRC_BASE,
    ExperimentConfig,
    config_from_items,
)

__all__ = [
    "PipelineWorkload",
    "ConditionResult",
    "ConditionSummary",
    "run_condition",
    "run_condition_job",
    "summarize_condition",
    "workload_for",
]

PIPELINE_SENDER_ID = 1

# traces by generation parameters, held weakly: a trace stays while some
# workload (e.g. one in _workload_cache) uses it, so configs that share
# trace parameters share one trace, and a process that runs many configs
# keeps only the traces of the workloads it still holds
_trace_cache: "weakref.WeakValueDictionary[Tuple, Trace]" = weakref.WeakValueDictionary()


def _cached_trace(kind: str, cfg: ExperimentConfig) -> Trace:
    """Build (once) the regular or cross trace for this config.

    The key must cover every knob generate_trace consumes, or two configs
    differing only in an omitted knob would silently share one trace.
    """
    key = (kind, cfg.n_regular_packets, cfg.n_cross_packets, cfg.duration,
           cfg.mean_flow_pkts, cfg.seed)
    trace = _trace_cache.get(key)
    if trace is not None:
        return trace
    if kind == "regular":
        tc = TraceConfig(
            duration=cfg.duration,
            n_packets=cfg.n_regular_packets,
            mean_flow_pkts=cfg.mean_flow_pkts,
            src_base=REGULAR_SRC_BASE,
        )
        trace = generate_trace(tc, seed=cfg.seed, name="regular")
    elif kind == "cross":
        tc = TraceConfig(
            duration=cfg.duration,
            n_packets=cfg.n_cross_packets,
            mean_flow_pkts=cfg.mean_flow_pkts,
            src_base=CROSS_SRC_BASE,
            dst_base="10.10.0.0",
        )
        trace = generate_trace(tc, seed=cfg.seed + 1, name="cross")
    else:
        raise ValueError(f"unknown trace kind: {kind}")
    _trace_cache[key] = trace
    return trace


class PipelineWorkload:
    """Traces + physical parameters for one experiment configuration."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.regular = _cached_trace("regular", cfg)
        self.cross = _cached_trace("cross", cfg)
        # pick the link rate that puts the regular workload alone at the
        # paper's ~22% utilization operating point
        self.rate_bps = self.regular.total_bytes * 8.0 / (cfg.duration * cfg.base_utilization)
        self.pipeline_config = ChainConfig(
            n_hops=2,
            rate_bps=self.rate_bps,
            buffer_bytes=cfg.buffer_bytes,
            proc_delay=cfg.proc_delay,
        )
        self.regular_prefix = Prefix.parse(f"{REGULAR_SRC_BASE}/16")
        # the tail-drop Switch 1 per (scheme, static_n); see switch1()
        self._switch1: Dict[Tuple[Optional[str], Optional[int]], FirstHop] = {}
        # the last cross selection drawn, as ((model, util, seed), batch)
        self._cross_batch: Optional[Tuple[Tuple[str, float, int], PacketBatch]] = None

    # ------------------------------------------------------------------

    def selection_probability(self, target_util: float) -> float:
        """Selection probability hitting *target_util* at Switch 2."""
        return calibrate_selection_probability(
            self.cross,
            regular_bytes=self.regular.total_bytes,
            rate_bps=self.rate_bps,
            duration=self.cfg.duration,
            target_utilization=target_util,
        )

    def _cross_model(self, model: str, target_util: float, seed: int):
        prob = self.selection_probability(target_util)
        if model == "random":
            return UniformModel(prob, seed=seed)
        if model == "bursty":
            return BurstyModel(prob, self.cfg.bursty_on, self.cfg.bursty_period,
                               seed=seed)
        raise ValueError(f"unknown cross-traffic model: {model}")

    def cross_arrivals(self, model: str, target_util: float, seed: int = 0) -> List[Tuple[float, Packet]]:
        """Build one run's cross-traffic arrivals under *model*."""
        return self._cross_model(model, target_util, seed).arrivals(self.cross)

    def cross_arrivals_batch(self, model: str, target_util: float,
                             seed: int = 0) -> PacketBatch:
        """Columnar :meth:`cross_arrivals`: identical selection, no objects.

        The last selection is kept, read-only: sweeps order their
        conditions so that those differing only in scheme or receiver
        knobs follow each other, and they all draw the same columns.
        Only one selection is ever held.
        """
        key = (model, target_util, seed)
        if self._cross_batch is None or self._cross_batch[0] != key:
            self._cross_batch = None  # never hold two while drawing
            batch = self._cross_model(model, target_util, seed).arrivals_batch(self.cross)
            for name in BATCH_COLUMNS:
                getattr(batch, name).flags.writeable = False
            self._cross_batch = (key, batch)
        return self._cross_batch[1]

    def make_policy(self, scheme: str) -> InjectionPolicy:
        """The paper's static 1-and-100 or adaptive 1-and-[10..300]."""
        if scheme == "static":
            return StaticInjection(self.cfg.static_n)
        if scheme == "adaptive":
            return AdaptiveInjection(self.cfg.adaptive_n_min, self.cfg.adaptive_n_max)
        raise ValueError(f"unknown injection scheme: {scheme}")

    def make_sender(self, scheme: str, static_n: Optional[int] = None) -> RliSender:
        """A fresh sender for *scheme*; *static_n* overrides its policy
        with a static gap (the injection-gap ablation)."""
        policy = self.make_policy(scheme)
        if static_n is not None:
            policy = StaticInjection(static_n)
        template = RefTemplate(
            src=ip_to_int(REGULAR_SRC_BASE) + 1,
            dst=ip_to_int("10.2.255.254"),
        )
        return RliSender(
            sender_id=PIPELINE_SENDER_ID,
            link_rate_bps=self.rate_bps,
            policy=policy,
            templates={0: template},
        )

    def switch1(self, scheme: Optional[str], static_n: Optional[int]) -> FirstHop:
        """The tail-drop Switch 1 of every condition with this sender.

        Switch 1 reads the regular trace, the workload's switch
        parameters and the sender, and nothing else a condition sets, so
        conditions that differ in load, cross model, run seed or
        receiver share one :class:`~repro.sim.chain.FirstHop`: built
        on first use, kept as long as the workload.  :func:`run_condition`
        hands it to ``run_batch``, which reads it only for a run its
        blocker admits, so a per-object run never builds nor reads it.
        """
        key = (scheme, static_n)
        first = self._switch1.get(key)
        if first is None:
            sender = self.make_sender(scheme, static_n) if scheme is not None else None
            first = TwoSwitchPipeline(self.pipeline_config).first_hop(self.regular, sender)
            self._switch1[key] = first
        return first

    def make_receiver(
        self,
        estimator: str = "linear",
        max_flows: Optional[int] = None,
        quantiles: Optional[Tuple[float, ...]] = None,
        observation_log: Optional[ObservationColumns] = None,
    ) -> RliReceiver:
        return RliReceiver(
            demux=SingleSenderDemux(PIPELINE_SENDER_ID, regular_prefixes=[self.regular_prefix]),
            estimator=estimator,
            max_flows=max_flows,
            quantiles=quantiles,
            observation_log=observation_log,
        )


class ConditionResult:
    """Everything one (scheme, model, utilization) run produces."""

    def __init__(
        self,
        scheme: str,
        model: str,
        target_util: float,
        pipeline: ChainResult,
        receiver: Optional[RliReceiver],
        sender: Optional[RliSender],
    ):
        self.scheme = scheme
        self.model = model
        self.target_util = target_util
        self.pipeline = pipeline
        self.receiver = receiver
        self.sender = sender

    @property
    def measured_util(self) -> float:
        return self.pipeline.utilization(1)

    @property
    def mean_true_latency(self) -> float:
        """Pooled true mean latency of measured regular packets."""
        return pooled_stats(self.receiver.flow_true).mean


def run_condition(
    workload: PipelineWorkload,
    scheme: Optional[str],
    model: str,
    target_util: float,
    estimator: str = "linear",
    run_seed: int = 0,
    static_n: Optional[int] = None,
    clock_offset: float = 0.0,
    max_flows: Optional[int] = None,
    quantiles: Optional[Tuple[float, ...]] = None,
    aqm: Optional[str] = None,
) -> ConditionResult:
    """Run one pipeline condition.

    ``scheme=None`` disables reference injection (Figure 5's baseline runs);
    it runs no receiver, so combining it with receiver-side knobs (a
    non-default ``estimator``, ``max_flows``, or ``quantiles``) is a
    contradiction and raises rather than silently ignoring them.
    ``static_n`` overrides the injection gap (the injection-gap ablation);
    a nonzero ``clock_offset`` desynchronizes the receiver clock (the
    sync-error ablation); ``max_flows``/``quantiles`` configure the
    receiver's flow tables; ``aqm="red"`` swaps both switch queues for RED.

    The condition runs through the columnar pipeline fast path; the
    pipeline falls back to the per-object path by itself where the fast
    path does not apply (e.g. RED queues), with bitwise-identical numbers.
    On the fast path a tail-drop condition scans Switch 2 alone, on the
    workload's shared :meth:`PipelineWorkload.switch1` for its scheme and
    ``static_n``; a fallback run scans both switches with its own sender.
    """
    if scheme is None:
        contradictory = [
            name
            for name, off in (("estimator", estimator == "linear"),
                              ("max_flows", max_flows is None),
                              ("quantiles", not quantiles))
            if not off
        ]
        if contradictory:
            raise ValueError(
                f"scheme=None runs no receiver, so {', '.join(contradictory)} "
                f"would be silently ignored; drop them or pick a scheme"
            )
    sender = workload.make_sender(scheme, static_n) if scheme is not None else None
    receiver = (
        workload.make_receiver(estimator, max_flows=max_flows, quantiles=quantiles)
        if scheme is not None
        else None
    )
    if receiver is not None and clock_offset != 0.0:
        receiver.clock = OffsetClock(clock_offset)
    pipeline = TwoSwitchPipeline(_pipeline_config(workload, aqm, run_seed))
    result = pipeline.run_batch(
        workload.regular,
        workload.cross_arrivals_batch(model, target_util, seed=run_seed),
        sender=sender,
        receiver=receiver,
        duration=workload.cfg.duration,
        # an AQM swaps queue 1 too, so only tail-drop runs share Switch 1
        first_hop=None if aqm is not None else partial(workload.switch1, scheme, static_n),
    )
    if receiver is not None:
        receiver.finalize()
    return ConditionResult(scheme, model, target_util, result, receiver, sender)


def _pipeline_config(workload: PipelineWorkload, aqm: Optional[str],
                     run_seed: int) -> ChainConfig:
    """The workload's pipeline config, with *aqm* queues swapped in.

    ``aqm=None`` keeps the shared tail-drop config; ``"red"`` builds a RED
    bottleneck (thresholds at 1/8 and 1/2 of the buffer) whose drop-decision
    stream is seeded from ``run_seed`` so no two conditions share it (RED
    runs fall back inside the pipeline — the vectorized scan only models
    tail drop).
    """
    if aqm is None:
        return workload.pipeline_config
    if aqm != "red":
        raise ValueError(f"unknown AQM discipline: {aqm!r}")
    from ..sim.red import RedQueue
    from .config import derive_seed

    def red_factory(rate_bps, buffer_bytes, proc_delay, name):
        # each queue gets its own drop-decision stream (keyed by queue
        # name), so the two switches' early-drop lotteries are uncorrelated
        return RedQueue(rate_bps, buffer_bytes, proc_delay, name,
                        min_th_bytes=buffer_bytes // 8,
                        max_th_bytes=buffer_bytes // 2,
                        max_p=0.2, seed=derive_seed(run_seed, "red-drops", name))

    return ChainConfig(
        n_hops=2,
        rate_bps=workload.rate_bps,
        buffer_bytes=workload.cfg.buffer_bytes,
        proc_delay=workload.cfg.proc_delay,
        queue_factory=red_factory,
    )


# ----------------------------------------------------------------------
# picklable condition summaries and the sweep-runner job function

FlowKey = Tuple[int, int, int, int, int]
QuantileRow = Dict[float, float]  # quantile -> estimated value


@dataclass
class ConditionSummary:
    """Everything the figure drivers need from one condition, as plain data.

    Unlike :class:`ConditionResult` (which holds live receiver/queue
    objects), a summary is a value: picklable across process boundaries,
    cacheable on disk, and comparable with ``==`` — the determinism suite
    asserts serial and parallel sweeps produce *equal* summaries.  Per-flow
    data travels as numpy columns (:class:`~repro.core.flowstats.FlowRows`
    and the joins' error arrays), so a summary pickles no per-flow Python
    object and ``==`` compares those columns bit for bit.
    """

    scheme: Optional[str]
    model: str
    target_util: float
    estimator: str
    run_seed: int
    # bottleneck-link accounting
    measured_util: float
    utilization1: float
    processed_packets: int  # arrivals at the bottleneck switch
    delivered_packets: int  # arrivals minus drops
    arrivals2: Dict[str, int] = field(default_factory=dict)  # by PacketKind name
    drops2: Dict[str, int] = field(default_factory=dict)
    # reference-injection accounting
    refs_injected: int = 0  # references that entered the pipeline
    sender_refs_injected: int = 0  # references the sender generated
    # accuracy
    mean_true_latency: float = 0.0
    mean_join: Optional[FlowErrorJoin] = None
    std_join: Optional[FlowErrorJoin] = None
    # per-flow (count, mean, std), in each receiver table's order
    flow_estimated: FlowRows = field(default_factory=FlowRows.empty)
    flow_true: FlowRows = field(default_factory=FlowRows.empty)
    # bounded-flow-table accounting (memory ablation; 0 when unbounded)
    evicted_flows: int = 0
    evicted_samples: int = 0
    # per-flow streaming quantiles (tail study; empty unless requested)
    flow_estimated_quantiles: Dict[FlowKey, QuantileRow] = field(default_factory=dict)
    flow_true_quantiles: Dict[FlowKey, QuantileRow] = field(default_factory=dict)

    def loss_rate(self, kind: PacketKind = PacketKind.REGULAR) -> float:
        """Loss rate of *kind* packets at the bottleneck switch."""
        arrivals = self.arrivals2.get(kind.name, 0)
        return self.drops2.get(kind.name, 0) / arrivals if arrivals else 0.0


def summarize_condition(condition: ConditionResult, estimator: str = "linear",
                        run_seed: int = 0) -> ConditionSummary:
    """Reduce a live :class:`ConditionResult` to a picklable summary."""
    pipeline = condition.pipeline
    receiver = condition.receiver
    processed = sum(pipeline.arrivals.values())
    dropped = sum(pipeline.drops.values())
    summary = ConditionSummary(
        scheme=condition.scheme,
        model=condition.model,
        target_util=condition.target_util,
        estimator=estimator,
        run_seed=run_seed,
        measured_util=pipeline.utilization(1),
        utilization1=pipeline.utilization(0),
        processed_packets=processed,
        delivered_packets=processed - dropped,
        arrivals2={kind.name: n for kind, n in pipeline.arrivals.items()},
        drops2={kind.name: n for kind, n in pipeline.drops.items()},
        refs_injected=pipeline.refs_injected,
        sender_refs_injected=condition.sender.refs_injected if condition.sender else 0,
    )
    if receiver is not None:
        summary.mean_true_latency = condition.mean_true_latency
        summary.mean_join = flow_mean_errors(receiver.flow_estimated, receiver.flow_true)
        summary.std_join = flow_std_errors(receiver.flow_estimated, receiver.flow_true)
        summary.flow_estimated = FlowRows.of(receiver.flow_estimated)
        summary.flow_true = FlowRows.of(receiver.flow_true)
        summary.evicted_flows = getattr(receiver.flow_estimated, "evicted_flows", 0)
        summary.evicted_samples = getattr(receiver.flow_estimated, "evicted_samples", 0)
        if receiver.flow_estimated_quantiles is not None:
            summary.flow_estimated_quantiles = {
                key: dict(q) for key, q in receiver.flow_estimated_quantiles.items()
            }
            summary.flow_true_quantiles = {
                key: dict(q) for key, q in receiver.flow_true_quantiles.items()
            }
    return summary


# per-process workload memo so repeated jobs in one worker share traces
# and each workload's Switch 1 (PipelineWorkload.switch1); bounded FIFO: a
# sweep touches one or two configs, so a handful of slots gives full reuse
# without retaining workloads for every config a long-lived process ever
# ran.  An evicted workload takes its Switch-1 values with it, and its
# traces leave _trace_cache once no other workload uses them.
_workload_cache: Dict[Tuple, PipelineWorkload] = {}
_WORKLOAD_CACHE_SLOTS = 4


def workload_for(config_items: Tuple[Tuple[str, object], ...]) -> PipelineWorkload:
    """The (memoized) workload for a frozen ExperimentConfig state.

    Keyed by the full config items so any knob change rebuilds; the
    underlying trace cache additionally dedupes across configs that share
    trace parameters.
    """
    workload = _workload_cache.get(config_items)
    if workload is None:
        workload = PipelineWorkload(config_from_items(config_items))
        while len(_workload_cache) >= _WORKLOAD_CACHE_SLOTS:
            _workload_cache.pop(next(iter(_workload_cache)))
        _workload_cache[config_items] = workload
    return workload


def run_condition_job(job) -> ConditionSummary:
    """Execute one :class:`~repro.runner.spec.JobSpec` (pure function).

    This is the unit of work the sweep runner distributes: everything the
    run depends on is inside *job*, and the returned summary is plain data.
    """
    workload = workload_for(job.config)
    condition = run_condition(
        workload,
        job.scheme,
        job.model,
        job.target_util,
        estimator=job.estimator,
        run_seed=job.run_seed,
        static_n=job.static_n,
        clock_offset=job.clock_offset,
        max_flows=job.max_flows,
        quantiles=job.quantiles or None,
        aqm=job.aqm,
    )
    return summarize_condition(condition, estimator=job.estimator, run_seed=job.run_seed)
