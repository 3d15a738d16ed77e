"""Runner jobs for the extension and localization studies.

Each job is a frozen dataclass of plain values — picklable across a
``multiprocessing`` boundary and hashable into a stable
:meth:`cache_token` — mirroring :class:`~repro.runner.spec.JobSpec` (the
pipeline conditions) and :class:`~repro.experiments.placement.PlacementJob`.

Two shapes of job live here:

* **replay jobs** (:class:`MultihopJob`, :class:`GranularityJob`,
  :class:`LocalizationJob`) — one simulation per condition whose receivers
  record their observation logs
  (:class:`~repro.core.obslog.ObservationColumns`); the job then replays
  each log once (:mod:`repro.core.replay`) and returns the per-segment
  tables in sorted-key order;
* **plain jobs** (:class:`PtpJob`, :class:`MeshJob`) — one independent
  simulation each, returning the study's rows directly.

Every job is one condition: conditions fan out across the runner's
workers, never a condition's flows.

Seed discipline: every random sub-stream (per-hop cross traffic, per-pair
mesh traces, PTP noise) takes a :func:`~repro.experiments.config.derive_seed`
of the job's ``run_seed`` and a stream label — no two conditions or streams
can silently share an RNG stream, and the seeds sit inside the cache tokens
so the :class:`~repro.runner.cache.ResultCache` distinguishes them.

Every simulation-backed job runs on the columnar fast path (the chain's
:meth:`~repro.sim.chain.SwitchChain.run_batch`, or the fat-tree's
:class:`~repro.sim.fatpath.FatTreeFastPath` behind the deployments) where
it applies, and on the per-object reference where it does not — with
**bitwise-identical** results, so the path is no part of a job's identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..core.obslog import ObservationColumns
from ..core.replay import ReplayTables, replay_observations
from ..runner.spec import ConfigItems
from .config import derive_seed

__all__ = [
    "ReplayedSegments",
    "MultihopJob",
    "GranularityJob",
    "LocalizationJob",
    "PtpJob",
    "MeshJob",
]


class ReplayedSegments:
    """One condition's replayed per-segment tables plus its metadata.

    ``segments`` preserves the deployment's segment order; each segment's
    tables are in sorted-key order, so every float later folded over them
    (e.g. :func:`~repro.core.flowstats.pooled_stats`) has fixed bits.
    """

    def __init__(self, segments: List[Tuple[str, ReplayTables]],
                 meta: Optional[dict] = None):
        self.segments = segments
        self.meta = meta or {}


def _replay_segments(logs: Iterable[Tuple[str, ObservationColumns]],
                     meta: Optional[dict] = None) -> ReplayedSegments:
    """Replay each recorded ``(name, log)`` once, tables in sorted-key order."""
    segments = []
    for name, log in logs:
        tables = replay_observations(log)
        segments.append((name, ReplayTables(tables.estimated.sorted_by_key(),
                                            tables.true.sorted_by_key(),
                                            tables.unestimated)))
    return ReplayedSegments(segments, meta)


# ----------------------------------------------------------------------
# multihop ablation


def _multihop_log(config: ConfigItems, n_hops: int, utilization: float,
                  run_seed: int) -> ObservationColumns:
    """Simulate one chain condition, returning the receiver's event log.

    The chain runs its columnar fast path
    (:meth:`~repro.sim.chain.SwitchChain.run_batch`): per-hop cross
    arrivals stay columns (``arrivals_batch``, same seeded selection) and
    the recorded log is **bitwise identical** to the per-object path's.
    """
    from ..sim.chain import ChainConfig, SwitchChain
    from ..traffic.crosstraffic import UniformModel, calibrate_selection_probability
    from .workloads import workload_for

    workload = workload_for(config)
    cfg = workload.cfg
    prob = calibrate_selection_probability(
        workload.cross,
        regular_bytes=workload.regular.total_bytes,
        rate_bps=workload.rate_bps,
        duration=cfg.duration,
        target_utilization=utilization,
    )
    sender = workload.make_sender("static")
    log = ObservationColumns()
    receiver = workload.make_receiver(observation_log=log)
    models = {
        hop: UniformModel(prob, seed=derive_seed(run_seed, "multihop-cross", hop))
        for hop in range(n_hops)
    }
    chain = SwitchChain(ChainConfig(
        n_hops=n_hops,
        rate_bps=workload.rate_bps,
        buffer_bytes=cfg.buffer_bytes,
        proc_delay=cfg.proc_delay,
    ))
    chain.run_batch(workload.regular,
                    {hop: m.arrivals_batch(workload.cross)
                     for hop, m in models.items()},
                    sender=sender, receiver=receiver, duration=cfg.duration)
    return log


@dataclass(frozen=True)
class MultihopJob:
    """One chain length of the multihop ablation."""

    config: ConfigItems
    n_hops: int
    utilization: float
    run_seed: int = 0

    def run(self) -> ReplayedSegments:
        return _replay_segments([("chain", _multihop_log(
            self.config, self.n_hops, self.utilization, self.run_seed))])

    def cache_token(self) -> dict:
        return {
            "kind": "multihop",
            "config": dict(self.config),
            "n_hops": self.n_hops,
            "utilization": self.utilization,
            "run_seed": self.run_seed,
        }


# ----------------------------------------------------------------------
# granularity comparison (full RLI vs RLIR on one degraded fabric)


def _degraded_fattree(slow_factor: float):
    """A k=4 fabric with one core egress link running slow_factor slower."""
    from ..sim.topology import FatTree, LinkParams

    ft = FatTree(4, LinkParams(rate_bps=40e6, buffer_bytes=128 * 1024,
                               proc_delay=1e-6, prop_delay=0.5e-6))
    core = ft.cores[0][0]
    port = core.ports[ft.port_toward(core, ft.aggs[1][0])]
    port.queue.set_rate(40e6 / slow_factor)
    return ft


def _granularity_trace(ft, n_packets: int, seed: int):
    from ..traffic.synthetic import TraceConfig, generate_fattree_trace

    pairs = [(ft.host_address(0, 0, h), ft.host_address(1, 0, g))
             for h in range(2) for g in range(2)]
    return generate_fattree_trace(
        TraceConfig(duration=1.0, n_packets=n_packets, mean_flow_pkts=12.0),
        pairs, seed=seed, name="granularity")


def _granularity_sim(deployment: str, n_packets: int, trace_seed: int,
                     slow_factor: float) -> dict:
    """Run one deployment over the degraded fabric; record all receivers.

    Both halves run the shared ``FatTreeDeployment.run`` and stay on the
    event engine by design, each fallback counted: the RLIR deployment
    here uses the paper's *marking* demux (the classifier reads per-packet
    ToS state, which no columnar pass reproduces:
    ``fatpath:receiver-not-batch-capable``), and full RLI's per-hop
    segments terminate references at aggregation switches, outside the
    layered driver's model (``fatpath:receiver-at-aggregation``).
    """
    from ..core.full_rli import FullRliDeployment
    from ..core.injection import StaticInjection
    from ..core.placement import instances_tor_pair
    from ..core.rlir import RlirDeployment

    ft = _degraded_fattree(slow_factor)
    if deployment == "full":
        dep = FullRliDeployment(ft, src=(0, 0), dst=(1, 0),
                                policy_factory=lambda: StaticInjection(10),
                                record_observations=True)
        result = dep.run([_granularity_trace(ft, n_packets, trace_seed)])
        instances = result.instance_count()
        n_segments = len(result.receivers)
    elif deployment == "rlir":
        dep = RlirDeployment(ft, src=(0, 0), dst=(1, 0),
                             policy_factory=lambda: StaticInjection(10),
                             record_observations=True)
        result = dep.run([_granularity_trace(ft, n_packets, trace_seed)])
        instances = instances_tor_pair(4)
        n_segments = len(result.segments())
    else:
        raise ValueError(f"unknown deployment: {deployment!r}")
    return {
        "segments": dep.observation_logs(),
        "instances": instances,
        "n_segments": n_segments,
    }


@dataclass(frozen=True)
class GranularityJob:
    """One deployment of the granularity comparison.

    Both deployments ("full", "rlir") measure the *same* trace seed by
    design — the study compares architectures on one workload — but the
    seed is part of the job identity, so distinct seeds get distinct cache
    entries and sweeps over seeds never alias.
    """

    deployment: str
    n_packets: int
    trace_seed: int = 21
    slow_factor: float = 4.0

    def run(self) -> ReplayedSegments:
        sim = _granularity_sim(self.deployment, self.n_packets,
                               self.trace_seed, self.slow_factor)
        return _replay_segments(sim["segments"], {
            "instances": sim["instances"], "n_segments": sim["n_segments"]})

    def cache_token(self) -> dict:
        return {
            "kind": "granularity",
            "deployment": self.deployment,
            "n_packets": self.n_packets,
            "trace_seed": self.trace_seed,
            "slow_factor": self.slow_factor,
        }


# ----------------------------------------------------------------------
# localization study (the CLI demo: incast across an RLIR ToR pair)


def _localization_logs(n_packets: int, demux_method: str,
                       run_seed: int) -> List[Tuple[str, ObservationColumns]]:
    from ..core.injection import StaticInjection
    from ..core.rlir import RlirDeployment
    from ..sim.topology import FatTree, LinkParams
    from ..traffic.synthetic import TraceConfig, generate_fattree_trace

    ft = FatTree(4, LinkParams(rate_bps=100e6, buffer_bytes=256 * 1024))
    measured_pairs = [(ft.host_address(0, 0, h), ft.host_address(1, 0, g))
                      for h in range(2) for g in range(2)]
    incast_pairs = [(ft.host_address(p, e, h), ft.host_address(1, 0, g))
                    for p in (2, 3) for e in range(2) for h in range(2)
                    for g in range(2)]
    measured = generate_fattree_trace(
        TraceConfig(duration=1.0, n_packets=n_packets), measured_pairs,
        seed=derive_seed(run_seed, "localize-measured"))
    incast = generate_fattree_trace(
        TraceConfig(duration=1.0, n_packets=3 * n_packets), incast_pairs,
        seed=derive_seed(run_seed, "localize-incast"))
    deployment = RlirDeployment(ft, src=(0, 0), dst=(1, 0),
                                policy_factory=lambda: StaticInjection(50),
                                demux_method=demux_method,
                                record_observations=True)
    deployment.run([measured, incast])
    return deployment.observation_logs()


@dataclass(frozen=True)
class LocalizationJob:
    """The incast localization scenario."""

    n_packets: int
    demux_method: str = "reverse-ecmp"
    run_seed: int = 0

    def run(self) -> ReplayedSegments:
        return _replay_segments(_localization_logs(
            self.n_packets, self.demux_method, self.run_seed))

    def cache_token(self) -> dict:
        return {
            "kind": "localization",
            "n_packets": self.n_packets,
            "demux_method": self.demux_method,
            "run_seed": self.run_seed,
        }


# ----------------------------------------------------------------------
# PTP sync study


@dataclass(frozen=True)
class PtpJob:
    """One (jitter level, noise seed) cell of the PTP sync study."""

    jitter: float
    true_offset: float = 250e-6
    rounds: int = 32
    seed_index: int = 0
    run_seed: int = 0

    def cache_token(self) -> dict:
        return {
            "kind": "ptp",
            "jitter": self.jitter,
            "true_offset": self.true_offset,
            "rounds": self.rounds,
            "seed_index": self.seed_index,
            "run_seed": self.run_seed,
        }

    def run(self) -> float:
        from ..sim.ptp import PtpSession

        session = PtpSession(
            true_offset=self.true_offset,
            queue_jitter=self.jitter,
            seed=derive_seed(self.run_seed, "ptp-noise", self.seed_index),
        )
        return abs(session.synchronize(rounds=self.rounds).residual_error)


# ----------------------------------------------------------------------
# multi-pair mesh study


@dataclass(frozen=True)
class MeshJob:
    """The shared-fabric mesh study as one job.

    All pairs share one fabric and the core instances — each pair's traffic
    is cross traffic for the others — so the condition is irreducibly one
    simulation; routing it through the runner buys caching and overlap with
    other studies, not an internal split.
    """

    pairs: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]
    n_packets_per_pair: int
    run_seed: int = 0

    def cache_token(self) -> dict:
        return {
            "kind": "mesh",
            "pairs": self.pairs,
            "n_packets_per_pair": self.n_packets_per_pair,
            "run_seed": self.run_seed,
        }

    def run(self) -> List[Tuple[str, int, float, float]]:
        from ..analysis.cdf import Ecdf
        from ..analysis.metrics import flow_mean_errors
        from ..core.injection import StaticInjection
        from ..core.mesh import RlirMesh
        from ..sim.topology import FatTree, LinkParams
        from ..traffic.synthetic import TraceConfig, generate_fattree_trace

        ft = FatTree(4, LinkParams(rate_bps=40e6, buffer_bytes=256 * 1024,
                                   proc_delay=1e-6, prop_delay=0.5e-6))
        mesh = RlirMesh(ft, list(self.pairs),
                        policy_factory=lambda: StaticInjection(20))
        traces = []
        for i, (src, dst) in enumerate(self.pairs):
            host_pairs = [(ft.host_address(*src, h), ft.host_address(*dst, g))
                          for h in range(2) for g in range(2)]
            traces.append(generate_fattree_trace(
                TraceConfig(duration=1.0, n_packets=self.n_packets_per_pair,
                            mean_flow_pkts=12.0),
                host_pairs, seed=derive_seed(self.run_seed, "mesh-trace", i),
                name=f"{src}->{dst}"))
        result = mesh.run(traces)

        rows = []
        for src, dst in self.pairs:
            view = result.pair(src, dst)
            j2 = flow_mean_errors(view.segment2_estimated(), view.segment2_true())
            e2e = view.end_to_end()
            e2e_errors = [abs(e - t) / t for _, e, t in e2e if t > 0]
            rows.append((
                f"{src}->{dst}",
                len(j2.errors),
                Ecdf(j2.errors).median if len(j2.errors) else float("nan"),
                Ecdf(e2e_errors).median if e2e_errors else float("nan"),
            ))
        return rows
