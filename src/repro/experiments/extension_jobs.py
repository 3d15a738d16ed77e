"""Runner jobs for the extension and localization studies.

Each job is a frozen dataclass of plain values — picklable across a
``multiprocessing`` boundary and hashable into a stable
:meth:`cache_token` — mirroring :class:`~repro.runner.spec.JobSpec` (the
pipeline conditions) and :class:`~repro.experiments.placement.PlacementJob`.

Two shapes of job live here:

* **whole-condition jobs** (:class:`PtpJob`, :class:`MeshJob`) — one
  independent simulation each, parallel across conditions;
* **shard jobs** (:class:`MultihopShardJob`, :class:`GranularityShardJob`,
  :class:`LocalizationShardJob`) — the simulation runs *once* per condition
  (memoized below, prewarmed pre-fork so workers inherit it copy-on-write)
  and records every receiver's observation log (columnar
  :class:`~repro.core.obslog.ObservationColumns`, a fraction of the tuple
  log's memory); each shard job then replays the log restricted to its
  flow shard (:mod:`repro.core.replay`), so one large condition's per-flow
  estimation fans out over workers instead of serializing on one core.
  The shared ``run_chunk`` additionally replays a whole chunk of
  same-condition shards in one log pass — the distributed backend's
  dispatch envelope (:func:`~repro.core.replay.replay_observations_multi`).

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.replay import ReplayTables, replay_observations, replay_observations_multi
from ..runner.spec import ConfigItems
from .config import derive_seed

__all__ = [
    "ShardedSegments",
    "MultihopShardJob",
    "GranularityShardJob",
    "LocalizationShardJob",
    "PtpJob",
    "MeshJob",
]

# Fields deliberately absent from prepare_key (checked by reprolint
# KEY002): prepare_key names the memoized *per-condition* simulation
# artifact, which every flow shard of that condition shares — the shard
# selector must NOT split the memo, or prewarming would rebuild one
# simulation per shard and chunked replay could not batch shards.
# cache_token still carries shard/n_shards, so cached *results* never
# alias across shards.
PREPARE_KEY_EXEMPT = {
    "MultihopShardJob.shard": "replay selector over the shared event log",
    "MultihopShardJob.n_shards": "replay partition count; log is shared",
    "GranularityShardJob.shard": "replay selector over the shared event log",
    "GranularityShardJob.n_shards": "replay partition count; log is shared",
    "LocalizationShardJob.shard": "replay selector over the shared event log",
    "LocalizationShardJob.n_shards": "replay partition count; log is shared",
}


# ----------------------------------------------------------------------
# memoized per-condition simulation artifacts
#
# A condition's shard jobs all need the same recorded observation log.
# Jobs advertise the log's identity via ``prepare_key``: the runner builds
# it once in the parent before forking (children inherit it copy-on-write),
# and under spawn each worker rebuilds it on first use.  Entries built by
# ``prepare()`` are *pinned* — a prewarmed log must survive until the fork
# however many conditions the sweep has — and unpinned again by the
# runner's ``release_prepared()`` call once its pool is done, since the
# parent's copy is dead weight after the children inherit it.  Entries
# built lazily inside ``run()`` stay in a bounded FIFO so a long-lived
# worker process does not accumulate logs forever.

_SIM_CACHE: Dict[tuple, object] = {}
_SIM_PINNED: set = set()
_SIM_CACHE_SLOTS = 8


def _memoized_sim(key: tuple, build: Callable[[], object],
                  pin: bool = False) -> object:
    artifact = _SIM_CACHE.get(key)
    if artifact is None:
        artifact = build()
        evictable = [k for k in _SIM_CACHE if k not in _SIM_PINNED]
        while evictable and len(_SIM_CACHE) >= _SIM_CACHE_SLOTS:
            _SIM_CACHE.pop(evictable.pop(0))
        _SIM_CACHE[key] = artifact
    if pin:
        _SIM_PINNED.add(key)
    return artifact


def _release_sim(key: tuple) -> None:
    """Unpin and drop one prewarmed artifact (see ``_memoized_sim``)."""
    _SIM_PINNED.discard(key)
    _SIM_CACHE.pop(key, None)


class _ShardJobBase:
    """Replay/pin/chunk plumbing shared by the sharded job types.

    Subclasses provide ``prepare_key``, ``_build()`` (run the simulation,
    return its artifact), ``_segments(sim)`` (the recorded ``(name,
    events)`` logs) and optionally ``_meta(sim)``; this base turns those
    into the runner's job interface — ``prepare``/``release_prepared``
    (pre-fork prewarming), ``run`` (replay one shard), and ``run_chunk``
    (replay a whole chunk of same-condition shards in one log pass, the
    distributed backend's dispatch envelope).
    """

    def _build(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _segments(self, sim) -> List[Tuple[str, list]]:  # pragma: no cover
        raise NotImplementedError

    def _meta(self, sim) -> dict:
        return {}

    def prepare(self) -> None:
        _memoized_sim(self.prepare_key, self._build, pin=True)

    def release_prepared(self) -> None:
        _release_sim(self.prepare_key)

    def run(self) -> "ShardedSegments":
        sim = _memoized_sim(self.prepare_key, self._build)
        segments = [
            (name, replay_observations(events, shard=self.shard,
                                       n_shards=self.n_shards))
            for name, events in self._segments(sim)
        ]
        return ShardedSegments(segments, meta=self._meta(sim))

    def run_chunk(self, jobs: Sequence["_ShardJobBase"]) -> List["ShardedSegments"]:
        """Run several shards of one condition with a single log pass.

        All *jobs* must share this job's ``prepare_key`` (the broker's
        chunker guarantees it); each returned :class:`ShardedSegments` is
        bitwise-identical to what that job's own :meth:`run` would build.
        """
        for job in jobs:
            if job.prepare_key != self.prepare_key or job.n_shards != self.n_shards:
                raise ValueError(
                    f"chunk mixes conditions: {job!r} vs {self!r}"
                )
        sim = _memoized_sim(self.prepare_key, self._build)
        shards = tuple(job.shard for job in jobs)
        replayed = [
            (name, replay_observations_multi(events, shards=shards,
                                             n_shards=self.n_shards))
            for name, events in self._segments(sim)
        ]
        return [
            ShardedSegments(
                [(name, by_shard[job.shard]) for name, by_shard in replayed],
                meta=self._meta(sim),
            )
            for job in jobs
        ]


# ----------------------------------------------------------------------
# shard results


class ShardedSegments:
    """One shard's replayed per-segment tables plus condition metadata.

    ``segments`` preserves the deployment's segment order; each table holds
    only the shard's flows, so shards merge by disjoint union
    (:func:`~repro.core.replay.merge_shard_tables`).
    """

    def __init__(self, segments: List[Tuple[str, ReplayTables]],
                 meta: Optional[dict] = None):
        self.segments = segments
        self.meta = meta or {}


# ----------------------------------------------------------------------
# multihop ablation


def _multihop_log(config: ConfigItems, n_hops: int, utilization: float,
                  run_seed: int):
    """Simulate one chain condition, returning the receiver's event log.

    The chain runs its columnar fast path
    (:meth:`~repro.sim.chain.SwitchChain.run_batch`): per-hop cross
    arrivals stay columns (``arrivals_batch``, same seeded selection) and
    the recorded log is **bitwise identical** to the per-object path's.
    """
    from ..core.obslog import make_observation_log
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
    # columnar log: ~4x less prepared-artifact memory per condition, and
    # fork-inherited pages stay clean (replay never touches refcounts)
    log = make_observation_log("array")
    receiver = workload.make_receiver(observation_log=log, record_only=True)
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
class MultihopShardJob(_ShardJobBase):
    """One flow shard of one chain length of the multihop ablation."""

    config: ConfigItems
    n_hops: int
    utilization: float
    run_seed: int = 0
    shard: int = 0
    n_shards: int = 1

    @property
    def prepare_key(self) -> tuple:
        return ("multihop", self.config, self.n_hops, self.utilization,
                self.run_seed)

    def _build(self):
        return _multihop_log(self.config, self.n_hops, self.utilization,
                             self.run_seed)

    def _segments(self, sim) -> List[Tuple[str, list]]:
        return [("chain", sim)]

    def cache_token(self) -> dict:
        return {
            "kind": "multihop-shard",
            "config": dict(self.config),
            "n_hops": self.n_hops,
            "utilization": self.utilization,
            "run_seed": self.run_seed,
            "shard": self.shard,
            "n_shards": self.n_shards,
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

    Both halves stay on the event engine by design: the RLIR deployment
    here uses the paper's *marking* demux (the classifier reads per-packet
    ToS state, which no columnar pass reproduces, so the fast path counts a
    fallback) and full RLI's per-hop segments terminate references at
    aggregation switches, outside the layered driver's model.
    """
    from ..core.full_rli import FullRliDeployment
    from ..core.injection import StaticInjection
    from ..core.placement import instances_tor_pair
    from ..core.rlir import RlirDeployment

    ft = _degraded_fattree(slow_factor)
    if deployment == "full":
        dep = FullRliDeployment(ft, src=(0, 0), dst=(1, 0),
                                policy_factory=lambda: StaticInjection(10),
                                record_observations="array")
        result = dep.run([_granularity_trace(ft, n_packets, trace_seed)])
        instances = result.instance_count()
        n_segments = len(result.receivers)
    elif deployment == "rlir":
        dep = RlirDeployment(ft, src=(0, 0), dst=(1, 0),
                             policy_factory=lambda: StaticInjection(10),
                             record_observations="array")
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
class GranularityShardJob(_ShardJobBase):
    """One flow shard of one deployment of the granularity comparison.

    Both deployments ("full", "rlir") measure the *same* trace seed by
    design — the study compares architectures on one workload — but the
    seed is part of the job identity, so distinct seeds get distinct cache
    entries and sweeps over seeds never alias.
    """

    deployment: str
    n_packets: int
    trace_seed: int = 21
    slow_factor: float = 4.0
    shard: int = 0
    n_shards: int = 1

    @property
    def prepare_key(self) -> tuple:
        return ("granularity", self.deployment, self.n_packets,
                self.trace_seed, self.slow_factor)

    def _build(self):
        return _granularity_sim(self.deployment, self.n_packets,
                                self.trace_seed, self.slow_factor)

    def _segments(self, sim) -> List[Tuple[str, list]]:
        return sim["segments"]

    def _meta(self, sim) -> dict:
        return {"instances": sim["instances"], "n_segments": sim["n_segments"]}

    def cache_token(self) -> dict:
        return {
            "kind": "granularity-shard",
            "deployment": self.deployment,
            "n_packets": self.n_packets,
            "trace_seed": self.trace_seed,
            "slow_factor": self.slow_factor,
            "shard": self.shard,
            "n_shards": self.n_shards,
        }


# ----------------------------------------------------------------------
# localization study (the CLI demo: incast across an RLIR ToR pair)


def _localization_sim(n_packets: int, demux_method: str, run_seed: int) -> dict:
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
                                record_observations="array")
    deployment.run([measured, incast])
    return {"segments": deployment.observation_logs()}


@dataclass(frozen=True)
class LocalizationShardJob(_ShardJobBase):
    """One flow shard of the incast localization scenario."""

    n_packets: int
    demux_method: str = "reverse-ecmp"
    run_seed: int = 0
    shard: int = 0
    n_shards: int = 1

    @property
    def prepare_key(self) -> tuple:
        return ("localize", self.n_packets, self.demux_method, self.run_seed)

    def _build(self):
        return _localization_sim(self.n_packets, self.demux_method,
                                 self.run_seed)

    def _segments(self, sim) -> List[Tuple[str, list]]:
        return sim["segments"]

    def cache_token(self) -> dict:
        return {
            "kind": "localization-shard",
            "n_packets": self.n_packets,
            "demux_method": self.demux_method,
            "run_seed": self.run_seed,
            "shard": self.shard,
            "n_shards": self.n_shards,
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
                Ecdf(j2.errors).median if j2.errors else float("nan"),
                Ecdf(e2e_errors).median if e2e_errors else float("nan"),
            ))
        return rows
