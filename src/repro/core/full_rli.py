"""Full RLI deployment: instances at every router on the measured paths.

The paper's baseline architecture and the thing RLIR exists to avoid paying
for: "The most effective deployment strategy is to install RLI instances at
every interfaces of switches/routers that packets can traverse" (Section 3).
Full deployment buys single-hop localization granularity — each inter-switch
queue is its own measured segment — at Θ(k⁴) instance cost.

For a (src ToR, dst ToR) pair on a fat-tree, every path crosses four
queueing segments, each instrumented here:

    A  src edge uplink u     → aggregation u          (k/2 segments)
    B  aggregation u, port j → core (u, j)            ((k/2)² segments)
    C  core (u, j)           → dst-pod aggregation u  ((k/2)² segments)
    D  dst-pod aggregation u → dst edge               (k/2 segments)

Segments A and B need only prefix demultiplexing (paths converge); segments
C and D are the downstream cases and reuse RLIR's reverse-ECMP machinery —
the receiver recomputes which core / which aggregation the packet came
through from the source-side hash functions.

The comparison bench pits this against :class:`~repro.core.rlir.RlirDeployment`:
same accuracy and workload, ~2x the instances on the path (and Θ(k) more
fabric-wide), but an induced slow queue is pinned to one hop instead of one
multi-router segment.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..net.packet import Packet
from ..sim.clock import Clock, PerfectClock
from ..sim.engine import Engine
from ..sim.switch import Switch
from ..sim.topology import FatTree
from ..traffic.trace import Trace
from .demux import PathClassifierDemux, UpstreamPrefixDemux
from .flowstats import FlowStatsTable
from .injection import InjectionPolicy, StaticInjection
from .obslog import ObservationColumns
from .receiver import RliReceiver
from .sender import RefTemplate, RliSender

__all__ = ["FullRliDeployment", "FullRliResult"]

SEG_A_BASE = 3000
SEG_B_BASE = 4000
SEG_C_BASE = 5000
SEG_D_BASE = 6000


class FullRliResult:
    """Per-hop-segment receivers, keyed by a human-readable segment name."""

    def __init__(self, receivers: Dict[str, RliReceiver]):
        self.receivers = receivers

    def segments(self) -> List[Tuple[str, FlowStatsTable]]:
        """(name, estimated table) per hop segment, for localization."""
        return [(name, rx.flow_estimated) for name, rx in self.receivers.items()]

    def true_segments(self) -> List[Tuple[str, FlowStatsTable]]:
        return [(name, rx.flow_true) for name, rx in self.receivers.items()]

    def instance_count(self) -> int:
        """Interfaces instrumented on the path: one sender + one receiver
        per hop segment (dual-role instances counted once per interface)."""
        # sender interface and receiver interface per segment
        return 2 * len(self.receivers)


class FullRliDeployment:
    """Instrument every switch on the (src ToR → dst ToR) paths."""

    def __init__(
        self,
        fattree: FatTree,
        src: Tuple[int, int],
        dst: Tuple[int, int],
        policy_factory: Callable[[], InjectionPolicy] = lambda: StaticInjection(100),
        estimator: str = "linear",
        clock_factory: Optional[Callable[[], Clock]] = None,
        record_observations: bool = False,
    ):
        if src == dst:
            raise ValueError("source and destination ToR must differ")
        if src[0] == dst[0]:
            raise ValueError("inter-pod pairs only (same constraint as RLIR)")
        self.fattree = fattree
        self.src = src
        self.dst = dst
        self.policy_factory = policy_factory
        self.estimator = estimator
        self.clock_factory = clock_factory or PerfectClock
        self.record_observations = record_observations
        self.engine: Optional[Engine] = None
        self.receivers: Dict[str, RliReceiver] = {}
        self.senders: Dict[str, RliSender] = {}
        self._wired = False

    # ------------------------------------------------------------------

    def wire(self, engine: Engine) -> None:
        if self._wired:
            raise RuntimeError("deployment already wired")
        self._wired = True
        self.engine = engine
        ft = self.fattree
        half = ft.k // 2
        src_pod, src_e = self.src
        dst_pod, dst_e = self.dst
        src_edge = ft.edges[src_pod][src_e]
        dst_edge = ft.edges[dst_pod][dst_e]
        src_prefix = ft.tor_prefix(src_pod, src_e)
        dst_prefix = ft.tor_prefix(dst_pod, dst_e)

        # ---- segment A: src edge uplink u -> agg(src_pod, u) ----
        for u in range(half):
            agg = ft.aggs[src_pod][u]
            sender = self._attach_sender(
                src_edge, ft.port_toward(src_edge, agg),
                sender_id=SEG_A_BASE + u,
                templates={0: RefTemplate(src_edge.address, agg.address)},
                classify=None,
            )
            self._attach_receiver(
                agg, f"A:edge->agg{u}",
                UpstreamPrefixDemux([(src_prefix, SEG_A_BASE + u)]),
            )
            self.senders[f"A:uplink{u}"] = sender

        # ---- segment B: agg(src_pod, u) port j -> core(u, j) ----
        for u in range(half):
            agg = ft.aggs[src_pod][u]
            for j in range(half):
                core = ft.cores[u][j]
                sid = SEG_B_BASE + u * half + j
                sender = self._attach_sender(
                    agg, ft.port_toward(agg, core),
                    sender_id=sid,
                    templates={0: RefTemplate(agg.address, core.address)},
                    classify=None,
                )
                self._attach_receiver(
                    core, f"B:agg{u}->core({u},{j})",
                    UpstreamPrefixDemux([(src_prefix, sid)]),
                )
                self.senders[f"B:agg{u}:port{j}"] = sender

        # ---- segment C: core(u, j) -> agg(dst_pod, u) ----
        core_sender_of = {}
        for u in range(half):
            for j in range(half):
                core = ft.cores[u][j]
                sid = SEG_C_BASE + core.node_id
                core_sender_of[core.node_id] = sid
                dst_agg = ft.aggs[dst_pod][u]
                sender = self._attach_sender(
                    core, ft.port_toward(core, dst_agg),
                    sender_id=sid,
                    templates={0: RefTemplate(core.address, dst_agg.address)},
                    classify=self._dst_filter(dst_prefix),
                )
                self.senders[f"C:core({u},{j})"] = sender
        for u in range(half):
            dst_agg = ft.aggs[dst_pod][u]
            group = {ft.cores[u][j].node_id: core_sender_of[ft.cores[u][j].node_id]
                     for j in range(half)}
            self._attach_receiver(
                dst_agg, f"C:cores->agg{u}",
                PathClassifierDemux(
                    self._core_classifier(group),
                    sender_ids=group.values(),
                    source_prefixes=[src_prefix],
                ),
            )

        # ---- segment D: agg(dst_pod, u) -> dst edge ----
        agg_sender_of = {}
        for u in range(half):
            dst_agg = ft.aggs[dst_pod][u]
            sid = SEG_D_BASE + u
            agg_sender_of[u] = sid
            sender = self._attach_sender(
                dst_agg, ft.port_toward(dst_agg, dst_edge),
                sender_id=sid,
                templates={0: RefTemplate(dst_agg.address, dst_edge.address)},
                classify=self._dst_filter(dst_prefix),
            )
            self.senders[f"D:agg{u}"] = sender
        self._attach_receiver(
            dst_edge, "D:aggs->edge",
            PathClassifierDemux(
                self._agg_classifier(src_edge, half, agg_sender_of),
                sender_ids=agg_sender_of.values(),
                source_prefixes=[src_prefix],
            ),
        )

    # ------------------------------------------------------------------
    # classifier factories (the receiver-side "routing knowledge")

    def _dst_filter(self, dst_prefix):
        def classify(packet: Packet) -> Optional[int]:
            return 0 if dst_prefix.contains(packet.dst) else None

        return classify

    def _core_classifier(self, group: Dict[int, int]):
        """Reverse-ECMP: which core (within one group) did the packet use?"""
        ft = self.fattree

        def classify(packet: Packet) -> Optional[int]:
            try:
                core = ft.core_of(packet.flow_key)
            except ValueError:
                return None
            return group.get(core.node_id)

        return classify

    def _agg_classifier(self, src_edge: Switch, half: int, agg_sender_of: Dict[int, int]):
        """Which dst-pod aggregation did the packet descend through?  The
        core group — hence the dst agg index — equals the source edge's
        uplink hash choice."""

        def classify(packet: Packet) -> Optional[int]:
            u = src_edge.hasher.choose(packet.flow_key, half)
            return agg_sender_of.get(u)

        return classify

    # ------------------------------------------------------------------

    def _attach_sender(self, switch: Switch, port_index: int, sender_id: int,
                       templates, classify) -> RliSender:
        port = switch.ports[port_index]
        sender = RliSender(
            sender_id=sender_id,
            link_rate_bps=port.queue.rate_Bps * 8.0,
            policy=self.policy_factory(),
            templates=templates,
            classify=classify,
            clock=self.clock_factory(),
        )

        def tap(packet: Packet, now: float) -> None:
            if not packet.is_regular:
                return
            packet.tap_time = now
            refs = sender.on_regular(packet, now)
            if refs:
                for ref in refs:
                    self.engine.forward_injected(ref, switch.inject(ref, now, port_index))

        port.add_enqueue_tap(tap)
        return sender

    def observation_logs(self) -> List[Tuple[str, ObservationColumns]]:
        """(segment name, recorded events) per receiver (after a run)."""
        if not self.record_observations:
            raise RuntimeError("deployment built without record_observations")
        return [(name, rx.observation_log) for name, rx in self.receivers.items()]

    def _attach_receiver(self, switch: Switch, name: str, demux) -> RliReceiver:
        receiver = RliReceiver(demux=demux, clock=self.clock_factory(),
                               estimator=self.estimator,
                               observation_log=(ObservationColumns()
                                                if self.record_observations
                                                else None),
                               record_only=self.record_observations)

        def tap(packet: Packet, now: float, in_port: int) -> None:
            if packet.is_regular or packet.is_reference:
                receiver.observe(packet, now)

        switch.add_arrival_tap(tap)
        self.receivers[name] = receiver
        return receiver

    # ------------------------------------------------------------------

    def run(self, traces: List[Trace], until: Optional[float] = None) -> FullRliResult:
        """Inject traces at their source ToRs, run, finalize, collect."""
        engine = Engine()
        self.wire(engine)
        ft = self.fattree
        for trace in traces:
            engine.inject_trace(trace.clone_packets(), lambda p: ft.edge_of(p.src))
        engine.run(until=until)
        for receiver in self.receivers.values():
            receiver.finalize()
        return FullRliResult(dict(self.receivers))
