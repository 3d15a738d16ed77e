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
from ..sim.clock import Clock
from ..sim.switch import Switch
from ..sim.topology import FatTree
from .demux import PathClassifierDemux, UpstreamPrefixDemux
from .flowstats import FlowStatsTable
from .injection import InjectionPolicy, StaticInjection
from .receiver import RliReceiver
from .rlir import FatTreeDeployment
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

    def instance_count(self) -> int:
        """Interfaces instrumented on the path: one sender + one receiver
        per hop segment (dual-role instances counted once per interface)."""
        # sender interface and receiver interface per segment
        return 2 * len(self.receivers)


class FullRliDeployment(FatTreeDeployment):
    """Instrument every switch on the (src ToR → dst ToR) paths.

    Its receivers at aggregation switches lie outside the layered columnar
    driver's model, so :meth:`run` (the shared
    :meth:`~repro.core.rlir.FatTreeDeployment.run`) falls back to the
    engine, counted as ``fatpath:receiver-at-aggregation``.
    """

    def __init__(
        self,
        fattree: FatTree,
        src: Tuple[int, int],
        dst: Tuple[int, int],
        policy_factory: Callable[[], InjectionPolicy] = lambda: StaticInjection(100),
        clock_factory: Optional[Callable[[], Clock]] = None,
        record_observations: bool = False,
    ):
        if src == dst:
            raise ValueError("source and destination ToR must differ")
        if src[0] == dst[0]:
            raise ValueError("inter-pod pairs only (same constraint as RLIR)")
        super().__init__(fattree, policy_factory, clock_factory,
                         record_observations)
        self.src = src
        self.dst = dst
        self.senders: Dict[str, RliSender] = {}

    # ------------------------------------------------------------------

    def _attach(self) -> None:
        ft = self.fattree
        half = ft.k // 2
        src_pod, src_e = self.src
        dst_pod, dst_e = self.dst
        src_edge = ft.edges[src_pod][src_e]
        dst_edge = ft.edges[dst_pod][dst_e]
        src_prefix = ft.tor_prefix(src_pod, src_e)
        to_dst_tor = ("tor_map", ((dst_pod, dst_e, 0),))

        # ---- segment A: src edge uplink u -> agg(src_pod, u) ----
        for u in range(half):
            agg = ft.aggs[src_pod][u]
            self.senders[f"A:uplink{u}"] = self.attach_sender(
                src_edge, ft.port_toward(src_edge, agg), SEG_A_BASE + u,
                {0: RefTemplate(src_edge.address, agg.address)}, None)
            self.attach_receiver(
                agg, f"A:edge->agg{u}",
                UpstreamPrefixDemux([(src_prefix, SEG_A_BASE + u)]),
            )

        # ---- segment B: agg(src_pod, u) port j -> core(u, j) ----
        for u in range(half):
            agg = ft.aggs[src_pod][u]
            for j in range(half):
                core = ft.cores[u][j]
                sid = SEG_B_BASE + u * half + j
                self.senders[f"B:agg{u}:port{j}"] = self.attach_sender(
                    agg, ft.port_toward(agg, core), sid,
                    {0: RefTemplate(agg.address, core.address)}, None)
                self.attach_receiver(
                    core, f"B:agg{u}->core({u},{j})",
                    UpstreamPrefixDemux([(src_prefix, sid)]),
                )

        # ---- segment C: core(u, j) -> agg(dst_pod, u) ----
        core_sender_of = {}
        for u in range(half):
            for j in range(half):
                core = ft.cores[u][j]
                sid = SEG_C_BASE + core.node_id
                core_sender_of[core.node_id] = sid
                dst_agg = ft.aggs[dst_pod][u]
                self.senders[f"C:core({u},{j})"] = self.attach_sender(
                    core, ft.port_toward(core, dst_agg), sid,
                    {0: RefTemplate(core.address, dst_agg.address)}, to_dst_tor)
        for u in range(half):
            dst_agg = ft.aggs[dst_pod][u]
            group = {ft.cores[u][j].node_id: core_sender_of[ft.cores[u][j].node_id]
                     for j in range(half)}
            self.attach_receiver(
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
            self.senders[f"D:agg{u}"] = self.attach_sender(
                dst_agg, ft.port_toward(dst_agg, dst_edge), sid,
                {0: RefTemplate(dst_agg.address, dst_edge.address)}, to_dst_tor)
        self.attach_receiver(
            dst_edge, "D:aggs->edge",
            PathClassifierDemux(
                self._agg_classifier(src_edge, half, agg_sender_of),
                sender_ids=agg_sender_of.values(),
                source_prefixes=[src_prefix],
            ),
        )

    def _result(self) -> FullRliResult:
        return FullRliResult(dict(self.receivers))

    # ------------------------------------------------------------------
    # receiver-side path classifiers (the "routing knowledge")

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
