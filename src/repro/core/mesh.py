"""Multi-pair RLIR: one shared core deployment serving many ToR pairs.

The paper's complexity analysis scales from one interface pair up to "every
pair of ToR switches" (Section 3.1) — core instances are *shared* across
pairs, which is where the Θ(k³)-vs-Θ(k⁴) saving comes from.  This module
realizes that sharing in the simulator: a :class:`RlirMesh` wires one
measurement instance per core interface plus per-ToR instances, and serves
an arbitrary set of (src ToR, dst ToR) pairs simultaneously.

Sharing is what makes the demultiplexing machinery earn its keep: a core
receiver now hears reference streams from *several* source ToRs (demuxed by
sender ID + source prefix), and a destination ToR receiver hears streams
from all cores crossed by multiple source ToRs (demuxed by path classifier
+ source prefix), with every combination holding its own interpolation
buffer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.clock import Clock
from ..sim.switch import Switch
from ..sim.topology import FatTree
from .demux import PathClassifierDemux, UpstreamPrefixDemux
from .injection import InjectionPolicy, StaticInjection
from .receiver import RliReceiver
from .reverse_ecmp import ReverseEcmpClassifier
from .rlir import FatTreeDeployment, RlirResult
from .sender import RefTemplate, RliSender

__all__ = ["RlirMesh", "MeshResult"]

TOR_SENDER_STRIDE = 100


class MeshResult:
    """Per-pair views over the shared mesh receivers."""

    def __init__(self, mesh: "RlirMesh"):
        self._mesh = mesh

    def pair(self, src: Tuple[int, int], dst: Tuple[int, int]) -> RlirResult:
        """The (seg1, seg2) result restricted to one measured pair.

        Segment-1 receivers are shared across pairs; the returned tables
        are filtered to flows whose source lies in *src*'s prefix and whose
        destination lies in *dst*'s prefix.
        """
        mesh = self._mesh
        if (src, dst) not in mesh.pairs:
            raise KeyError(f"pair {src}->{dst} not measured by this mesh")
        src_prefix = mesh.fattree.tor_prefix(*src)
        dst_prefix = mesh.fattree.tor_prefix(*dst)

        def filtered(receiver: RliReceiver) -> RliReceiver:
            view = RliReceiver(demux=receiver.demux)
            for src_table, dst_table in (
                (receiver.flow_estimated, view.flow_estimated),
                (receiver.flow_true, view.flow_true),
            ):
                for key, stats in src_table.items():
                    if key[0] in src_prefix and key[1] in dst_prefix:
                        dst_table.merge_flow(key, stats)
            return view

        seg1 = {name: filtered(rx) for name, rx in mesh.core_receivers.items()}
        seg2 = filtered(mesh.dst_receivers[dst])
        return RlirResult(seg1, seg2)


class RlirMesh(FatTreeDeployment):
    """Shared RLIR deployment over a set of inter-pod ToR pairs.

    Parameters mirror :class:`~repro.core.rlir.RlirDeployment`; ``pairs``
    is a sequence of ((src_pod, src_edge), (dst_pod, dst_edge)) tuples, all
    inter-pod.  :meth:`run` is the shared
    :meth:`~repro.core.rlir.FatTreeDeployment.run`.
    """

    def __init__(
        self,
        fattree: FatTree,
        pairs: Sequence[Tuple[Tuple[int, int], Tuple[int, int]]],
        policy_factory: Callable[[], InjectionPolicy] = lambda: StaticInjection(100),
        clock_factory: Optional[Callable[[], Clock]] = None,
    ):
        if not pairs:
            raise ValueError("at least one ToR pair required")
        for src, dst in pairs:
            if src == dst:
                raise ValueError(f"pair {src}->{dst}: ToRs must differ")
            if src[0] == dst[0]:
                raise ValueError(f"pair {src}->{dst}: inter-pod pairs only")
        super().__init__(fattree, policy_factory, clock_factory,
                         record_observations=False)
        self.pairs = list(pairs)
        self.tor_senders: Dict[Tuple[Tuple[int, int], int], RliSender] = {}
        self.core_receivers: Dict[str, RliReceiver] = {}
        self.core_senders: Dict[Tuple[str, int], RliSender] = {}
        self.dst_receivers: Dict[Tuple[int, int], RliReceiver] = {}

    # ------------------------------------------------------------------
    # instance ids

    def tor_sender_id(self, src: Tuple[int, int], uplink: int) -> int:
        index = self._src_index(src)
        return 10_000 + index * TOR_SENDER_STRIDE + uplink

    def core_sender_id(self, core: Switch, dst_pod: int) -> int:
        return 20_000 + core.node_id * 64 + dst_pod

    def _src_index(self, src: Tuple[int, int]) -> int:
        return self._src_tors().index(src)

    def _src_tors(self) -> List[Tuple[int, int]]:
        seen: List[Tuple[int, int]] = []
        for src, _ in self.pairs:
            if src not in seen:
                seen.append(src)
        return seen

    def _dst_tors(self) -> List[Tuple[int, int]]:
        seen: List[Tuple[int, int]] = []
        for _, dst in self.pairs:
            if dst not in seen:
                seen.append(dst)
        return seen

    def _dst_index(self, dst: Tuple[int, int]) -> int:
        return self._dst_tors().index(dst)

    # ------------------------------------------------------------------

    def _attach(self) -> None:
        ft = self.fattree
        half = ft.k // 2
        src_tors = self._src_tors()
        dst_tors = self._dst_tors()
        cores = [ft.cores[i][j] for i in range(half) for j in range(half)]

        # ---- source ToRs: one sender per uplink ----
        for src in src_tors:
            for u in range(half):
                self.tor_senders[(src, u)] = self.attach_tor_uplink(
                    src, u, self.tor_sender_id(src, u))

        # ---- cores: one shared receiver; one sender per involved dst pod ----
        dst_pods = sorted({dst[0] for dst in dst_tors})
        for i in range(half):
            for j in range(half):
                core = ft.cores[i][j]
                mappings = [
                    (ft.tor_prefix(*src), self.tor_sender_id(src, i))
                    for src in src_tors
                ]
                self.core_receivers[core.name] = self.attach_receiver(
                    core, f"seg1:{core.name}", UpstreamPrefixDemux(mappings))
                for pod in dst_pods:
                    pod_dsts = [dst for dst in dst_tors if dst[0] == pod]
                    templates = {
                        self._dst_index(dst): RefTemplate(
                            core.address, ft.edges[dst[0]][dst[1]].address, 0, 0)
                        for dst in pod_dsts
                    }
                    self.core_senders[(core.name, pod)] = self.attach_sender(
                        core, ft.port_toward(core, ft.aggs[pod][i]),
                        self.core_sender_id(core, pod), templates,
                        ("tor_map", tuple((dst[0], dst[1], self._dst_index(dst))
                                          for dst in pod_dsts)))

        # ---- destination ToRs: one downstream receiver each ----
        for dst in dst_tors:
            dst_edge = ft.edges[dst[0]][dst[1]]
            core_to_sender = {c.node_id: self.core_sender_id(c, dst[0]) for c in cores}
            classifier = ReverseEcmpClassifier(ft, core_to_sender)
            sources = [ft.tor_prefix(*src) for src, d in self.pairs if d == dst]
            self.dst_receivers[dst] = self.attach_receiver(
                dst_edge, f"seg2:{dst_edge.name}",
                PathClassifierDemux(
                    classifier,
                    sender_ids=core_to_sender.values(),
                    source_prefixes=sources,
                ))

    def _result(self) -> MeshResult:
        return MeshResult(self)
