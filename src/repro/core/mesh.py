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

from ..net.packet import Packet
from ..sim.clock import Clock, PerfectClock
from ..sim.ecmp import craft_dport_for_port
from ..sim.engine import Engine
from ..sim.fatpath import try_fast_path
from ..sim.switch import Switch
from ..sim.topology import FatTree
from ..traffic.trace import Trace
from .demux import PathClassifierDemux, UpstreamPrefixDemux
from .injection import InjectionPolicy, StaticInjection
from .receiver import RliReceiver
from .reverse_ecmp import ReverseEcmpClassifier
from .rlir import RlirResult
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


class RlirMesh:
    """Shared RLIR deployment over a set of inter-pod ToR pairs.

    Parameters mirror :class:`~repro.core.rlir.RlirDeployment`; ``pairs``
    is a sequence of ((src_pod, src_edge), (dst_pod, dst_edge)) tuples, all
    inter-pod.

    :meth:`run` takes the layered columnar fast path
    (:class:`~repro.sim.fatpath.FatTreeFastPath`) whenever every trace
    carries :class:`~repro.traffic.batch.PacketBatch` columns: results are
    **bitwise identical** to the event engine — arrival ties included,
    reconstructed exactly from event provenance — and any non-batchable
    component falls back to the engine, its reason counted under
    ``batch.fallback``.
    """

    def __init__(
        self,
        fattree: FatTree,
        pairs: Sequence[Tuple[Tuple[int, int], Tuple[int, int]]],
        policy_factory: Callable[[], InjectionPolicy] = lambda: StaticInjection(100),
        estimator: str = "linear",
        clock_factory: Optional[Callable[[], Clock]] = None,
    ):
        if not pairs:
            raise ValueError("at least one ToR pair required")
        for src, dst in pairs:
            if src == dst:
                raise ValueError(f"pair {src}->{dst}: ToRs must differ")
            if src[0] == dst[0]:
                raise ValueError(f"pair {src}->{dst}: inter-pod pairs only")
        self.fattree = fattree
        self.pairs = list(pairs)
        self.policy_factory = policy_factory
        self.estimator = estimator
        self.clock_factory = clock_factory or PerfectClock
        self.engine: Optional[Engine] = None
        self.tor_senders: Dict[Tuple[Tuple[int, int], int], RliSender] = {}
        self.core_receivers: Dict[str, RliReceiver] = {}
        self.core_senders: Dict[Tuple[str, int], RliSender] = {}
        self.dst_receivers: Dict[Tuple[int, int], RliReceiver] = {}
        self._wired = False
        # declarative wiring descriptions consumed by the columnar driver
        self._sender_taps: Dict[Tuple[Switch, int], tuple] = {}
        self._receiver_taps: Dict[Switch, RliReceiver] = {}

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

    # ------------------------------------------------------------------

    def wire(self, engine: Engine) -> None:
        if self._wired:
            raise RuntimeError("mesh already wired")
        self._wired = True
        self.engine = engine
        ft = self.fattree
        half = ft.k // 2
        src_tors = self._src_tors()
        dst_tors = self._dst_tors()
        cores = [ft.cores[i][j] for i in range(half) for j in range(half)]

        # ---- source ToRs: one sender per uplink ----
        for src in src_tors:
            src_edge = ft.edges[src[0]][src[1]]
            for u in range(half):
                agg = ft.aggs[src[0]][u]
                port_index = ft.port_toward(src_edge, agg)
                port = src_edge.ports[port_index]
                templates = {}
                for j in range(half):
                    core = ft.cores[u][j]
                    dport = craft_dport_for_port(
                        agg.hasher, src_edge.address, core.address, 0, 253, half, j)
                    if dport is None:
                        raise RuntimeError(f"cannot craft flow to {core.name}")
                    templates[j] = RefTemplate(src_edge.address, core.address, 0, dport)
                sender = RliSender(
                    sender_id=self.tor_sender_id(src, u),
                    link_rate_bps=port.queue.rate_Bps * 8.0,
                    policy=self.policy_factory(),
                    templates=templates,
                    classify=self._agg_hash_classifier(agg, half),
                    clock=self.clock_factory(),
                )
                self.tor_senders[(src, u)] = sender
                port.add_enqueue_tap(self._sender_tap(src_edge, port_index, sender))
                self._sender_taps[(src_edge, port_index)] = (
                    sender, ("hash", agg.hasher, half))

        # ---- cores: one shared receiver; one sender per involved dst pod ----
        dst_pods = sorted({dst[0] for dst in dst_tors})
        for i in range(half):
            for j in range(half):
                core = ft.cores[i][j]
                mappings = [
                    (ft.tor_prefix(*src), self.tor_sender_id(src, i))
                    for src in src_tors
                ]
                receiver = RliReceiver(
                    demux=UpstreamPrefixDemux(mappings),
                    clock=self.clock_factory(),
                    estimator=self.estimator,
                )
                self.core_receivers[core.name] = receiver
                core.add_arrival_tap(self._receiver_tap(receiver))
                self._receiver_taps[core] = receiver
                for pod in dst_pods:
                    egress_index = ft.port_toward(core, ft.aggs[pod][i])
                    egress = core.ports[egress_index]
                    pod_dsts = [dst for dst in dst_tors if dst[0] == pod]
                    templates = {
                        self._dst_index(dst): RefTemplate(
                            core.address, ft.edges[dst[0]][dst[1]].address, 0, 0)
                        for dst in pod_dsts
                    }
                    sender = RliSender(
                        sender_id=self.core_sender_id(core, pod),
                        link_rate_bps=egress.queue.rate_Bps * 8.0,
                        policy=self.policy_factory(),
                        templates=templates,
                        classify=self._dst_tor_classifier(pod_dsts),
                        clock=self.clock_factory(),
                    )
                    self.core_senders[(core.name, pod)] = sender
                    egress.add_enqueue_tap(self._sender_tap(core, egress_index, sender))
                    self._sender_taps[(core, egress_index)] = (
                        sender,
                        ("tor_map", tuple((dst[0], dst[1], self._dst_index(dst))
                                          for dst in pod_dsts)))

        # ---- destination ToRs: one downstream receiver each ----
        for dst in dst_tors:
            dst_edge = ft.edges[dst[0]][dst[1]]
            core_to_sender = {c.node_id: self.core_sender_id(c, dst[0]) for c in cores}
            classifier = ReverseEcmpClassifier(ft, core_to_sender)
            sources = [ft.tor_prefix(*src) for src, d in self.pairs if d == dst]
            receiver = RliReceiver(
                demux=PathClassifierDemux(
                    classifier,
                    sender_ids=core_to_sender.values(),
                    source_prefixes=sources,
                ),
                clock=self.clock_factory(),
                estimator=self.estimator,
            )
            self.dst_receivers[dst] = receiver
            dst_edge.add_arrival_tap(self._receiver_tap(receiver))
            self._receiver_taps[dst_edge] = receiver

    def _dst_index(self, dst: Tuple[int, int]) -> int:
        return self._dst_tors().index(dst)

    # ------------------------------------------------------------------
    # tap/classifier factories

    def _agg_hash_classifier(self, agg: Switch, half: int):
        def classify(packet: Packet) -> int:
            return agg.hasher.choose(packet.flow_key, half)

        return classify

    def _dst_tor_classifier(self, pod_dsts: Sequence[Tuple[int, int]]):
        prefixes = [(self.fattree.tor_prefix(*dst), self._dst_index(dst))
                    for dst in pod_dsts]

        def classify(packet: Packet) -> Optional[int]:
            for prefix, index in prefixes:
                if prefix.contains(packet.dst):
                    return index
            return None

        return classify

    def _sender_tap(self, switch: Switch, port_index: int, sender: RliSender):
        def tap(packet: Packet, now: float) -> None:
            if not packet.is_regular:
                return
            packet.tap_time = now
            refs = sender.on_regular(packet, now)
            if refs:
                for ref in refs:
                    self.engine.forward_injected(ref, switch.inject(ref, now, port_index))

        return tap

    def _receiver_tap(self, receiver: RliReceiver):
        def tap(packet: Packet, now: float, in_port: int) -> None:
            if packet.is_regular or packet.is_reference:
                receiver.observe(packet, now)

        return tap

    # ------------------------------------------------------------------

    def run(self, traces: List[Trace], until: Optional[float] = None) -> MeshResult:
        """Inject traces, run (columnar or event engine), collect results.

        With batch-backed traces the layered columnar driver replaces the
        event calendar (``until`` must be None — a truncated run needs the
        calendar); anything non-batchable falls back to the engine with
        identical output.
        """
        engine = Engine()
        self.wire(engine)
        ft = self.fattree
        if try_fast_path(ft, self._sender_taps, self._receiver_taps, traces,
                         until):
            return self._finish()
        for trace in traces:
            packets = (trace.clone_packets() if hasattr(trace, "clone_packets")
                       else trace.to_packets())
            engine.inject_trace(packets, lambda p: ft.edge_of(p.src))
        engine.run(until=until)
        return self._finish()

    def _finish(self) -> MeshResult:
        for receiver in self.core_receivers.values():
            receiver.finalize()
        for receiver in self.dst_receivers.values():
            receiver.finalize()
        return MeshResult(self)
