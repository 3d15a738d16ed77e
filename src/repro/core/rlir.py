"""RLIR deployment: wiring senders and receivers across a fat-tree.

Implements the paper's partial-placement architecture for a ToR pair
(Figure 1's (S1, R3) scenario generalized to whole ToR switches): RLI
instances only at the source ToR's uplink interfaces, at the core routers,
and at the destination ToR — splitting every path into two measured
segments,

    segment 1:  src ToR uplink  →  core router      (upstream demux)
    segment 2:  core router     →  dst ToR          (downstream demux)

Wiring per the paper's Section 3 solutions:

* every source-ToR uplink hosts an :class:`~repro.core.sender.RliSender`
  with one reference template per reachable core, crafted against the
  aggregation switch's hash so each equal-cost path carries references;
* every core hosts a receiver (segment 1) that demultiplexes by source-ToR
  prefix — sufficient upstream, because in a fat-tree all packets a given
  core sees from one ToR climbed through the same uplink — and a sender
  (segment 2) on its egress toward the destination pod;
* the destination ToR hosts the downstream receiver, which identifies the
  traversed core by **packet marking** or **reverse-ECMP computation**
  (``demux_method``), plus source-prefix matching.

Ground-truth segment delays ride on the packets' ``tap_time`` bookkeeping,
so every estimate is paired with exact truth.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..net.packet import Packet
from ..sim.clock import Clock, PerfectClock
from ..sim.ecmp import craft_dport_for_port
from ..sim.engine import Engine
from ..sim.fatpath import try_fast_path
from ..sim.switch import Switch
from ..sim.topology import FatTree
from ..traffic.trace import Trace
from .demux import PathClassifierDemux, UpstreamPrefixDemux
from .flowstats import FlowStatsTable
from .injection import InjectionPolicy, StaticInjection
from .marking import MarkingClassifier, assign_marks
from .obslog import ObservationColumns
from .receiver import RliReceiver
from .reverse_ecmp import ReverseEcmpClassifier
from .sender import RefTemplate, RliSender

__all__ = ["RlirDeployment", "RlirResult"]

TOR_SENDER_BASE = 1000
CORE_SENDER_BASE = 2000


class RlirResult:
    """Measurement output of one RLIR run over a ToR pair."""

    def __init__(
        self,
        seg1_receivers: Dict[str, RliReceiver],
        seg2_receiver: RliReceiver,
    ):
        self.seg1_receivers = seg1_receivers
        self.seg2_receiver = seg2_receiver

    # ------------------------------------------------------------------

    def segment1_estimated(self) -> FlowStatsTable:
        """Per-flow estimates for src-ToR → core, merged across cores."""
        merged = FlowStatsTable()
        for receiver in self.seg1_receivers.values():
            merged.merge(receiver.flow_estimated)
        return merged

    def segment1_true(self) -> FlowStatsTable:
        merged = FlowStatsTable()
        for receiver in self.seg1_receivers.values():
            merged.merge(receiver.flow_true)
        return merged

    def segment2_estimated(self) -> FlowStatsTable:
        return self.seg2_receiver.flow_estimated

    def segment2_true(self) -> FlowStatsTable:
        return self.seg2_receiver.flow_true

    def end_to_end(self) -> List[Tuple[Tuple[int, int, int, int, int], float, float]]:
        """(flow key, estimated mean, true mean) across both segments.

        Per-flow end-to-end mean latency is the sum of the two segment
        means; only flows measured on both segments appear.
        """
        seg1_est, seg1_true = self.segment1_estimated(), self.segment1_true()
        out = []
        for key, est2 in self.seg2_receiver.flow_estimated.items():
            est1 = seg1_est.get(key)
            true1 = seg1_true.get(key)
            true2 = self.seg2_receiver.flow_true.get(key)
            if est1 is None or true1 is None or true2 is None:
                continue
            out.append((key, est1.mean + est2.mean, true1.mean + true2.mean))
        return out

    def segments(self) -> List[Tuple[str, FlowStatsTable]]:
        """(name, estimated table) per segment, ready for localization."""
        out = [
            (f"seg1:{name}", receiver.flow_estimated)
            for name, receiver in self.seg1_receivers.items()
        ]
        out.append(("seg2:to-dst-tor", self.seg2_receiver.flow_estimated))
        return out


class RlirDeployment:
    """Instrument a fat-tree for ToR-pair measurements and run traces.

    Parameters
    ----------
    fattree:
        The fabric (already built; this class only attaches taps/marks).
    src, dst:
        (pod, edge) coordinates of the source and destination ToR switches.
    policy_factory:
        Builds a fresh injection policy per sender instance.
    demux_method:
        ``"marking"`` or ``"reverse-ecmp"`` for the downstream receiver.
    estimator:
        Interpolation strategy for all receivers.
    clock_factory:
        Builds the clock of each instance (default: perfect sync).
    record_observations:
        When True every receiver records its post-demux observation
        stream (see :mod:`repro.core.replay`); :meth:`observation_logs`
        returns the logs under the same segment names
        :meth:`RlirResult.segments` uses, so each segment of one recorded
        run can be replayed.  Each log is a columnar
        :class:`~repro.core.obslog.ObservationColumns`.  Recording receivers
        run record-only — their live tables stay empty, since replay
        recomputes every estimate from the log.
    """

    def __init__(
        self,
        fattree: FatTree,
        src: Tuple[int, int],
        dst: Tuple[int, int],
        policy_factory: Callable[[], InjectionPolicy] = lambda: StaticInjection(100),
        demux_method: str = "marking",
        estimator: str = "linear",
        clock_factory: Optional[Callable[[], Clock]] = None,
        record_observations: bool = False,
    ):
        if demux_method not in ("marking", "reverse-ecmp"):
            raise ValueError(f"demux_method must be 'marking' or 'reverse-ecmp': {demux_method}")
        if src == dst:
            raise ValueError("source and destination ToR must differ")
        if src[0] == dst[0]:
            raise ValueError(
                "ToRs in the same pod never cross a core; RLIR core placement "
                "covers inter-pod pairs"
            )
        self.fattree = fattree
        self.src = src
        self.dst = dst
        self.policy_factory = policy_factory
        self.demux_method = demux_method
        self.estimator = estimator
        self.clock_factory = clock_factory or PerfectClock
        self.record_observations = record_observations
        self.engine: Optional[Engine] = None

        self.tor_senders: Dict[int, RliSender] = {}  # uplink -> sender
        self.core_receivers: Dict[str, RliReceiver] = {}  # core name -> rx
        self.core_senders: Dict[str, RliSender] = {}  # core name -> tx
        self.dst_receiver: Optional[RliReceiver] = None
        self._wired = False
        # declarative wiring descriptions consumed by the columnar driver
        self._sender_taps: Dict[Tuple[Switch, int], tuple] = {}
        self._receiver_taps: Dict[Switch, RliReceiver] = {}

    # ------------------------------------------------------------------
    # instance id helpers

    def tor_sender_id(self, uplink: int) -> int:
        return TOR_SENDER_BASE + uplink

    def core_sender_id(self, core: Switch) -> int:
        return CORE_SENDER_BASE + core.node_id

    # ------------------------------------------------------------------

    def wire(self, engine: Engine) -> None:
        """Attach all measurement instances (idempotent per deployment)."""
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

        # ---- source ToR: one sender per uplink interface ----
        for u in range(half):
            agg = ft.aggs[src_pod][u]
            port_index = ft.port_toward(src_edge, agg)
            port = src_edge.ports[port_index]
            templates: Dict[int, RefTemplate] = {}
            for j in range(half):
                core = ft.cores[u][j]
                dport = craft_dport_for_port(
                    agg.hasher, src_edge.address, core.address, 0, 253, half, j
                )
                if dport is None:
                    raise RuntimeError(
                        f"could not craft reference flow for {core.name} via {agg.name}"
                    )
                templates[j] = RefTemplate(src_edge.address, core.address, 0, dport)
            sender = RliSender(
                sender_id=self.tor_sender_id(u),
                link_rate_bps=port.queue.rate_Bps * 8.0,
                policy=self.policy_factory(),
                templates=templates,
                classify=self._make_core_classifier(agg, half),
                clock=self.clock_factory(),
            )
            self.tor_senders[u] = sender
            port.add_enqueue_tap(self._make_tor_tap(src_edge, port_index, sender))
            self._sender_taps[(src_edge, port_index)] = (
                sender, ("hash", agg.hasher, half))

        # ---- cores: receiver (segment 1) + sender (segment 2) ----
        cores = [ft.cores[i][j] for i in range(half) for j in range(half)]
        if self.demux_method == "marking":
            marks = assign_marks(core.node_id for core in cores)
            mark_to_sender = {}
            for core in cores:
                core.mark = marks[core.node_id]
                mark_to_sender[marks[core.node_id]] = self.core_sender_id(core)
            path_classifier = MarkingClassifier(mark_to_sender)
        else:
            core_to_sender = {core.node_id: self.core_sender_id(core) for core in cores}
            path_classifier = ReverseEcmpClassifier(ft, core_to_sender)

        dst_prefix = ft.tor_prefix(dst_pod, dst_e)
        for i in range(half):
            for j in range(half):
                core = ft.cores[i][j]
                # receiver: packets from the src ToR reached this core via
                # uplink i, so the associated sender is tor_senders[i]
                receiver = RliReceiver(
                    demux=UpstreamPrefixDemux([(src_prefix, self.tor_sender_id(i))]),
                    clock=self.clock_factory(),
                    estimator=self.estimator,
                    observation_log=(ObservationColumns()
                                     if self.record_observations else None),
                    record_only=self.record_observations,
                )
                self.core_receivers[core.name] = receiver
                core.add_arrival_tap(self._make_arrival_tap(receiver))
                self._receiver_taps[core] = receiver

                # sender: egress interface toward the destination pod
                egress_index = ft.port_toward(core, ft.aggs[dst_pod][i])
                egress = core.ports[egress_index]
                sender = RliSender(
                    sender_id=self.core_sender_id(core),
                    link_rate_bps=egress.queue.rate_Bps * 8.0,
                    policy=self.policy_factory(),
                    templates={0: RefTemplate(core.address, dst_edge.address, 0, 0)},
                    classify=self._make_dst_filter(dst_prefix),
                    clock=self.clock_factory(),
                )
                self.core_senders[core.name] = sender
                egress.add_enqueue_tap(self._make_core_tap(core, egress_index, sender))
                self._sender_taps[(core, egress_index)] = (
                    sender, ("tor_map", ((dst_pod, dst_e, 0),)))

        # ---- destination ToR: downstream receiver ----
        self.dst_receiver = RliReceiver(
            demux=PathClassifierDemux(
                path_classifier,
                sender_ids=[self.core_sender_id(c) for c in cores],
                source_prefixes=[src_prefix],
            ),
            clock=self.clock_factory(),
            estimator=self.estimator,
            observation_log=(ObservationColumns()
                             if self.record_observations else None),
            record_only=self.record_observations,
        )
        dst_edge.add_arrival_tap(self._make_arrival_tap(self.dst_receiver))
        self._receiver_taps[dst_edge] = self.dst_receiver

    def observation_logs(self) -> List[Tuple[str, ObservationColumns]]:
        """(segment name, recorded events) per receiver (after a run)."""
        if not self.record_observations:
            raise RuntimeError("deployment built without record_observations")
        out = [
            (f"seg1:{name}", receiver.observation_log)
            for name, receiver in self.core_receivers.items()
        ]
        out.append(("seg2:to-dst-tor", self.dst_receiver.observation_log))
        return out

    # ------------------------------------------------------------------
    # tap factories (closures keep per-instance wiring explicit)

    def _make_core_classifier(self, agg: Switch, half: int):
        def classify(packet: Packet) -> int:
            return agg.hasher.choose(packet.flow_key, half)

        return classify

    def _make_dst_filter(self, dst_prefix):
        def classify(packet: Packet) -> Optional[int]:
            return 0 if dst_prefix.contains(packet.dst) else None

        return classify

    def _make_tor_tap(self, switch: Switch, port_index: int, sender: RliSender):
        def tap(packet: Packet, now: float) -> None:
            if not packet.is_regular:
                return
            packet.tap_time = now
            refs = sender.on_regular(packet, now)
            if refs:
                for ref in refs:
                    self.engine.forward_injected(ref, switch.inject(ref, now, port_index))

        return tap

    def _make_core_tap(self, switch: Switch, port_index: int, sender: RliSender):
        def tap(packet: Packet, now: float) -> None:
            if not packet.is_regular:
                return
            packet.tap_time = now  # segment-2 entry (segment 1 already read)
            refs = sender.on_regular(packet, now)
            if refs:
                for ref in refs:
                    self.engine.forward_injected(ref, switch.inject(ref, now, port_index))

        return tap

    def _make_arrival_tap(self, receiver: RliReceiver):
        def tap(packet: Packet, now: float, in_port: int) -> None:
            if packet.is_regular or packet.is_reference:
                receiver.observe(packet, now)

        return tap

    # ------------------------------------------------------------------

    def run(self, traces: List[Trace], until: Optional[float] = None) -> RlirResult:
        """Inject traces (packets enter at their source ToR), run, collect.

        ``traces`` may include background traffic between arbitrary host
        pairs; only flows covered by the deployment are measured — that is
        the whole point of the demultiplexers.

        With batch-backed traces the layered columnar fast path
        (:class:`~repro.sim.fatpath.FatTreeFastPath`) replaces the event
        calendar: **bitwise identical** to the event engine — arrival ties
        included, reconstructed exactly from event provenance — several
        times the throughput.  Non-batchable configurations — packet
        marking (the classifier reads per-packet ToS state), jittered
        clocks, an ``until`` bound — fall back to the engine, their reason
        counted under ``batch.fallback``.
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

    def _finish(self) -> RlirResult:
        for receiver in self.core_receivers.values():
            receiver.finalize()
        self.dst_receiver.finalize()
        return RlirResult(dict(self.core_receivers), self.dst_receiver)
