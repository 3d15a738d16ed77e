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

:class:`FatTreeDeployment` holds the attach-and-run plumbing every
fat-tree deployment shares — this one, the multi-pair
:class:`~repro.core.mesh.RlirMesh` and full RLI
(:class:`~repro.core.full_rli.FullRliDeployment`) only declare their
instances.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..net.packet import Packet
from ..sim.clock import Clock, PerfectClock
from ..sim.ecmp import craft_dport_for_port
from ..sim.engine import Engine
from ..sim.fatpath import spec_classifier, try_fast_path
from ..sim.switch import Switch
from ..sim.topology import FatTree
from ..traffic.batch import PacketBatch
from ..traffic.trace import Trace
from .demux import PathClassifierDemux, UpstreamPrefixDemux
from .flowstats import FlowStatsTable
from .injection import InjectionPolicy, StaticInjection
from .marking import MarkingClassifier, assign_marks
from .obslog import ObservationColumns
from .receiver import RliReceiver
from .reverse_ecmp import ReverseEcmpClassifier
from .sender import RefTemplate, RliSender

__all__ = ["FatTreeDeployment", "RlirDeployment", "RlirResult"]

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


class FatTreeDeployment:
    """RLI instances on a fat-tree's taps, run on the engine or columnar.

    The paper's placement unit (Section 3) is an RLI instance at an
    interface: a sender tapping one egress port's enqueues, or a receiver
    tapping a switch's arrivals.  A deployment only declares its
    instances in :meth:`_attach`, through :meth:`attach_sender` and
    :meth:`attach_receiver`; this base owns the engine taps, the
    declarative wiring :class:`~repro.sim.fatpath.FatTreeFastPath` reads,
    :meth:`run` and the recorded observation logs.

    A sender's path classifier is declared once, as a classify spec —
    ``("hash", hasher, n)``, ``("tor_map", ((pod, edge, class), ...))`` or
    ``None`` for the single-class default.  The engine runs its scalar
    form (:func:`~repro.sim.fatpath.spec_classifier`); the columnar driver
    vectorizes the same spec.

    Receivers are kept in :attr:`receivers` under their segment names, in
    attach order; with ``record_observations`` each records its
    post-demux observation stream (see :mod:`repro.core.replay`) and runs
    record-only — its live tables stay empty, since replay recomputes
    every estimate from the log.
    """

    def __init__(
        self,
        fattree: FatTree,
        policy_factory: Callable[[], InjectionPolicy],
        clock_factory: Optional[Callable[[], Clock]],
        record_observations: bool,
    ):
        self.fattree = fattree
        self.policy_factory = policy_factory
        self.clock_factory = clock_factory or PerfectClock
        self.record_observations = record_observations
        self.engine: Optional[Engine] = None
        self.receivers: Dict[str, RliReceiver] = {}
        self._wired = False
        # declarative wiring descriptions consumed by the columnar driver
        self._sender_taps: Dict[Tuple[Switch, int], tuple] = {}
        self._receiver_taps: Dict[Switch, RliReceiver] = {}

    def _attach(self) -> None:
        """Declare every instance (subclasses)."""
        raise NotImplementedError

    def _result(self):
        """The run's result over the finalized receivers (subclasses)."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def wire(self, engine: Engine) -> None:
        """Attach all measurement instances (once per deployment)."""
        if self._wired:
            raise RuntimeError("deployment already wired")
        self._wired = True
        self.engine = engine
        self._attach()

    def attach_sender(self, switch: Switch, port_index: int, sender_id: int,
                      templates: Dict[int, RefTemplate], spec) -> RliSender:
        """An :class:`RliSender` on one egress port, classifying by *spec*."""
        port = switch.ports[port_index]
        sender = RliSender(
            sender_id=sender_id,
            link_rate_bps=port.queue.rate_Bps * 8.0,
            policy=self.policy_factory(),
            templates=templates,
            classify=spec_classifier(self.fattree, spec),
            clock=self.clock_factory(),
        )

        def tap(packet: Packet, now: float) -> None:
            if not packet.is_regular:
                return
            packet.tap_time = now  # ground truth: the segment starts here
            refs = sender.on_regular(packet, now)
            if refs:
                for ref in refs:
                    self.engine.forward_injected(ref, switch.inject(ref, now, port_index))

        port.add_enqueue_tap(tap)
        self._sender_taps[(switch, port_index)] = (sender, spec)
        return sender

    def attach_receiver(self, switch: Switch, name: str, demux) -> RliReceiver:
        """An :class:`RliReceiver` on *switch*'s arrivals, as segment *name*."""
        receiver = RliReceiver(
            demux=demux,
            clock=self.clock_factory(),
            observation_log=(ObservationColumns()
                             if self.record_observations else None),
        )

        def tap(packet: Packet, now: float, in_port: int) -> None:
            if packet.is_regular or packet.is_reference:
                receiver.observe(packet, now)

        switch.add_arrival_tap(tap)
        self.receivers[name] = receiver
        self._receiver_taps[switch] = receiver
        return receiver

    def attach_tor_uplink(self, tor: Tuple[int, int], u: int,
                          sender_id: int) -> RliSender:
        """The sender on ToR *tor*'s uplink *u*.

        One reference template per core reachable through aggregation
        *u*, its dport crafted against that aggregation's hash so each
        equal-cost path carries references; a packet's path class is the
        aggregation's core choice.
        """
        ft = self.fattree
        half = ft.k // 2
        edge = ft.edges[tor[0]][tor[1]]
        agg = ft.aggs[tor[0]][u]
        templates: Dict[int, RefTemplate] = {}
        for j in range(half):
            core = ft.cores[u][j]
            dport = craft_dport_for_port(
                agg.hasher, edge.address, core.address, 0, 253, half, j)
            if dport is None:
                raise RuntimeError(
                    f"could not craft reference flow for {core.name} via {agg.name}")
            templates[j] = RefTemplate(edge.address, core.address, 0, dport)
        return self.attach_sender(edge, ft.port_toward(edge, agg), sender_id,
                                  templates, ("hash", agg.hasher, half))

    def observation_logs(self) -> List[Tuple[str, ObservationColumns]]:
        """(segment name, recorded events) per receiver (after a run)."""
        if not self.record_observations:
            raise RuntimeError("deployment built without record_observations")
        return [(name, rx.observation_log) for name, rx in self.receivers.items()]

    def run(self, traces: List[Trace], until: Optional[float] = None):
        """Inject traces (packets enter at their source ToR), run, collect.

        ``traces`` may include background traffic between arbitrary host
        pairs; only flows covered by the deployment are measured — that is
        the whole point of the demultiplexers.

        The layered columnar fast path
        (:class:`~repro.sim.fatpath.FatTreeFastPath`) replaces the event
        calendar: **bitwise identical** to the event engine — arrival ties
        included, reconstructed exactly from event provenance — several
        times the throughput.  Non-batchable configurations — packet
        marking (the classifier reads per-packet ToS state), receivers at
        aggregation switches (full RLI), jittered clocks, an ``until``
        bound — fall back to the engine, their reason counted under
        ``batch.fallback``.
        """
        engine = Engine()
        self.wire(engine)
        ft = self.fattree
        if not try_fast_path(ft, self._sender_taps, self._receiver_taps,
                             traces, until):
            for trace in traces:
                engine.inject_trace(PacketBatch.coerce(trace).to_packets(),
                                    lambda p: ft.edge_of(p.src))
            engine.run(until=until)
        for receiver in self.receivers.values():
            receiver.finalize()
        return self._result()


class RlirDeployment(FatTreeDeployment):
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
    clock_factory:
        Builds the clock of each instance (default: perfect sync).
    record_observations:
        When True every receiver records its post-demux observation
        stream; :meth:`observation_logs` returns the logs under the same
        segment names :meth:`RlirResult.segments` uses, so each segment of
        one recorded run can be replayed.  Each log is a columnar
        :class:`~repro.core.obslog.ObservationColumns`.
    """

    def __init__(
        self,
        fattree: FatTree,
        src: Tuple[int, int],
        dst: Tuple[int, int],
        policy_factory: Callable[[], InjectionPolicy] = lambda: StaticInjection(100),
        demux_method: str = "marking",
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
        super().__init__(fattree, policy_factory, clock_factory,
                         record_observations)
        self.src = src
        self.dst = dst
        self.demux_method = demux_method
        self.tor_senders: Dict[int, RliSender] = {}  # uplink -> sender
        self.core_receivers: Dict[str, RliReceiver] = {}  # core name -> rx
        self.core_senders: Dict[str, RliSender] = {}  # core name -> tx
        self.dst_receiver: Optional[RliReceiver] = None

    # ------------------------------------------------------------------
    # instance id helpers

    def tor_sender_id(self, uplink: int) -> int:
        return TOR_SENDER_BASE + uplink

    def core_sender_id(self, core: Switch) -> int:
        return CORE_SENDER_BASE + core.node_id

    # ------------------------------------------------------------------

    def _attach(self) -> None:
        ft = self.fattree
        half = ft.k // 2
        dst_pod, dst_e = self.dst
        dst_edge = ft.edges[dst_pod][dst_e]
        src_prefix = ft.tor_prefix(*self.src)

        # ---- source ToR: one sender per uplink interface ----
        for u in range(half):
            self.tor_senders[u] = self.attach_tor_uplink(
                self.src, u, self.tor_sender_id(u))

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

        for i in range(half):
            for j in range(half):
                core = ft.cores[i][j]
                # receiver: packets from the src ToR reached this core via
                # uplink i, so the associated sender is tor_senders[i]
                self.core_receivers[core.name] = self.attach_receiver(
                    core, f"seg1:{core.name}",
                    UpstreamPrefixDemux([(src_prefix, self.tor_sender_id(i))]))
                # sender: egress interface toward the destination pod; its
                # enqueue tap restamps tap_time (segment 1 already read)
                self.core_senders[core.name] = self.attach_sender(
                    core, ft.port_toward(core, ft.aggs[dst_pod][i]),
                    self.core_sender_id(core),
                    {0: RefTemplate(core.address, dst_edge.address, 0, 0)},
                    ("tor_map", ((dst_pod, dst_e, 0),)))

        # ---- destination ToR: downstream receiver ----
        self.dst_receiver = self.attach_receiver(
            dst_edge, "seg2:to-dst-tor",
            PathClassifierDemux(
                path_classifier,
                sender_ids=[self.core_sender_id(c) for c in cores],
                source_prefixes=[src_prefix],
            ))

    def _result(self) -> RlirResult:
        return RlirResult(dict(self.core_receivers), self.dst_receiver)
