"""RLI sender: taps an interface and injects reference packets.

"An RLI sender regularly injects special packets called reference packets
that carry a (hardware) timestamp to an RLI receiver" (paper Section 2).

The sender is attached to one egress interface.  For every regular packet it
observes, it updates its local-link utilization estimate and a per-path-class
counter; when the counter reaches the injection policy's current 1-and-n gap
it emits a reference packet *for that path class*.

Path classes implement the RLIR requirement that "each sender sends
reference packets to all intermediate receivers through which its packets
may cross" (Section 3.1): in a multipath fabric the sender carries one
reference template per equal-cost path (crafted with
:func:`repro.sim.ecmp.craft_dport_for_port` so the fabric hashes it onto the
intended path), and a ``classify`` callback assigns each observed regular
packet to the class whose path it will take.  Single-path deployments (the
paper's two-switch pipeline) use the default single class.

The sender is environment-agnostic: it returns the reference packets to
inject and the caller (pipeline driver or event-engine tap) puts them on the
wire immediately behind the observed packet.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..net.packet import Packet, PacketKind
from ..sim.clock import Clock, PerfectClock
from .injection import AdaptiveInjection, InjectionPolicy, StaticInjection
from .utilization import EwmaUtilization

__all__ = ["RefTemplate", "RliSender", "REFERENCE_PACKET_SIZE"]

REFERENCE_PACKET_SIZE = 64  # minimum-size probe, as in RLI


def _classify_single(packet: Packet) -> Optional[int]:
    """Default classifier: every observed packet belongs to path class 0."""
    return 0


class RefTemplate:
    """Header fields for the reference packets of one path class."""

    __slots__ = ("src", "dst", "sport", "dport", "proto", "size")

    def __init__(
        self,
        src: int,
        dst: int,
        sport: int = 0,
        dport: int = 0,
        proto: int = 253,  # IANA "use for experimentation"
        size: int = REFERENCE_PACKET_SIZE,
    ):
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.proto = proto
        self.size = size


class RliSender:
    """One RLI sender instance on one interface.

    Parameters
    ----------
    sender_id:
        Globally unique instance ID carried by every reference packet so
        receivers can demultiplex reference streams (paper Section 3.1).
    link_rate_bps:
        Capacity of the local link — the only utilization the sender can
        see, per the paper's cross-traffic discussion.
    policy:
        Injection policy (static or adaptive 1-and-n).
    templates:
        ``path_class -> RefTemplate``.  Defaults to a single class 0 with a
        placeholder template (callers that only need counters may ignore the
        header fields).
    classify:
        ``packet -> Optional[path_class]`` mapping each observed regular
        packet to a path class (None = not covered by this sender).
    clock:
        The sender's timestamping clock.
    """

    def __init__(
        self,
        sender_id: int,
        link_rate_bps: float,
        policy: Optional[InjectionPolicy] = None,
        templates: Optional[Dict[int, RefTemplate]] = None,
        classify: Optional[Callable[[Packet], Optional[int]]] = None,
        clock: Optional[Clock] = None,
        util_window: float = 0.01,
        util_alpha: float = 0.3,
    ):
        self.sender_id = sender_id
        self.policy = policy or StaticInjection(100)
        self.templates = templates if templates is not None else {0: RefTemplate(0, 0)}
        if not self.templates:
            raise ValueError("sender needs at least one reference template")
        self._classify = classify or _classify_single
        self.clock = clock or PerfectClock()
        self.utilization = EwmaUtilization(link_rate_bps, window=util_window, alpha=util_alpha)
        self._counters: Dict[int, int] = {cls: 0 for cls in self.templates}
        self.regulars_seen = 0
        self.refs_injected = 0

    # ------------------------------------------------------------------

    def on_regular(self, packet: Packet, now: float) -> Optional[List[Packet]]:
        """Observe one regular packet at the interface.

        Returns reference packets to inject immediately after it (or None).
        """
        self.utilization.observe(now, packet.size)
        cls = self._classify(packet)
        if cls is None or cls not in self._counters:
            return None
        self.regulars_seen += 1
        count = self._counters[cls] + 1
        if count < self.policy.gap(self.utilization.estimate):
            self._counters[cls] = count
            return None
        self._counters[cls] = 0
        return [self.make_reference(cls, now)]

    @property
    def policy_pure(self) -> bool:
        """True when ``policy.gap`` is a pure function of the utilization
        estimate — which only changes at EWMA window folds, the property
        the columnar scan rests on."""
        return type(self.policy) in (StaticInjection, AdaptiveInjection)

    @property
    def batch_capable(self) -> bool:
        """True when the columnar scan is an exact stand-in.

        The pipeline and chain fast paths carry no per-packet objects for
        regular traffic and run the sender's algebra inside the shared
        tapped-queue scan (:func:`repro.sim.queue.tapped_scan`) with every
        tapped row in class 0, so they require (a) the default
        single-class classifier — custom classifiers inspect the packet —
        and (b) a known-pure injection policy (see :attr:`policy_pure`).
        Anything else keeps the per-object reference path.  (The fat-tree
        layered driver lifts restriction (a) by recomputing the wiring's
        own classifier vectorized into the scan's class column.)
        """
        return self._classify is _classify_single and self.policy_pure

    # ------------------------------------------------------------------
    # columnar scan state

    def fast_scan_state(self) -> tuple:
        """The state the columnar tapped-queue scan advances.

        Returns ``(seen_any, window_start, window_bytes, estimate,
        counters)``, where ``counters`` is a copy of the per-class 1-and-n
        counters.  The scan applies, per observed regular packet, exactly
        the algebra of :meth:`on_regular`, with the packet's path class
        computed outside (vectorized) instead of by ``classify``, builds
        references with :meth:`build_reference`, and hands the advanced
        state back through :meth:`fast_scan_commit`.  The equivalence
        suites assert the scan is bitwise-identical to per-packet
        :meth:`on_regular` calls.
        """
        u = self.utilization
        return (u._seen_any, u._window_start, u._window_bytes, u._estimate,
                dict(self._counters))

    def fast_scan_commit(self, seen_any: bool, window_start: float,
                         window_bytes: int, estimate: float,
                         counters: Dict[int, int], regulars_seen: int,
                         refs_built: int) -> None:
        """Write a columnar scan's advanced state back (see
        :meth:`fast_scan_state`), counting the references it built."""
        u = self.utilization
        u._seen_any = seen_any
        u._window_start = window_start
        u._window_bytes = window_bytes
        u._estimate = estimate
        self._counters.update(counters)
        self.regulars_seen += regulars_seen
        self.refs_injected += refs_built

    def build_reference(self, path_class: int, now: float) -> Packet:
        """A timestamped reference packet for *path_class*; reads the clock
        but changes no sender state."""
        template = self.templates[path_class]
        ref = Packet(
            src=template.src,
            dst=template.dst,
            sport=template.sport,
            dport=template.dport,
            proto=template.proto,
            size=template.size,
            ts=now,
            kind=PacketKind.REFERENCE,
            sender_id=self.sender_id,
            ref_timestamp=self.clock.now(now),
        )
        ref.tap_time = now
        return ref

    def make_reference(self, path_class: int, now: float) -> Packet:
        """Build a timestamped reference packet for *path_class* and count
        it as injected."""
        ref = self.build_reference(path_class, now)
        self.refs_injected += 1
        return ref

    @property
    def current_gap(self) -> int:
        """The 1-and-n gap the policy currently prescribes."""
        return self.policy.gap(self.utilization.estimate)

    def __repr__(self) -> str:
        return (
            f"RliSender(id={self.sender_id}, policy={self.policy!r}, "
            f"classes={sorted(self.templates)}, refs={self.refs_injected})"
        )
