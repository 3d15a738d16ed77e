"""Packet model.

A :class:`Packet` is the unit that flows through the simulator and through
RLI/RLIR measurement instances.  Three kinds exist:

* ``REGULAR`` — application traffic whose latency we want to estimate.  The
  paper's premise is that regular packets *cannot* carry timestamps ("that
  would require intrusive changes to router forwarding paths"), so the only
  measurement-relevant state a regular packet carries in a real deployment is
  its header (addresses, ports, ToS byte).
* ``REFERENCE`` — packets injected by an RLI sender.  They carry the sender's
  hardware transmit timestamp and a sender ID so that RLIR receivers can
  demultiplex reference streams from many senders (paper Section 3.1).
* ``CROSS`` — cross traffic that shares queues with regular traffic but is
  not measured (paper Section 3.2 / Figure 3).

For simulation bookkeeping only (never consulted by the estimators), packets
also record ground-truth information: the time they passed each measurement
tap (``tap_time``) and drop status.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional, Tuple

__all__ = ["PacketKind", "Packet", "FIVE_TUPLE_FIELDS"]

FIVE_TUPLE_FIELDS = ("src", "dst", "sport", "dport", "proto")


class PacketKind(IntEnum):
    """Role a packet plays in the measurement architecture."""

    REGULAR = 0
    REFERENCE = 1
    CROSS = 2


class Packet:
    """A simulated network packet.

    Parameters
    ----------
    src, dst:
        IPv4 addresses as 32-bit integers (see :mod:`repro.net.addressing`).
    sport, dport:
        Transport ports; part of the ECMP hash key.
    proto:
        IP protocol number (6 = TCP by default).
    size:
        Wire size in bytes, including headers.
    ts:
        Creation (trace) time in seconds.
    kind:
        One of :class:`PacketKind`.
    sender_id:
        For REFERENCE packets, the ID of the RLI sender instance that
        injected this packet; ``None`` otherwise.
    ref_timestamp:
        For REFERENCE packets, the hardware transmit timestamp written by
        the sender (in the *sender's clock domain*).
    tos:
        The IP type-of-service byte; RLIR's packet-marking demultiplexer
        stores a path mark here (paper Section 3.1, "Downstream").
    """

    __slots__ = (
        "src",
        "dst",
        "sport",
        "dport",
        "proto",
        "size",
        "ts",
        "kind",
        "sender_id",
        "ref_timestamp",
        "tos",
        "tap_time",
        "dropped",
        "path",
        "_flow_key",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        sport: int = 0,
        dport: int = 0,
        proto: int = 6,
        size: int = 64,
        ts: float = 0.0,
        kind: PacketKind = PacketKind.REGULAR,
        sender_id: Optional[int] = None,
        ref_timestamp: Optional[float] = None,
        tos: int = 0,
    ):
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.proto = proto
        self.size = size
        self.ts = ts
        self.kind = kind
        self.sender_id = sender_id
        self.ref_timestamp = ref_timestamp
        self.tos = tos
        # --- simulation bookkeeping (ground truth; estimators never read) ---
        self.tap_time: Optional[float] = None  # time the packet passed the
        # upstream measurement tap of the segment under study
        self.dropped = False
        self.path: Tuple[int, ...] = ()  # node ids traversed (event engine)
        self._flow_key: Optional[Tuple[int, int, int, int, int]] = None

    # ------------------------------------------------------------------

    @property
    def flow_key(self) -> Tuple[int, int, int, int, int]:
        """The 5-tuple identifying this packet's flow (computed once).

        The tuple is cached on first access — demux, receiver and flow-stats
        hot loops read it several times per packet.  Header fields must not
        be mutated after the first read; code that rewrites headers works
        on fresh clones, whose cache starts empty.
        """
        key = self._flow_key
        if key is None:
            key = self._flow_key = (self.src, self.dst, self.sport, self.dport, self.proto)
        return key

    @property
    def is_reference(self) -> bool:
        return self.kind == PacketKind.REFERENCE

    @property
    def is_regular(self) -> bool:
        return self.kind == PacketKind.REGULAR

    @property
    def is_cross(self) -> bool:
        return self.kind == PacketKind.CROSS

    def clone(self) -> "Packet":
        """Return a fresh copy with identical header fields and trace time.

        Bookkeeping fields (taps, drops, path) are reset: a clone is a
        new packet on the wire, not a copy of the simulation history.
        """
        return Packet(
            src=self.src,
            dst=self.dst,
            sport=self.sport,
            dport=self.dport,
            proto=self.proto,
            size=self.size,
            ts=self.ts,
            kind=self.kind,
            sender_id=self.sender_id,
            ref_timestamp=self.ref_timestamp,
            tos=self.tos,
        )

    def __repr__(self) -> str:
        from .addressing import int_to_ip

        return (
            f"Packet({self.kind.name} {int_to_ip(self.src)}:{self.sport}->"
            f"{int_to_ip(self.dst)}:{self.dport} proto={self.proto} "
            f"size={self.size} ts={self.ts:.6f})"
        )
