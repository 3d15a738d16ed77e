"""Flow identification helpers for the packet tests.

A *flow* is the set of packets sharing a 5-tuple key, as in NetFlow/YAF.
Per-flow latency measurement (the whole point of RLI over LDA) aggregates
per-packet latency estimates across packets sharing a flow key (paper,
Section 2: "Obtaining per-flow measurements now is just a matter of
aggregating latency estimates across packets that share a given flow key").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Tuple

from repro.net.packet import Packet


class FlowKey(NamedTuple):
    """5-tuple flow identifier (hashable, ordered)."""

    src: int
    dst: int
    sport: int
    dport: int
    proto: int

    @classmethod
    def of(cls, packet: Packet) -> "FlowKey":
        return cls(packet.src, packet.dst, packet.sport, packet.dport, packet.proto)

    def reversed(self) -> "FlowKey":
        """The key of the opposite direction of the same conversation."""
        return FlowKey(self.dst, self.src, self.dport, self.sport, self.proto)


def group_by_flow(packets: Iterable[Packet]) -> Dict[Tuple[int, int, int, int, int], List[Packet]]:
    """Group packets by 5-tuple, preserving arrival order within each flow."""
    flows: Dict[Tuple[int, int, int, int, int], List[Packet]] = {}
    for packet in packets:
        flows.setdefault(packet.flow_key, []).append(packet)
    return flows


def count_flows(packets: Iterable[Packet]) -> int:
    """Number of distinct 5-tuples in *packets*."""
    return len({p.flow_key for p in packets})
