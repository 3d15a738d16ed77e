"""Traffic divider (paper Figure 3).

"The simulator reads a packet trace and classifies packets as either regular
traffic ones or cross traffic ones based on IP addresses."

Given prefix sets describing the regular traffic's address space, the
divider splits a merged trace into a regular trace and a cross trace.  It is
the same longest-prefix-match machinery the RLIR receivers use for origin
identification.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..net.addressing import Prefix, PrefixTrie
from ..net.packet import PacketKind
from .trace import Trace

__all__ = ["TrafficDivider"]


class TrafficDivider:
    """Classify packets as regular or cross by source-address prefix."""

    def __init__(self, regular_prefixes: Iterable[Prefix]):
        self._trie: PrefixTrie[bool] = PrefixTrie()
        count = 0
        for prefix in regular_prefixes:
            self._trie.insert(prefix, True)
            count += 1
        if count == 0:
            raise ValueError("at least one regular prefix required")

    def is_regular(self, src: int) -> bool:
        """True if *src* falls under a regular-traffic prefix."""
        return self._trie.lookup(src) is not None

    def split(self, trace: Trace) -> Tuple[Trace, Trace]:
        """Split *trace* into (regular, cross) traces (packets cloned).

        Regular packets keep their kind; cross packets are marked CROSS.
        """
        regular, cross = [], []
        for packet in trace.packets:
            clone = packet.clone()
            if self.is_regular(packet.src):
                regular.append(clone)
            else:
                clone.kind = PacketKind.CROSS
                cross.append(clone)
        return (
            Trace(regular, name=f"{trace.name}/regular", check_sorted=False),
            Trace(cross, name=f"{trace.name}/cross", check_sorted=False),
        )
