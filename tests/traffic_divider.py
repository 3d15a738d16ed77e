"""Traffic divider (paper Figure 3), a test helper.

"The simulator reads a packet trace and classifies packets as either regular
traffic ones or cross traffic ones based on IP addresses."

Given prefix sets describing the regular traffic's address space, the
divider splits a merged trace into a regular trace and a cross trace with
one prefix mask over the source-address column — the same test the RLIR
receivers' batch demultiplexers apply for origin identification.  The
studies draw their cross traffic from a model instead of splitting a
trace, so only the flow-meter tests use it.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.net.addressing import Prefix
from repro.net.packet import PacketKind
from repro.traffic.trace import Trace


class TrafficDivider:
    """Classify packets as regular or cross by source-address prefix."""

    def __init__(self, regular_prefixes: Iterable[Prefix]):
        self._prefixes: Tuple[Prefix, ...] = tuple(regular_prefixes)
        if not self._prefixes:
            raise ValueError("at least one regular prefix required")

    def is_regular(self, src: int) -> bool:
        """True if *src* falls under a regular-traffic prefix."""
        return any(prefix.contains(src) for prefix in self._prefixes)

    def split(self, trace: Trace) -> Tuple[Trace, Trace]:
        """Split *trace* into (regular, cross) traces.

        Regular packets keep their kind; cross packets are marked CROSS.
        """
        batch = trace.batch
        regular = np.zeros(len(batch), dtype=bool)
        for prefix in self._prefixes:
            regular |= (batch.src & prefix.mask) == prefix.network
        return (
            Trace(batch.take(regular), name=f"{trace.name}/regular",
                  check_sorted=False),
            Trace(batch.take(~regular).with_kind(PacketKind.CROSS),
                  name=f"{trace.name}/cross", check_sorted=False),
        )
