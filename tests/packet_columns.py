"""Hand-made packet lists as a :class:`PacketBatch` (tests only).

The package builds its batches from columns; tests that spell out a few
``Packet`` objects by hand columnarize them here.
"""

from typing import Sequence

from repro.net.packet import Packet
from repro.traffic.batch import BATCH_COLUMNS, PacketBatch


def batch_of(packets: Sequence[Packet]) -> PacketBatch:
    """The packets' column fields as one batch (the rest are dropped)."""
    columns = {name: [getattr(p, name) for p in packets] for name in BATCH_COLUMNS}
    columns["kind"] = [int(kind) for kind in columns["kind"]]
    return PacketBatch(**columns)
