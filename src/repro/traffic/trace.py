"""Trace container: a named, time-sorted packet batch with summary statistics.

Stands in for the paper's "two 1 minute traces collected from an OC-192
link" — one regular, one cross.  A trace is its columns: one
:class:`~repro.traffic.batch.PacketBatch`, produced by the generators,
:meth:`Trace.load` (npz) or :func:`~repro.traffic.csvio.load_csv`, and
consumed as-is by the columnar simulation paths.  :attr:`Trace.packets`
materializes ``Packet`` objects lazily, once, for the per-object reference
paths that read them; :meth:`Trace.clone_packets` builds fresh ones per run
(simulation mutates packet bookkeeping fields).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, List

import numpy as np

from ..net.packet import Packet
from .batch import BATCH_COLUMNS, PacketBatch

__all__ = ["Trace"]

# on-disk npz dtypes (unchanged across the columnar refactor, so files
# written before/after it are interchangeable)
_SAVE_DTYPES = {
    "src": np.uint32,
    "dst": np.uint32,
    "sport": np.uint16,
    "dport": np.uint16,
    "proto": np.uint8,
    "size": np.uint16,
    "ts": np.float64,
    "kind": np.uint8,
}


class Trace:
    """An immutable-by-convention, time-sorted packet batch with a name."""

    def __init__(self, batch: PacketBatch, name: str = "trace",
                 check_sorted: bool = True):
        if not isinstance(batch, PacketBatch):
            raise TypeError(f"a Trace wraps a PacketBatch, got {type(batch).__name__}")
        if check_sorted and not batch.is_time_sorted():
            raise ValueError("trace batch not sorted by ts")
        self.batch = batch
        self.name = name

    @cached_property
    def packets(self) -> List[Packet]:
        """The per-object packet list (materialized from the batch once)."""
        return self.batch.to_packets()

    # ------------------------------------------------------------------
    # basics

    def __len__(self) -> int:
        return len(self.batch)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def __getitem__(self, idx):
        return self.packets[idx]

    @property
    def duration(self) -> float:
        """Span from 0 to the last packet's timestamp (0 if empty)."""
        return self.batch.duration

    @property
    def total_bytes(self) -> int:
        return self.batch.total_bytes

    @property
    def n_flows(self) -> int:
        return self.batch.n_flows

    def mean_rate_bps(self) -> float:
        """Average offered rate over the trace span."""
        d = self.duration
        return self.total_bytes * 8.0 / d if d > 0 else 0.0

    def clone_packets(self) -> List[Packet]:
        """Fresh packet objects for one simulation run.

        The simulator mutates bookkeeping fields (``dropped``,
        ``tap_time``); fresh objects let the same trace drive many runs.
        """
        return self.batch.to_packets()

    # ------------------------------------------------------------------
    # persistence

    def save(self, path: str) -> None:
        """Write the trace as a compressed columnar npz file."""
        cols = {
            name: getattr(self.batch, name).astype(_SAVE_DTYPES[name])
            for name in BATCH_COLUMNS
        }
        np.savez_compressed(path, name=np.array(self.name), **cols)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by :meth:`save`."""
        data = np.load(path, allow_pickle=False)
        missing = [c for c in BATCH_COLUMNS if c not in data]
        if missing:
            raise ValueError(f"not a trace file, missing columns: {missing}")
        batch = PacketBatch(**{name: data[name] for name in BATCH_COLUMNS})
        name = str(data["name"]) if "name" in data else "trace"
        return cls(batch, name=name, check_sorted=False)

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}: {len(self)} pkts, "
            f"{self.n_flows} flows, {self.duration:.3f}s)"
        )
