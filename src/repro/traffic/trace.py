"""Trace container: an ordered sequence of packets with summary statistics.

Stands in for the paper's "two 1 minute traces collected from an OC-192
link" — one regular, one cross.  Traces can be saved/loaded (npz columnar
format), sliced in time, address-remapped (the paper "modif[ies] IP
addresses of cross traffic to distinguish from regular traffic"), and cloned
per run (simulation mutates packet bookkeeping fields).

A trace is backed by a columnar :class:`~repro.traffic.batch.PacketBatch`,
a Python packet list, or both.  Generators and ``load`` produce the batch
form directly; :attr:`packets` materializes ``Packet`` objects lazily the
first time a per-object consumer asks for them, so the vectorized pipeline
fast path never pays for objects it does not touch.  Either representation
yields identical values — materialized packets are built from the same
column data the batch holds.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional

import numpy as np

from ..net.packet import Packet, PacketKind
from .batch import PacketBatch

__all__ = ["Trace"]

_COLUMNS = ("src", "dst", "sport", "dport", "proto", "size", "ts", "kind")

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
    """An immutable-by-convention, time-sorted packet sequence."""

    def __init__(
        self,
        packets: Optional[List[Packet]] = None,
        name: str = "trace",
        check_sorted: bool = True,
        batch: Optional[PacketBatch] = None,
    ):
        if packets is None and batch is None:
            raise ValueError("a Trace needs packets, a batch, or both")
        if check_sorted:
            if packets is not None:
                last = float("-inf")
                for p in packets:
                    if p.ts < last:
                        raise ValueError(f"trace not sorted by ts at t={p.ts}")
                    last = p.ts
            elif not batch.is_time_sorted():
                raise ValueError("trace batch not sorted by ts")
        self._packets = packets
        self._batch = batch
        self.name = name

    # ------------------------------------------------------------------
    # representations

    @property
    def packets(self) -> List[Packet]:
        """The per-object packet list (materialized lazily from the batch)."""
        if self._packets is None:
            self._packets = self._batch.to_packets()
        return self._packets

    @property
    def batch(self) -> PacketBatch:
        """The columnar view (built lazily from the packet list)."""
        if self._batch is None:
            self._batch = PacketBatch.from_packets(self._packets)
        return self._batch

    @property
    def has_batch(self) -> bool:
        """True if the columnar view already exists (no build needed)."""
        return self._batch is not None

    # ------------------------------------------------------------------
    # basics

    def __len__(self) -> int:
        return len(self._batch) if self._packets is None else len(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def __getitem__(self, idx):
        return self.packets[idx]

    @property
    def duration(self) -> float:
        """Span from 0 to the last packet's timestamp (0 if empty)."""
        if self._packets is None:
            return self._batch.duration
        return self._packets[-1].ts if self._packets else 0.0

    @property
    def total_bytes(self) -> int:
        if self._batch is not None:
            return self._batch.total_bytes
        return sum(p.size for p in self._packets)

    @property
    def n_flows(self) -> int:
        if self._batch is not None:
            return self._batch.n_flows
        return len({p.flow_key for p in self._packets})

    def mean_rate_bps(self) -> float:
        """Average offered rate over the trace span."""
        d = self.duration
        return self.total_bytes * 8.0 / d if d > 0 else 0.0

    # ------------------------------------------------------------------
    # transformations (all return new traces; packets are cloned)

    def clone_packets(self) -> List[Packet]:
        """Fresh packet copies for one simulation run.

        The simulator mutates bookkeeping fields (``dropped``,
        ``tap_time``); cloning lets the same trace drive many runs.  A
        batch-backed trace materializes fresh objects directly — same
        values, no intermediate list.
        """
        if self._packets is None:
            return self._batch.to_packets()
        return [p.clone() for p in self._packets]

    def slice_time(self, start: float, end: float, name: Optional[str] = None) -> "Trace":
        """Packets with ``start <= ts < end`` (cloned, timestamps kept)."""
        chosen = [p.clone() for p in self.packets if start <= p.ts < end]
        return Trace(chosen, name or f"{self.name}[{start}:{end}]", check_sorted=False)

    def remap_addresses(self, fn: Callable[[int, int], tuple], name: Optional[str] = None) -> "Trace":
        """Apply ``fn(src, dst) -> (src', dst')`` to every packet (cloned)."""
        out = []
        for p in self.packets:
            q = p.clone()
            q.src, q.dst = fn(p.src, p.dst)
            out.append(q)
        return Trace(out, name or f"{self.name}+remap", check_sorted=False)

    def with_kind(self, kind: PacketKind, name: Optional[str] = None) -> "Trace":
        """Cloned trace with every packet's kind set to *kind*."""
        out = []
        for p in self.packets:
            q = p.clone()
            q.kind = kind
            out.append(q)
        return Trace(out, name or f"{self.name}+{kind.name.lower()}", check_sorted=False)

    @staticmethod
    def merge(traces: Iterable["Trace"], name: str = "merged") -> "Trace":
        """Time-sorted merge of several traces (cloned packets)."""
        packets: List[Packet] = []
        for trace in traces:
            packets.extend(p.clone() for p in trace.packets)
        packets.sort(key=lambda p: p.ts)
        return Trace(packets, name, check_sorted=False)

    # ------------------------------------------------------------------
    # persistence

    def save(self, path: str) -> None:
        """Write the trace as a compressed columnar npz file."""
        batch = self.batch
        cols = {
            name: getattr(batch, name).astype(_SAVE_DTYPES[name])
            for name in _COLUMNS
        }
        np.savez_compressed(path, name=np.array(self.name), **cols)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by :meth:`save` (batch-backed, lazy)."""
        data = np.load(path, allow_pickle=False)
        missing = [c for c in _COLUMNS if c not in data]
        if missing:
            raise ValueError(f"not a trace file, missing columns: {missing}")
        batch = PacketBatch(**{name: data[name] for name in _COLUMNS})
        name = str(data["name"]) if "name" in data else "trace"
        return cls(batch=batch, name=name, check_sorted=False)

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}: {len(self)} pkts, "
            f"{self.n_flows} flows, {self.duration:.3f}s)"
        )
