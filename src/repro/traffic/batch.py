"""Columnar (structure-of-arrays) packet batches.

A :class:`PacketBatch` holds one parallel numpy array per header/trace field
— src, dst, sport, dport, proto, size, ts, kind — instead of one Python
:class:`~repro.net.packet.Packet` object per packet.  At the 10^5–10^6
packets of the paper's headline experiments, the per-object representation
costs more interpreter time in constructors and attribute loads than the
actual queueing math; the columnar form is what the line-topology fast
path (:meth:`repro.sim.chain.SwitchChain.run_batch`, which the two-switch
pipeline runs too) consumes directly, with *lazy* materialization back to
``Packet`` objects for the per-object reference path.

A batch carries exactly the state a saved trace carries (the ``.npz``
column set): measurement-only fields (``sender_id``, ``ref_timestamp``,
``tos``) and simulation bookkeeping (``tap_time``, ``dropped``, ``path``)
are *not* represented, so reference packets — which are few and
inherently stateful — stay Python objects even on the fast path.
:meth:`to_packets` materializes the represented columns and resets the
rest, exactly like ``Trace.save`` / ``Trace.load`` always has.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..net.packet import Packet, PacketKind

__all__ = ["PacketBatch", "BATCH_COLUMNS", "pack_flow_keys"]

BATCH_COLUMNS = ("src", "dst", "sport", "dport", "proto", "size", "ts", "kind")


def pack_flow_keys(src, dst, sport, dport, proto):
    """The 5-tuple flow identity packed into two ``uint64`` columns.

    ``a`` packs (src, dst), ``b`` packs (sport, dport, proto); the pair
    (a, b) is unique per flow.  Used for vectorized grouping — the tuple
    keys themselves are only materialized once per flow.
    """
    a = (src.astype(np.uint64) << np.uint64(32)) | dst.astype(np.uint64)
    b = (
        (sport.astype(np.uint64) << np.uint64(24))
        | (dport.astype(np.uint64) << np.uint64(8))
        | proto.astype(np.uint64)
    )
    return a, b


class PacketBatch:
    """Parallel per-field arrays describing a sequence of packets.

    Integer columns are ``int64`` (wide enough for packed flow keys and
    fearless arithmetic), ``ts`` is ``float64``.  Instances are
    immutable-by-convention, like :class:`~repro.traffic.trace.Trace`:
    transformations return new batches sharing (sliced views of) the
    underlying arrays where possible.
    """

    __slots__ = BATCH_COLUMNS

    def __init__(self, src, dst, sport, dport, proto, size, ts, kind):
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)
        self.sport = np.ascontiguousarray(sport, dtype=np.int64)
        self.dport = np.ascontiguousarray(dport, dtype=np.int64)
        self.proto = np.ascontiguousarray(proto, dtype=np.int64)
        self.size = np.ascontiguousarray(size, dtype=np.int64)
        self.ts = np.ascontiguousarray(ts, dtype=np.float64)
        self.kind = np.ascontiguousarray(kind, dtype=np.int64)
        n = len(self.ts)
        for name in BATCH_COLUMNS:
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"column {name!r} has {len(getattr(self, name))} entries, "
                    f"expected {n}"
                )

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def empty(cls) -> "PacketBatch":
        zi = np.empty(0, dtype=np.int64)
        return cls(zi, zi, zi, zi, zi, zi, np.empty(0), zi)

    @classmethod
    def coerce(cls, obj) -> "PacketBatch":
        """The batch behind *obj*: a PacketBatch itself, or a Trace's."""
        if isinstance(obj, PacketBatch):
            return obj
        from .trace import Trace

        if isinstance(obj, Trace):
            return obj.batch
        raise TypeError(f"expected a PacketBatch or a Trace, got {type(obj).__name__}")

    # ------------------------------------------------------------------
    # materialization

    def to_packets(self) -> List[Packet]:
        """Materialize fresh :class:`Packet` objects (bookkeeping reset).

        Field values are identical to the per-object construction the
        columnar producers replaced; only the representation is lazy.
        """
        kinds = {int(k): PacketKind(int(k)) for k in np.unique(self.kind)} if len(self) else {}
        return [
            Packet(src=s, dst=d, sport=sp, dport=dp, proto=pr, size=sz, ts=t,
                   kind=kinds[k])
            for s, d, sp, dp, pr, sz, t, k in zip(
                self.src.tolist(), self.dst.tolist(), self.sport.tolist(),
                self.dport.tolist(), self.proto.tolist(), self.size.tolist(),
                self.ts.tolist(), self.kind.tolist(),
            )
        ]

    def packet(self, i: int) -> Packet:
        """Materialize the single packet at index *i*."""
        return Packet(
            src=int(self.src[i]), dst=int(self.dst[i]), sport=int(self.sport[i]),
            dport=int(self.dport[i]), proto=int(self.proto[i]),
            size=int(self.size[i]), ts=float(self.ts[i]),
            kind=PacketKind(int(self.kind[i])),
        )

    def __iter__(self):
        return iter(self.to_packets())

    # ------------------------------------------------------------------
    # transformations

    def take(self, indices) -> "PacketBatch":
        """A new batch holding rows *indices* (numpy fancy-index order)."""
        return PacketBatch(**{name: getattr(self, name)[indices] for name in BATCH_COLUMNS})

    def replace(self, **columns) -> "PacketBatch":
        """A new batch with the given columns swapped out."""
        unknown = set(columns) - set(BATCH_COLUMNS)
        if unknown:
            raise ValueError(f"unknown batch columns: {sorted(unknown)}")
        cols = {name: columns.get(name, getattr(self, name)) for name in BATCH_COLUMNS}
        return PacketBatch(**cols)

    def with_kind(self, kind: PacketKind) -> "PacketBatch":
        """A new batch with every packet's kind set to *kind*."""
        return self.replace(kind=np.full(len(self), int(kind), dtype=np.int64))

    @staticmethod
    def concat(batches: Iterable["PacketBatch"]) -> "PacketBatch":
        """Row-wise concatenation, in the given order."""
        batches = list(batches)
        if not batches:
            return PacketBatch.empty()
        return PacketBatch(**{
            name: np.concatenate([getattr(b, name) for b in batches])
            for name in BATCH_COLUMNS
        })

    # ------------------------------------------------------------------
    # summary statistics (bit-identical to the per-object computations)

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def duration(self) -> float:
        """Span from 0 to the last packet's timestamp (0 if empty)."""
        return float(self.ts[-1]) if len(self.ts) else 0.0

    @property
    def total_bytes(self) -> int:
        return int(self.size.sum())

    @property
    def n_flows(self) -> int:
        if not len(self):
            return 0
        a, b = pack_flow_keys(self.src, self.dst, self.sport, self.dport,
                              self.proto)
        return int(np.unique(np.stack([a, b], axis=1), axis=0).shape[0])

    def is_time_sorted(self) -> bool:
        return bool(np.all(self.ts[1:] >= self.ts[:-1]))

    def flow_key(self, i: int):
        """The 5-tuple flow key of row *i* (plain Python ints)."""
        return (int(self.src[i]), int(self.dst[i]), int(self.sport[i]),
                int(self.dport[i]), int(self.proto[i]))

    def __repr__(self) -> str:
        return f"PacketBatch({len(self)} pkts, {self.duration:.3f}s)"
