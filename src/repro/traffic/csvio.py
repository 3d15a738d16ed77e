"""CSV trace interchange.

The binary npz format (:meth:`repro.traffic.trace.Trace.save`) is compact
but opaque; CSV is the lingua franca for importing real captures (e.g. a
``tshark -T fields`` export) or eyeballing synthetic ones.  Columns:

    ts,src,dst,sport,dport,proto,size[,kind]

``src``/``dst`` are dotted quads; ``kind`` is optional (0=regular, 1=
reference, 2=cross; defaults to regular).  Rows must be time-sorted, as any
capture is.  Both directions work on the trace's columns: :func:`load_csv`
parses and validates each row into column lists and builds one
:class:`~repro.traffic.batch.PacketBatch`; :func:`save_csv` writes rows
straight from the batch.
"""

from __future__ import annotations

import csv
from typing import Dict, List, Optional

from ..net.addressing import int_to_ip, ip_to_int
from ..net.packet import PacketKind
from .batch import PacketBatch
from .trace import Trace

__all__ = ["save_csv", "load_csv"]

_REQUIRED = ("ts", "src", "dst", "sport", "dport", "proto", "size")


def save_csv(trace: Trace, path: str, include_kind: bool = True) -> None:
    """Write *trace* as a CSV file with a header row."""
    fields = list(_REQUIRED) + (["kind"] if include_kind else [])
    batch = trace.batch
    columns = [getattr(batch, name).tolist() for name in fields]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for ts, src, dst, *rest in zip(*columns):
            writer.writerow([f"{ts:.9f}", int_to_ip(src), int_to_ip(dst), *rest])


def load_csv(path: str, name: Optional[str] = None) -> Trace:
    """Read a CSV trace written by :func:`save_csv` (or any conformant
    export).  Raises ValueError on missing columns, a short or malformed
    row, or unsorted rows."""
    columns: Dict[str, List] = {c: [] for c in _REQUIRED + ("kind",)}
    with open(path, newline="") as handle:
        # a short row reads its missing fields as empty, which fail below
        reader = csv.DictReader(handle, restval="")
        missing = [c for c in _REQUIRED if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"CSV trace missing columns: {missing}")
        last_ts = float("-inf")
        for line_no, row in enumerate(reader, start=2):
            try:
                values = (
                    float(row["ts"]),
                    ip_to_int(row["src"]),
                    ip_to_int(row["dst"]),
                    int(row["sport"]),
                    int(row["dport"]),
                    int(row["proto"]),
                    int(row["size"]),
                    int(PacketKind(int(row["kind"])) if row.get("kind")
                        else PacketKind.REGULAR),
                )
            except (KeyError, ValueError) as exc:
                empty = [c for c in _REQUIRED if not row[c]]
                reason = f"no value for {', '.join(empty)}" if empty else exc
                raise ValueError(f"bad CSV trace row at line {line_no}: {reason}") from exc
            if values[0] < last_ts:
                raise ValueError(f"CSV trace not time-sorted at line {line_no}")
            last_ts = values[0]
            for column, value in zip(columns.values(), values):
                column.append(value)
    return Trace(PacketBatch(**columns), name=name or path, check_sorted=False)
