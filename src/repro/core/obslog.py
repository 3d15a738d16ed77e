"""Array-backed observation logs: columns instead of per-event tuples.

A recorded receiver (``RliReceiver(observation_log=…)``) logs one event
per observed packet — ``(REF_OBS, stream, now, delay)`` or ``(REG_OBS,
stream, now, flow_key, truth)``.  At trace scale a single condition's log
is millions of events, held in memory until the job replays it.

:class:`ObservationColumns` is the one log representation: the event
stream as eight flat typed columns (tag, stream, time, value, and the five
flow-key fields) — ~49 bytes per event and no per-event objects.  Every ``float`` and ``int``
round-trips bit-exactly through the typed arrays, and replay
(:mod:`repro.core.replay`) reads the columns directly as numpy views.
The deployments' ``record_observations=True`` gives every receiver one.
"""

from __future__ import annotations

from array import array

from .receiver import REF_OBS, REG_OBS

__all__ = ["ObservationColumns"]

_NO_KEY = (0, 0, 0, 0, 0)  # key columns for reference rows (never read back)


class ObservationColumns:
    """A columnar observation log.

    The scalar receiver path records through :meth:`append`, the columnar
    one through :meth:`extend_batch`; replay reads :meth:`arrays`.
    """

    __slots__ = ("_tags", "_streams", "_times", "_values", "_keys")

    def __init__(self, events=()):
        self._tags = array("b")
        self._streams = array("q")
        self._times = array("d")
        self._values = array("d")
        self._keys = tuple(array("q") for _ in range(5))
        for event in events:
            self.append(event)

    # ------------------------------------------------------------------

    def append(self, event: tuple) -> None:
        tag = event[0]
        if tag == REF_OBS:
            _, stream, now, value = event
            key = _NO_KEY
        elif tag == REG_OBS:
            _, stream, now, key, value = event
        else:
            raise ValueError(f"unknown observation event tag: {tag!r}")
        self._tags.append(tag)
        self._streams.append(stream)
        self._times.append(now)
        self._values.append(value)
        for column, field in zip(self._keys, key):
            column.append(field)

    def extend_batch(self, tags, streams, times, values, keys) -> None:
        """Bulk-append events from parallel numpy columns.

        ``keys`` is a 5-tuple of int64 columns (zeros on reference rows,
        mirroring ``_NO_KEY``).  Every value round-trips bit-exactly
        through the typed arrays, so a bulk append leaves the log
        byte-identical to the equivalent sequence of :meth:`append` calls
        — the columnar receiver fast path records through this.  Columns
        of unequal length raise :class:`ValueError` before anything is
        appended, so a bad call cannot misalign the log.
        """
        import numpy as np

        lengths = {len(tags), len(streams), len(times), len(values)}
        lengths.update(len(field) for field in keys)
        if len(keys) != 5 or len(lengths) != 1:
            raise ValueError(
                f"extend_batch needs eight equal-length columns (tag, "
                f"stream, time, value, five key fields): got lengths "
                f"{[len(c) for c in (tags, streams, times, values, *keys)]}")
        self._tags.frombytes(np.ascontiguousarray(tags, dtype=np.int8).tobytes())
        self._streams.frombytes(np.ascontiguousarray(streams, dtype=np.int64).tobytes())
        self._times.frombytes(np.ascontiguousarray(times, dtype=np.float64).tobytes())
        self._values.frombytes(np.ascontiguousarray(values, dtype=np.float64).tobytes())
        for column, field in zip(self._keys, keys):
            column.frombytes(np.ascontiguousarray(field, dtype=np.int64).tobytes())

    def __len__(self) -> int:
        return len(self._tags)

    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Payload bytes held by the columns (itemsize × length each)."""
        columns = (self._tags, self._streams, self._times, self._values, *self._keys)
        return sum(len(c) * c.itemsize for c in columns)

    def arrays(self) -> dict:
        """Zero-copy numpy views of the columns (what replay reads)."""
        import numpy as np

        return {
            "tag": np.frombuffer(self._tags, dtype=np.int8),
            "stream": np.frombuffer(self._streams, dtype=np.int64),
            "time": np.frombuffer(self._times, dtype=np.float64),
            "value": np.frombuffer(self._values, dtype=np.float64),
            "key": tuple(
                np.frombuffer(column, dtype=np.int64) for column in self._keys
            ),
        }

    # typed arrays pickle compactly by value; nothing special needed, but
    # keep the state explicit so __slots__ classes stay pickle-stable
    def __getstate__(self):
        return (self._tags, self._streams, self._times, self._values, self._keys)

    def __setstate__(self, state):
        self._tags, self._streams, self._times, self._values, self._keys = state

    def __repr__(self) -> str:
        return f"ObservationColumns(events={len(self)}, bytes={self.nbytes})"
