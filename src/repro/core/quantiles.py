"""Streaming per-flow latency quantiles (P² algorithm).

The paper evaluates per-flow mean and standard deviation, but operators of
latency-critical services alarm on *tails* ("a search query … needs to be
processed within a few 100ms", Section 1).  Mean/σ under-describe the
heavy-tailed delay distributions congested queues produce, so this module
adds streaming quantile estimation to the per-flow pipeline.

:class:`P2Quantile` implements the P² algorithm (Jain & Chlamtac, CACM
1985): it maintains five markers whose heights approximate the target
quantile using piecewise-parabolic interpolation, in O(1) memory per flow —
the same constant-state budget that makes RLI's per-flow tables feasible in
hardware.  :class:`FlowQuantileTable` keys estimators by flow.

Accuracy is validated against exact order statistics in the tests and the
tail-accuracy ablation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["P2Quantile", "FlowQuantileTable"]

Key = Tuple[int, int, int, int, int]


class P2Quantile:
    """O(1)-memory streaming estimator of one quantile (P² algorithm).

    The first :data:`WARMUP` samples are buffered and answered *exactly*;
    when the first sample past the buffer arrives, the five P² markers are
    initialized from the buffer's order statistics and the estimator
    switches to streaming updates.
    (Textbook P² seeds the markers with the first five raw samples, which
    on short or adversarially ordered streams can leave the middle marker
    stranded far from the target quantile — flows here are often only tens
    of packets, exactly that regime.)

    Each middle marker also keeps the nearest values seen just below and
    just above it, and a marker step never moves past them.  Textbook P²
    lets the parabolic step jump over every sample in a wide cell: one
    outlier held by the max marker (a single long queueing delay in a
    30-packet flow) pulls the step for the 0.75 marker past all the other
    samples, and the median marker follows it to rank ~0.86.  Memory stays
    O(1): at most ``WARMUP`` buffered floats, then five markers and their
    neighbour bounds.
    """

    WARMUP = 25

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments",
                 "_below", "_above", "count")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1): {q}")
        self.q = q
        self._heights: List[float] = []  # warm-up buffer, then marker heights
        self._positions: Optional[List[float]] = None  # None while warming up
        self._desired: Optional[List[float]] = None
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        # per marker, the nearest values known to lie below / above it
        self._below: List[float] = []
        self._above: List[float] = []
        self.count = 0

    # ------------------------------------------------------------------

    def add(self, value: float) -> None:
        """Fold one observation into the estimator."""
        self.count += 1
        heights = self._heights
        if self._positions is None:
            if len(heights) < self.WARMUP:
                heights.append(value)
                return
            # buffer full: seed the markers from it, then stream this value
            self._init_markers()
            heights = self._heights

        # find the cell k containing the new value, updating extremes
        if value < heights[0]:
            heights[0] = value
            k = 0
        elif value >= heights[4]:
            heights[4] = value
            k = 3
        else:
            k = 0
            while value >= heights[k + 1]:
                k += 1

        below, above = self._below, self._above
        for i in (1, 2, 3):
            if heights[i] < value < above[i]:
                above[i] = value
            elif below[i] < value < heights[i]:
                below[i] = value

        positions = self._positions
        for i in range(k + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]

        # adjust the three middle markers toward their desired positions
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                direction = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, direction)
                if not heights[i - 1] < candidate < heights[i + 1]:
                    candidate = self._linear(i, direction)
                # never step past the nearest value known beyond the marker;
                # after the step the old height bounds the side it left and the
                # next marker the side it faces
                old = heights[i]
                if direction > 0:
                    heights[i] = min(candidate, above[i])
                    below[i], above[i] = old, heights[i + 1]
                else:
                    heights[i] = max(candidate, below[i])
                    below[i], above[i] = heights[i - 1], old
                positions[i] += direction

    def _init_markers(self) -> None:
        """Seed the five markers from the warm-up buffer's order statistics."""
        ordered = sorted(self._heights)
        n = len(ordered)
        ranks = [1 + round(p * (n - 1)) for p in self._increments]
        # strictly increasing integer ranks (the P² invariants require it):
        # box each middle rank so marker i keeps i markers below and 4-i
        # above it, then one forward pass restores strict ascent in-box
        for i in (1, 2, 3):
            ranks[i] = min(max(ranks[i], i + 1), n - 4 + i)
        ranks[0], ranks[4] = 1, n
        for i in (1, 2, 3):
            ranks[i] = max(ranks[i], ranks[i - 1] + 1)
        self._heights = [ordered[r - 1] for r in ranks]
        self._below = [ordered[max(r - 2, 0)] for r in ranks]
        self._above = [ordered[min(r, n - 1)] for r in ranks]
        self._positions = [float(r) for r in ranks]
        self._desired = [1.0 + p * (n - 1) for p in self._increments]

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    # ------------------------------------------------------------------

    @property
    def estimate(self) -> float:
        """Current quantile estimate (exact while in the warm-up buffer)."""
        if self.count == 0:
            raise ValueError("no samples yet")
        heights = self._heights
        if self._positions is None:
            ordered = sorted(heights)
            index = max(0, min(len(ordered) - 1, math.ceil(self.q * len(ordered)) - 1))
            return ordered[index]
        return heights[2]

    def __repr__(self) -> str:
        est = f"{self.estimate:.4g}" if self.count else "n/a"
        return f"P2Quantile(q={self.q}, n={self.count}, est={est})"


class FlowQuantileTable:
    """Flow key → one P² estimator per configured quantile."""

    def __init__(self, quantiles: Sequence[float] = (0.5, 0.95, 0.99)):
        if not quantiles:
            raise ValueError("at least one quantile required")
        self.quantiles = tuple(quantiles)
        for q in self.quantiles:
            if not 0.0 < q < 1.0:
                raise ValueError(f"quantile must be in (0, 1): {q}")
        self._table: Dict[Key, List[P2Quantile]] = {}

    def add(self, key: Key, value: float) -> None:
        row = self._table.get(key)
        if row is None:
            row = [P2Quantile(q) for q in self.quantiles]
            self._table[key] = row
        for estimator in row:
            estimator.add(value)

    def get(self, key: Key) -> Optional[Dict[float, float]]:
        """Quantile → estimate for one flow (None if unseen)."""
        row = self._table.get(key)
        if row is None:
            return None
        return {e.q: e.estimate for e in row}

    def items(self) -> Iterator[Tuple[Key, Dict[float, float]]]:
        for key, row in self._table.items():
            yield key, {e.q: e.estimate for e in row}

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: Key) -> bool:
        return key in self._table
